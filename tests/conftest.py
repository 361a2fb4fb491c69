import itertools

import pytest

from robusta import Graph, enumerate_removable_sets, erdos_renyi


def brute_force_decomposition_value(G: Graph) -> int:
    """max over non-empty U of ceil(e(G[U]) / |U|), by full enumeration."""
    best = 0
    for k in range(1, G.n + 1):
        for U in itertools.combinations(range(G.n), k):
            e = G.induced_edge_count(U)
            best = max(best, -(-e // k))
    return best


def removable_edge_sets(G: Graph, *args, **kw):
    """enumerate_removable_sets(G, ...) with each edge-bit int decoded to
    the frozenset of its edges of G.sorted_edges()."""
    edges = G.sorted_edges()
    for bits in enumerate_removable_sets(G, *args, **kw):
        yield frozenset(e for i, e in enumerate(edges) if bits >> i & 1)


def random_corpus(count, sizes, ps, seed0=0):
    """Deterministic list of (seed, graph) pairs cycling sizes and densities."""
    out = []
    for i in range(count):
        n = sizes[i % len(sizes)]
        p = ps[i % len(ps)]
        out.append((seed0 + i, erdos_renyi(n, p, seed0 + i)))
    return out


@pytest.fixture(scope="session")
def zoo():
    from robusta import complete, cycle, path, star, complete_multipartite
    return {
        "K3": complete(3), "K4": complete(4), "K5": complete(5),
        "K7": complete(7), "C4": cycle(4), "C5": cycle(5), "C6": cycle(6),
        "P3": path(3), "P4": path(4), "star9": star(9),
        "K33": complete_multipartite([3, 3]),
        "K222": complete_multipartite([2, 2, 2]),
    }
