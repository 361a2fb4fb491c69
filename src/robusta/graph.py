"""Immutable simple undirected graphs and every construction the solvers use.

Vertices are always the dense integers 0..n-1; anything coming from a file
keeps its original labels only in the I/O mapping (see graphio).  Graph
objects never mutate after construction, so they are safe to share between
concurrent searches.

Seeded generators draw from ``random.Random`` (Mersenne Twister).  All random
bits go through ``random()`` / ``getrandbits`` only, which CPython keeps
stable across versions and platforms; tests pin a few generated edge lists.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from typing import Iterable, Sequence


class Graph:
    """Simple undirected graph on vertices 0..n-1 with a frozen edge set."""

    __slots__ = ("n", "edges", "adj")

    def __init__(self, n: int, edges: Iterable[tuple[int, int]] = ()):
        if n < 0:
            raise ValueError("vertex count must be non-negative")
        norm = set()
        for u, v in edges:
            if u == v:
                raise ValueError(f"loop at vertex {u} is not allowed")
            if not (0 <= u < n and 0 <= v < n):
                raise ValueError(f"edge ({u},{v}) outside vertex range 0..{n - 1}")
            norm.add((u, v) if u < v else (v, u))
        self.n = n
        self.edges = frozenset(norm)
        lists: list[list[int]] = [[] for _ in range(n)]
        for u, v in norm:
            lists[u].append(v)
            lists[v].append(u)
        self.adj = tuple(tuple(sorted(l)) for l in lists)

    # -- basic queries ----------------------------------------------------

    @property
    def m(self) -> int:
        return len(self.edges)

    def sorted_edges(self) -> list[tuple[int, int]]:
        return sorted(self.edges)

    def degree(self, v: int) -> int:
        return len(self.adj[v])

    def has_edge(self, u: int, v: int) -> bool:
        return ((u, v) if u < v else (v, u)) in self.edges

    def max_degree(self) -> int:
        return max((len(a) for a in self.adj), default=0)

    def min_degree(self) -> int:
        return min((len(a) for a in self.adj), default=0)

    def induced_edge_count(self, vertices: Iterable[int]) -> int:
        vs = set(vertices)
        return sum(1 for u, v in self.edges if u in vs and v in vs)

    def induced_subgraph(self, vertices: Sequence[int]) -> tuple["Graph", dict[int, int]]:
        """Induced subgraph relabeled to 0..k-1; returns (graph, old->new map)."""
        order = sorted(set(vertices))
        remap = {v: i for i, v in enumerate(order)}
        edges = [(remap[u], remap[v]) for u, v in self.edges if u in remap and v in remap]
        return Graph(len(order), edges), remap

    def components(self) -> list[list[int]]:
        seen = [False] * self.n
        comps = []
        for s in range(self.n):
            if seen[s]:
                continue
            stack, comp = [s], []
            seen[s] = True
            while stack:
                u = stack.pop()
                comp.append(u)
                for w in self.adj[u]:
                    if not seen[w]:
                        seen[w] = True
                        stack.append(w)
            comps.append(sorted(comp))
        return comps

    def is_connected(self) -> bool:
        return self.n <= 1 or len(self.components()) == 1

    def is_bipartite(self) -> bool:
        side = [-1] * self.n
        for s in range(self.n):
            if side[s] >= 0:
                continue
            side[s] = 0
            stack = [s]
            while stack:
                u = stack.pop()
                for w in self.adj[u]:
                    if side[w] < 0:
                        side[w] = 1 - side[u]
                        stack.append(w)
                    elif side[w] == side[u]:
                        return False
        return True

    def complement(self) -> "Graph":
        edges = [(u, v) for u in range(self.n) for v in range(u + 1, self.n)
                 if (u, v) not in self.edges]
        return Graph(self.n, edges)

    def adjacency_masks(self) -> list[int]:
        """Per-vertex neighbor bitmasks, the working format of the exact solvers."""
        masks = [0] * self.n
        for u, v in self.edges:
            masks[u] |= 1 << v
            masks[v] |= 1 << u
        return masks

    # -- dunder -----------------------------------------------------------

    def __eq__(self, other):
        return isinstance(other, Graph) and self.n == other.n and self.edges == other.edges

    def __hash__(self):
        return hash((self.n, self.edges))

    def __repr__(self):
        return f"Graph(n={self.n}, m={self.m})"


def structural_queries(G: Graph) -> dict:
    """Bundle of the standard structural values used all over the reports."""
    return {
        "max_degree": G.max_degree(),
        "min_degree": G.min_degree(),
        "components": len(G.components()),
        "is_bipartite": G.is_bipartite(),
        "is_connected": G.is_connected(),
        "complement": G.complement(),
    }


@dataclass(frozen=True)
class VertexPartition:
    """Disjoint vertex classes covering 0..n-1, with no empty class."""

    classes: tuple[tuple[int, ...], ...]

    @property
    def k(self) -> int:
        return len(self.classes)

    def validate(self, n: int) -> None:
        seen: set[int] = set()
        for cls in self.classes:
            if not cls:
                raise ValueError("empty class in partition")
            for v in cls:
                if v in seen:
                    raise ValueError(f"vertex {v} in two classes")
                seen.add(v)
        if seen != set(range(n)):
            raise ValueError("partition does not cover the vertex set")


# -- binary operations -----------------------------------------------------


def join(G: Graph, H: Graph) -> Graph:
    """Disjoint copies of G and H plus all cross edges."""
    edges = list(G.edges)
    edges += [(u + G.n, v + G.n) for u, v in H.edges]
    edges += [(u, w + G.n) for u in range(G.n) for w in range(H.n)]
    return Graph(G.n + H.n, edges)


def union_graphs(graphs: Sequence[Graph]) -> Graph:
    """Edge-set union of graphs sharing one vertex set; duplicates collapse."""
    if not graphs:
        raise ValueError("need at least one graph")
    n = graphs[0].n
    for g in graphs[1:]:
        if g.n != n:
            raise ValueError("union requires equal vertex counts")
    return Graph(n, itertools.chain.from_iterable(g.edges for g in graphs))


def disjoint_union(graphs: Sequence[Graph]) -> Graph:
    edges: list[tuple[int, int]] = []
    offset = 0
    for g in graphs:
        edges += [(u + offset, v + offset) for u, v in g.edges]
        offset += g.n
    return Graph(offset, edges)


def lex_product(G: Graph, H: Graph) -> Graph:
    """Lexicographic (substitution) product: H copied into each vertex of G."""
    def idx(g, h):
        return g * H.n + h

    edges = []
    for g1, g2 in G.edges:
        edges += [(idx(g1, h1), idx(g2, h2))
                  for h1 in range(H.n) for h2 in range(H.n)]
    for g in range(G.n):
        edges += [(idx(g, h1), idx(g, h2)) for h1, h2 in H.edges]
    return Graph(G.n * H.n, edges)


def line_graph(G: Graph) -> tuple[Graph, list[tuple[int, int]]]:
    """Line graph plus the edge list indexing its vertices.

    Vertex i of the result is base edge ``order[i]``; two vertices are
    adjacent iff the edges share an endpoint.
    """
    order = G.sorted_edges()
    edges = [(i, j) for i in range(len(order)) for j in range(i + 1, len(order))
             if set(order[i]) & set(order[j])]
    return Graph(len(order), edges), order


def blow_up(G: Graph) -> tuple[Graph, list[tuple[int, ...]]]:
    """Hardness gadget: each vertex becomes an independent (n+1)-set, each
    edge a complete bipartite graph between the two sets.

    Returns the blown-up graph of order n(n+1) and the v -> S_v mapping.
    """
    if G.n < 1:
        raise ValueError("blow_up needs at least one vertex")
    size = G.n + 1
    sets = [tuple(range(v * size, (v + 1) * size)) for v in range(G.n)]
    edges = []
    for u, v in G.edges:
        edges += [(a, b) for a in sets[u] for b in sets[v]]
    return Graph(G.n * size, edges), sets


# -- named constructions ----------------------------------------------------


def complete(n: int) -> Graph:
    return Graph(n, itertools.combinations(range(n), 2))


def cycle(n: int) -> Graph:
    if n < 3:
        raise ValueError("cycle needs at least 3 vertices")
    return Graph(n, [(i, (i + 1) % n) for i in range(n)])


def path(n: int) -> Graph:
    if n < 1:
        raise ValueError("path needs at least 1 vertex")
    return Graph(n, [(i, i + 1) for i in range(n - 1)])


def star(m: int) -> Graph:
    """K_{1,m}: center 0 with m leaves."""
    if m < 0:
        raise ValueError("star needs a non-negative leaf count")
    return Graph(m + 1, [(0, i) for i in range(1, m + 1)])


def empty_graph(n: int) -> Graph:
    return Graph(n)


def complete_multipartite(sizes: Sequence[int]) -> Graph:
    if not sizes:
        raise ValueError("size list must be non-empty")
    if any(s <= 0 for s in sizes):
        raise ValueError("part sizes must be positive")
    bounds = [0]
    for s in sizes:
        bounds.append(bounds[-1] + s)
    part = []
    for i, s in enumerate(sizes):
        part += [i] * s
    n = bounds[-1]
    edges = [(u, v) for u in range(n) for v in range(u + 1, n) if part[u] != part[v]]
    return Graph(n, edges)


def walecki_cycles(k: int) -> list[Graph]:
    """k edge-disjoint Hamiltonian cycles of K_{2k+1} (zig-zag rotation).

    Their union is the complete graph; each cycle lives on the shared vertex
    set 0..2k, with 2k playing the hub role.
    """
    if k < 1:
        raise ValueError("k must be positive")
    n = 2 * k + 1
    hub = 2 * k
    cycles = []
    for j in range(k):
        seq = [hub, j % (2 * k)]
        for i in range(1, k + 1):
            seq.append((j + i) % (2 * k))
            if i < k:
                seq.append((j - i) % (2 * k))
        edges = [(seq[i], seq[i + 1]) for i in range(len(seq) - 1)]
        edges.append((seq[-1], hub))
        cycles.append(Graph(n, edges))
    return cycles


def arboricity_gadget(k: int) -> Graph:
    """k parts of 3k vertices: complete bipartite between parts, k disjoint
    triangles inside each part.  Order 3k^2."""
    if k < 1:
        raise ValueError("k must be positive")
    part_size = 3 * k
    parts = [list(range(i * part_size, (i + 1) * part_size)) for i in range(k)]
    edges = []
    for i in range(k):
        for j in range(i + 1, k):
            edges += [(a, b) for a in parts[i] for b in parts[j]]
        for t in range(k):
            a, b, c = parts[i][3 * t:3 * t + 3]
            edges += [(a, b), (b, c), (a, c)]
    return Graph(k * part_size, edges)


DEGENERACY_GADGET_ORDER_CAP = 100_000


def degeneracy_gadget(k: int) -> Graph:
    """Layered gadget with degeneracy exactly 2k.

    V0 induces K_{2k}; each later layer is independent, and every 2k-subset of
    the earlier vertices gets exactly k+1 common neighbors in the next layer.
    Sizes explode combinatorially, hence the order cap.
    """
    if k < 1:
        raise ValueError("k must be positive")
    layers = -(-(2 * k + 1) // 3)  # ceil((2k+1)/3)
    import math

    total = 2 * k
    layer_sizes = []
    for _ in range(layers):
        size = (k + 1) * math.comb(total, 2 * k)
        layer_sizes.append(size)
        total += size
        if total > DEGENERACY_GADGET_ORDER_CAP:
            raise ValueError(f"degeneracy gadget for k={k} exceeds order cap "
                             f"{DEGENERACY_GADGET_ORDER_CAP}")

    base = list(range(2 * k))
    edges = list(itertools.combinations(base, 2))
    earlier = list(base)
    next_id = 2 * k
    for size in layer_sizes:
        new_layer = []
        for subset in itertools.combinations(earlier, 2 * k):
            for _ in range(k + 1):
                v = next_id
                next_id += 1
                new_layer.append(v)
                edges += [(u, v) for u in subset]
        earlier += new_layer
    return Graph(next_id, edges)


# -- seeded random generators -----------------------------------------------


def _rand_below(rng: random.Random, n: int) -> int:
    # rejection sampling on getrandbits keeps streams stable across versions
    if n <= 0:
        raise ValueError("need a positive bound")
    k = n.bit_length()
    while True:
        r = rng.getrandbits(k)
        if r < n:
            return r


def erdos_renyi(n: int, p: float, seed: int) -> Graph:
    _check_p(p)
    rng = random.Random(seed)
    edges = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p]
    return Graph(n, edges)


def random_bipartite(a: int, b: int, p: float, seed: int) -> Graph:
    _check_p(p)
    rng = random.Random(seed)
    edges = [(u, a + w) for u in range(a) for w in range(b) if rng.random() < p]
    return Graph(a + b, edges)


def random_multipartite(m: int, r: int, p: float, seed: int) -> Graph:
    """r parts of size m, cross-part pairs joined independently with prob. p."""
    _check_p(p)
    if m <= 0 or r <= 0:
        raise ValueError("part size and count must be positive")
    rng = random.Random(seed)
    part = [v // m for v in range(m * r)]
    n = m * r
    edges = [(u, v) for u in range(n) for v in range(u + 1, n)
             if part[u] != part[v] and rng.random() < p]
    return Graph(n, edges)


def random_max_degree(n: int, max_deg: int, seed: int) -> Graph:
    """Random graph built by edge insertions that respect a degree cap."""
    if max_deg < 0:
        raise ValueError("degree cap must be non-negative")
    rng = random.Random(seed)
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    # Fisher-Yates on the candidate pair list
    for i in range(len(pairs) - 1, 0, -1):
        j = _rand_below(rng, i + 1)
        pairs[i], pairs[j] = pairs[j], pairs[i]
    deg = [0] * n
    edges = []
    for u, v in pairs:
        if deg[u] < max_deg and deg[v] < max_deg and rng.random() < 0.7:
            edges.append((u, v))
            deg[u] += 1
            deg[v] += 1
    return Graph(n, edges)


def maximal_outerplanar(n: int, seed: int) -> Graph:
    """Random triangulation of an n-gon (2-degenerate, 2n-3 edges)."""
    if n < 3:
        raise ValueError("needs at least 3 vertices")
    rng = random.Random(seed)
    edges = [(i, (i + 1) % n) for i in range(n)]

    def split(i, j):
        # triangulate the polygon arc i..j (indices along the ring)
        if j - i < 2:
            return
        kk = i + 1 + _rand_below(rng, j - i - 1)
        if kk - i > 1:
            edges.append((i, kk))
        if j - kk > 1:
            edges.append((kk, j))
        split(i, kk)
        split(kk, j)

    split(0, n - 1)
    return Graph(n, edges)


def maximal_planar(n: int, seed: int) -> Graph:
    """Random stacked triangulation: insert each vertex into a random face."""
    if n < 3:
        raise ValueError("needs at least 3 vertices")
    rng = random.Random(seed)
    edges = [(0, 1), (1, 2), (0, 2)]
    faces = [(0, 1, 2)]
    for v in range(3, n):
        fi = _rand_below(rng, len(faces))
        a, b, c = faces.pop(fi)
        edges += [(a, v), (b, v), (c, v)]
        faces += [(a, b, v), (a, c, v), (b, c, v)]
    return Graph(n, edges)


def _check_p(p: float) -> None:
    if not (0.0 <= p <= 1.0):
        raise ValueError("probability must lie in [0, 1]")


# kind -> (the parameters it expects, a trailing "..." meaning one or more;
#          the builder; whether it takes a seed).  A parameter named p is a
#          number, every other one an integer.
_GENERATORS = {
    "complete": ("n", complete, False),
    "cycle": ("n", cycle, False),
    "path": ("n", path, False),
    "star": ("m", star, False),
    "empty": ("n", empty_graph, False),
    "complete_multipartite": ("s1,s2,...", lambda *sizes: complete_multipartite(sizes), False),
    "random_multipartite": ("m,r,p", random_multipartite, True),
    "erdos_renyi": ("n,p", erdos_renyi, True),
    "random_bipartite": ("a,b,p", random_bipartite, True),
    "maximal_outerplanar": ("n", maximal_outerplanar, True),
    "maximal_planar": ("n", maximal_planar, True),
}


def _generator_arg(kind: str, name: str, value):
    convert, expected = (float, "a number") if name == "p" else (int, "an integer")
    try:
        return convert(value)
    except (TypeError, ValueError):
        raise ValueError(f"generator {kind!r} parameter {name}: "
                         f"expected {expected}, got {value!r}") from None


def generate(kind: str, params: Sequence, seed: int | None = None) -> Graph:
    """Named generator dispatch; seeded kinds are deterministic in (params, seed).
    A parameter count other than the kind expects, or a parameter that is not
    a number, raises ValueError."""
    key = kind.replace("-", "_")
    if key not in _GENERATORS:
        raise ValueError(f"unknown generator kind {kind!r}")
    names, build, seeded = _GENERATORS[key]
    params = list(params)
    if not params or (not names.endswith("...") and len(params) != names.count(",") + 1):
        raise ValueError(f"generator {kind!r} expects parameters {names}; "
                         f"got {len(params)}")
    labels = ([f"s{i + 1}" for i in range(len(params))] if names.endswith("...")
              else names.split(","))
    args = [_generator_arg(kind, name, v) for name, v in zip(labels, params)]
    if seeded:
        if seed is None:
            raise ValueError("this generator needs an explicit seed")
        args.append(seed)
    return build(*args)
