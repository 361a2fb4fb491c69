import dataclasses
import hashlib
import itertools
import json
import random

import pytest

from robusta import (Graph, SSelection, apply_selection, complete, cycle,
                     disjoint_union, enumerate_removable_sets, erdos_renyi,
                     is_quasi_unicyclic, is_removable, path,
                     selection_digraph, selection_from_edge_set)
from robusta.exact import canonical_form
from robusta.graph import star
from robusta.poly import min_outdegree_orientation, quasi_unicyclic_edge_decomposition
from robusta.selection import RemovableSet, UnionFind, maximal_extension, orient_with_cap

from conftest import removable_edge_sets


def test_quasi_unicyclic_basics():
    assert is_quasi_unicyclic(cycle(4))
    assert not is_quasi_unicyclic(complete(4))
    assert is_quasi_unicyclic(disjoint_union([path(3), complete(3)]))
    assert is_quasi_unicyclic(Graph(3))


def exhaustive_orientation_exists(G, F, s):
    """Oracle: try every orientation of F."""
    F = sorted(F)
    for heads in itertools.product((0, 1), repeat=len(F)):
        out = [0] * G.n
        for (u, v), h in zip(F, heads):
            out[u if h else v] += 1
        if all(d <= s for d in out):
            return True
    return False


def test_is_removable_matches_exhaustive_orientations():
    for seed in range(25):
        G = erdos_renyi(6, 0.6, seed)
        edges = G.sorted_edges()
        if len(edges) > 10:
            edges = edges[:10]
        for r in range(0, len(edges) + 1, 2):
            F = edges[:r]
            for s in (1, 2):
                got, witness = is_removable(F, G, s)
                assert got == exhaustive_orientation_exists(G, F, s), (seed, r, s)
                if got:
                    out = [0] * G.n
                    for e in F:
                        tail = e[0] if witness[e] == e[1] else e[1]
                        out[tail] += 1
                    assert max(out, default=0) <= s


def _removable_state(F):
    """F's edges and the whole orientation; `witness` is left out, since
    can_add and a rejected push may write it."""
    return (list(F.edges), list(F.tails), list(F.heads), list(F.outdeg),
            [set(arcs) for arcs in F.out_arcs])


def _can_add_each(F, edges):
    """F.can_add for every edge, checking that asking changes nothing."""
    answers = []
    for e in edges:
        before = _removable_state(F)
        answers.append(F.can_add(e))
        assert _removable_state(F) == before, e
    return answers


def test_removable_set_matches_exhaustive_orientations():
    """Random push/pop/can_add walks; every answer is checked against the
    brute force, can_add must leave F and its orientation untouched, and
    pop() must restore every can_add answer."""
    rng = random.Random(2024)
    cases = [(erdos_renyi(6, 0.6, seed), s) for seed in range(8) for s in (0, 1, 2, 3)]
    # with at most 10 edges on 6 vertices every s = 2 push succeeds; in K6,
    # 13 edges exceed 2 * 6 and the path-reversal search must fail
    cases.append((complete(6), 2))
    for G, s in cases:
        edges = G.sorted_edges()
        if G.m <= 12:
            edges = edges[:10]
        memo = {}

        def removable(F):
            key = frozenset(F)
            if key not in memo:
                memo[key] = exhaustive_orientation_exists(G, F, s)
            return memo[key]

        F = RemovableSet(G.n, s)
        snapshots = []
        for _ in range(40):
            outside = [e for e in edges if e not in F.edges]
            answers = _can_add_each(F, outside)
            assert answers == [removable(F.edges + [e]) for e in outside], (G.m, s)
            if F.edges and (not outside or rng.random() < 0.25):
                before, prior = snapshots.pop()
                F.pop()
                assert F.edges == prior
                assert _can_add_each(F, [e for e in edges if e not in F.edges]) == before
                continue
            e = rng.choice(outside)
            prior = list(F.edges)
            if F.push(e):
                assert removable(prior + [e])
                snapshots.append((answers, prior))
            else:
                assert not removable(prior + [e])
                assert F.edges == prior
                assert _can_add_each(F, outside) == answers


def _two_dense_blocks(k):
    """Two disjoint K_k on 0..k-1 and k..2k-1: k(k-1)/2 = s * k edges each
    at s = (k - 1) / 2, so each block is removable with no slack left."""
    return [e for base in (0, k) for e in itertools.combinations(range(base, base + k), 2)]


def test_rejected_push_leaves_the_state_untouched():
    """At s = 1 and s = 2 a rejected push writes nothing but the witness,
    the reached set; an accepted push followed by pop restores the state."""
    for s, k in [(1, 3), (2, 5)]:
        F = RemovableSet(2 * k + 1, s)
        for e in _two_dense_blocks(k):
            assert F.push(e)
        before = _removable_state(F)
        assert not F.push((0, k))  # joins the blocks: s * 2k + 1 edges on 2k vertices
        assert _removable_state(F) == before
        assert F.witness == set(range(2 * k))
        assert F.push((0, 2 * k))  # the new vertex has slack
        F.pop()
        assert _removable_state(F) == before


def test_refused_push_matches_can_add():
    """push runs one breadth-first hunt with e already added, and that
    hunt is the removability test: on random push/pop walks push accepts
    exactly when can_add does, and a refused push restores outdeg, tails,
    heads and every vertex's out_arcs and leaves can_add's witness."""
    rng = random.Random(11)
    refused = 0
    for trial in range(300):
        n, s = rng.randint(3, 9), rng.randint(0, 3)
        pairs = list(itertools.combinations(range(n), 2))
        F = RemovableSet(n, s)
        for _ in range(40):
            if F.edges and rng.random() < 0.3:
                F.pop()
                continue
            e = rng.choice([p for p in pairs if p not in F.edges] or [None])
            if e is None:
                break
            before = _removable_state(F)
            ok = F.can_add(e)
            reached = F.witness
            assert F.push(e) == ok, (trial, e)
            if not ok:
                refused += 1
                assert _removable_state(F) == before, (trial, e)
                assert F.witness == reached, (trial, e)
    assert refused > 500


def test_unionfind_push_is_the_forest_test():
    """push refuses an edge that closes a cycle and writes nothing; a push
    followed by pop restores every field."""
    def state(uf):
        return (uf.parent[:], uf.rank[:], uf.verts[:], uf.edges[:], uf.trail[:])

    uf = UnionFind(5)
    for e in [(0, 1), (1, 2), (3, 4)]:
        assert uf.push(e)
    before = state(uf)
    assert not uf.push((0, 2))  # closes the triangle 0-1-2
    assert state(uf) == before
    assert uf.push((2, 3))  # joins the two trees
    uf.pop()
    assert state(uf) == before


def test_is_removable_examples():
    c5 = cycle(5)
    assert is_removable(c5.edges, c5, 1)[0]
    k4 = complete(4)
    assert not is_removable(k4.edges, k4, 1)[0]
    assert is_removable(k4.edges, k4, 2)[0]
    with pytest.raises(ValueError):
        is_removable([(0, 3)], path(3), 1)


def test_removable_iff_quasi_unicyclic_for_s1():
    import random
    rng = random.Random(99)
    for _ in range(300):
        n = 4 + rng.randrange(7)
        G = erdos_renyi(n, 0.5, rng.randrange(10**6))
        edges = G.sorted_edges()
        rng.shuffle(edges)
        F = edges[:rng.randrange(len(edges) + 1)]
        assert is_removable(F, G, 1)[0] == is_quasi_unicyclic(Graph(n, F))


def test_selection_from_edge_set():
    k2 = complete(2)
    sel = selection_from_edge_set([(0, 1)], k2, 1)
    assert sel.removed_edges() == {(0, 1)}
    assert sum(len(a) for a in sel.assignment) == 1  # injective
    c3 = complete(3)
    sel = selection_from_edge_set(c3.edges, c3, 1)
    assert all(len(a) == 1 for a in sel.assignment)
    with pytest.raises(ValueError):
        selection_from_edge_set(complete(4).edges, complete(4), 1)


def test_apply_selection():
    c3 = complete(3)
    sel = selection_from_edge_set(c3.edges, c3, 1)
    removed = apply_selection(c3, sel)
    assert removed.result.m == 0
    # empty selection leaves the graph unchanged
    empty = SSelection.empty(3)
    assert apply_selection(c3, empty).result == c3
    # removing a 4-cycle from K4 leaves a perfect matching
    k4 = complete(4)
    sel4 = selection_from_edge_set([(0, 1), (1, 2), (2, 3), (0, 3)], k4, 1)
    rest = apply_selection(k4, sel4).result
    assert rest.m == 2 and rest.max_degree() == 1


def test_apply_selection_edge_accounting():
    for seed in range(20):
        G = erdos_renyi(7, 0.5, seed)
        for F in removable_edge_sets(G, 1, "maximal"):
            sel = selection_from_edge_set(F, G, 1)
            rg = apply_selection(G, sel)
            assert rg.result.m == G.m - len(F)
            assert rg.removed_edges == F
            break


def test_selection_digraph():
    c3 = complete(3)
    sel = SSelection.from_pairs(3, 1, [(0, 1), (1, 2), (2, 0)])
    assert selection_digraph(c3, sel) == [(0, 1), (1, 2), (2, 0)]
    # both endpoints may select the same edge: a directed 2-cycle
    k2 = complete(2)
    sel2 = SSelection.from_pairs(2, 1, [(0, 1), (1, 0)])
    assert selection_digraph(k2, sel2) == [(0, 1), (1, 0)]
    empty = SSelection.empty(3)
    assert selection_digraph(c3, empty) == []
    with pytest.raises(ValueError):
        selection_digraph(c3, SSelection.empty(3, s=2))


def test_selection_json_roundtrip():
    c3 = complete(3)
    sel = selection_from_edge_set(c3.edges, c3, 1)
    back = SSelection.from_json(3, sel.to_json())
    assert back.removed_edges() == sel.removed_edges()
    assert back.s == 1


def test_enumerate_all_counts():
    k2 = complete(2)
    assert len(list(removable_edge_sets(k2, 1, "all"))) == 2
    k3 = complete(3)
    assert len(list(removable_edge_sets(k3, 1, "all"))) == 8
    # s = 0 admits only the empty set
    assert list(removable_edge_sets(k3, 0, "all")) == [frozenset()]


def test_enumerate_all_exactly_the_pseudoforest_subsets():
    G = erdos_renyi(6, 0.5, 17)
    edges = G.sorted_edges()
    expected = set()
    for r in range(len(edges) + 1):
        for F in itertools.combinations(edges, r):
            if is_quasi_unicyclic(Graph(6, F)):
                expected.add(frozenset(F))
    got = list(removable_edge_sets(G, 1, "all"))
    assert len(got) == len(set(got)) == len(expected)
    assert set(got) == expected


def test_enumerate_maximal_k4_against_filter():
    k4 = complete(4)
    edges = k4.sorted_edges()
    feasible = [frozenset(F) for r in range(7)
                for F in itertools.combinations(edges, r)
                if is_quasi_unicyclic(Graph(4, F))]
    feas_set = set(feasible)
    expected = {F for F in feasible
                if not any(F | {e} in feas_set for e in edges if e not in F)}
    got = set(removable_edge_sets(k4, 1, "maximal"))
    assert got == expected
    assert all(len(F) == 4 for F in got)
    for F in got:
        sub = Graph(4, F)
        comps = sub.components()
        assert is_quasi_unicyclic(sub)


def test_enumerate_maximal_is_all_filtered_to_unextendable_sets():
    """Mode 'maximal' yields, in the same order, exactly the sets of mode
    'all' that no edge extends, and each has the rank's size."""
    graphs = [erdos_renyi(n, p, seed) for n in (4, 5, 6, 7) for p in (0.4, 0.7)
              for seed in range(3)]
    graphs = [G for G in graphs if G.m <= 12]
    assert len(graphs) >= 20 and max(G.m for G in graphs) >= 10
    for G in graphs:
        edges = G.sorted_edges()
        for s in range(4):
            every = list(removable_edge_sets(G, s, "all"))
            feasible = set(every)
            expected = [F for F in every
                        if not any(F | {e} in feasible for e in edges if e not in F)]
            got = list(removable_edge_sets(G, s, "maximal"))
            assert got == expected, (G.sorted_edges(), s)
            rank = maximal_extension(G, s).bit_count()
            assert all(len(F) == rank for F in got), (G.sorted_edges(), s)


def _recursive_walk(G, s, mode):
    """The take-then-leave walk as nested generators: the reference order."""
    edges = G.sorted_edges()
    m = len(edges)
    floor = maximal_extension(G, s).bit_count() if mode == "maximal" else 0
    F = RemovableSet(G.n, s)

    def dfs(i):
        if len(F.edges) + (m - i) < floor:
            return
        if i == m:
            yield frozenset(F.edges)
            return
        if F.push(edges[i]):
            yield from dfs(i + 1)
            F.pop()
        yield from dfs(i + 1)

    yield from dfs(0)


def test_enumerate_walks_in_the_recursive_order():
    """The one-loop walk yields the recursive walk's sets in its order, at
    s = 0, 1, 2 in both modes, and its first set is the greedy maximal
    one, whose size the enumeration tiers read as the rank.
    Besides random graphs: a tree, whose (s+1)-core is empty at s >= 1, so
    every edge is a coloop; K4 with a pendant path, whose core is the K4;
    and K5, whose core is all of it."""
    rng = random.Random(2024)
    tree = Graph(8, [(0, 1), (0, 2), (1, 3), (1, 4), (2, 5), (5, 6), (5, 7)])
    k4_path = Graph(7, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3), (3, 4), (4, 5), (5, 6)])
    graphs = [tree, k4_path, complete(5)]
    while len(graphs) < 203:
        n = rng.randint(0, 8)
        G = erdos_renyi(n, rng.choice((0.2, 0.4, 0.6, 0.8)), rng.randrange(10**6))
        if G.m <= 14:
            graphs.append(G)
    for G in graphs:
        for s in (0, 1, 2):
            for mode in ("all", "maximal"):
                got = list(removable_edge_sets(G, s, mode))
                assert got == list(_recursive_walk(G, s, mode)), (G.sorted_edges(), s, mode)
                first = next(enumerate_removable_sets(G, s, mode))
                assert first == maximal_extension(G, s), (G.sorted_edges(), s, mode)


def test_walk_takes_coloops_without_a_push(monkeypatch):
    """An edge with an end outside the (s+1)-core is in every maximal
    removable set, so mode 'all' takes it with no push: on graphs whose
    (s+1)-core is empty it pushes nothing and yields all 2^m sets."""
    pushes = []
    push = RemovableSet.push

    def counted(self, e):
        pushes.append(e)
        return push(self, e)

    monkeypatch.setattr(RemovableSet, "push", counted)
    k4_minus_edge = Graph(4, [(0, 1), (0, 2), (1, 2), (1, 3), (2, 3)])
    for G, s in ((path(7), 1), (star(6), 1), (cycle(6), 2), (k4_minus_edge, 2)):
        assert len(list(enumerate_removable_sets(G, s, "all"))) == 2 ** G.m
    assert pushes == []


def test_enumerate_keep_filters_by_max_degree_of_what_stays():
    """With keep = k the walk yields exactly the unbounded stream's sets F
    whose G - F has maximum degree <= k, in the same order, for every k
    from 0 to Delta(G), at s = 1, 2 in both modes."""
    rng = random.Random(28)
    graphs = 0
    while graphs < 40:
        n = rng.randint(1, 7)
        G = erdos_renyi(n, rng.choice((0.3, 0.5, 0.7, 0.9)), rng.randrange(10**6))
        if G.m > 12:
            continue
        graphs += 1
        edges = G.sorted_edges()

        def max_degree_left(bits):
            deg = [0] * G.n
            for i, (u, v) in enumerate(edges):
                if not bits >> i & 1:
                    deg[u] += 1
                    deg[v] += 1
            return max(deg)

        for s in (1, 2):
            for mode in ("all", "maximal"):
                stream = list(enumerate_removable_sets(G, s, mode))
                for k in range(G.max_degree() + 1):
                    got = list(enumerate_removable_sets(G, s, mode, keep=k))
                    want = [F for F in stream if max_degree_left(F) <= k]
                    assert got == want, (edges, s, mode, k)


def test_maximal_connected_quasi_unicyclic_order5_classification():
    """The edge-maximal connected quasi-unicyclic graphs on 5 vertices are,
    up to isomorphism: the 5-cycle, the 4-cycle with a leaf, and a triangle
    with (two leaves apart | two leaves together | a 2-path attached)."""
    reference = [
        cycle(5),
        Graph(5, [(0, 1), (1, 2), (2, 3), (0, 3), (0, 4)]),
        Graph(5, [(0, 1), (1, 2), (0, 2), (0, 3), (1, 4)]),
        Graph(5, [(0, 1), (1, 2), (0, 2), (0, 3), (0, 4)]),
        Graph(5, [(0, 1), (1, 2), (0, 2), (0, 3), (3, 4)]),
    ]
    ref_keys = {canonical_form(g) for g in reference}
    assert len(ref_keys) == 5
    found = set()
    pairs = list(itertools.combinations(range(5), 2))
    for mask in range(1 << 10):
        edges = [pairs[i] for i in range(10) if (mask >> i) & 1]
        g = Graph(5, edges)
        if not (g.is_connected() and is_quasi_unicyclic(g)):
            continue
        maximal = all(not is_quasi_unicyclic(Graph(5, edges + [e]))
                      for e in pairs if e not in g.edges)
        if maximal:
            found.add(canonical_form(g))
    assert found == ref_keys


def test_star_edge_set_is_removable():
    s = star(9)
    ok, _ = is_removable(s.edges, s, 1)
    assert ok  # the whole star is a tree, hence a valid selection image


# sha256 over the public orientation outputs on 198 seeded graphs (n = 2-12,
# six densities, three seeds): orient_with_cap's (heads, witness) at caps
# 0-3, min_outdegree_orientation and quasi_unicyclic_edge_decomposition.
# The heads depend on which paths the incremental orientation reverses, so
# this pins the orientation code itself, not only its yes/no answers.
ORIENTATION_PINNED = "9e4e61c1f1328a50c639f9ecc5bf5ed6ff049e10dd81d773aeb42e20ff40d01b"


def _orientation_digest():
    h = hashlib.sha256()
    for n in range(2, 13):
        for p in (0.2, 0.35, 0.5, 0.65, 0.8, 0.95):
            for seed in range(3):
                G = erdos_renyi(n, p, seed)
                edges = G.sorted_edges()
                rows = [orient_with_cap(n, edges, cap) for cap in range(4)]
                rows.append(dataclasses.asdict(min_outdegree_orientation(G)))
                rows.append(dataclasses.asdict(quasi_unicyclic_edge_decomposition(G)))
                h.update(json.dumps(rows).encode())
    return h.hexdigest()


def test_orientation_outputs_are_pinned():
    assert _orientation_digest() == ORIENTATION_PINNED
