import itertools
import random

import pytest

from robusta import (Graph, SSelection, apply_selection, complete, cycle,
                     disjoint_union, enumerate_removable_sets, erdos_renyi,
                     is_quasi_unicyclic, is_removable, path,
                     selection_digraph, selection_from_edge_set)
from robusta.exact import canonical_form
from robusta.graph import star
from robusta.selection import RemovableSet


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


def test_removable_set_matches_exhaustive_orientations():
    """Random push/pop/can_add walks; every answer is checked against the
    brute force, and pop() must restore every can_add answer."""
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
            answers = [F.can_add(e) for e in outside]
            assert answers == [removable(F.edges + [e]) for e in outside], (G.m, s)
            if F.edges and (not outside or rng.random() < 0.25):
                before, prior = snapshots.pop()
                F.pop()
                assert F.edges == prior
                assert [F.can_add(e) for e in edges if e not in F.edges] == before
                continue
            e = rng.choice(outside)
            prior = list(F.edges)
            if F.push(e):
                assert removable(prior + [e])
                snapshots.append((answers, prior))
            else:
                assert not removable(prior + [e])
                assert F.edges == prior
                assert [F.can_add(x) for x in outside] == answers


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
        for F in enumerate_removable_sets(G, 1, "maximal"):
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
    assert len(list(enumerate_removable_sets(k2, 1, "all"))) == 2
    k3 = complete(3)
    assert len(list(enumerate_removable_sets(k3, 1, "all"))) == 8
    # s = 0 admits only the empty set
    assert list(enumerate_removable_sets(k3, 0, "all")) == [frozenset()]


def test_enumerate_all_exactly_the_pseudoforest_subsets():
    G = erdos_renyi(6, 0.5, 17)
    edges = G.sorted_edges()
    expected = set()
    for r in range(len(edges) + 1):
        for F in itertools.combinations(edges, r):
            if is_quasi_unicyclic(Graph(6, F)):
                expected.add(frozenset(F))
    got = list(enumerate_removable_sets(G, 1, "all"))
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
    got = set(enumerate_removable_sets(k4, 1, "maximal"))
    assert got == expected
    assert all(len(F) == 4 for F in got)
    for F in got:
        sub = Graph(4, F)
        comps = sub.components()
        assert is_quasi_unicyclic(sub)


def test_enumerate_guard():
    big = complete(8)  # 28 edges
    with pytest.raises(ValueError):
        list(enumerate_removable_sets(big, 1, "all"))


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
