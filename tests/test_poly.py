import pytest

from robusta import (Graph, complete, cycle, degeneracy_greedy,
                     degeneracy_order, disjoint_union, edge_color_reduction,
                     edge_coloring_upper, erdos_renyi, is_quasi_unicyclic,
                     max_degree_partition, min_outdegree_orientation, path,
                     quasi_unicyclic_edge_decomposition, star)
from robusta.graph import maximal_outerplanar, maximal_planar, random_max_degree

from conftest import brute_force_decomposition_value


def test_orientation_examples():
    assert min_outdegree_orientation(cycle(5)).max_outdegree == 1
    assert min_outdegree_orientation(complete(4)).max_outdegree == 2
    assert min_outdegree_orientation(complete(7)).max_outdegree == 3
    assert min_outdegree_orientation(Graph(3)).max_outdegree == 0


def test_orientation_density_witness():
    # K4 plus four isolated vertices: cap ceil(6 / 8) = 1 gets stuck on the
    # K4, whose density ceil(6 / 4) = 2 forces the cap up and is the witness
    G = Graph(8, complete(4).edges)
    ori = min_outdegree_orientation(G)
    assert ori.max_outdegree == 2
    assert ori.witness == (0, 1, 2, 3)


def test_orientation_optimal_with_witness_small():
    for seed in range(60):
        n = 3 + seed % 6
        G = erdos_renyi(n, 0.55, seed)
        ori = min_outdegree_orientation(G)
        if G.m == 0:
            assert ori.max_outdegree == 0
            continue
        assert ori.max_outdegree == brute_force_decomposition_value(G)
        assert max(ori.outdegrees(n)) <= ori.max_outdegree
        w = ori.witness
        assert -(-G.induced_edge_count(w) // len(w)) == ori.max_outdegree


def test_orientation_feasible_large():
    for seed in range(5):
        G = erdos_renyi(150, 0.05, seed)
        ori = min_outdegree_orientation(G)
        if G.m == 0:
            continue
        assert max(ori.outdegrees(G.n)) <= ori.max_outdegree
        w = ori.witness
        assert -(-G.induced_edge_count(w) // len(w)) == ori.max_outdegree


def test_decomposition_examples():
    assert quasi_unicyclic_edge_decomposition(cycle(5)).k == 1
    assert quasi_unicyclic_edge_decomposition(complete(4)).k == 2
    assert quasi_unicyclic_edge_decomposition(complete(5)).k == 2


def test_decomposition_exact_and_valid():
    for seed in range(100):
        n = 3 + seed % 6
        G = erdos_renyi(n, [0.3, 0.5, 0.8][seed % 3], seed)
        dec = quasi_unicyclic_edge_decomposition(G)
        if G.m == 0:
            assert dec.k == 0
            continue
        assert dec.k == brute_force_decomposition_value(G)
        covered = set()
        for cls in dec.classes:
            assert is_quasi_unicyclic(Graph(G.n, cls))
            assert not (covered & set(cls))
            covered |= set(cls)
        assert covered == set(G.edges)


def test_degeneracy_order():
    d, order = degeneracy_order(path(5))
    assert d == 1
    h1 = Graph(4, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3)])  # K4 - e
    assert degeneracy_order(h1)[0] == 2
    assert degeneracy_order(maximal_planar(12, 3))[0] <= 5
    d, order = degeneracy_order(erdos_renyi(9, 0.5, 4))
    pos = {v: i for i, v in enumerate(order)}
    G = erdos_renyi(9, 0.5, 4)
    assert all(sum(1 for w in G.adj[v] if pos[w] < pos[v]) <= d
               for v in range(9))


def test_degeneracy_greedy_invariant():
    for seed in range(60):
        n = 10 + (seed * 7) % 80
        G = erdos_renyi(n, 3.0 / n, seed)
        rc = degeneracy_greedy(G)
        d, _ = degeneracy_order(G)
        assert rc.k <= d // 2 + 1
        rc.validate(G)


def test_degeneracy_greedy_examples():
    h1 = Graph(4, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3)])
    assert degeneracy_greedy(h1).k == 2
    assert degeneracy_greedy(maximal_outerplanar(10, 2)).k <= 2
    assert degeneracy_greedy(maximal_planar(12, 2)).k <= 3


def test_max_degree_partition():
    rc, moves = max_degree_partition(complete(4), 2)
    assert moves <= complete(4).m
    rc7, _ = max_degree_partition(cycle(7), 1)
    assert rc7.k == 1
    assert rc7.selection.removed_edges() == cycle(7).edges
    for seed in range(30):
        for k in (1, 2, 3):
            G = random_max_degree(11, 3 * k - 1, seed * 3 + k)
            rc, moves = max_degree_partition(G, k)
            assert moves <= G.m
            rc.validate(G)
            for c in range(k):
                cls = [v for v in range(G.n) if rc.coloring[v] == c]
                sub, _ = G.induced_subgraph(cls)
                assert sub.max_degree() <= 2
    with pytest.raises(ValueError):
        max_degree_partition(complete(7), 2)  # max degree 6 >= 6


def test_edge_coloring_upper_bound():
    for seed in range(150):
        n = 3 + seed % 9
        G = erdos_renyi(n, 0.55, seed)
        col = edge_coloring_upper(G)
        assert len(col) == G.m
        assert len(set(col.values())) <= G.max_degree() + 1
        for v in range(n):
            incident = [col[(v, w) if v < w else (w, v)] for w in G.adj[v]]
            assert len(set(incident)) == len(incident)


def test_edge_color_reduction():
    sel, coloring, used = edge_color_reduction(complete(4))
    assert used <= 1
    sel5, col5, used5 = edge_color_reduction(complete(5))
    assert used5 <= 3
    sel6, col6, used6 = edge_color_reduction(cycle(6))
    assert used6 == 0
    # degenerate case: a matching is entirely removable
    m2 = Graph(4, [(0, 1), (2, 3)])
    sel_m, col_m, used_m = edge_color_reduction(m2)
    assert used_m == 0 and sel_m.removed_edges() == m2.edges
    for seed in range(40):
        G = erdos_renyi(8, 0.5, seed)
        if G.max_degree() <= 1:
            continue
        sel, coloring, used = edge_color_reduction(G)
        sel.validate(G)
        assert used <= max(G.max_degree() - 1, 0)
        removed = sel.removed_edges()
        assert is_quasi_unicyclic(Graph(G.n, removed))
        for v in range(G.n):
            seen = set()
            for w in G.adj[v]:
                e = (v, w) if v < w else (w, v)
                if e in removed:
                    continue
                assert coloring[e] not in seen
                seen.add(coloring[e])


def test_out_edges_ranked_into_distinct_classes():
    G = erdos_renyi(9, 0.6, 8)
    dec = quasi_unicyclic_edge_decomposition(G)
    arcs = dec.orientation.arcs()
    cls_of = {}
    for i, cls in enumerate(dec.classes):
        for e in cls:
            cls_of[e] = i
    per_tail = {}
    for tail, head in arcs:
        e = (tail, head) if tail < head else (head, tail)
        per_tail.setdefault(tail, []).append(cls_of[e])
    for tail, classes in per_tail.items():
        assert len(set(classes)) == len(classes)
