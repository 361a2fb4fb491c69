import pytest

from robusta import (Graph, arboricity_gadget, blow_up, complete,
                     complete_multipartite, cycle, degeneracy_gadget,
                     disjoint_union, empty_graph, erdos_renyi, generate, join,
                     lex_product, line_graph, path, random_bipartite,
                     random_multipartite, star, structural_queries,
                     union_graphs, walecki_cycles)
from robusta.graph import VertexPartition, maximal_outerplanar, maximal_planar


def test_graph_rejects_loops_and_range():
    with pytest.raises(ValueError):
        Graph(3, [(1, 1)])
    with pytest.raises(ValueError):
        Graph(2, [(0, 2)])


def test_graph_normalizes_edges():
    g = Graph(3, [(2, 0), (0, 2), (1, 2)])
    assert g.m == 2
    assert g.edges == {(0, 2), (1, 2)}
    assert g.adj[2] == (0, 1)


def test_structural_queries():
    q = structural_queries(complete(4))
    assert q["max_degree"] == 3 and q["min_degree"] == 3
    assert q["components"] == 1 and q["is_connected"]
    assert not q["is_bipartite"]
    two_k3 = disjoint_union([complete(3), complete(3)])
    assert len(two_k3.components()) == 2
    c5 = cycle(5)
    assert c5.complement().m == 5  # self-complementary


def test_basic_generators():
    assert complete(3).m == 3
    k22 = complete_multipartite([2, 2])
    assert k22.n == 4 and k22.m == 4 and k22.is_bipartite()
    assert path(4).m == 3
    assert star(9).n == 10 and star(9).m == 9 and star(9).degree(0) == 9
    with pytest.raises(ValueError):
        complete_multipartite([])
    with pytest.raises(ValueError):
        complete_multipartite([2, 0])
    with pytest.raises(ValueError):
        cycle(2)


def test_random_multipartite_p_one_is_complete_multipartite():
    g = random_multipartite(2, 3, 1.0, 12345)
    assert g == complete_multipartite([2, 2, 2])
    assert g.m == 12


def test_random_generators_deterministic_and_seeded():
    a = erdos_renyi(8, 0.5, 42)
    b = erdos_renyi(8, 0.5, 42)
    assert a == b
    assert a != erdos_renyi(8, 0.5, 43)
    # pinned stream: protects cross-version reproducibility of the PRNG use
    assert sorted(erdos_renyi(6, 0.5, 42).edges) == [
        (0, 2), (0, 3), (0, 4), (1, 4), (1, 5), (2, 3), (2, 4), (3, 4), (3, 5)]
    rb = random_bipartite(3, 4, 0.5, 7)
    assert rb.is_bipartite()
    assert all(not (u < 3 and v < 3) and not (u >= 3 and v >= 3)
               for u, v in rb.edges)
    with pytest.raises(ValueError):
        erdos_renyi(5, 1.5, 0)
    with pytest.raises(ValueError):
        generate("erdos_renyi", [5, 0.5])  # seed required


def test_join_and_unions():
    assert join(complete(1), complete(1)) == complete(2)
    assert join(complete(2), complete(1)) == complete(3)
    assert join(empty_graph(2), empty_graph(2)) == complete_multipartite([2, 2])
    p3 = Graph(3, [(0, 1), (1, 2)])
    assert union_graphs([p3, Graph(3, [(0, 2)])]) == complete(3)
    g = erdos_renyi(6, 0.5, 3)
    assert union_graphs([g, g]) == g
    with pytest.raises(ValueError):
        union_graphs([complete(3), complete(4)])
    du = disjoint_union([complete(2), cycle(4)])
    assert du.n == 6 and du.m == 5 and len(du.components()) == 2
    assert disjoint_union([complete(1), complete(1)]) == empty_graph(2)


def test_lex_product():
    assert lex_product(complete(2), empty_graph(3)) == complete_multipartite([3, 3])
    five_h = lex_product(empty_graph(5), complete(3))
    assert len(five_h.components()) == 5 and five_h.m == 15
    g = lex_product(cycle(5), complete(3))
    assert g.n == 15
    assert all(g.degree(v) == 2 * 3 + 2 for v in range(g.n))


def test_lex_product_degree_law():
    G, H = erdos_renyi(4, 0.6, 1), erdos_renyi(3, 0.6, 2)
    P = lex_product(G, H)
    for gv in range(4):
        for hv in range(3):
            assert P.degree(gv * 3 + hv) == G.degree(gv) * 3 + H.degree(hv)


def test_line_graph():
    lg, order = line_graph(complete(4))
    assert lg.n == 6 and lg.m == 12  # K6 minus a perfect matching
    assert lg.complement().m == 3
    lg_star, _ = line_graph(star(5))
    assert lg_star == complete(5)
    lg_p3, _ = line_graph(path(3))
    assert lg_p3 == complete(2)


def test_blow_up():
    b, sets = blow_up(complete(2))
    assert b == complete_multipartite([3, 3])
    b3, sets3 = blow_up(complete(3))
    assert b3.n == 12 and b3.m == 48
    assert complete_multipartite([4, 4, 4]) == b3
    bp, _ = blow_up(path(3))
    assert bp.n == 12 and bp.m == 32 and bp.is_bipartite()
    for G in (complete(3), path(3), cycle(4)):
        bb, ss = blow_up(G)
        assert bb.n == G.n * (G.n + 1)
        assert bb.m == G.m * (G.n + 1) ** 2
        assert len(ss) == G.n


def test_walecki_cycles():
    assert walecki_cycles(1)[0] == complete(3)
    for k in range(1, 6):
        cycles = walecki_cycles(k)
        assert len(cycles) == k
        seen = set()
        for c in cycles:
            assert c.n == 2 * k + 1
            assert all(c.degree(v) == 2 for v in range(c.n))
            assert c.is_connected()
            assert not (seen & c.edges)
            seen |= c.edges
        assert union_graphs(cycles) == complete(2 * k + 1)


def test_arboricity_gadget():
    assert arboricity_gadget(1) == complete(3)
    g = arboricity_gadget(2)
    assert g.n == 12 and g.m == 48
    assert g.max_degree() == 3 * 2 * 1 + 2
    # each part induces two disjoint triangles
    part0, _ = g.induced_subgraph(range(6))
    assert part0.m == 6 and all(part0.degree(v) == 2 for v in range(6))


def test_degeneracy_gadget():
    from robusta import degeneracy_order
    h1 = degeneracy_gadget(1)
    assert h1.n == 4 and h1.m == 5  # K4 minus an edge
    assert degeneracy_order(h1)[0] == 2
    h2 = degeneracy_gadget(2)
    assert h2.n == 4 + 3 + 105
    assert degeneracy_order(h2)[0] == 4
    with pytest.raises(ValueError):
        degeneracy_gadget(3)  # order blows past the cap


def test_planar_generators():
    op = maximal_outerplanar(8, 5)
    assert op.m == 2 * 8 - 3
    mp = maximal_planar(9, 5)
    assert mp.m == 3 * 9 - 6


def test_generate_dispatch():
    assert generate("complete", [3]).m == 3
    assert generate("complete-multipartite", [2, 2]).m == 4
    with pytest.raises(ValueError):
        generate("no_such_kind", [1])


@pytest.mark.parametrize("kind, params, seed, message", [
    ("complete", [448], None, "100128 vertex pairs above the limit 100000"),
    ("complete-multipartite", [224, 224], None, "100128 vertex pairs above"),
    ("erdos-renyi", [448, 0.0], 1, "100128 vertex pairs above"),
    ("random-bipartite", [224, 224, 0.0], 1, "100128 vertex pairs above"),
    ("random-multipartite", [224, 2, 0.0], 1, "100128 vertex pairs above"),
    ("cycle", [100001], None, "order 100001 above the limit 100000"),
    ("empty", [100001], None, "order 100001 above"),
    ("star", [100000], None, "order 100001 above"),
])
def test_generate_rejects_specs_over_the_size_limit(kind, params, seed, message):
    """Every spec here builds in under a second without the limit, so a
    missing check fails the test rather than hanging it."""
    with pytest.raises(ValueError, match=f"generator {kind!r}: {message}"):
        generate(kind, params, seed)


def test_generate_accepts_specs_at_the_size_limit():
    assert generate("complete", [447]).m == 447 * 446 // 2
    assert generate("empty", [100000]).n == 100000


def test_vertex_partition_validation():
    VertexPartition(((0, 1), (2,))).validate(3)
    with pytest.raises(ValueError):
        VertexPartition(((0, 1), (1, 2))).validate(3)
    with pytest.raises(ValueError):
        VertexPartition(((0,),)).validate(2)
    with pytest.raises(ValueError):
        VertexPartition(((0,), ())).validate(1)
