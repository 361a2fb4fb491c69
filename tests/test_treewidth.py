import json
import time

import pytest

from robusta import (Graph, complete, cycle, dp_robust, erdos_renyi,
                     heuristic_decomposition, make_nice, maximal_outerplanar,
                     path, read_td, robust_chromatic, robust_parameter,
                     validate_decomposition, write_td)
from robusta.certify import validate_result
from robusta.exact import CapExceeded
from robusta.graphio import ParseError
from robusta.treewidth import (TreeDecomposition, _dominated_rows, _ThetaStrategy,
                               dp_all)


def test_heuristic_widths():
    assert heuristic_decomposition(path(7)).width == 1
    assert heuristic_decomposition(cycle(4)).width == 2
    assert heuristic_decomposition(complete(5)).width == 4


def test_validate_decomposition_witnesses():
    G = cycle(4)
    T = heuristic_decomposition(G)
    ok, why = validate_decomposition(T, G)
    assert ok and why is None
    # coverage violation
    bad = TreeDecomposition([frozenset({0, 1})], [])
    ok, why = validate_decomposition(bad, G)
    assert not ok and "(i)" in why
    # edge containment violation
    bad2 = TreeDecomposition([frozenset({0, 1}), frozenset({2, 3})], [(0, 1)])
    ok, why = validate_decomposition(bad2, G)
    assert not ok and "(ii)" in why
    # connectivity violation
    bad3 = TreeDecomposition(
        [frozenset({0, 1}), frozenset({1, 2}), frozenset({2, 3, 0})],
        [(0, 1), (1, 2)])
    bad3b = TreeDecomposition(
        [frozenset({0, 1}), frozenset({2, 3}), frozenset({0, 1, 2, 3})],
        [(0, 2), (1, 0)])
    ok, why = validate_decomposition(bad3b, G)
    assert not ok and "(iii)" in why


def test_make_nice_properties():
    for seed in range(100):
        n = 3 + seed % 8
        G = erdos_renyi(n, 2.5 / n, seed)
        T = heuristic_decomposition(G)
        nice = make_nice(T, G)
        ok, why = nice.validate(G)
        assert ok, why
        assert nice.width <= T.width
        assert len(nice.nodes) <= 4 * G.n
        kinds = {nd.kind for nd in nice.nodes}
        assert kinds <= {"leaf", "introduce", "forget", "join"}


def test_make_nice_single_bag():
    G = complete(3)
    nice = make_nice(TreeDecomposition([frozenset({0, 1, 2})], []), G)
    assert len(nice.nodes) <= 12
    ok, _ = nice.validate(G)
    assert ok


def test_make_nice_rejects_invalid():
    with pytest.raises(ValueError):
        make_nice(TreeDecomposition([frozenset({0})], []), complete(2))


def test_td_format_roundtrip():
    G = erdos_renyi(8, 0.4, 3)
    T = heuristic_decomposition(G)
    text = write_td(T, G.n)
    back = read_td(text)
    assert back.bags == T.bags
    assert sorted(back.tree_edges) == sorted(T.tree_edges)
    assert text.startswith("s td ")


@pytest.mark.parametrize("text, line_no", [
    ("s td\n", 1),
    ("s td 1 1 1\nb\n", 2),
    ("s td 1 2 2\nb 1 x\n", 2),
    ("c bags\ns td 2 2 2\nb 1 1 2\nb 2 2\n1\n", 5),
    ("s td 1 1 1\nb 5 1\nb 1 1\n", 2),        # bag index above the count
    ("s td 1 1 1\nb 0 1\n", 2),               # bag index below 1
    ("s td 1 1 1\nb 1 1\n3 4\n", 3),          # tree edge between missing bags
    ("s td 2 1 2\nb 1 1\nb 2 2\n1 0\n", 4),   # tree edge endpoint below 1
    ("s td 1 1 1\ns td 2 1 1\nb 1 1\n", 2),   # second s-line
    ("s td 1 1 1\nb 1 0\n", 2),               # vertex id below 1
    ("s td 1 1 2\nb 1 1\nb 1 2\n", 3),         # second line for one bag
    ("b 1 1\ns td 1 1 1\n", 1),               # bag before the header
    ("s td 1000000 1 1\n", 1),               # bag count above HEADER_COUNT_CAP
])
def test_read_td_malformed_lines(text, line_no):
    with pytest.raises(ParseError, match=f"line {line_no}:"):
        read_td(text)


def test_dp_examples():
    for tree in (path(5), path(9)):
        nice = make_nice(heuristic_decomposition(tree), tree)
        assert dp_robust(tree, nice, "chi1").value == 1
    K4 = complete(4)
    nice = make_nice(heuristic_decomposition(K4), K4)
    assert dp_robust(K4, nice, "chi1").value == 2
    assert dp_robust(K4, nice, "omega1").value == 2
    assert dp_robust(K4, nice, "alpha1").value == 3
    assert dp_robust(K4, nice, "theta1").value == 3


def test_dp_chi1_colorings():
    K4 = complete(4)
    res = dp_robust(K4, make_nice(heuristic_decomposition(K4), K4), "chi1")
    assert res.value == 2
    assert len(set(res.certificate["coloring"])) == 2
    G = maximal_outerplanar(30, 2)
    nice = make_nice(heuristic_decomposition(G), G)
    res = dp_robust(G, nice, "chi1")
    validate_result(G, {"parameter": res.parameter, "s": 1, "value": res.value,
                        "certificate": res.certificate})
    assert len(set(res.certificate["coloring"])) <= nice.width // 2 + 1


def test_dp_width_cap():
    K9 = complete(9)
    nice = make_nice(heuristic_decomposition(K9), K9)
    with pytest.raises(CapExceeded):
        dp_robust(K9, nice, "alpha1")


def test_dp_matches_exact_on_random_corpus():
    checked = 0
    seed = 0
    while checked < 30 and seed < 500:
        n = 4 + seed % 7
        G = erdos_renyi(n, 2.6 / n, seed)
        seed += 1
        T = heuristic_decomposition(G)
        if T.width > 3:
            continue
        nice = make_nice(T, G)
        expected = {
            "chi1": robust_chromatic(G).value,
            "omega1": robust_parameter(G, "omega", 1).value,
            "alpha1": robust_parameter(G, "alpha", 1).value,
            "theta1": robust_parameter(G, "theta", 1).value,
        }
        for which, want in expected.items():
            res = dp_robust(G, nice, which)
            assert res.value == want, (seed - 1, which)
            validate_result(G, {"parameter": res.parameter, "s": 1,
                                "value": res.value,
                                "certificate": res.certificate})
        checked += 1
    assert checked == 30


# flagged partitions of the bag {0, 1}: two singletons, or one class
SPLIT = (((0,), False), ((1,), False))
MERGED = (((0, 1), False),)


def test_theta_dominance_predicate():
    dominates = _ThetaStrategy.dominates
    cheap = ((SPLIT, 1), (MERGED, 1))
    dear = ((SPLIT, 2),)
    # every partition of `dear` is in `cheap` at a cost <= dear's: drop cheap
    assert dominates(dear, cheap)
    # `dear` lacks MERGED, which costs +inf there: it is never dropped for cheap
    assert not dominates(cheap, dear)
    # disjoint partition sets: neither is dropped
    assert not dominates(((MERGED, 1),), dear)
    assert not dominates(dear, ((MERGED, 1),))
    # same partitions: the pointwise larger profile wins ...
    assert dominates(((SPLIT, 1), (MERGED, 2)), cheap)
    # ... and with crossing costs neither is dropped
    crossed = ((SPLIT, 2), (MERGED, 0))
    assert not dominates(crossed, cheap)
    assert not dominates(cheap, crossed)


def test_dominated_rows_keep_groups_apart():
    cheap = ((SPLIT, 1), (MERGED, 1))
    dear = ((SPLIT, 2),)
    other = ((MERGED, 0),)  # cheaper than cheap on MERGED: dominates nothing
    state_a = ((), frozenset())
    state_b = (((0, 1),), frozenset({0}))
    tbl = {state_a + (cheap,): 0, state_b + (cheap,): 0,
           state_a + (other,): 0, state_a + (dear,): 0}
    dropped = _dominated_rows(tbl, _ThetaStrategy.dominates)
    # cheap is dropped only where dear shares its (arcs, pset)
    assert dropped == [state_a + (cheap,)]
    for key in dropped:
        del tbl[key]
    assert list(tbl) == [state_b + (cheap,), state_a + (other,), state_a + (dear,)]


def test_dp_pruned_corpus_matches_exact_and_certifies():
    """Width <= 3 graphs on 4-9 vertices, from a seed stream of their own:
    the pruned theta1 DP equals the exact tier, and every DP certificate of
    the four parameters validates."""
    checked = 0
    seed = 1000
    while checked < 30:
        n = 4 + seed % 6
        G = erdos_renyi(n, 3.0 / n, seed)
        seed += 1
        T = heuristic_decomposition(G)
        if T.width > 3:
            continue
        nice = make_nice(T, G)
        for which in ("chi1", "omega1", "alpha1", "theta1"):
            res = dp_robust(G, nice, which)
            validate_result(G, {"parameter": res.parameter, "s": 1,
                                "value": res.value,
                                "certificate": res.certificate})
            if which == "theta1":
                assert res.value == robust_parameter(G, "theta", 1).value, seed - 1
        checked += 1


def test_dp_trace_counts_pruned_rows(tmp_path):
    G = erdos_renyi(9, 0.35, 4)
    nice = make_nice(heuristic_decomposition(G), G)
    pruned = {}
    for which in ("alpha1", "theta1"):
        path_ = tmp_path / f"{which}.json"
        res = dp_robust(G, nice, which, trace_file=str(path_))
        records = json.loads(path_.read_text())["nodes"]
        assert max(r["rows"] for r in records) == res.stats["max_rows"]
        assert sum(r["rows"] for r in records) == res.stats["rows_total"]
        pruned[which] = sum(r["pruned"] for r in records)
    assert pruned["alpha1"] == 0
    assert pruned["theta1"] > 0


def test_dp_state_space_reported_and_bounded():
    G = erdos_renyi(9, 0.3, 5)
    nice = make_nice(heuristic_decomposition(G), G)
    res = dp_robust(G, nice, "alpha1")
    assert res.stats["max_rows"] >= 1
    w = nice.width + 1
    arcs_bound = (w + 1) ** w  # each bag vertex selects one of <= w partners
    assert res.stats["max_rows"] <= arcs_bound * 2 ** w * 2 ** w


def caterpillar(n):
    spine = list(range(0, n, 2))
    edges = list(zip(spine, spine[1:]))
    edges += [(leg - 1, leg) for leg in range(1, n, 2)]
    return Graph(n, edges)


def test_dp_runtime_roughly_linear():
    import statistics

    def runtime(n):
        G = caterpillar(n)
        nice = make_nice(heuristic_decomposition(G), G)
        samples = []
        for _ in range(3):
            t0 = time.perf_counter()
            dp_robust(G, nice, "alpha1")
            samples.append(time.perf_counter() - t0)
        return statistics.median(samples)

    t200, t400 = runtime(200), runtime(400)
    # coarse check, not a microbenchmark: doubling should stay near-linear
    assert t400 / t200 < 3.5, (t200, t400)


def test_dp_all_convenience():
    G = erdos_renyi(8, 0.3, 11)
    nice, results = dp_all(G)
    assert set(results) == {"alpha1", "omega1", "chi1", "theta1"}
