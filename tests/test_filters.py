import itertools

import pytest

from robusta import (CapExceeded, complete, cycle, exactness_filters,
                     explore_exact_conjecture, nonisomorphic_graphs, path)
from robusta import Graph, canonical_form
from robusta.filters import FILTER_ORDER


def failing(report):
    return {k for k, v in report.verdicts.items() if v.status == "fail"}


def test_filters_c5():
    rep = exactness_filters(cycle(5))
    assert rep.conclusion == "cannot-be-exact"
    assert "theta_ge_4" in failing(rep)
    assert rep.verdicts["theta_ge_4"].witness["theta"] == 3


def test_filters_k4():
    rep = exactness_filters(complete(4))
    assert rep.conclusion == "cannot-be-exact"
    # every K4 edge sits in exactly two triangles, so that filter passes,
    # but criticality fails: theta stays 1 after any vertex deletion
    assert rep.verdicts["two_triangles"].status == "pass"
    assert "critical" in failing(rep)


def test_filters_trees_fail_theta_gt_alpha():
    for tree in (path(4), path(7)):
        rep = exactness_filters(tree)
        assert rep.conclusion == "cannot-be-exact"
        assert "theta_gt_alpha" in failing(rep)


def test_iota_filter_direction():
    # theta >= iota holds for exact graphs only; P4 shows the reverse
    rep = exactness_filters(path(4))
    v = rep.verdicts["iota_le_theta"]
    assert v.status == "fail"
    assert v.witness["iota"] == 4 and v.witness["theta"] == 2


def test_connectivity_advisory_unless_minimal_context():
    g = complete(4)
    rep = exactness_filters(g)
    assert rep.verdicts["connected_and_co_connected"].status == "not-applicable"
    rep2 = exactness_filters(g, minimal_context=True)
    assert rep2.verdicts["connected_and_co_connected"].status == "fail"


def test_conclusion_rule():
    for g in (cycle(5), complete(4), path(4), cycle(6)):
        rep = exactness_filters(g)
        any_fail = any(v.status == "fail" for v in rep.verdicts.values())
        assert (rep.conclusion == "cannot-be-exact") == any_fail
    assert set(exactness_filters(cycle(5)).verdicts) == set(FILTER_ORDER)


def test_nonisomorphic_counts():
    # the classical counts of graphs up to isomorphism
    assert [len(nonisomorphic_graphs(n)) for n in range(1, 8)] == [1, 2, 4, 11, 34, 156, 1044]


@pytest.mark.parametrize("n", range(6))
def test_nonisomorphic_graphs_match_labeled_sweep(n):
    # reference: the canonical forms of all 2^C(n,2) labeled graphs
    pairs = list(itertools.combinations(range(n), 2))
    labeled = {canonical_form(Graph(n, [p for i, p in enumerate(pairs) if code >> i & 1]))
               for code in range(1 << len(pairs))}
    assert [canonical_form(g) for g in nonisomorphic_graphs(n)] == sorted(labeled)


def test_nonisomorphic_graphs_rejects_negative_order():
    with pytest.raises(ValueError):
        nonisomorphic_graphs(-1)


def test_explorer_small():
    rep = explore_exact_conjecture(3, use_filters=False)
    assert not rep.counterexamples
    stats = rep.orders[3]
    assert stats["classes"] == 4 and stats["non_edgeless"] == 3
    # theta(K2) = 1 but theta_1(K2) = 2: removing the edge splits the cover
    assert stats["confirmed"] == 3


def test_explorer_filters_soundness():
    on = explore_exact_conjecture(5, use_filters=True)
    off = explore_exact_conjecture(5, use_filters=False)
    assert on.counterexamples == off.counterexamples == []
    for n in range(1, 6):
        assert on.orders[n]["classes"] == off.orders[n]["classes"]
        assert (on.orders[n]["confirmed"] + on.orders[n]["counterexamples"]
                == off.orders[n]["confirmed"] + off.orders[n]["counterexamples"])
    # filters must actually save work somewhere
    assert sum(sum(s["filtered_out"].values()) for s in on.orders.values()) > 0
    assert all(s["filtered_out"] == {} for s in off.orders.values())


def test_explorer_cap():
    with pytest.raises(CapExceeded):
        explore_exact_conjecture(8)
