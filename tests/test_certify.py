"""Every check of certify.validate_result fires on a certificate corrupted
for it: valid results of the solvers are changed in one place each."""

import contextlib
import copy
import functools
import io
import itertools
import json
import os
import re
import tempfile

import pytest
from hypothesis import given, settings, strategies as st

from robusta import Graph, cli, complete, path, robust_parameter
from robusta.certify import CertificateError, _main, validate_result
from robusta.exact import classical_parameter, iota
from robusta.graphio import write_dimacs

# K5 less the edge (0, 1): 9 edges on 5 vertices, so the whole edge set is
# not removable at s = 1, and the pair (0, 1) is never a surviving edge
G = Graph(5, [e for e in itertools.combinations(range(5), 2) if e != (0, 1)])


def _valid(param, s):
    if param == "iota":
        res = iota(G)
    elif s == 0:
        res = classical_parameter(G, param)
    else:
        res = robust_parameter(G, param, s)
    return {"parameter": res.parameter, "s": res.s, "value": res.value,
            "certificate": copy.deepcopy(res.certificate)}


def _surviving_edge(r):
    removed = {tuple(e) for e in r["certificate"].get("removed_edges", [])}
    return next(list(e) for e in G.sorted_edges() if e not in removed)


def _set(**fields):
    """A corruption that overwrites certificate fields; a callable value is
    applied to the result."""
    def corrupt(r):
        for key, val in fields.items():
            r["certificate"][key] = val(r) if callable(val) else val
    return corrupt


def _value(delta):
    def corrupt(r):
        r["value"] += delta
    return corrupt


def _both(*corruptions):
    def corrupt(r):
        for c in corruptions:
            c(r)
    return corrupt


CASES = [
    ("chi", 0, _set(removed_edges=[[0, 2]]), "classical certificate removes edges"),
    ("chi", 1, _set(removed_edges=[list(e) for e in G.sorted_edges()]),
     "not removable at budget 1"),
    ("chi", 1, _set(coloring=lambda r: r["certificate"]["coloring"][:-1]),
     "coloring length mismatch"),
    ("chi", 1, _value(-1), "coloring uses more colors than the value"),
    ("chi", 1, _set(coloring=[0] * G.n), r"surviving edge \(\d,\d\) monochromatic"),
    ("chi", 1, _set(partition=[[0, 1]]), "partition does not cover the vertices"),
    ("omega", 1, _value(1), "clique size differs from the value"),
    ("omega", 1, _set(clique=[0, 1]), r"clique pair \(0,1\) is not a surviving edge"),
    ("alpha", 1, _value(1), "independent set size differs from the value"),
    ("alpha", 1, _both(_set(independent_set=_surviving_edge),
                       lambda r: r.update(value=2)), r"pair \(\d,\d\) stays adjacent"),
    ("theta", 1, _set(clique_cover=None), "certificate omits the clique cover"),
    ("theta", 1, _value(1), "cover size differs from the value"),
    ("theta", 1, _both(_set(clique_cover=lambda r: r["certificate"]["clique_cover"] + [[0]]),
                       _value(1)), "vertex 0 covered twice"),
    ("theta", 1, _both(_set(clique_cover=[[0, 1], [2], [3], [4]]),
                       lambda r: r.update(value=4)),
     r"cover class pair \(0,1\) not adjacent after removal"),
    ("theta", 1, _both(_set(clique_cover=lambda r: r["certificate"]["clique_cover"][1:]),
                       _value(-1)), "cover misses vertices"),
    ("chi_prime", 1, _set(edge_coloring=lambda r: r["certificate"]["edge_coloring"][1:]),
     "edge coloring does not match the surviving edges"),
    ("chi_prime", 1, _value(-1), "edge coloring uses more colors than the value"),
    ("chi_prime", 1, _set(edge_coloring=lambda r: [[e, 0] for e, _ in
                                                   r["certificate"]["edge_coloring"]]),
     r"edge colors clash at vertex \d"),
    ("arboricity", 0, _both(_set(forest_partition=[list(range(G.n))]),
                            lambda r: r.update(value=1)), "forest class contains a cycle"),
    ("arboricity", 0, _value(1), "forest partition invalid"),
    ("degeneracy", 0, _set(elimination_ordering=lambda r:
                           r["certificate"]["elimination_ordering"][:-1]),
     "ordering is not a permutation"),
    ("degeneracy", 0, _value(-1), "ordering exceeds the claimed degeneracy"),
    ("iota", 1, _value(1), "inducing set size differs from the value"),
    ("iota", 1, _both(_set(inducing_set=list(range(G.n))), lambda r: r.update(value=G.n)),
     "induced subgraph is not quasi-unicyclic"),
    ("chi", 1, lambda r: r.update(parameter="zeta"), "unknown parameter 'zeta'"),
]


@pytest.mark.parametrize("param, s, corrupt, message", CASES,
                         ids=[f"{c[0]}-{i}" for i, c in enumerate(CASES)])
def test_each_check_rejects_its_corruption(param, s, corrupt, message):
    result = _valid(param, s)
    validate_result(G, result)
    corrupt(result)
    with pytest.raises(CertificateError, match=message):
        validate_result(G, result)


def _certify(result, graph):
    """(exit code, stdout, stderr) of `python -m robusta.certify` run in
    process on a result object and a graph."""
    out, err = io.StringIO(), io.StringIO()
    with tempfile.TemporaryDirectory() as d:
        res_file, graph_file = os.path.join(d, "r.json"), os.path.join(d, "g.col")
        with open(res_file, "w", encoding="utf-8") as fh:
            json.dump(result, fh)
        with open(graph_file, "w", encoding="utf-8") as fh:
            fh.write(write_dimacs(graph))
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = _main(["certify", res_file, graph_file])
    return code, out.getvalue(), err.getvalue()


@pytest.mark.parametrize("field, value, message", [
    ("removed_edges", [[0, 2]], r"removed pair \[0, 2\] is not an edge"),
    ("removed_edges", [[0, 1, 2]], r"removed pair \[0, 1, 2\] is not an edge"),
    ("s", -1, "budget -1 is not a non-negative integer"),
], ids=["non-edge", "three-vertices", "negative-budget"])
def test_certify_main_rejects_bad_removed_set(field, value, message):
    """A removed set naming a non-edge and a negative budget are invalid
    certificates: exit 2 with one `error:` line, no traceback."""
    P = path(3)
    res = robust_parameter(P, "chi", 1)
    result = {"parameter": "chi", "s": 1, "value": res.value,
              "certificate": res.certificate}
    assert _certify(result, P)[0] == 0
    if field == "s":
        result["s"] = value
    else:
        result["certificate"][field] = value
    code, out, err = _certify(result, P)
    assert code == 2 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert re.search(message, err), err


@pytest.mark.parametrize("graph, result, message", [
    (complete(3), {"parameter": "alpha", "s": 1, "value": 3,
                   "certificate": {"removed_edges": [], "independent_set": [0, 0, 0]}},
     "independent set repeats vertex 0"),
    (complete(3), {"parameter": "alpha", "s": 1, "value": 2,
                   "certificate": {"removed_edges": [], "independent_set": [0, 7]}},
     "independent set names 7, not a vertex of the graph"),
    (complete(3), {"parameter": "omega", "s": 1, "value": 1,
                   "certificate": {"removed_edges": [], "clique": [9]}},
     "clique names 9, not a vertex of the graph"),
    (Graph(0), {"parameter": "omega", "s": 1, "value": 1,
                "certificate": {"removed_edges": [], "clique": [0]}},
     "clique names 0, not a vertex of the graph"),
    (path(3), {"parameter": "iota", "s": 1, "value": 4,
               "certificate": {"inducing_set": [0, 1, 2, 5]}},
     "inducing set names 5, not a vertex of the graph"),
], ids=["alpha-repeated", "alpha-out-of-range", "omega-out-of-range",
        "omega-empty-graph", "iota-out-of-range"])
def test_vertex_lists_name_distinct_vertices(graph, result, message):
    """A clique, independent set or inducing set that repeats a vertex or
    names one outside 0..n-1 is invalid, even where its pairs and its size
    would pass: validate_result raises and certify exits 2."""
    with pytest.raises(CertificateError, match=message):
        validate_result(graph, result)
    code, out, err = _certify(result, graph)
    assert code == 2 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert message in err, err


@functools.cache
def _compute_report():
    """A `compute` report on G for every robust parameter at s = 1."""
    with tempfile.TemporaryDirectory() as d:
        graph_file, report_file = os.path.join(d, "g.col"), os.path.join(d, "r.json")
        with open(graph_file, "w", encoding="utf-8") as fh:
            fh.write(write_dimacs(G))
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(["compute", "--input", graph_file, "--s", "1",
                             "--param", "chi,omega,alpha,theta,chiprime",
                             "--out", report_file])
        assert code == 0
        with open(report_file, encoding="utf-8") as fh:
            return json.load(fh)


JSON = st.recursive(
    st.none() | st.booleans() | st.integers(-2, 6) | st.integers()
    | st.floats(allow_nan=False, allow_infinity=False) | st.text(max_size=3),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.text(max_size=3), inner, max_size=3),
    max_leaves=10)


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_certify_main_survives_any_field_value(data):
    """One field of a valid compute result, or of its certificate, set to
    any JSON value: certify exits 0, 2 or 3 with at most one `error:` line
    and never raises."""
    report = copy.deepcopy(_compute_report())
    assert _certify(report, G)[0] == 0
    result = data.draw(st.sampled_from(report["results"]))
    where = data.draw(st.sampled_from([result, result["certificate"]]))
    where[data.draw(st.sampled_from(sorted(where)))] = data.draw(JSON)
    code, out, err = _certify(report, G)
    assert code in (0, 2, 3)
    if code:
        assert out == "" and err.startswith("error: ") and err.count("\n") == 1
