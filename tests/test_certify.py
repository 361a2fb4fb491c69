"""Every check of certify.validate_result fires on a certificate corrupted
for it: valid results of the solvers are changed in one place each."""

import copy
import itertools

import pytest

from robusta import Graph, robust_parameter
from robusta.certify import CertificateError, validate_result
from robusta.exact import classical_parameter, iota

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
