import pytest

from robusta import (CapExceeded, Graph, canonical_form, classical_parameter,
                     complete, complete_multipartite, cycle, disjoint_union,
                     erdos_renyi, iota, line_graph, oracle_robust, path,
                     robust_chromatic, robust_parameter, robust_via_maximal,
                     star)
from robusta.certify import CertificateError, validate_result
from robusta.exact import SolverCaps, _cannot_beat, _classical_kernel
from robusta.filters import nonisomorphic_graphs

PARAMS = ("chi", "omega", "alpha", "theta", "chi_prime")


def as_dict(res):
    return {"parameter": res.parameter, "s": res.s, "value": res.value,
            "certificate": res.certificate}


def test_classical_values(zoo):
    assert classical_parameter(zoo["K4"], "chi").value == 4
    assert classical_parameter(zoo["K4"], "omega").value == 4
    assert classical_parameter(zoo["C5"], "chi").value == 3
    assert classical_parameter(zoo["C5"], "alpha").value == 2
    two_k3 = disjoint_union([complete(3)] * 2)
    assert classical_parameter(two_k3, "theta").value == 2
    assert classical_parameter(zoo["K4"], "arboricity").value == 2
    assert classical_parameter(zoo["C4"], "arboricity").value == 2
    assert classical_parameter(path(6), "arboricity").value == 1
    assert classical_parameter(zoo["K4"], "degeneracy").value == 3
    assert classical_parameter(zoo["K4"], "chi_prime").value == 3
    assert classical_parameter(zoo["K5"], "chi_prime").value == 5
    assert classical_parameter(zoo["C6"], "chi_prime").value == 2
    assert classical_parameter(zoo["C5"], "chi_prime").value == 3


def test_classical_certificates_validate(zoo):
    for name, G in zoo.items():
        for which in ("chi", "omega", "alpha", "theta", "arboricity",
                      "degeneracy", "chi_prime"):
            res = classical_parameter(G, which)
            validate_result(G, as_dict(res))


def test_caps_raise():
    big = erdos_renyi(25, 0.2, 1)
    with pytest.raises(CapExceeded):
        classical_parameter(big, "chi")
    with pytest.raises(CapExceeded):
        robust_chromatic(erdos_renyi(20, 0.2, 1))
    caps = SolverCaps(chi_n=30)
    classical_parameter(erdos_renyi(17, 0.1, 1), "chi", caps)


def test_robust_chromatic_known_values():
    assert robust_chromatic(complete(7)).value == 3
    assert robust_chromatic(cycle(4)).value == 1
    assert robust_chromatic(complete_multipartite([3, 3, 3])).value == 3
    assert robust_chromatic(complete_multipartite([2, 3, 4])).value == 2
    assert robust_chromatic(complete_multipartite([1, 1, 1])).value == 1
    assert robust_chromatic(path(6)).value == 1


def test_robust_chromatic_equals_one_iff_quasi_unicyclic():
    from robusta import is_quasi_unicyclic
    for seed in range(40):
        G = erdos_renyi(3 + seed % 6, 0.5, seed)
        if G.n == 0:
            continue
        assert (robust_chromatic(G).value <= 1) == is_quasi_unicyclic(G)


def test_robust_parameter_known_values():
    assert robust_parameter(complete(7), "omega", 1).value == 3
    assert robust_parameter(complete(4), "alpha", 1).value == 3
    assert robust_parameter(disjoint_union([complete(3)] * 2), "theta", 1).value == 6
    assert robust_parameter(complete(4), "chi_prime", 1).value == 1
    assert robust_parameter(complete(5), "chi_prime", 1).value == 3
    lg, _ = line_graph(complete(4))
    assert robust_chromatic(lg).value == 2  # differs from chi_prime_1(K4) = 1
    assert robust_parameter(star(9), "chi_prime", 1).value == 0


def test_robust_s0_reproduces_classical():
    for seed in range(10):
        G = erdos_renyi(7, 0.5, seed)
        for which in PARAMS:
            a = robust_parameter(G, which, 0)
            b = classical_parameter(G, which)
            assert a.value == b.value
            assert a.certificate == b.certificate


def test_oracle_solver_agreement():
    """The central self-certification: the specialized searches agree with
    exhaustive enumeration over all removable sets."""
    checked = 0
    for seed in range(300):
        n = 3 + seed % 5
        p = [0.3, 0.5][seed % 2]
        G = erdos_renyi(n, p, seed)
        if G.m > 14:
            continue
        for s in (0, 1, 2):
            for which in PARAMS:
                o = oracle_robust(G, which, s) if s else classical_parameter(G, which)
                e = robust_parameter(G, which, s)
                assert o.value == e.value, (seed, n, p, s, which)
                checked += 1
    assert checked >= 300 * 10


def test_cannot_beat_is_sound_on_all_small_graphs():
    """Whenever the enumeration tiers' skip test says G - F cannot beat the
    incumbent, the classical kernel agrees; and the test decides the cases
    where no value could beat it (below 0, or above n)."""
    for n in range(7):
        for G in nonisomorphic_graphs(n):
            masks = G.adjacency_masks()
            for which in PARAMS:
                value = _classical_kernel(n, masks, which)[0]
                minimize = which in ("chi", "omega", "chi_prime")
                for best in range(n + 2):
                    skip = _cannot_beat(n, masks, which, best)
                    beats = value < best if minimize else value > best
                    assert not (skip and beats), (G.sorted_edges(), which, best)
                    if (best == 0) if minimize else (best >= n):
                        assert skip, (G.sorted_edges(), which, best)


def test_maximal_tier_agreement():
    for seed in range(30):
        G = erdos_renyi(3 + seed % 5, 0.5, seed)
        for which in PARAMS:
            assert (robust_via_maximal(G, which, 1).value
                    == robust_parameter(G, which, 1).value)


def test_robust_chromatic_matches_generic_path():
    for seed in range(40):
        G = erdos_renyi(4 + seed % 5, 0.5, seed)
        assert robust_chromatic(G).value == robust_parameter(G, "chi", 1).value


def test_robust_certificates_validate():
    for seed in range(40):
        G = erdos_renyi(4 + seed % 5, 0.5, seed)
        for s in (1, 2):
            for which in PARAMS:
                res = robust_parameter(G, which, s)
                validate_result(G, as_dict(res))


def test_certify_rejects_corruption():
    G = complete(4)
    res = as_dict(robust_chromatic(G))
    res["value"] = 1
    with pytest.raises(CertificateError):
        validate_result(G, res)
    res2 = as_dict(robust_parameter(G, "alpha", 1))
    res2["certificate"]["independent_set"] = [0, 1, 2]
    res2["certificate"]["removed_edges"] = []
    with pytest.raises(CertificateError):
        validate_result(G, res2)


def test_classical_certificate_must_not_remove_edges():
    G = complete(4)
    for which in PARAMS:
        res = as_dict(classical_parameter(G, which))
        assert "removed_edges" not in res["certificate"]
        validate_result(G, res)
        res["certificate"]["removed_edges"] = [[0, 1]]
        with pytest.raises(CertificateError):
            validate_result(G, res)


def test_iota():
    assert iota(cycle(5)).value == 5
    assert iota(complete(4)).value == 3
    assert iota(path(9)).value == 9
    res = iota(complete(5))
    validate_result(complete(5), as_dict(res))
    bad = as_dict(res)
    bad["certificate"]["inducing_set"], bad["value"] = [0, 1, 2, 3], 4  # K4 is too dense
    with pytest.raises(CertificateError):
        validate_result(complete(5), bad)


def test_iota_equals_alpha1():
    for seed in range(40):
        G = erdos_renyi(4 + seed % 5, 0.5, seed)
        assert iota(G).value == robust_parameter(G, "alpha", 1).value


def test_canonical_form():
    assert canonical_form(cycle(4)) == canonical_form(complete_multipartite([2, 2]))
    assert canonical_form(complete(3)) != canonical_form(path(3))
    c5 = cycle(5)
    assert canonical_form(c5) == canonical_form(c5.complement())
    # relabeling invariance
    g = Graph(5, [(0, 1), (1, 2), (2, 3), (3, 4), (0, 4), (1, 3)])
    relabeled = Graph(5, [(4, 3), (3, 2), (2, 1), (1, 0), (4, 0), (3, 1)])
    assert canonical_form(g) == canonical_form(relabeled)
    with pytest.raises(CapExceeded):
        canonical_form(erdos_renyi(11, 0.5, 1))
    # fast on highly symmetric graphs thanks to twin elimination
    assert canonical_form(complete(10)) == canonical_form(complete(10))


def test_bipartite_characterization():
    """chi_1 = 2 on a bipartite graph iff some component has more edges
    than vertices; otherwise chi_1 <= 1."""
    from robusta import random_bipartite
    for seed in range(60):
        a, b = 1 + seed % 5, 1 + (seed // 5) % 5
        G = random_bipartite(a, b, [0.4, 0.7][seed % 2], seed)
        heavy = any(G.induced_edge_count(c) > len(c) for c in G.components())
        value = robust_chromatic(G).value
        assert (value == 2) == heavy
        assert value <= 2
