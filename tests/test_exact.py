import hashlib
import random

import pytest

from robusta import (CapExceeded, Graph, canonical_form, classical_parameter,
                     complete, complete_multipartite, cycle, disjoint_union,
                     erdos_renyi, iota, line_graph, oracle_robust, path,
                     robust_chromatic, robust_parameter, robust_via_maximal,
                     star)
from robusta.certify import CertificateError, validate_result
from robusta.exact import (SolverCaps, _bits, _cannot_beat, _classical_kernel,
                           _clique_partition_targets, _cliques_of_size, _edge_bits,
                           _hit_all_targets, _min_max_degree, _minus)
from robusta.filters import nonisomorphic_graphs
from robusta.selection import enumerate_removable_sets

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


def test_robust_omega_uses_the_callers_caps():
    """omega_s reads omega(G) under the robust cap it was given, not under
    the classical omega cap: 21 vertices pass robust_n = 25."""
    G = erdos_renyi(21, 0.1, 1)
    caps = SolverCaps().override(robust_n=25)
    res = robust_parameter(G, "omega", 1, caps)
    validate_result(G, as_dict(res))
    assert res.value == 2  # 24 edges exceed the 21 that s = 1 can remove


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


@pytest.mark.parametrize("tier", (oracle_robust, robust_via_maximal))
@pytest.mark.parametrize("which", ("iota", "arboricity", "chi1"))
def test_enumeration_tiers_reject_unknown_parameters(tier, which):
    """The oracle and maximal tiers answer a name outside exact.ROBUST with
    the same typed error as robust_parameter, before any set is walked."""
    with pytest.raises(ValueError, match=f"unknown robust parameter '{which}'"):
        tier(complete(4), which, 1)


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


# seeded graphs on 3-7 vertices, small enough to enumerate every removable set
BRUTE_GRAPHS = [(n, p, 10 * n + seed) for n in range(3, 8) for p in (0.5, 0.7)
                for seed in range(2)]


@pytest.mark.parametrize("s", (1, 2))
def test_hitting_search_matches_brute_force(s):
    """_hit_all_targets finds a removable set meeting every target exactly
    when one exists among all removable sets: clique targets (omega_s),
    clique-partition targets (theta_s) and random target families."""
    rng = random.Random(s)
    checked = found = 0
    for spec in BRUTE_GRAPHS:
        G = erdos_renyi(*spec)
        if G.m == 0:
            continue
        removable = set(enumerate_removable_sets(G, s))  # edge-bit ints
        bits = _edge_bits(G)
        families = [_cliques_of_size(G, k, bits) for k in (2, 3, 4)]
        families += [_clique_partition_targets(G, B, bits) for B in range(1, G.n + 1)]
        for _ in range(6):  # random families of 1-8 targets, 1-3 edges each
            sizes = [rng.randint(1, min(3, G.m)) for _ in range(rng.randint(1, 8))]
            families.append([sum(1 << i for i in rng.sample(range(G.m), k)) for k in sizes])
        for targets in families:
            want = any(all(t & fm for t in targets) for fm in removable)
            F, _ = _hit_all_targets(G, s, targets)
            assert (F is not None) == want, (spec, s, targets)
            if F is not None:
                assert F in removable and all(t & F for t in targets), (spec, s, F)
                found += 1
            checked += 1
    assert checked > 200 and 0 < found < checked


@pytest.mark.parametrize("s", (1, 2))
def test_min_max_degree_matches_brute_force(s):
    """chi'_s phase 1: D* is the least max degree of G - F over every
    removable F, and the witness is removable and attains it."""
    for spec in BRUTE_GRAPHS:
        G = erdos_renyi(*spec)
        removable = set(enumerate_removable_sets(G, s))  # edge-bit ints
        edges = G.sorted_edges()

        def max_degree(fm):
            deg = [0] * G.n
            for i, (u, v) in enumerate(edges):
                if not fm >> i & 1:
                    deg[u] += 1
                    deg[v] += 1
            return max(deg, default=0)

        dstar, witness, _ = _min_max_degree(G, s)
        assert dstar == min(max_degree(fm) for fm in removable), spec
        assert witness in removable and max_degree(witness) == dstar, (spec, witness)


def test_cannot_beat_is_sound_on_all_small_graphs():
    """Whenever the enumeration tiers' skip test says G - F cannot beat the
    incumbent, the classical kernel agrees; and the test decides the cases
    where no value could beat it (below 0, or above n)."""
    for n in range(7):
        for G in nonisomorphic_graphs(n):
            masks, bits = G.adjacency_masks(), _edge_bits(G)
            for which in PARAMS:
                value = _classical_kernel(n, masks, which)[0]
                minimize = which in ("chi", "omega", "chi_prime")
                for best in range(n + 2):
                    skip, _ = _cannot_beat(n, masks, which, best, bits)
                    beats = value < best if minimize else value > best
                    assert not (skip and beats), (G.sorted_edges(), which, best)
                    if (best == 0) if minimize else (best >= n):
                        assert skip, (G.sorted_edges(), which, best)


def test_cannot_beat_witnesses_are_cliques():
    """A witness that the skip test returns comes with a decision and holds
    in the graph: it is an edge mask over G.sorted_edges().  For chi and
    omega its edges are those of one clique of at least `best` vertices;
    for alpha and theta those inside the classes of a cover of every
    vertex, once, by at most `best` disjoint cliques; for chi_prime those
    of one star of at least `best` edges."""
    for n in range(7):
        for G in nonisomorphic_graphs(n):
            masks, bits = G.adjacency_masks(), _edge_bits(G)
            edges = G.sorted_edges()
            for which in PARAMS:
                for best in range(n + 2):
                    decided, witness = _cannot_beat(n, masks, which, best, bits)
                    if witness is None:
                        continue
                    where = (edges, which, best, witness)
                    assert decided, where
                    assert witness >> len(edges) == 0, where
                    held = [edges[i] for i in _bits(witness)]
                    if which == "chi_prime":
                        centres = set(range(n))
                        for e in held:
                            centres &= set(e)
                        assert centres or not held, where
                        assert len(held) >= best, where
                        continue
                    # the classes the edges describe: their components
                    # (each a clique) and the vertices no edge touches
                    classes = []
                    for v in range(n):
                        cls = 1 << v
                        for u, w in held:
                            if v in (u, w):
                                cls |= 1 << u | 1 << w
                        if cls not in classes:
                            classes.append(cls)
                    assert sum(classes) == (1 << n) - 1, where
                    assert sum(c.bit_count() for c in classes) == n, where
                    for c in classes:
                        inside = [e for e in edges if c >> e[0] & 1 and c >> e[1] & 1]
                        k = c.bit_count()
                        assert len(inside) == k * (k - 1) // 2, where  # a clique
                        assert set(inside) <= set(held), where
                    if which in ("chi", "omega"):
                        cliques = [c for c in classes if c.bit_count() > 1]
                        assert len(cliques) <= 1, where
                        assert max((c.bit_count() for c in classes), default=0) >= best, where
                    else:
                        assert which in ("alpha", "theta") and len(classes) <= best, where


def test_witness_edge_mask_skips_only_sets_it_decides():
    """The enumeration tiers skip a set F that takes no edge of the last
    witness's edge mask.  That is sound: for every witness _cannot_beat
    returns on some G - F' at an incumbent b, every removable F that takes
    none of its edges has a kernel value that does not beat b."""
    graphs = [erdos_renyi(n, 0.4, 40 + seed) for n in range(4, 8) for seed in range(3)]
    graphs = [G for G in graphs if G.m <= 9]
    assert len(graphs) >= 8 and max(G.n for G in graphs) == 7
    checked = 0
    for G in graphs:
        n, edges, bits = G.n, G.sorted_edges(), _edge_bits(G)
        adj = G.adjacency_masks()
        for s in (1, 2):
            # (F as edge bits, adjacency masks of G - F)
            removed = [(F, _minus(adj, edges, F)) for F in enumerate_removable_sets(G, s)]
            for which in PARAMS:
                minimize = which in ("chi", "omega", "chi_prime")
                value = {F: _classical_kernel(n, masks, which)[0] for F, masks in removed}
                witnesses = {(w, best) for _, masks in removed for best in range(n + 2)
                             for w in [_cannot_beat(n, masks, which, best, bits)[1]]
                             if w is not None}
                for w, best in witnesses:
                    for F, _ in removed:
                        if not F & w:
                            beats = value[F] < best if minimize else value[F] > best
                            assert not beats, (edges, s, which, w, best, F)
                            checked += 1
    assert checked > 10_000


def _plain_enumerated(G, which, s, mode):
    """The enumeration tiers with no skip test: the classical kernel on
    every set, the first strict improvement kept."""
    minimize = which in ("chi", "omega", "chi_prime")
    edges, adj = G.sorted_edges(), G.adjacency_masks()
    best, count = None, 0
    for F in enumerate_removable_sets(G, s, mode):
        count += 1
        val, cert, _ = _classical_kernel(G.n, _minus(adj, edges, F), which)
        if best is None or (val < best[0] if minimize else val > best[0]):
            best = (val, F, cert)
    val, F, cert = best
    return val, dict(cert, removed_edges=[list(edges[i]) for i in _bits(F)]), count


def test_skipping_sets_keeps_the_first_best_set():
    """The oracle and maximal tiers skip sets by bounds and by the last
    witness, yet return what evaluating every set returns: the value, the
    first best set with its kernel certificate, and the set count."""
    checked = 0
    for seed in range(24):
        G = erdos_renyi(3 + seed % 5, [0.4, 0.6][seed % 2], seed)
        if G.m > 12:
            continue
        for s in (1, 2):
            for which in PARAMS:
                for mode, tier in (("all", oracle_robust), ("maximal", robust_via_maximal)):
                    res = tier(G, which, s)
                    got = (res.value, res.certificate, res.stats["nodes"])
                    assert got == _plain_enumerated(G, which, s, mode), (seed, s, which, mode)
                    checked += 1
    assert checked >= 200


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


# sha256 of the canonical strings, one a line, of 400 seeded erdos_renyi
# graphs (n = 1-10, five densities): the strings themselves, not only their
# equalities, must survive a change to how the search builds its rows
CANONICAL_PINNED = "602426fc7996738d65c42f7f8de76efe777010a0faad66aa90b32d7d7fdc4c64"


def test_canonical_strings_are_pinned():
    h = hashlib.sha256()
    for i in range(400):
        G = erdos_renyi(1 + i % 10, (0.2, 0.35, 0.5, 0.65, 0.8)[i // 10 % 5], i)
        h.update(canonical_form(G).encode() + b"\n")
    assert h.hexdigest() == CANONICAL_PINNED


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
