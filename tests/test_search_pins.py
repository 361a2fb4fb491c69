"""Pinned search results: the exact, oracle and maximal tiers, the
partition searches of iota and the classical arboricity, and the treewidth
DP must keep their values, certificates and node or row counts byte for
byte.

A speed change to a search (bit tricks, fewer temporary objects) must visit
the same nodes in the same order; these digests catch one that does not.
`EXACT_VALUES_PINNED` and `DP_VALUES_PINNED` hash the exact tier's and
the DP's values alone, so a re-pin after a deliberate change of search
order or row state cannot hide a changed value.
Each digest is the sha256 of (value, certificate, stats.nodes), as sorted
JSON, over a fixed list of seeded graphs.  A DP digest hashes the DP stats
without `elapsed_ms` in place of `stats.nodes`; a DP table that breaks its
ties in another row order changes its certificates.  The `dp-large` keys
hash the same over graphs whose tables are larger, and
`DECOMPOSITION_PINNED` the nice decompositions the DP runs on.  To re-pin
after a deliberate change of search order, print `_digest(...)`,
`_bench_shaped_digest(...)`, `_dp_digest(...)` or `_decomposition_digest()`
for every key and say why in the change log.
"""

import hashlib
import json
from collections import Counter

import pytest

from robusta import (Graph, classical_parameter, complete, cycle, dp_robust,
                     erdos_renyi, heuristic_decomposition, iota, make_nice,
                     maximal_outerplanar, oracle_robust, robust_parameter,
                     robust_via_maximal)
from robusta import exact
from robusta.exact import _bits, _complement_masks, _edge_bits, _minus
from robusta.treewidth import (_AlphaStrategy, _ChiStrategy, _payable, _run_dp,
                               _subsets)

PARAMS = ("chi", "omega", "alpha", "theta", "chi_prime")
EXACT_GRAPHS = [(n, p, seed) for n in (6, 7, 8, 9) for p, seed in ((0.4, n), (0.6, n + 10))]
ENUM_GRAPHS = [(n, p, seed) for n in (4, 5, 6) for p, seed in ((0.5, n), (0.7, n + 10))]
# shaped like the oracle benchmark's heaviest cells: (n, m, first seed)
BENCH_SHAPED_GRAPHS = [(6, 8, seed) for seed in (1, 40, 80)] + [(7, 6, seed) for seed in (1, 40, 80)]
# heuristic width <= 3 each, plus cycle(17), which is past the exact caps
DP_GRAPHS = [(n, 2.6 / n, seed) for n in range(4, 11) for seed in (n, n + 10)]
# larger tables: heuristic width 3 on 11-12 vertices, plus
# maximal_outerplanar(30, 2) and a 60-vertex caterpillar
DP_LARGE_GRAPHS = [(11, 0.3, 4), (11, 0.3, 11), (12, 0.3, 2), (12, 0.3, 6)]
# sparse graphs with isolated vertices and several components, n = 0-13
DECOMPOSITION_GRAPHS = [(n, p, seed) for n in range(14) for p in (0.1, 0.25)
                        for seed in range(n, n + 80, 10)]
DECOMPOSITION_PINNED = "332fbe635b58d9ffa02215fe08e3a86488cdcca5ab01ba9f72a0bf9acffe9c44"

PINNED = {
    "dp:alpha1": "de0a211939598b6feb7b6ffdc4cb38bea7b6b0f226a94e4e5c87c6d40a3238a1",
    "dp:chi1": "8fa12ee718a44cb63cc5f2f99b75bd30a41e276d5904aef831fcd8ec58d9c5b5",
    "dp:omega1": "9fd897283467a520d831baf67360db87e4417a2a6c555fc8449e0cd15dcfaf32",
    "dp:theta1": "7f466856ab9745df7da9a2ca27bf8bc1d0fd23e434842b7341476ddc84f65e33",
    "dp-large:alpha1": "97e9fb0315786bf5cb0f9f942e3a071527dcc246cde458f7efd137546449e685",
    "dp-large:chi1": "20222714d0fe8cb2746f9019fa6dcbd2c259d9075acf749d26cf589e8c1b748b",
    "dp-large:omega1": "d90c258027455fc8d61207c43e8c32c0cdf3e49bd6823591ef8ae49322875283",
    "dp-large:theta1": "1ee9d3f1ed49d8d6969afa08d6a2bb18b09fdd07c36219622a33dc10a4fa13d1",
    "classical:arboricity": "0c2c74e3aa07edd5fd1df331dfe5c32e444aec645bf66852bf7299611c54ba8e",
    "exact:iota:1": "b662415e8d95c3839302360815b08c7aa494883f3336dc6b3dd3c9333e91c777",
    "exact:chi:1": "abeb28a250cb06e93e1fa52772afcb277c203d2d81121fecadce5946d65c6764",
    "exact:chi:2": "0b64b4154e25f009b54db67c5ad1452c60a653b653f3944b8e2404e8eb41d553",
    "exact:omega:1": "ceb12e61ba9a491688d1c1eac919ec143cb4b200475c2ff58554ce07430f9731",
    "exact:omega:2": "ffb06f67f3af1a801696249ec7564f107d45912bdcdeb224edebbaea184a6297",
    "exact:alpha:1": "11b1ab593706a71a6e94656b41ca1b499b92bbd4acf37b348fc54829975895b5",
    "exact:alpha:2": "69f14d7d3e10b801a138079750aa519f914af82fbc39fe4566e1be77d214e0b8",
    "exact:theta:1": "93b5087f3d1512e7f4fd3c4e33e6adb88142e12c21ace956f552c847d9584808",
    "exact:theta:2": "ee8859c4213b0bf1ce75c25979def3a2c00cfc7800d4ea570131067eae32088c",
    "exact:chi_prime:1": "3c9decd0e2146880a77c213b0ba1a890e0586517640e5739bf40da993beff365",
    "exact:chi_prime:2": "2e5e561792a67b106c8e446ff27f04595fe0a44b678c60b4eac4d0a1f056dd6c",
    "oracle:chi:1": "860c5f47d8e0bd71be73ab2ad50be8dd89162215bca0c973a28d0eab6f06d3e4",
    "oracle:chi:2": "ec86e4bd998d52e1c3a08c700986093f38f9e5bb031bcb541c86f18e71478a39",
    "oracle:omega:1": "439e416230980c6043bea02556ea0819196e6781064b34e220f593fd2b1f9fbf",
    "oracle:omega:2": "e1baeb83e9a31666f3c8e374515b0ef78067232bb3d349192b657de46d4fe6cb",
    "oracle:alpha:1": "a1f9586dd60426d2b20f5f4427a6c744a705f6f95a3d938d24ab9467f7772d82",
    "oracle:alpha:2": "8770bdd214370ba49fc0158fac1f45e27878473661a8916e3ae955c7ea5bdaa9",
    "oracle:theta:1": "15277b379d32b10f8bf2acb891f314814ce9054958696424491d0214d4326270",
    "oracle:theta:2": "6a2227430fb62a8da3e285e3565e12ed819701ee8ba1804db44bbe700b8bd6ed",
    "oracle:chi_prime:1": "0a25efb51b792ad53754735e255645d1a10622bc61d4101ce6374c73370aa4bc",
    "oracle:chi_prime:2": "1b540d5297714625714c9b6a17d6f65b8d06cf5a1cd2c2a2baac08ac0e0889d8",
    "maximal:chi:1": "0b76934b2d79fddba869da947967345457906e6c5448df300df6249157a92653",
    "maximal:chi:2": "6f43bfffd8d6d9588ba057f5294f6bbd89f33750bd963b1105f137d7d3834899",
    "maximal:omega:1": "28e66c2209223cc6a5583a481708385eb3d38b64b31bff1f94e03999d174dd5c",
    "maximal:omega:2": "c76cd26f1b1db5d08a3b3eeb0ed3a1b69e0a2ba6c32e6c4e6c1a9beafd8a779b",
    "maximal:alpha:1": "f8d6717da6bedd36cba7534908b1f57d7bf5a749c72a87d3a96317b48e1b3fea",
    "maximal:alpha:2": "21fc58bead7773a27cf1236e2d488a615be37f4dc3c24a5a673bfecc2ac993dc",
    "maximal:theta:1": "bf57f2b4cbcb4eea51eb10156f856e5cdf8a39deb846af22783ad2dabff3957f",
    "maximal:theta:2": "753eaa9863d210d6dacd0b07d998c16b77445981d6cb7eb0c4ec5b1f0bd1d1e0",
    "maximal:chi_prime:1": "bdc1f25411c5d4ae9b77b0bcf2e0d09d38704faad8dc877bf60c3bf2d0631e81",
    "maximal:chi_prime:2": "fd800d96930a17978ce3ecf9548305ab817a0a2eafaf4ae6363733c103e1b4d0",
}


BENCH_SHAPED_PINNED = {
    "oracle:chi:1": "98dad01f47e8b9c8b5a8c9b33464063c2c914032b7a21ca713ea7638a6fbde6d",
    "oracle:chi:2": "3291731069ffa8352c35ae0d42370524b262a8b24189494164985aacfae0012a",
    "oracle:omega:1": "ed5eb031aae396898a59469ae2dbbd4d9727a7cf8d3a579fd33ee9f23c1e9e92",
    "oracle:omega:2": "6eac2f38e756bd3a4f8d80cf13a926f29df84e3d11ba8fa0e2b814f8b57517b1",
    "oracle:alpha:1": "37305ba1e264aef7761d5291070104ccacb623aa87640708e6cc6c0875a84493",
    "oracle:alpha:2": "b6a4ab0e27d314fb949b6d8af1cb662ff9b872d822b687547d9a01ed11b61c3d",
    "oracle:theta:1": "fd423079fc348d62f1aa3df8c8459d922b6e905b62b3cba87bb292c8361213d3",
    "oracle:theta:2": "cefb7f53aa643a57a10fc3cf7beba4f03eaad0b5a4909925a22c546b69a42d79",
    "oracle:chi_prime:1": "e50d22fa50656f4c051a37b600fc3a529cf990faabfa1028ad446b1be53f16fd",
    "oracle:chi_prime:2": "2820be35c389bf497107d2173d85d7af6ec6fe6d9f030e53a8bb8764839413a9",
    "maximal:chi:1": "a9f299fbf581a9b483bb114e8b368a4befbbe37cd6ca35a5d648c37771bbcc02",
    "maximal:chi:2": "93c1f2d31944e3d36cda990a0ebf59ad43524f3b53f92b689531a6d0db6bd0a0",
    "maximal:omega:1": "e61b7fcc18a1c0a147c036649661a3a4aeae8006228bf0235897fb5cfbad436e",
    "maximal:omega:2": "c05b2c7a96877a5fdb04a9a642db1fa31eb2f92d3fd211553b7f540828097413",
    "maximal:alpha:1": "3eae30ff78da1399f8aa0df47216cdc1b22d35d3de6eab950be70a4154661bf1",
    "maximal:alpha:2": "4e9085926a4c8dc422b4313ef3219d8fde607f22ac37318d1b05daa76a6af5f7",
    "maximal:theta:1": "7d76a2303377a2a6700622031699f147b5c04d29ce149a6cbaf1865d8ef04d73",
    "maximal:theta:2": "26c8d56f063de6535c282fa285e1b9d0df98234d32f9ff456f59d5594d783b65",
    "maximal:chi_prime:1": "2a19109641dd97f79ba0c475826855d1e11c2392820cd65ffaa594a1af8752f5",
    "maximal:chi_prime:2": "cf00696f3589ea6bb1d449f69681b10d6fff4f8fb4350e647b38d24daf782790",
}


def _bench_shaped(n, m, seed):
    """The first erdos_renyi(n, m / C(n, 2), seed') with exactly m edges,
    for seed' = seed, seed + 1, ..."""
    p = m / (n * (n - 1) // 2)
    while True:
        G = erdos_renyi(n, p, seed)
        if G.m == m:
            return G
        seed += 1


# chi'_s walks of 5,000-20,000 nodes, deeper than EXACT_GRAPHS reaches
# (at most 4,608 nodes at s = 1 and 140 at s = 2), per budget s
DEEP_CHI_PRIME_GRAPHS = {1: [(9, 0.5, 2), (10, 0.5, 2), (10, 0.5, 3)],
                         2: [(9, 0.5, 1), (10, 0.5, 1)]}
DEEP_CHI_PRIME_PINNED = {
    1: "156591f2dcecf43323c5165e8b8c8c5b1af85a339b0488d9bae98a42542dd6b0",
    2: "5ca575fdd86e9d078887f3093b7119943c1e1fd8ed6ee3d7c2665fda0a14c50e",
}

# graphs on which chi'_s ends in its D* + 1 fallback: phase 2 finds no
# maximal removable set that leaves a D*-edge-colourable graph
CHI_PRIME_FALLBACK_GRAPHS = {1: [(7, 0.5, 29), (7, 0.7, 18), (7, 0.9, 3)],
                             2: [(7, 0.9, 6), (9, 0.7, 1), (9, 0.7, 7)]}
CHI_PRIME_FALLBACK_PINNED = {
    1: "27d2389773e4549890a90e0473fb0cab0147a6fc22416da97b1634cf5d052d15",
    2: "3ceb30673e822adc7a0503b79d817832f8daec5d1ad5f93428736e166053c808",
    "petersen": "15474b6717c68bce4d065907bff54d860f436c8e14f5aec586e2468e4e9f60d5",
}


def _fallback_graphs(s):
    """K5 at s = 1, then the seeded graphs of CHI_PRIME_FALLBACK_GRAPHS."""
    head = [complete(5)] if s == 1 else []
    return head + [erdos_renyi(*spec) for spec in CHI_PRIME_FALLBACK_GRAPHS[s]]


def petersen():
    return Graph(10, [(i, (i + 1) % 5) for i in range(5)]
                 + [(i, i + 5) for i in range(5)]
                 + [(5 + i, 5 + (i + 2) % 5) for i in range(5)])


# sha256 of the value list alone (no certificate, no node count) of every
# exact:* key of PINNED and of both DEEP_CHI_PRIME_GRAPHS budgets
EXACT_VALUES_PINNED = {
    "exact:chi:1": "5fd65b7d263ee375705da2b9a428345500e959e2d5fa6783a2f7010275f35ccb",
    "exact:chi:2": "4920f8672b2786a9ed2be9b8f2857032d03e6a928210989f23f285fd08605c50",
    "exact:omega:1": "5fd65b7d263ee375705da2b9a428345500e959e2d5fa6783a2f7010275f35ccb",
    "exact:omega:2": "4920f8672b2786a9ed2be9b8f2857032d03e6a928210989f23f285fd08605c50",
    "exact:alpha:1": "b882ce795b853a9a61cedfa38c8dac840de4f0d2e3866dadb0321891179418eb",
    "exact:alpha:2": "1bc1077ec7f8b6d010c56a40542367299bdb419bceab1c728fa90c29b6c50394",
    "exact:theta:1": "b882ce795b853a9a61cedfa38c8dac840de4f0d2e3866dadb0321891179418eb",
    "exact:theta:2": "1bc1077ec7f8b6d010c56a40542367299bdb419bceab1c728fa90c29b6c50394",
    "exact:chi_prime:1": "d195d938e2aea41104609a766084bf6b1739692a4722b1ed4d39f0f4e5595ad4",
    "exact:chi_prime:2": "9ce76de73befd7b976d76ceeb8f5bb9bad35db45e51ae4be8d7ee0e5d860eba7",
    "deep:chi_prime:1": "8ede761fee774f3c4f54de3f5725a7ba97cf21d9bb33ec9f117a09f959120f2c",
    "deep:chi_prime:2": "9bd5ef172cfe02cc1ff3d784f8847ece4329a99b8d6a042ccfb0b4c524a67996",
}


# sha256 of the value list alone of every dp:* and dp-large:* key of PINNED;
# a change to the DP's row state may re-pin those, never these
DP_VALUES_PINNED = {
    "dp:alpha1": "2609c715604f11ea82bedb81dd9dafe3a3f10cef1609fe3b7afae53f2c6c6cc9",
    "dp:chi1": "79407ef0e90f864e2b0152b83dda08daf3db19ee7aae44d817a398fabe192761",
    "dp:omega1": "79407ef0e90f864e2b0152b83dda08daf3db19ee7aae44d817a398fabe192761",
    "dp:theta1": "2609c715604f11ea82bedb81dd9dafe3a3f10cef1609fe3b7afae53f2c6c6cc9",
    "dp-large:alpha1": "397ab45b2b76d67862f0835344bd23c4c704d2a13dfd1e46f41aeec3f20a39e7",
    "dp-large:chi1": "0dbf37903b38804c12fc3c24c2aa0bce3ac8b7ce62f6001ebce4214e4fa397a4",
    "dp-large:omega1": "0dbf37903b38804c12fc3c24c2aa0bce3ac8b7ce62f6001ebce4214e4fa397a4",
    "dp-large:theta1": "397ab45b2b76d67862f0835344bd23c4c704d2a13dfd1e46f41aeec3f20a39e7",
}


def caterpillar(n):
    """A path on the even vertices with a pendant odd vertex on each."""
    spine = list(range(0, n, 2))
    edges = list(zip(spine, spine[1:]))
    edges += [(leg - 1, leg) for leg in range(1, n, 2)]
    return Graph(n, edges)


def _dp_graphs(engine):
    if engine == "dp":
        return [erdos_renyi(*spec) for spec in DP_GRAPHS] + [cycle(17)]
    return ([erdos_renyi(*spec) for spec in DP_LARGE_GRAPHS]
            + [maximal_outerplanar(30, 2), caterpillar(60)])


def _dp_digest(which, engine="dp"):
    h = hashlib.sha256()
    for G in _dp_graphs(engine):
        r = dp_robust(G, make_nice(heuristic_decomposition(G), G), which)
        stats = {k: v for k, v in r.stats.items() if k != "elapsed_ms"}
        h.update(json.dumps([r.value, r.certificate, stats], sort_keys=True).encode())
        h.update(b"\n")
    return h.hexdigest()


def _decomposition_digest():
    """sha256 over make_nice(heuristic_decomposition(G), G) for every graph
    of DECOMPOSITION_GRAPHS: each node's kind, bag, vertex and children, in
    node order, and the root."""
    h = hashlib.sha256()
    for spec in DECOMPOSITION_GRAPHS:
        G = erdos_renyi(*spec)
        nice = make_nice(heuristic_decomposition(G), G)
        nodes = [[nd.kind, sorted(nd.bag), nd.vertex, list(nd.children)]
                 for nd in nice.nodes]
        h.update(json.dumps([nodes, nice.root]).encode())
        h.update(b"\n")
    return h.hexdigest()


def _digest(engine, which, s):
    graphs = ENUM_GRAPHS if engine in ("oracle", "maximal") else EXACT_GRAPHS
    return _results_digest(engine, which, s, [erdos_renyi(*spec) for spec in graphs])


def _bench_shaped_digest(engine, which, s):
    return _results_digest(engine, which, s,
                           [_bench_shaped(*spec) for spec in BENCH_SHAPED_GRAPHS])


def _solve(engine, G, which, s):
    if which == "iota":
        return iota(G)
    if engine == "classical":
        return classical_parameter(G, which)
    solve = {"exact": robust_parameter, "oracle": oracle_robust,
             "maximal": robust_via_maximal}[engine]
    return solve(G, which, s)


def _results_digest(engine, which, s, graphs):
    h = hashlib.sha256()
    for G in graphs:
        r = _solve(engine, G, which, s)
        h.update(json.dumps([r.value, r.certificate, r.stats["nodes"]],
                            sort_keys=True).encode())
        h.update(b"\n")
    return h.hexdigest()


@pytest.mark.parametrize("key", sorted(PINNED))
def test_search_digest_is_pinned(key):
    engine, which, *s = key.split(":")
    if engine.startswith("dp"):
        got = _dp_digest(which, engine)
    else:
        got = _digest(engine, which, int(s[0]) if s else 0)
    assert got == PINNED[key]


@pytest.mark.parametrize("key", sorted(DP_VALUES_PINNED))
def test_dp_values_are_pinned(key):
    engine, which = key.split(":")
    values = [dp_robust(G, make_nice(heuristic_decomposition(G), G), which).value
              for G in _dp_graphs(engine)]
    assert hashlib.sha256(json.dumps(values).encode()).hexdigest() == DP_VALUES_PINNED[key]


@pytest.mark.parametrize("key", sorted(BENCH_SHAPED_PINNED))
def test_bench_shaped_digest_is_pinned(key):
    engine, which, s = key.split(":")
    assert _bench_shaped_digest(engine, which, int(s)) == BENCH_SHAPED_PINNED[key]


@pytest.mark.parametrize("s", (1, 2))
@pytest.mark.parametrize("which", ("chi", "omega", "alpha", "theta", "chi_prime"))
def test_oracle_reuses_cannot_beat_witnesses(monkeypatch, which, s):
    """The oracle re-checks its last clique, clique cover or star on each
    set before it asks the bounds again, so on the bench-shaped graphs the
    bounds run on at most a quarter of the sets (on all but the first of
    each graph without the reuse)."""
    calls = []
    bound = exact._cannot_beat

    def counted(*args):
        calls.append(args)
        return bound(*args)

    monkeypatch.setattr(exact, "_cannot_beat", counted)
    sets = sum(oracle_robust(_bench_shaped(*spec), which, s).stats["nodes"]
               for spec in BENCH_SHAPED_GRAPHS)
    assert 4 * len(calls) <= sets, (len(calls), sets)


@pytest.mark.parametrize("s", sorted(DEEP_CHI_PRIME_PINNED))
def test_deep_chi_prime_walks_are_pinned(s):
    """Phase 2 of chi'_s on walks large enough that its degree prune and
    maximality test decide most nodes."""
    graphs = [erdos_renyi(*spec) for spec in DEEP_CHI_PRIME_GRAPHS[s]]
    assert _results_digest("exact", "chi_prime", s, graphs) == DEEP_CHI_PRIME_PINNED[s]


@pytest.mark.parametrize("s", (1, 2))
def test_chi_prime_fallbacks_are_pinned(s):
    """The D* + 1 fallback of chi'_s: G - F for F, the phase-1 witness
    grown to a maximal removable set, coloured by edge_coloring_upper.
    Each graph takes it, and its removed set contains the witness."""
    graphs = _fallback_graphs(s)
    for G in graphs:
        dstar, F0, _ = exact._min_max_degree(G, s)
        r = robust_parameter(G, "chi_prime", s)
        assert r.value == dstar + 1, (G.sorted_edges(), s)
        bits = _edge_bits(G)
        removed = sum(bits[u][v] for u, v in r.certificate["removed_edges"])
        assert F0 & ~removed == 0, (G.sorted_edges(), s)
    assert _results_digest("exact", "chi_prime", s, graphs) == CHI_PRIME_FALLBACK_PINNED[s]


def test_classical_chi_prime_fallback_is_pinned():
    """The Petersen graph is not 3-edge-colourable and not overfull, so the
    classical chi' fails its Delta-colouring search and colours it with
    edge_coloring_upper."""
    r = classical_parameter(petersen(), "chi_prime")
    assert (r.value, r.stats["nodes"]) == (4, 28)
    h = hashlib.sha256(json.dumps([r.value, r.certificate, r.stats["nodes"]],
                                  sort_keys=True).encode() + b"\n")
    assert h.hexdigest() == CHI_PRIME_FALLBACK_PINNED["petersen"]


@pytest.mark.parametrize("key", sorted(EXACT_VALUES_PINNED))
def test_exact_values_are_pinned(key):
    corpus, which, s = key.split(":")
    specs = EXACT_GRAPHS if corpus == "exact" else DEEP_CHI_PRIME_GRAPHS[int(s)]
    values = [robust_parameter(erdos_renyi(*spec), which, int(s)).value for spec in specs]
    assert hashlib.sha256(json.dumps(values).encode()).hexdigest() == EXACT_VALUES_PINNED[key]


def test_exact_searches_reach_no_edge_set_twice(monkeypatch):
    """The omega_s and theta_s hitting searches and chi'_s phase 1 partition
    their search spaces: within one search (one RemovableSet) no removed
    edge set is pushed twice."""
    searches: list[list[frozenset]] = []

    class Recording(exact.RemovableSet):
        def __init__(self, n, s):
            super().__init__(n, s)
            self.reached: list[frozenset] = []
            searches.append(self.reached)

        def push(self, e):
            ok = super().push(e)
            if ok:
                self.reached.append(frozenset(self.edges))
            return ok

    monkeypatch.setattr(exact, "RemovableSet", Recording)
    for spec in EXACT_GRAPHS:
        for which in ("omega", "theta"):
            for s in (1, 2):
                robust_parameter(erdos_renyi(*spec), which, s)
    for s, specs in DEEP_CHI_PRIME_GRAPHS.items():
        for spec in specs:
            exact._min_max_degree(erdos_renyi(*spec), s)
    assert sum(len(reached) for reached in searches) > 1000
    for reached in searches:
        repeated = [sorted(fs) for fs, k in Counter(reached).items() if k > 1]
        assert not repeated, repeated[:3]


def test_decomposition_pipeline_is_pinned():
    """The DP pins hash results, not decompositions; this one pins the nice
    decompositions the DP runs on, node for node."""
    assert _decomposition_digest() == DECOMPOSITION_PINNED


def test_removed_and_complement_masks_match_graph():
    graphs = [Graph(0), Graph(1), complete(5), erdos_renyi(7, 0.5, 3),
              erdos_renyi(9, 0.7, 4)]
    for G in graphs:
        edges = G.sorted_edges()
        for F in (0, sum(1 << i for i in range(0, G.m, 2)), (1 << G.m) - 1):
            masks = _minus(G.adjacency_masks(), edges, F)
            H = Graph(G.n, G.edges - {edges[i] for i in _bits(F)})
            assert masks == H.adjacency_masks()
            assert _complement_masks(G.n, masks) == H.complement().adjacency_masks()


def test_introduce_rows_never_collide():
    """An introduce writes its rows into the table without comparing them,
    which is sound only because distinct (child (R, A), T) pairs give
    distinct (R', A).  Checked on every introduce node of the DP_GRAPHS
    corpus over every child state and every subset T of v's bag
    neighbours: alpha1 keeps a row for each pair whose R' can be paid
    for."""
    for spec in DP_GRAPHS:
        G = erdos_renyi(*spec)
        edges = G.sorted_edges()
        bits = _edge_bits(G)
        nice = make_nice(heuristic_decomposition(G), G)
        tables, nodes, _ = _run_dp(G, nice, _AlphaStrategy(G, nice.width))
        for node, nd in enumerate(nodes):
            if nd.kind != "introduce":
                continue
            (c,) = nd.children
            v = nd.vertex
            bag_nbrs = sorted(u for u in G.adj[v] if u in nodes[c].bag)
            made = {}
            for R, A in {key[:2] for key in tables[c]}:
                for T in _subsets(bag_nbrs):
                    state = (R | sum(bits[v][u] for u in T), A)
                    assert state not in made, (spec, node, made.get(state), T)
                    made[state] = ((R, A), T)
            kept = {state for state in made if _payable(edges, *state)}
            assert {key[:2] for key in tables[node]} == kept, (spec, node)


def test_chi_classes_ordered_by_lowest_vertex():
    """chi1 payloads are class masks ordered by lowest vertex, the order the
    classes had as sorted vertex tuples; the introduce hook grows them in
    that order, so row order and tie breaks depend on it.  Checked on every
    row of every table of the DP_GRAPHS corpus: the classes are disjoint,
    cover the bag, and their lowest vertices increase."""
    for spec in DP_GRAPHS:
        G = erdos_renyi(*spec)
        nice = make_nice(heuristic_decomposition(G), G)
        tables, nodes, _ = _run_dp(G, nice, _ChiStrategy(G, nice.width))
        for node, tbl in tables.items():
            bag = sum(1 << v for v in nodes[node].bag)
            for _, _, classes in tbl:
                lows = [cls & -cls for cls in classes]
                assert all(cls for cls in classes), (spec, node, classes)
                assert lows == sorted(set(lows)), (spec, node, classes)
                assert sum(cls.bit_count() for cls in classes) == bag.bit_count()
                union = 0
                for cls in classes:
                    union |= cls
                assert union == bag, (spec, node, classes)
