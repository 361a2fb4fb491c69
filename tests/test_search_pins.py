"""Pinned search results: the exact, oracle and maximal tiers and the
treewidth DP must keep their values, certificates and node or row counts
byte for byte.

A speed change to a search (bit tricks, fewer temporary objects) must visit
the same nodes in the same order; these digests catch one that does not.
Each digest is the sha256 of (value, certificate, stats.nodes), as sorted
JSON, over a fixed list of seeded graphs.  A DP digest hashes the DP stats
without `elapsed_ms` in place of `stats.nodes`; a DP table that breaks its
ties in another row order changes its certificates.  To re-pin after a
deliberate change of search order, print `_digest(...)`,
`_bench_shaped_digest(...)` or `_dp_digest(...)` for every key and say why
in the change log.
"""

import hashlib
import json

import pytest

from robusta import (Graph, complete, cycle, dp_robust, erdos_renyi,
                     heuristic_decomposition, make_nice, oracle_robust,
                     robust_parameter, robust_via_maximal)
from robusta.exact import _complement_masks, _removed_masks

PARAMS = ("chi", "omega", "alpha", "theta", "chi_prime")
EXACT_GRAPHS = [(n, p, seed) for n in (6, 7, 8, 9) for p, seed in ((0.4, n), (0.6, n + 10))]
ENUM_GRAPHS = [(n, p, seed) for n in (4, 5, 6) for p, seed in ((0.5, n), (0.7, n + 10))]
# shaped like the oracle benchmark's heaviest cells: (n, m, first seed)
BENCH_SHAPED_GRAPHS = [(6, 8, seed) for seed in (1, 40, 80)] + [(7, 6, seed) for seed in (1, 40, 80)]
# heuristic width <= 3 each, plus cycle(17), which is past the exact caps
DP_GRAPHS = [(n, 2.6 / n, seed) for n in range(4, 11) for seed in (n, n + 10)]

PINNED = {
    "dp:alpha1": "3991a912260bd888d218488fc2ad854c9b6b90390ef632f49c2d709f594d0c35",
    "dp:chi1": "83499f71efd59f69491beb446b0a98f03ce2e5c154b359d5e3223f524503e57b",
    "dp:omega1": "f3a6500b9e8d3108eb0757e089f7883b7fe08a1219bd493ae0a95eaf4d996d47",
    "dp:theta1": "c36960c823d33e2f12cf816164c1a5eb354ad76c6fcaedb9a12f52a8211a0b97",
    "exact:chi:1": "abeb28a250cb06e93e1fa52772afcb277c203d2d81121fecadce5946d65c6764",
    "exact:chi:2": "0b64b4154e25f009b54db67c5ad1452c60a653b653f3944b8e2404e8eb41d553",
    "exact:omega:1": "ceb12e61ba9a491688d1c1eac919ec143cb4b200475c2ff58554ce07430f9731",
    "exact:omega:2": "ffb06f67f3af1a801696249ec7564f107d45912bdcdeb224edebbaea184a6297",
    "exact:alpha:1": "11b1ab593706a71a6e94656b41ca1b499b92bbd4acf37b348fc54829975895b5",
    "exact:alpha:2": "69f14d7d3e10b801a138079750aa519f914af82fbc39fe4566e1be77d214e0b8",
    "exact:theta:1": "7916e2d3654eb2abe46e69c905d3d76f31cb359078d289fa469b7909c2dc2b98",
    "exact:theta:2": "2483fd059ef014d946c8abe88a4087546098f89aac5b8a4a7ec96fc7f869a540",
    "exact:chi_prime:1": "2c15c40cfa00c0850006502e766b51ced8f5e2bac5392432fbdbe8d36e5ae7b9",
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


def _dp_digest(which):
    h = hashlib.sha256()
    for G in [erdos_renyi(*spec) for spec in DP_GRAPHS] + [cycle(17)]:
        r = dp_robust(G, make_nice(heuristic_decomposition(G), G), which)
        stats = {k: v for k, v in r.stats.items() if k != "elapsed_ms"}
        h.update(json.dumps([r.value, r.certificate, stats], sort_keys=True).encode())
        h.update(b"\n")
    return h.hexdigest()


def _digest(engine, which, s):
    graphs = EXACT_GRAPHS if engine == "exact" else ENUM_GRAPHS
    return _results_digest(engine, which, s, [erdos_renyi(*spec) for spec in graphs])


def _bench_shaped_digest(engine, which, s):
    return _results_digest(engine, which, s,
                           [_bench_shaped(*spec) for spec in BENCH_SHAPED_GRAPHS])


def _results_digest(engine, which, s, graphs):
    solve = {"exact": robust_parameter, "oracle": oracle_robust,
             "maximal": robust_via_maximal}[engine]
    h = hashlib.sha256()
    for G in graphs:
        r = solve(G, which, s)
        h.update(json.dumps([r.value, r.certificate, r.stats["nodes"]],
                            sort_keys=True).encode())
        h.update(b"\n")
    return h.hexdigest()


@pytest.mark.parametrize("key", sorted(PINNED))
def test_search_digest_is_pinned(key):
    engine, which, *s = key.split(":")
    got = _dp_digest(which) if engine == "dp" else _digest(engine, which, int(s[0]))
    assert got == PINNED[key]


@pytest.mark.parametrize("key", sorted(BENCH_SHAPED_PINNED))
def test_bench_shaped_digest_is_pinned(key):
    engine, which, s = key.split(":")
    assert _bench_shaped_digest(engine, which, int(s)) == BENCH_SHAPED_PINNED[key]


def test_removed_and_complement_masks_match_graph():
    graphs = [Graph(0), Graph(1), complete(5), erdos_renyi(7, 0.5, 3),
              erdos_renyi(9, 0.7, 4)]
    for G in graphs:
        edges = G.sorted_edges()
        for F in (frozenset(), frozenset(edges[::2]), frozenset(edges)):
            masks = _removed_masks(G, F)
            H = Graph(G.n, G.edges - F)
            assert masks == H.adjacency_masks()
            assert _complement_masks(G.n, masks) == H.complement().adjacency_masks()
