"""Pinned search results: the exact, oracle and maximal tiers must keep
their values, certificates and node counts byte for byte.

A speed change to a search (bit tricks, fewer temporary objects) must visit
the same nodes in the same order; these digests catch one that does not.
Each digest is the sha256 of (value, certificate, stats.nodes), as sorted
JSON, over a fixed list of seeded graphs.  To re-pin after a deliberate
change of search order, print `_digest(...)` for every key and say why in
the change log.
"""

import hashlib
import json

import pytest

from robusta import (Graph, complete, erdos_renyi, oracle_robust, robust_parameter,
                     robust_via_maximal)
from robusta.exact import _complement_masks, _removed_masks

PARAMS = ("chi", "omega", "alpha", "theta", "chi_prime")
EXACT_GRAPHS = [(n, p, seed) for n in (6, 7, 8, 9) for p, seed in ((0.4, n), (0.6, n + 10))]
ENUM_GRAPHS = [(n, p, seed) for n in (4, 5, 6) for p, seed in ((0.5, n), (0.7, n + 10))]

PINNED = {
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


def _digest(engine, which, s):
    graphs = EXACT_GRAPHS if engine == "exact" else ENUM_GRAPHS
    solve = {"exact": robust_parameter, "oracle": oracle_robust,
             "maximal": robust_via_maximal}[engine]
    h = hashlib.sha256()
    for n, p, seed in graphs:
        r = solve(erdos_renyi(n, p, seed), which, s)
        h.update(json.dumps([r.value, r.certificate, r.stats["nodes"]],
                            sort_keys=True).encode())
        h.update(b"\n")
    return h.hexdigest()


@pytest.mark.parametrize("key", sorted(PINNED))
def test_search_digest_is_pinned(key):
    engine, which, s = key.split(":")
    assert _digest(engine, which, int(s)) == PINNED[key]


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
