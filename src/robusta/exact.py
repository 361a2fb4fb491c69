"""Exact ground-truth solvers for classical and robust graph parameters.

Two tiers everywhere: specialized branch-and-bound searches sized for desk
scale (the defaults below), and a brute-force oracle tier that enumerates
every removable edge set on small instances.  The oracle is deliberately
dumb; the test suite uses it to certify the clever searches.  The oracle and
the maximal-set tier run one evaluation loop and differ only in the
enumeration mode.  Every "is F + e still removable" test, in every tier,
goes through `selection.RemovableSet`.

Strategy notes for the robust (selection-adversarial) parameters:

* chi_s: partition search.  A graph is k-colorable after removing some
  budget-s selection iff the vertex set splits into k classes each inducing
  a subgraph orientable with out-degree <= s (for s = 1: quasi-unicyclic),
  because an optimal selection only ever removes monochromatic edges.
* alpha_s: the best selection deletes exactly the edges inside the target
  set, so alpha_s equals the largest vertex set whose induced subgraph is
  orientable with out-degree <= s.  For s = 1 this is the same search as
  iota.
* omega_s: decision form.  omega_s <= v iff some removable set meets every
  (v+1)-clique; we branch on the edges of an uncovered clique, with density
  (Turan-type), coverage-counting and edge-disjoint-packing prunes.
* theta_s: decision form mirrored.  theta_s > B is witnessed by a removable
  set whose removal defeats every B-class clique cover; branch on the
  internal edges of a concrete minimum cover of the current removed graph.
* chi_prime_s: two phases.  First minimize the maximum degree D* of the
  removed graph (deficit-driven branching); the answer is then D* or D*+1,
  settled by hunting for a maximal removable set whose removal leaves a
  D*-edge-chromatic graph.
"""

from __future__ import annotations

import itertools
import time
from dataclasses import dataclass, field, asdict

from .graph import Graph
from .poly import edge_coloring_upper
# orient_with_cap is not called here; it stays bound because
# perfbench/tracing.py wraps exact.orient_with_cap by name.
from .selection import (Edge, RemovableSet, UnionFind, enumerate_removable_sets,
                        orient_with_cap, selection_from_edge_set)


class CapExceeded(ValueError):
    """Instance is larger than the configured solver cap."""


@dataclass
class SolverCaps:
    chi_n: int = 16
    theta_n: int = 16
    arboricity_n: int = 16
    omega_n: int = 20
    alpha_n: int = 20
    iota_n: int = 20
    robust_chi_n: int = 16
    robust_n: int = 12
    oracle_edges: int = 18
    chi_prime_edges: int = 45
    explorer_n: int = 7
    filters_n: int = 16

    def override(self, **kw) -> "SolverCaps":
        data = asdict(self)
        data.update({k: v for k, v in kw.items() if v is not None})
        return SolverCaps(**data)


DEFAULT_CAPS = SolverCaps()

CLASSICAL = ("chi", "omega", "alpha", "theta", "chi_prime", "arboricity", "degeneracy")
ROBUST = ("chi", "omega", "alpha", "theta", "chi_prime")


@dataclass
class ParameterResult:
    parameter: str
    s: int
    value: int
    certificate: dict
    stats: dict = field(default_factory=dict)


def _bits(mask: int):
    while mask:
        b = mask & -mask
        yield b.bit_length() - 1
        mask ^= b


# ---------------------------------------------------------------------------
# classical solvers (bitmask based)
# ---------------------------------------------------------------------------


def _max_clique(n: int, masks: list[int], floor: int = 0):
    """Largest clique via branch and bound with a greedy coloring bound.
    Only cliques larger than `floor` count: with none, the clique is []."""
    best_mask = 0
    best_size = floor
    nodes = 0

    def expand(rmask, rsize, pmask):
        nonlocal best_mask, best_size, nodes
        nodes += 1
        if pmask == 0:
            if rsize > best_size:
                best_mask, best_size = rmask, rsize
            return
        classes: list[int] = []
        colored: list[tuple[int, int]] = []
        for v in _bits(pmask):
            for ci in range(len(classes)):
                if not (classes[ci] & masks[v]):
                    classes[ci] |= 1 << v
                    colored.append((v, ci + 1))
                    break
            else:
                classes.append(1 << v)
                colored.append((v, len(classes)))
        colored.sort(key=lambda t: t[1])
        for v, c in reversed(colored):
            if rsize + c <= best_size:
                return
            expand(rmask | (1 << v), rsize + 1, pmask & masks[v])
            pmask &= ~(1 << v)

    full = (1 << n) - 1
    expand(0, 0, full)
    return sorted(_bits(best_mask)), nodes


def _greedy_clique(n: int, masks: list[int]) -> list[int]:
    """A maximal clique grown by taking, each time, the candidate with the
    most candidate neighbours (lowest index on ties)."""
    clique = []
    cand = (1 << n) - 1
    while cand:
        v = max(_bits(cand), key=lambda u: ((masks[u] & cand).bit_count(), -u))
        clique.append(v)
        cand &= masks[v]
    return clique


def _dsatur(n: int, masks: list[int]) -> list[int]:
    color = [-1] * n
    seen = [0] * n  # colours on each vertex's neighbours, as a bitmask
    degs = [masks[v].bit_count() for v in range(n)]
    uncolored = (1 << n) - 1
    while uncolored:
        v = max(_bits(uncolored), key=lambda u: (seen[u].bit_count(), degs[u], -u))
        c = (~seen[v] & (seen[v] + 1)).bit_length() - 1  # lowest free colour
        color[v] = c
        uncolored ^= 1 << v
        for w in _bits(masks[v]):
            seen[w] |= 1 << c
    return color


def _k_coloring(n: int, masks: list[int], k: int, clique: list[int]):
    """Backtracking k-coloring decision with the clique precolored."""
    if len(clique) > k:
        return None, 0
    color = [-1] * n
    for i, v in enumerate(clique):
        color[v] = i
    nodes = 0

    def options(v):
        used = {color[w] for w in _bits(masks[v]) if color[w] >= 0}
        cap = min(k, max((c for c in color if c >= 0), default=-1) + 2)
        return [c for c in range(cap) if c not in used]

    def rec():
        nonlocal nodes
        nodes += 1
        pick, opts = -1, None
        for v in range(n):
            if color[v] >= 0:
                continue
            o = options(v)
            if opts is None or len(o) < len(opts):
                pick, opts = v, o
                if not o:
                    break
        if pick < 0:
            return True
        for c in opts:
            color[pick] = c
            if rec():
                return True
            color[pick] = -1
        return False

    ok = rec()
    return (color[:] if ok else None), nodes


def _chromatic(n: int, masks: list[int]):
    if n == 0:
        return 0, [], 0
    clique, nodes = _max_clique(n, masks)
    lb = len(clique)
    greedy = _dsatur(n, masks)
    ub = max(greedy) + 1
    if lb == ub:
        return ub, greedy, nodes
    for k in range(lb, ub):
        coloring, extra = _k_coloring(n, masks, k, clique)
        nodes += extra
        if coloring is not None:
            return k, coloring, nodes
    return ub, greedy, nodes


def _edge_coloring_decision(G: Graph, k: int):
    """Proper edge coloring with <= k colors, or None.  Edges at one maximum
    degree vertex are precolored (color permutations are symmetries)."""
    edges = G.sorted_edges()
    if not edges:
        return {}, 0
    if G.max_degree() > k:
        return None, 0
    anchor = max(range(G.n), key=lambda v: (G.degree(v), -v))
    anchor_edges = [(anchor, w) if anchor < w else (w, anchor) for w in G.adj[anchor]]
    assign: dict[Edge, int] = {}
    used: list[int] = [0] * G.n  # color bitmask per vertex
    for i, e in enumerate(sorted(anchor_edges)):
        assign[e] = i
        used[e[0]] |= 1 << i
        used[e[1]] |= 1 << i
    rest = [e for e in edges if e not in assign]
    full = (1 << k) - 1
    nodes = 0

    def rec():
        nonlocal nodes
        nodes += 1
        pick = None
        pick_free = None
        for e in rest:
            if e in assign:
                continue
            free = full & ~(used[e[0]] | used[e[1]])
            cnt = free.bit_count()
            if pick is None or cnt < pick_free[1]:
                pick, pick_free = e, (free, cnt)
                if cnt == 0:
                    break
        if pick is None:
            return True
        free = pick_free[0]
        if free == 0:
            return False
        for c in _bits(free):
            assign[pick] = c
            used[pick[0]] |= 1 << c
            used[pick[1]] |= 1 << c
            if rec():
                return True
            del assign[pick]
            used[pick[0]] &= ~(1 << c)
            used[pick[1]] &= ~(1 << c)
        return False

    ok = rec()
    return (dict(assign) if ok else None), nodes


def _chi_prime(G: Graph):
    m = G.m
    if m == 0:
        return 0, {}, 0
    delta = G.max_degree()
    if delta <= 1:
        return 1, {e: 0 for e in G.edges}, 0
    if m > delta * (G.n // 2):
        # overfull: more edges than delta disjoint near-perfect matchings hold
        return delta + 1, edge_coloring_upper(G), 0
    coloring, nodes = _edge_coloring_decision(G, delta)
    if coloring is not None:
        return delta, coloring, nodes
    return delta + 1, edge_coloring_upper(G), nodes


# ---------------------------------------------------------------------------
# class feasibility predicates and the partition engine
# ---------------------------------------------------------------------------


def _induced_edges(G: Graph, mask: int) -> list[Edge]:
    return [e for e in G.edges if (mask >> e[0]) & 1 and (mask >> e[1]) & 1]


def _mask_orientable(G: Graph, mask: int, s: int) -> bool:
    F = RemovableSet(G.n, s)
    return all(F.push(e) for e in _induced_edges(G, mask))


def _mask_forest(G: Graph, mask: int) -> bool:
    uf = UnionFind(G.n)
    for u, v in _induced_edges(G, mask):
        ru, rv = uf.find(u), uf.find(v)
        if ru == rv:
            return False
        uf.add_edge(u, v)
    return True


def _min_partition(G: Graph, feasible):
    """Fewest classes with every class mask accepted by `feasible`.

    Iterative deepening over k; vertices placed in descending degree order;
    only the first empty class is tried (class symmetry).
    Returns (k, class masks, nodes).
    """
    n = G.n
    if n == 0:
        return 0, [], 0
    order = sorted(range(n), key=lambda v: (-G.degree(v), v))
    nodes = 0

    def decide(k):
        nonlocal nodes
        classes = [0] * k

        def rec(i):
            nonlocal nodes
            nodes += 1
            if i == n:
                return True
            v = order[i]
            vb = 1 << v
            seen_empty = False
            for ci in range(k):
                if classes[ci] == 0:
                    if seen_empty:
                        continue
                    seen_empty = True
                if feasible(classes[ci] | vb):
                    classes[ci] |= vb
                    if rec(i + 1):
                        return True
                    classes[ci] &= ~vb
            return False

        return classes if rec(0) else None

    for k in range(1, n + 1):
        classes = decide(k)
        if classes is not None:
            return k, [c for c in classes if c], nodes
    raise AssertionError("singleton partition must always succeed")


def _max_feasible_subset(G: Graph, feasible):
    """Largest vertex mask accepted by `feasible` (monotone decreasing)."""
    n = G.n
    order = sorted(range(n), key=lambda v: (G.degree(v), v))
    best = 0
    best_size = 0
    nodes = 0

    def rec(i, mask, size):
        nonlocal best, best_size, nodes
        nodes += 1
        if size + (n - i) <= best_size:
            return
        if i == n:
            if size > best_size:
                best, best_size = mask, size
            return
        v = order[i]
        cand = mask | (1 << v)
        if feasible(cand):
            rec(i + 1, cand, size + 1)
        rec(i + 1, mask, size)

    rec(0, 0, 0)
    return best, nodes


# ---------------------------------------------------------------------------
# classical parameter front end
# ---------------------------------------------------------------------------


def _require(cond: bool, what: str, size: int, cap: int, counted: str = "vertex count"):
    if not cond:
        raise CapExceeded(f"{what}: {counted} {size} exceeds cap {cap}")


def _removed_masks(G: Graph, F) -> list[int]:
    """Adjacency masks of G - F, for an iterable F of edges of G."""
    masks = [0] * G.n
    for u, v in G.edges.difference(F):
        masks[u] |= 1 << v
        masks[v] |= 1 << u
    return masks


def _complement_masks(n: int, masks: list[int]) -> list[int]:
    full = (1 << n) - 1
    return [full ^ m ^ (1 << v) for v, m in enumerate(masks)]


def _classical_kernel(n: int, masks: list[int], which: str):
    """(value, certificate, nodes) of the classical chi, omega, alpha, theta
    or chi_prime of the graph with adjacency masks `masks`, with no cap
    check.  The classical front end, the enumeration tiers and the theta
    search all evaluate through here."""
    if which == "chi":
        value, coloring, nodes = _chromatic(n, masks)
        return value, {"coloring": coloring}, nodes
    if which == "omega":
        clique, nodes = _max_clique(n, masks)
        return max(len(clique), 1 if n else 0), {"clique": clique}, nodes
    if which == "alpha":
        ind, nodes = _max_clique(n, _complement_masks(n, masks))
        return max(len(ind), 1 if n else 0), {"independent_set": ind}, nodes
    if which == "theta":
        value, coloring, nodes = _chromatic(n, _complement_masks(n, masks))
        cover: list[list[int]] = [[] for _ in range(value)]
        for v, c in enumerate(coloring):
            cover[c].append(v)
        cover = [sorted(c) for c in cover if c]
        return len(cover), {"clique_cover": cover}, nodes
    if which == "chi_prime":
        # edge_coloring_upper works on a Graph
        H = Graph(n, [(u, v) for u in range(n) for v in _bits(masks[u] >> u << u)])
        value, coloring, nodes = _chi_prime(H)
        return value, {"edge_coloring": [[list(e), c] for e, c in sorted(coloring.items())]}, nodes
    raise ValueError(f"unknown robust parameter {which!r}")


def _cannot_beat(n: int, masks: list[int], which: str, best: int) -> bool:
    """True when classical bounds show that `which` of the graph with
    adjacency masks `masks` cannot strictly beat the incumbent `best >= 0`:
    cannot go below it for chi, omega and chi_prime, nor above it for alpha
    and theta.  False means only that the bounds did not decide."""
    if which in ("chi", "omega"):
        return len(_greedy_clique(n, masks)) >= best
    if which == "chi_prime":
        return max((m.bit_count() for m in masks), default=0) >= best
    comp = _complement_masks(n, masks)
    if which == "alpha":
        return not _max_clique(n, comp, floor=best)[0]
    if which == "theta":
        if max(_dsatur(n, comp), default=-1) < best:  # at most best colours
            return True
        return _k_coloring(n, comp, best, _greedy_clique(n, comp))[0] is not None
    raise ValueError(f"unknown robust parameter {which!r}")


def classical_parameter(G: Graph, which: str, caps: SolverCaps = DEFAULT_CAPS) -> ParameterResult:
    t0 = time.perf_counter()
    if which == "arboricity":
        _require(G.n <= caps.arboricity_n, "arboricity", G.n, caps.arboricity_n)
        value, class_masks, nodes = _min_partition(G, lambda mask: _mask_forest(G, mask))
        cert = {"forest_partition": [sorted(_bits(c)) for c in class_masks]}
    elif which == "degeneracy":
        from .poly import degeneracy_order
        value, order = degeneracy_order(G)
        cert, nodes = {"elimination_ordering": order}, 0
    elif which in ROBUST:
        if which == "chi_prime":
            size, cap, counted = G.m, caps.chi_prime_edges, "edge count"
        else:
            size, cap, counted = G.n, getattr(caps, f"{which}_n"), "vertex count"
        _require(size <= cap, which, size, cap, counted)
        value, cert, nodes = _classical_kernel(G.n, G.adjacency_masks(), which)
    else:
        raise ValueError(f"unknown classical parameter {which!r}")
    elapsed = (time.perf_counter() - t0) * 1000
    return ParameterResult(which, 0, value, cert, {"nodes": nodes, "elapsed_ms": elapsed})


# ---------------------------------------------------------------------------
# robust solvers
# ---------------------------------------------------------------------------


def _chi_robust(G: Graph, s: int):
    """chi_s by partition search, with partition + selection + coloring certificate."""
    value, class_masks, nodes = _min_partition(G, lambda mask: _mask_orientable(G, mask, s))
    classes = [sorted(_bits(c)) for c in class_masks]
    intra = [e for e in G.sorted_edges()
             if any((c >> e[0]) & 1 and (c >> e[1]) & 1 for c in class_masks)]
    sel = selection_from_edge_set(intra, G, s)
    coloring = [0] * G.n
    for ci, c in enumerate(classes):
        for v in c:
            coloring[v] = ci
    return value, {
        "partition": classes,
        "selection": sel.to_pairs(),
        "removed_edges": [list(e) for e in sorted(sel.removed_edges())],
        "coloring": coloring,
    }, nodes


def iota(G: Graph, caps: SolverCaps = DEFAULT_CAPS) -> ParameterResult:
    """Largest vertex set inducing a quasi-unicyclic subgraph."""
    t0 = time.perf_counter()
    _require(G.n <= caps.iota_n, "iota", G.n, caps.iota_n)
    best, nodes = _max_feasible_subset(G, lambda mask: _mask_orientable(G, mask, 1))
    elapsed = (time.perf_counter() - t0) * 1000
    return ParameterResult("iota", 1, best.bit_count(),
                           {"inducing_set": sorted(_bits(best))},
                           {"nodes": nodes, "elapsed_ms": elapsed})


def _alpha_robust(G: Graph, s: int):
    best, nodes = _max_feasible_subset(G, lambda mask: _mask_orientable(G, mask, s))
    vs = sorted(_bits(best))
    F = _induced_edges(G, best)
    return len(vs), {"removed_edges": [list(e) for e in sorted(F)],
                     "independent_set": vs}, nodes


def _cliques_of_size(G: Graph, size: int) -> list[tuple[int, ...]]:
    masks = G.adjacency_masks()
    out: list[tuple[int, ...]] = []

    def extend(partial: list[int], cand: int, start: int):
        if len(partial) == size:
            out.append(tuple(partial))
            return
        for v in _bits(cand):
            if v < start:
                continue
            extend(partial + [v], cand & masks[v], v + 1)

    extend([], (1 << G.n) - 1, 0)
    return out


def _edge_ids(G: Graph) -> tuple[list[Edge], dict[Edge, int]]:
    edges = G.sorted_edges()
    return edges, {e: i for i, e in enumerate(edges)}


class _HitCounter:
    def __init__(self):
        self.nodes = 0


def _hit_all_targets(G: Graph, s: int, target_masks: list[int],
                     counter: _HitCounter):
    """A removable set (edge list) meeting every target edge-mask, or None.

    Branch and bound on the target with the fewest addable edges, with a
    visited-set over partial removals, a coverage-counting prune and a
    greedy edge-disjoint packing prune.
    """
    edges = G.sorted_edges()
    n, m = G.n, len(edges)
    budget = s * n
    if not target_masks:
        return []
    if any(mask == 0 for mask in target_masks):
        return None
    per_edge = [0] * m  # targets containing each edge, as index masks
    for qi, mask in enumerate(target_masks):
        for ei in _bits(mask):
            per_edge[ei] |= 1 << qi
    static_cov = [pm.bit_count() for pm in per_edge]
    max_static = max(static_cov) if static_cov else 0
    all_q = (1 << len(target_masks)) - 1
    visited: set[int] = set()
    F = RemovableSet(n, s)
    scan_cap = 128  # prunes stay sound when scans stop early

    def rec(fmask: int, unhit: int):
        counter.nodes += 1
        if unhit == 0:
            return list(F.edges)
        if len(F.edges) >= budget:
            return None
        if fmask in visited:
            return None
        visited.add(fmask)
        addset = 0
        addable = []
        for ei in range(m):
            if not (fmask >> ei) & 1 and F.can_add(edges[ei]):
                addset |= 1 << ei
                addable.append(ei)
        if not addable:
            return None
        left = budget - len(F.edges)
        n_unhit = unhit.bit_count()
        if n_unhit > left * max_static:
            return None
        if n_unhit <= scan_cap:
            maxcov = max((per_edge[ei] & unhit).bit_count() for ei in addable)
            if maxcov == 0 or n_unhit > left * maxcov:
                return None
        # greedy edge-disjoint packing: disjoint unhit targets need
        # pairwise-distinct removed edges (early-capped scan, still sound)
        packed = 0
        taken = 0
        scanned = 0
        for qi in _bits(unhit):
            scanned += 1
            if scanned > scan_cap and packed <= left:
                break
            qm = target_masks[qi]
            if qm & taken:
                continue
            if not (qm & addset):
                return None  # an unhit target with no addable edge
            taken |= qm
            packed += 1
            if packed > left:
                return None
        # branch on an unhit target with few addable edges: the first one
        # with the fewest, stopping at one or fewer
        pick = fewest = -1
        scanned = 0
        for qi in _bits(unhit):
            scanned += 1
            cnt = (target_masks[qi] & addset).bit_count()
            if pick < 0 or cnt < fewest:
                pick, fewest = qi, cnt
                if cnt <= 1:
                    break
            if scanned > scan_cap:
                break
        if fewest == 0:
            return None
        target_opts = sorted(_bits(target_masks[pick] & addset),
                             key=lambda ei: -static_cov[ei])
        for ei in target_opts:
            F.push(edges[ei])
            res = rec(fmask | (1 << ei), unhit & ~per_edge[ei])
            F.pop()
            if res is not None:
                return res
        return None

    return rec(0, all_q)


def _omega_robust(G: Graph, s: int):
    if G.n == 0:
        return 0, {"removed_edges": [], "clique": []}, 0
    base = classical_parameter(G, "omega")
    omega0 = base.value
    edges, eid = _edge_ids(G)
    n, m = G.n, G.m
    budget = s * n
    counter = _HitCounter()

    def decision(v):
        """A removable set meeting every (v+1)-clique, or None."""
        if v >= omega0:
            return []
        # density: any removed graph keeps >= m - budget edges; above the
        # Turan threshold a (v+1)-clique is unavoidable
        if v >= 1 and (m - budget) > (1 - 1 / v) * n * n / 2:
            return None
        cliques = _cliques_of_size(G, v + 1)
        if not cliques:
            return []
        cmask = []
        for Q in cliques:
            mask = 0
            for a, b in itertools.combinations(Q, 2):
                mask |= 1 << eid[(a, b)]
            cmask.append(mask)
        return _hit_all_targets(G, s, cmask, counter)

    for v in range(1, omega0 + 1):
        F = decision(v)
        if F is not None:
            clique, extra = _max_clique(n, _removed_masks(G, F))
            counter.nodes += extra
            if not clique and n:
                clique = [0]
            return v, {"removed_edges": [list(e) for e in sorted(F)],
                       "clique": clique}, counter.nodes
    raise AssertionError("decision at v = omega must succeed")


def _clique_partition_targets(G: Graph, B: int, eid: dict[Edge, int]) -> list[int]:
    """Edge masks of the intra-class edges of every partition of V into
    exactly B cliques of G, reduced to the inclusion-minimal masks.

    theta(G - F) > B holds iff F meets all of them: a cover of G - F is a
    clique partition of G avoiding F, and partitions with fewer classes
    only carry larger edge masks (splitting a class strictly shrinks one).
    """
    n = G.n
    adj = G.adjacency_masks()
    masks: set[int] = set()
    classes: list[list[int]] = []
    class_masks: list[int] = []  # vertex mask of each class

    def rec(v: int, mask: int):
        if len(classes) > B or len(classes) + (n - v) < B:
            return
        if v == n:
            if len(classes) == B:
                masks.add(mask)
            return
        for i, cls in enumerate(classes):
            if class_masks[i] & adj[v] == class_masks[i]:
                add = 0
                for u in cls:
                    add |= 1 << eid[(u, v)]
                cls.append(v)
                class_masks[i] |= 1 << v
                rec(v + 1, mask | add)
                class_masks[i] ^= 1 << v
                cls.pop()
        classes.append([v])
        class_masks.append(1 << v)
        rec(v + 1, mask)
        class_masks.pop()
        classes.pop()

    rec(0, 0)
    kept: list[int] = []
    for mask in sorted(masks, key=int.bit_count):
        if not any(km & mask == km for km in kept):
            kept.append(mask)
    return kept


def _theta_robust(G: Graph, s: int):
    """Ascend from greedy incumbents; each improvement step finds a removable
    set defeating every B-class clique partition (a hitting problem over
    the partitions' intra-class edge masks)."""
    n = G.n
    if n == 0:
        return 0, {"removed_edges": [], "clique_cover": []}, 0
    _, eid = _edge_ids(G)
    counter = _HitCounter()

    best_F: frozenset[Edge] = frozenset()
    best_val, best_cert, _ = _classical_kernel(n, G.adjacency_masks(), "theta")
    # greedy incumbent: a maximal removable set grown in edge order
    greedy = _maximal_extension(G, s, frozenset())
    val, cert, _ = _classical_kernel(n, _removed_masks(G, greedy), "theta")
    if val > best_val:
        best_val, best_F, best_cert = val, greedy, cert

    while best_val < n:
        targets = _clique_partition_targets(G, best_val, eid)
        hit = _hit_all_targets(G, s, targets, counter)
        if hit is None:
            break
        F = frozenset(hit)
        val, cert, _ = _classical_kernel(n, _removed_masks(G, F), "theta")
        if val <= best_val:
            # a set meeting every best_val-class cover must raise theta;
            # without this check the loop would re-solve the same targets
            raise AssertionError(f"theta_{s} search: removing {sorted(F)} gives "
                                 f"theta {val}, not above {best_val}")
        best_val, best_F, best_cert = val, F, cert
    return best_val, {"removed_edges": [list(e) for e in sorted(best_F)],
                      "clique_cover": best_cert["clique_cover"]}, counter.nodes


def _min_max_degree(G: Graph, s: int):
    """(D*, witness F): minimum over removable F of max degree of G - F."""
    n, m = G.n, G.m
    if m == 0:
        return 0, [], 0
    budget = s * n
    degs = [G.degree(v) for v in range(n)]
    lo = max(0, min(degs) - 2 * s)
    if m > budget:
        lo = max(lo, -(-(2 * (m - budget)) // n))
    _, eid = _edge_ids(G)
    nodes = 0

    def decision(v):
        nonlocal nodes
        visited: set[int] = set()  # edge-id masks of the sets F tried
        F = RemovableSet(n, s)
        residual = degs[:]  # degrees of G - F

        def rec(fmask: int):
            nonlocal nodes
            nodes += 1
            if fmask in visited:
                return None
            visited.add(fmask)
            over = [(residual[x] - v, x) for x in range(n) if residual[x] > v]
            if not over:
                return sorted(F.edges)
            deficit = sum(d for d, _ in over)
            if len(F.edges) + -(-deficit // 2) > budget:
                return None
            over.sort(reverse=True)
            _, x = over[0]
            cand = []
            for w in G.adj[x]:
                e = (x, w) if x < w else (w, x)
                if not (fmask >> eid[e]) & 1 and F.can_add(e):
                    cand.append(e)
            if len(cand) < residual[x] - v:
                return None
            for e in cand:
                F.push(e)
                residual[e[0]] -= 1
                residual[e[1]] -= 1
                res = rec(fmask | (1 << eid[e]))
                residual[e[0]] += 1
                residual[e[1]] += 1
                F.pop()
                if res is not None:
                    return res
            return None

        return rec(0)

    v = lo
    while True:
        F = decision(v)
        if F is not None:
            return v, F, nodes
        v += 1


def _chi_prime_robust(G: Graph, s: int):
    n, m = G.n, G.m
    if m == 0:
        return 0, {"removed_edges": [], "edge_coloring": []}, 0
    dstar, F0, nodes = _min_max_degree(G, s)
    if dstar == 0:
        # some removable set deletes every edge; F0 witnesses it
        if len(F0) != m:
            raise AssertionError(f"chi'_{s} search: D* = 0 but the witness "
                                 f"removes {len(F0)} of {m} edges")
        return 0, {"removed_edges": [list(e) for e in sorted(F0)],
                   "edge_coloring": []}, nodes

    # hunt for a maximal removable set whose removal is D*-edge-chromatic
    edges = G.sorted_edges()
    degs = [G.degree(v) for v in range(n)]
    found: dict | None = None

    def leaf_test(F: frozenset[Edge]):
        nonlocal nodes
        H = Graph(n, G.edges - F)
        if H.max_degree() > dstar:
            return None
        if H.m > dstar * (n // 2):
            return None
        coloring, extra = _edge_coloring_decision(H, dstar)
        nodes += extra
        if coloring is None:
            return None
        return {"removed_edges": [list(e) for e in sorted(F)],
                "edge_coloring": [[list(e), c] for e, c in sorted(coloring.items())]}

    F = RemovableSet(n, s)

    def dfs(i: int):
        nonlocal found, nodes
        if found is not None:
            return
        nodes += 1
        # degree prune: every vertex must still be reducible to <= dstar
        for x in range(n):
            have = sum(1 for e in F.edges if x in e)
            future = sum(1 for j in range(i, m) if x in edges[j])
            if degs[x] - have - future > dstar:
                return
        if i == m:
            chosen = frozenset(F.edges)
            if any(e not in chosen and F.can_add(e) for e in edges):
                return  # not maximal
            found = leaf_test(chosen)
            return
        if F.push(edges[i]):
            dfs(i + 1)
            F.pop()
        dfs(i + 1)

    dfs(0)
    if found is not None:
        return dstar, found, nodes
    F = _maximal_extension(G, s, frozenset(F0))
    H = Graph(n, G.edges - F)
    coloring = edge_coloring_upper(H)
    used = len(set(coloring.values()))
    if used > dstar + 1:
        # F contains F0, so G - F has max degree <= D*; the fan-rotation
        # colouring then uses at most D* + 1 colours
        raise AssertionError(f"chi'_{s} search: edge colouring of G - F uses "
                             f"{used} colours, more than D* + 1 = {dstar + 1}")
    return dstar + 1, {"removed_edges": [list(e) for e in sorted(F)],
                       "edge_coloring": [[list(e), c] for e, c in sorted(coloring.items())]}, nodes


def _maximal_extension(G: Graph, s: int, F: frozenset[Edge]) -> frozenset[Edge]:
    """The removable set F grown greedily, in edge order, to a maximal one."""
    grown = RemovableSet(G.n, s)
    for e in sorted(F):
        grown.push(e)
    for e in G.sorted_edges():
        if e not in F:
            grown.push(e)
    return frozenset(grown.edges)


# ---------------------------------------------------------------------------
# robust front end: exact, oracle and maximal-enumeration tiers
# ---------------------------------------------------------------------------


_MINIMIZED = {"chi": True, "omega": True, "chi_prime": True, "alpha": False, "theta": False}


def _enumerated_robust(G: Graph, which: str, s: int, mode: str,
                       edge_cap: int | None) -> ParameterResult:
    """Best classical value over G - F for every F that
    enumerate_removable_sets streams in `mode`; stats.nodes counts the sets.
    The first F with the best value wins; a set that _cannot_beat the
    incumbent is counted but not evaluated."""
    t0 = time.perf_counter()
    minimize = _MINIMIZED[which]
    best = None
    count = 0
    for F in enumerate_removable_sets(G, s, mode, edge_cap=edge_cap):
        count += 1
        masks = _removed_masks(G, F)
        if best is not None and _cannot_beat(G.n, masks, which, best[0]):
            continue
        val, cert, _ = _classical_kernel(G.n, masks, which)
        if best is None or (val < best[0] if minimize else val > best[0]):
            best = (val, F, cert)
    val, F, cert = best
    cert["removed_edges"] = [list(e) for e in sorted(F)]
    elapsed = (time.perf_counter() - t0) * 1000
    return ParameterResult(which, s, val, cert,
                           {"nodes": count, "elapsed_ms": elapsed})


def oracle_robust(G: Graph, which: str, s: int,
                  caps: SolverCaps = DEFAULT_CAPS) -> ParameterResult:
    """Exhaustive enumeration over every removable set; the test oracle."""
    _require(G.m <= caps.oracle_edges, "oracle", G.m, caps.oracle_edges, "edge count")
    return _enumerated_robust(G, which, s, "all", caps.oracle_edges)


def robust_via_maximal(G: Graph, which: str, s: int) -> ParameterResult:
    """Generic solver over inclusion-maximal removable sets (monotonicity:
    removing more edges never hurts the objective)."""
    return _enumerated_robust(G, which, s, "maximal", None)


def robust_parameter(G: Graph, which: str, s: int,
                     caps: SolverCaps = DEFAULT_CAPS) -> ParameterResult:
    """The exact tier: the specialized search for `which` at budget s,
    and the classical parameter at s = 0."""
    if which not in ROBUST:
        raise ValueError(f"unknown robust parameter {which!r}")
    if s < 0:
        raise ValueError("budget must be non-negative")
    if s == 0:
        return classical_parameter(G, which, caps)
    cap = caps.robust_chi_n if which == "chi" else caps.robust_n
    _require(G.n <= cap, f"robust {which}", G.n, cap)
    t0 = time.perf_counter()
    if which == "chi":
        value, cert, nodes = _chi_robust(G, s)
    elif which == "alpha":
        value, cert, nodes = _alpha_robust(G, s)
    elif which == "omega":
        value, cert, nodes = _omega_robust(G, s)
    elif which == "theta":
        value, cert, nodes = _theta_robust(G, s)
    else:
        value, cert, nodes = _chi_prime_robust(G, s)
    elapsed = (time.perf_counter() - t0) * 1000
    return ParameterResult(which, s, value, cert,
                           {"nodes": nodes, "elapsed_ms": elapsed})


def robust_chromatic(G: Graph, s: int = 1, caps: SolverCaps = DEFAULT_CAPS) -> ParameterResult:
    """chi_s through the exact tier."""
    return robust_parameter(G, "chi", s, caps)


# ---------------------------------------------------------------------------
# canonical forms
# ---------------------------------------------------------------------------


CANONICAL_N = 10  # largest order canonical_form accepts


def canonical_form(G: Graph) -> str:
    """Label string equal for two graphs iff they are isomorphic.

    Minimal adjacency bit string over all vertex orderings, searched with
    row-wise greedy pruning and twin elimination.  Sized for n <= 10.
    """
    n = G.n
    if n > CANONICAL_N:
        raise CapExceeded(f"canonical_form: {n} exceeds cap {CANONICAL_N}")
    if n == 0:
        return "n0:"
    masks = G.adjacency_masks()
    best: list[int] | None = None
    perm: list[int] = []
    rows: list[int] = []
    used = 0

    def candidates():
        cands = []
        for v in range(n):
            if (used >> v) & 1:
                continue
            row = 0
            for j, u in enumerate(perm):
                if (masks[v] >> u) & 1:
                    row |= 1 << j
            cands.append((row, v))
        if not cands:
            return []
        best_row = min(r for r, _ in cands)
        chosen = [v for r, v in cands if r == best_row]
        # drop twins: interchangeable vertices lead to identical completions
        kept: list[int] = []
        for v in chosen:
            dup = False
            for u in kept:
                strip = ~((1 << u) | (1 << v))
                if masks[u] & strip == masks[v] & strip:
                    dup = True
                    break
            if not dup:
                kept.append(v)
        return [(best_row, v) for v in kept]

    def rec():
        nonlocal best, used
        pos = len(perm)
        if pos == n:
            if best is None or rows < best:
                best = rows[:]
            return
        for row, v in candidates():
            if best is not None:
                prefix = rows + [row]
                if prefix > best[:pos + 1]:
                    continue
            perm.append(v)
            rows.append(row)
            used |= 1 << v
            rec()
            used &= ~(1 << v)
            rows.pop()
            perm.pop()

    rec()
    payload = "".join(format(r, "x") + "." for r in best)
    return f"n{n}:{payload}"
