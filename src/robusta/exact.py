"""Exact ground-truth solvers for classical and robust graph parameters.

Two tiers everywhere: specialized branch-and-bound searches sized for desk
scale (the defaults below), and a brute-force oracle tier that enumerates
every removable edge set on small instances.  The oracle is deliberately
dumb; the test suite uses it to certify the clever searches.  The oracle and
the maximal-set tier run one evaluation loop and differ only in the
enumeration mode and the edge cap their front ends check.  Every "is F + e
still removable" test, in every tier and at every budget s, goes through
`selection.RemovableSet`, one incremental orientation, by push and pop; the
partition searches keep one such state per class, and arboricity keeps a
`UnionFind` forest per class instead.

Strategy notes for the robust (selection-adversarial) parameters:

* chi_s: partition search.  A graph is k-colorable after removing some
  budget-s selection iff the vertex set splits into k classes each inducing
  a subgraph orientable with out-degree <= s (for s = 1: quasi-unicyclic),
  because an optimal selection only ever removes monochromatic edges.
* alpha_s: the best selection deletes exactly the edges inside the target
  set, so alpha_s equals the largest vertex set whose induced subgraph is
  orientable with out-degree <= s.  iota is this search at s = 1.
* omega_s: decision form.  omega_s <= v iff some removable set meets every
  (v+1)-clique; we branch on the edges of an uncovered clique, with density
  (Turan-type), coverage-counting and edge-disjoint-packing prunes.
* theta_s: decision form mirrored.  theta_s > B is witnessed by a removable
  set whose removal defeats every B-class clique cover; branch on the
  internal edges of a concrete minimum cover of the current removed graph.
* chi_prime_s: two phases.  First minimize the maximum degree D* of the
  removed graph (deficit-driven branching); the answer is then D* or D*+1.
  The classical chi' of G - F1, phase 1's witness grown to a maximal set,
  settles it unless that is D* + 1; then `enumerate_removable_sets`, the
  one walk over the maximal sets, with keep = D*, hunts for another whose
  removal leaves a D*-edge-chromatic graph.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field, asdict

from .graph import Graph
from .poly import edge_coloring_upper
# orient_with_cap is not called here; it stays bound because
# perfbench/tracing.py wraps exact.orient_with_cap by name.
from .selection import (Edge, RemovableSet, UnionFind, enumerate_removable_sets,
                        maximal_extension, orient_with_cap, selection_from_edge_set)


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

ROBUST = ("chi", "omega", "alpha", "theta", "chi_prime")
MAXIMAL_EDGES = 24  # most edges robust_via_maximal takes; a constant, not a cap


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


def _max_clique(n: int, masks: list[int]):
    """Largest clique via branch and bound with a greedy coloring bound."""
    best_mask = 0
    best_size = 0
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
    """Backtracking k-coloring decision with the clique, of at most k
    vertices, precolored."""
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


def _edge_list(n: int, masks: list[int]) -> list[Edge]:
    """The edges of the graph with adjacency masks `masks`, sorted."""
    return [(u, v) for u in range(n) for v in _bits(masks[u] >> u << u)]


def _edge_coloring_decision(n: int, masks: list[int], k: int):
    """Proper edge coloring with <= k colors of the graph with adjacency
    masks `masks`, or None.  Edges at one maximum degree vertex are
    precolored (color permutations are symmetries)."""
    edges = _edge_list(n, masks)
    if not edges:
        return {}, 0
    degs = [row.bit_count() for row in masks]
    if max(degs) > k:
        return None, 0
    anchor = max(range(n), key=lambda v: (degs[v], -v))
    assign: dict[Edge, int] = {}
    used: list[int] = [0] * n  # color bitmask per vertex
    for i, w in enumerate(_bits(masks[anchor])):  # in sorted edge order
        assign[(anchor, w) if anchor < w else (w, anchor)] = i
        used[anchor] |= 1 << i
        used[w] |= 1 << i
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


def _chi_prime(n: int, masks: list[int]):
    edges = _edge_list(n, masks)
    if not edges:
        return 0, {}, 0
    delta = max(row.bit_count() for row in masks)
    if delta <= 1:
        return 1, {e: 0 for e in edges}, 0
    # overfull: more edges than delta disjoint near-perfect matchings hold
    overfull = len(edges) > delta * (n // 2)
    coloring, nodes = (None, 0) if overfull else _edge_coloring_decision(n, masks, delta)
    if coloring is not None:
        return delta, coloring, nodes
    return delta + 1, edge_coloring_upper(Graph(n, edges)), nodes


# ---------------------------------------------------------------------------
# the partition engine
# ---------------------------------------------------------------------------


def _place(state, v: int, nbrs: int) -> bool:
    """Push the edges from v to the vertex mask `nbrs` onto a class state
    (a RemovableSet, or a UnionFind as a forest), all or none."""
    for pushed, u in enumerate(_bits(nbrs)):
        if not state.push((u, v) if u < v else (v, u)):
            _unplace(state, pushed)
            return False
    return True


def _unplace(state, count: int) -> None:
    """Pop the last `count` edges off a class state."""
    for _ in range(count):
        state.pop()


def _min_partition(G: Graph, new_class, most_edges):
    """Fewest classes, each holding its induced edges on a state that
    `new_class()` builds and that accepts them all.

    Iterative deepening over k, with k states per round; vertices placed in
    descending degree order; only the first empty class is tried (class
    symmetry).  Placing v pushes its edges to the class onto the class's
    state, unless a count refuses it first: a state accepts at most
    `most_edges(j)` edges on j vertices (s·j for a RemovableSet, j - 1 for
    a forest), so that placement would be refused anyway.  Returns (k,
    class masks, nodes).
    """
    n = G.n
    if n == 0:
        return 0, [], 0
    adj = G.adjacency_masks()
    order = sorted(range(n), key=lambda v: (-G.degree(v), v))
    nodes = 0

    def decide(k):
        nonlocal nodes
        classes = [0] * k
        states = [new_class() for _ in range(k)]
        inner = [0] * k  # edges inside each class, all on its state

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
                nbrs = classes[ci] & adj[v]
                add = nbrs.bit_count()
                if (inner[ci] + add <= most_edges(classes[ci].bit_count() + 1)
                        and _place(states[ci], v, nbrs)):
                    classes[ci] |= vb
                    inner[ci] += add
                    if rec(i + 1):
                        return True
                    inner[ci] -= add
                    classes[ci] &= ~vb
                    _unplace(states[ci], add)
            return False

        return classes if rec(0) else None

    for k in range(1, n + 1):
        classes = decide(k)
        if classes is not None:
            return k, [c for c in classes if c], nodes
    raise AssertionError("singleton partition must always succeed")


# ---------------------------------------------------------------------------
# classical parameter front end
# ---------------------------------------------------------------------------


def _require(cond: bool, what: str, size: int, cap: int, counted: str = "vertex count"):
    if not cond:
        raise CapExceeded(f"{what}: {counted} {size} exceeds cap {cap}")


def _minus(adj: list[int], edges: list[Edge], F: int) -> list[int]:
    """Adjacency masks of G - F: G's masks `adj` with the edges of F, an
    edge-bit int over `edges` (G.sorted_edges()), cleared."""
    masks = adj.copy()
    while F:
        low = F & -F
        u, v = edges[low.bit_length() - 1]
        masks[u] ^= 1 << v
        masks[v] ^= 1 << u
        F ^= low
    return masks


def _removed_edges(edges: list[Edge], F: int) -> list[list[int]]:
    """The certificate's `removed_edges`: F's edges, in sorted order."""
    return [list(edges[i]) for i in _bits(F)]


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
        value, coloring, nodes = _chi_prime(n, masks)
        return value, {"edge_coloring": [[list(e), c] for e, c in sorted(coloring.items())]}, nodes
    raise ValueError(f"unknown robust parameter {which!r}")


def _color_classes(coloring: list[int]) -> list[int]:
    """Vertex masks of the non-empty colour classes, by colour."""
    classes = [0] * (max(coloring, default=-1) + 1)
    for v, c in enumerate(coloring):
        classes[c] |= 1 << v
    return [c for c in classes if c]


def _class_edges(bits: list[dict[int, int]], classes) -> int:
    """Edge mask (over `bits`, from _edge_bits) of the pairs inside each of
    the vertex masks `classes`, all cliques of the graph."""
    mask = 0
    for c in classes:
        while c:
            low = c & -c
            c ^= low
            row = bits[low.bit_length() - 1]
            for u in _bits(c):
                mask |= row[u]
    return mask


def _cannot_beat(n: int, masks: list[int], which: str, best: int,
                 bits: list[dict[int, int]]) -> int | None:
    """A witness that `which` cannot strictly beat the incumbent `best >= 0`
    on the graph with adjacency masks `masks`, a subgraph of G on G's
    vertices: cannot go below best for chi, omega and chi_prime, nor above
    it for alpha and theta.  None means only that the bounds, all greedy,
    did not decide; the caller then runs the classical kernel.

    The witness is an edge mask over `bits` (_edge_bits(G)) such that the
    same bound decides every subgraph of G that keeps all of its edges:
      chi, omega    the edges of a clique of at least best vertices (greedy);
      alpha, theta  the edges inside the classes of a cover by at most best
                    cliques (DSATUR on the complement);
      chi_prime     the star of a vertex of degree at least best."""
    if which in ("chi", "omega"):
        clique = _greedy_clique(n, masks)
        if len(clique) < best:
            return None
        return _class_edges(bits, [sum(1 << v for v in clique)])
    if which == "chi_prime":
        for v, row in enumerate(masks):
            if row.bit_count() >= best:
                return sum(bits[v][u] for u in _bits(row))
        return 0 if best == 0 else None  # no vertices: the value is 0
    if which not in ("alpha", "theta"):
        raise ValueError(f"unknown robust parameter {which!r}")
    coloring = _dsatur(n, _complement_masks(n, masks))
    if max(coloring, default=-1) >= best:  # more than best colours
        return None
    return _class_edges(bits, _color_classes(coloring))


def classical_parameter(G: Graph, which: str, caps: SolverCaps = DEFAULT_CAPS) -> ParameterResult:
    t0 = time.perf_counter()
    if which == "arboricity":
        _require(G.n <= caps.arboricity_n, "arboricity", G.n, caps.arboricity_n)
        value, class_masks, nodes = _min_partition(G, lambda: UnionFind(G.n), lambda j: j - 1)
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
    value, class_masks, nodes = _min_partition(G, lambda: RemovableSet(G.n, s),
                                               lambda j: s * j)
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
    """Largest vertex set inducing a quasi-unicyclic subgraph: alpha_1."""
    t0 = time.perf_counter()
    _require(G.n <= caps.iota_n, "iota", G.n, caps.iota_n)
    value, cert, nodes = _alpha_robust(G, 1)
    elapsed = (time.perf_counter() - t0) * 1000
    return ParameterResult("iota", 1, value, {"inducing_set": cert["independent_set"]},
                           {"nodes": nodes, "elapsed_ms": elapsed})


def _alpha_robust(G: Graph, s: int):
    """Largest vertex set whose induced edges are removable, by branching
    on each vertex in ascending degree order (take it, then leave it) with
    one RemovableSet holding the taken set's induced edges.  A take that
    would hold more than s·size edges is refused by count, before a push."""
    n = G.n
    adj = G.adjacency_masks()
    order = sorted(range(n), key=lambda v: (G.degree(v), v))
    state = RemovableSet(n, s)
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
        nbrs = mask & adj[v]
        add = nbrs.bit_count()
        if len(state.edges) + add <= s * (size + 1) and _place(state, v, nbrs):
            rec(i + 1, mask | (1 << v), size + 1)
            _unplace(state, add)
        rec(i + 1, mask, size)

    rec(0, 0, 0)
    F = [list(e) for e in G.sorted_edges() if best >> e[0] & 1 and best >> e[1] & 1]
    return best_size, {"removed_edges": F, "independent_set": sorted(_bits(best))}, nodes


def _edge_bits(G: Graph) -> list[dict[int, int]]:
    """bits[u][v] == bits[v][u] is 1 << i for the edge uv, i its index in
    G.sorted_edges(); each row lists its neighbours in increasing order."""
    bits: list[dict[int, int]] = [{} for _ in range(G.n)]
    for i, (u, v) in enumerate(G.sorted_edges()):
        bits[u][v] = bits[v][u] = 1 << i
    return bits


def _cliques_of_size(G: Graph, size: int, bits: list[dict[int, int]]) -> list[int]:
    """Edge masks of the `size`-cliques of G, in lexicographic order of
    their vertex lists; each mask grows with its clique."""
    adj = G.adjacency_masks()
    out: list[int] = []

    def extend(clique: int, emask: int, cand: int):
        if clique.bit_count() == size:
            out.append(emask)
            return
        for v in _bits(cand):
            row = bits[v]
            add = 0
            for u in _bits(clique):
                add |= row[u]
            extend(clique | 1 << v, emask | add, cand & adj[v] & ~((2 << v) - 1))

    extend(0, 0, (1 << G.n) - 1)
    return out


def _hit_all_targets(G: Graph, s: int, target_masks: list[int]):
    """(F, nodes): a removable set (edge-bit int) meeting every target
    edge-mask, or None, and the search nodes visited.

    Branch and bound on the target with the fewest addable edges, with a
    coverage-counting prune and a greedy edge-disjoint packing prune.  The
    branch for option e_i may not add the options before it: a solution
    lies in the branch of the first option it holds, so none is lost and no
    edge set is reached twice.  An edge F cannot take stays out of the
    subtree, as removable sets form a matroid (F + e dependent makes F' + e
    dependent for every F' containing F).
    """
    edges = G.sorted_edges()
    n, m = G.n, len(edges)
    budget = s * n
    if not target_masks:
        return 0, 0
    if any(mask == 0 for mask in target_masks):
        return None, 0
    per_edge = [0] * m  # targets containing each edge, as index masks
    for qi, mask in enumerate(target_masks):
        for ei in _bits(mask):
            per_edge[ei] |= 1 << qi
    static_cov = [pm.bit_count() for pm in per_edge]
    max_static = max(static_cov) if static_cov else 0
    all_q = (1 << len(target_masks)) - 1
    F = RemovableSet(n, s)
    can_add = F.can_add
    held = 0  # F's edge bits
    scan_cap = 128  # prunes stay sound when scans stop early
    nodes = 0

    # the sweeps below write out their lowest-bit loops: a _bits generator
    # frame per mask was the largest self cost of this search
    def rec(unhit: int, cand: int):  # cand: edges the subtree may add
        nonlocal nodes, held
        nodes += 1
        if unhit == 0:
            return held
        if len(F.edges) >= budget:
            return None
        addset = 0
        rest = cand
        while rest:
            low = rest & -rest
            if can_add(edges[low.bit_length() - 1]):
                addset |= low
            rest ^= low
        if not addset:
            return None
        left = budget - len(F.edges)
        n_unhit = unhit.bit_count()
        if n_unhit > left * max_static:
            return None
        if n_unhit <= scan_cap:
            maxcov = 0
            rest = addset
            while rest:
                low = rest & -rest
                cov = (per_edge[low.bit_length() - 1] & unhit).bit_count()
                if cov > maxcov:
                    maxcov = cov
                rest ^= low
            if maxcov == 0 or n_unhit > left * maxcov:
                return None
        # greedy edge-disjoint packing: disjoint unhit targets need
        # pairwise-distinct removed edges (early-capped scan, still sound)
        packed = 0
        taken = 0
        scanned = 0
        rest = unhit
        while rest:
            low = rest & -rest
            rest ^= low
            scanned += 1
            if scanned > scan_cap and packed <= left:
                break
            qm = target_masks[low.bit_length() - 1]
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
        rest = unhit
        while rest:
            low = rest & -rest
            rest ^= low
            scanned += 1
            qi = low.bit_length() - 1
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
            addset &= ~(1 << ei)  # later siblings exclude this option
            F.push(edges[ei])
            held |= 1 << ei
            res = rec(unhit & ~per_edge[ei], addset)
            held ^= 1 << ei
            F.pop()
            if res is not None:
                return res
        return None

    return rec(all_q, (1 << m) - 1), nodes


def _omega_robust(G: Graph, s: int):
    """Ascend v until some removable set meets every (v+1)-clique."""
    n, m = G.n, G.m
    if n == 0:
        return 0, {"removed_edges": [], "clique": []}, 0
    adj = G.adjacency_masks()
    omega0 = len(_max_clique(n, adj)[0])
    bits = _edge_bits(G)
    budget = s * n
    nodes = 0
    for v in range(1, omega0):
        # density: any removed graph keeps >= m - budget edges; above the
        # Turan threshold a (v+1)-clique is unavoidable
        if (m - budget) > (1 - 1 / v) * n * n / 2:
            continue
        F, found = _hit_all_targets(G, s, _cliques_of_size(G, v + 1, bits))
        nodes += found
        if F is not None:
            break
    else:
        v, F = omega0, 0
    edges = G.sorted_edges()
    clique, extra = _max_clique(n, _minus(adj, edges, F))
    return v, {"removed_edges": _removed_edges(edges, F),
               "clique": clique}, nodes + extra


def _clique_partition_targets(G: Graph, B: int, bits: list[dict[int, int]]) -> list[int]:
    """Edge masks of the intra-class edges of every partition of V into
    exactly B cliques of G, fewest edges first.

    theta(G - F) > B holds iff F meets all of them: a cover of G - F is a
    clique partition of G avoiding F, and partitions with fewer classes
    only carry larger edge masks (splitting a class strictly shrinks one).
    The masks are already inclusion-minimal: the classes are cliques of G,
    so a mask says which pairs share a class, mask(P) <= mask(Q) means P
    refines Q, and two B-class partitions refining each other are equal.
    """
    n = G.n
    adj = G.adjacency_masks()
    masks: set[int] = set()
    classes: list[int] = []  # vertex mask of each class

    def rec(v: int, mask: int):
        if len(classes) > B or len(classes) + (n - v) < B:
            return
        if v == n:
            if len(classes) == B:
                masks.add(mask)
            return
        row = bits[v]
        for i, cls in enumerate(classes):
            if cls & adj[v] == cls:
                add = 0
                rest = cls
                while rest:
                    low = rest & -rest
                    add |= row[low.bit_length() - 1]
                    rest ^= low
                classes[i] = cls | 1 << v
                rec(v + 1, mask | add)
                classes[i] = cls
        classes.append(1 << v)
        rec(v + 1, mask)
        classes.pop()

    rec(0, 0)
    # sorted() keeps set order on ties, so the targets' order depends on
    # the order the masks were added in
    return sorted(masks, key=int.bit_count)


def _theta_robust(G: Graph, s: int):
    """Ascend from greedy incumbents; each improvement step finds a removable
    set defeating every B-class clique partition (a hitting problem over
    the partitions' intra-class edge masks)."""
    n = G.n
    if n == 0:
        return 0, {"removed_edges": [], "clique_cover": []}, 0
    bits = _edge_bits(G)
    edges, adj = G.sorted_edges(), G.adjacency_masks()
    nodes = 0

    best_F = 0
    best_val, best_cert, _ = _classical_kernel(n, adj, "theta")
    # greedy incumbent: a maximal removable set grown in edge order
    greedy = maximal_extension(G, s)
    val, cert, _ = _classical_kernel(n, _minus(adj, edges, greedy), "theta")
    if val > best_val:
        best_val, best_F, best_cert = val, greedy, cert

    while best_val < n:
        F, found = _hit_all_targets(G, s, _clique_partition_targets(G, best_val, bits))
        nodes += found
        if F is None:
            break
        val, cert, _ = _classical_kernel(n, _minus(adj, edges, F), "theta")
        if val <= best_val:
            # a set meeting every best_val-class cover must raise theta;
            # without this check the loop would re-solve the same targets
            raise AssertionError(f"theta_{s} search: removing {_removed_edges(edges, F)} "
                                 f"gives theta {val}, not above {best_val}")
        best_val, best_F, best_cert = val, F, cert
    return best_val, {"removed_edges": _removed_edges(edges, best_F),
                      "clique_cover": best_cert["clique_cover"]}, nodes


def _min_max_degree(G: Graph, s: int):
    """(D*, F, nodes): the minimum over removable F of the max degree of
    G - F, and a removable F (edge-bit int) that attains it.

    The decision for v branches on the edges at the vertex of largest
    residual degree (degree in G - F; the highest index on ties).  Each
    node gets, updated per push: X, the vertex mask of residual degree
    above v; the excess D, the sum over X of residual - v; and FX, the
    edges of F with both ends in X, counted through each vertex's mask of
    F-neighbours.  Hakimi's local prune: a removable F* containing F must
    supply D incidences in X, each edge of F* - F at most two and two only
    when both its ends lie in X; F* has at most s·n edges and F*[X] at
    most s·|X|, so with slack = s·n - |F|, D <= slack + min(slack,
    s·|X| - FX).  The prune cuts only subtrees without a solution."""
    n, m = G.n, G.m
    if m == 0:
        return 0, 0, 0
    budget = s * n
    degs = [G.degree(v) for v in range(n)]
    lo = max(0, min(degs) - 2 * s)
    if m > budget:
        lo = max(lo, -(-(2 * (m - budget)) // n))
    bits = _edge_bits(G)
    nodes = 0

    def decision(v):
        nonlocal nodes
        F = RemovableSet(n, s)
        held = 0  # F's edge bits
        residual = degs[:]  # degrees of G - F
        fnbrs = [0] * n  # F-neighbours of each vertex, as vertex masks
        can_add = F.can_add

        # banned: edge bits the subtree may not add, F's too
        def rec(banned: int, X: int, D: int, FX: int):
            nonlocal nodes, held
            nodes += 1
            if not X:
                return held
            slack = budget - len(F.edges)
            if D > slack + min(slack, s * X.bit_count() - FX):
                return None
            x = top = -1
            rest = X
            while rest:
                low = rest & -rest
                y = low.bit_length() - 1
                if residual[y] >= top:
                    x, top = y, residual[y]
                rest ^= low
            cand = []
            for w, b in bits[x].items():
                if not banned & b:
                    e = (x, w) if x < w else (w, x)
                    if can_add(e):
                        cand.append((e, w, b))
            if len(cand) < top - v:
                return None
            for e, w, b in cand:
                # a solution removes some candidate edge and lies in the
                # branch of its first one: later siblings ban e
                banned |= b
                F.push(e)
                held |= b
                fnbrs[x] |= 1 << w
                fnbrs[w] |= 1 << x
                residual[x] -= 1
                residual[w] -= 1
                # x is in X: e lies in F[X] iff w is in X too, and an end
                # that drops to v leaves X with its F-edges there
                X2, D2, FX2 = X, D - 1, FX
                if X >> w & 1:
                    D2 -= 1
                    FX2 += 1
                    if residual[w] == v:
                        X2 ^= 1 << w
                        FX2 -= (fnbrs[w] & X2).bit_count()
                if top == v + 1:
                    X2 ^= 1 << x
                    FX2 -= (fnbrs[x] & X2).bit_count()
                res = rec(banned, X2, D2, FX2)
                residual[x] += 1
                residual[w] += 1
                fnbrs[x] ^= 1 << w
                fnbrs[w] ^= 1 << x
                held ^= b
                F.pop()
                if res is not None:
                    return res
            return None

        over = [x for x in range(n) if degs[x] > v]
        return rec(0, sum(1 << x for x in over), sum(degs[x] - v for x in over), 0)

    v = lo
    while True:
        F = decision(v)
        if F is not None:
            return v, F, nodes
        v += 1


def _chi_prime_robust(G: Graph, s: int):
    """(chi'_s, certificate, nodes): phase 1's D* and witness F0, then the
    classical chi' of G - F1, F1 being F0 grown to a maximal set, and, if
    that is D* + 1, the first other maximal set whose G - F is
    D*-edge-colourable.  nodes counts phase 1's nodes, the edge-colouring
    nodes and the sets the walk yields."""
    n, m = G.n, G.m
    if m == 0:
        return 0, {"removed_edges": [], "edge_coloring": []}, 0
    edges = G.sorted_edges()
    dstar, F0, nodes = _min_max_degree(G, s)
    if dstar == 0:
        # some removable set deletes every edge; F0 witnesses it
        if F0.bit_count() != m:
            raise AssertionError(f"chi'_{s} search: D* = 0 but the witness "
                                 f"removes {F0.bit_count()} of {m} edges")
        return 0, {"removed_edges": _removed_edges(edges, F0),
                   "edge_coloring": []}, nodes

    # F1, phase 1's witness grown to a maximal set, contains F0, so G - F1
    # has max degree D*, and the classical kernel settles it at D* or D* + 1
    adj = G.adjacency_masks()
    F1 = maximal_extension(G, s, F0)
    value, coloring, extra = _chi_prime(n, _minus(adj, edges, F1))
    nodes += extra
    if value not in (dstar, dstar + 1):
        raise AssertionError(f"chi'_{s} search: G - F1 has chromatic index {value}, "
                             f"not D* = {dstar} or D* + 1")
    F = F1
    # every maximal set keeps m - rank edges in G - F; above D* * (n // 2)
    # none is D*-edge-colourable (the kernel's overfull test), else walk the
    # maximal sets whose G - F keeps max degree D*
    if value > dstar and m - F1.bit_count() <= dstar * (n // 2):
        for F2 in enumerate_removable_sets(G, s, "maximal", keep=dstar):
            nodes += 1
            if F2 == F1:
                continue
            found, extra = _edge_coloring_decision(n, _minus(adj, edges, F2), dstar)
            nodes += extra
            if found is not None:
                value, F, coloring = dstar, F2, found
                break
    return value, {"removed_edges": _removed_edges(edges, F),
                   "edge_coloring": [[list(e), c] for e, c in sorted(coloring.items())]}, nodes


# ---------------------------------------------------------------------------
# robust front end: exact, oracle and maximal-enumeration tiers
# ---------------------------------------------------------------------------


_MINIMIZED = {"chi": True, "omega": True, "chi_prime": True, "alpha": False, "theta": False}


def _rank_bound(n: int, kept: int, which: str) -> int:
    """The best value `which` can take on a graph on n vertices with at
    least `kept` edges, so the best over G - F when every removable F
    leaves kept = m - rank edges.  An edge that stays joins two vertices,
    which then share no independent set and split no cover class: alpha
    and theta are at most n - 1.  It also needs two colours and is a
    2-clique: chi and omega are at least 2 (at most n).  A colour class of
    an edge colouring is a matching of at most n // 2 edges: chi' is at
    least ceil(kept / (n // 2)), phase 2's overfull guard."""
    if which in ("alpha", "theta"):
        return n - 1 if kept else n
    if which == "chi_prime":
        return -(-kept // max(n // 2, 1))
    return min(n, 2 if kept else 1)


def _enumerated_robust(G: Graph, which: str, s: int, mode: str) -> ParameterResult:
    """Best classical value over G - F for every F that
    enumerate_removable_sets streams in `mode` (the callers bound m);
    stats.nodes counts the sets.  The first F with the best value wins; a
    set that _cannot_beat the incumbent is counted but not evaluated.

    F arrives as an edge-bit int over G.sorted_edges().  The last witness
    _cannot_beat returned, an edge mask over the same index, is checked
    first: while F takes none of its edges, G - F keeps the witness's
    clique, cover or star, and the witness still decides, because the
    incumbent only moves one way (down for chi, omega and chi_prime, whose
    clique or star had at least the old best vertices or edges; up for
    alpha and theta, whose cover had at most the old best classes).  Only
    a set that the witness does not decide gets G - F's masks (_minus), and
    only the winner its edge list.

    The rank bound ends evaluation early.  The removable sets are the
    independent sets of a matroid, so every G - F keeps at least m - rank
    edges, and no set beats _rank_bound(n, m - rank, which); the walk's
    first set is its greedy maximal one, so its size is the rank.  Once the
    incumbent equals the bound, the witness mask becomes 0: the same AND
    skips, and counts, every later set.  A skipped set could at best tie,
    so the first best set still wins."""
    if which not in ROBUST:
        raise ValueError(f"unknown robust parameter {which!r}")
    t0 = time.perf_counter()
    minimize = _MINIMIZED[which]
    n = G.n
    edges = G.sorted_edges()
    adj = G.adjacency_masks()
    bits = _edge_bits(G)
    best = None
    wmask = None  # edge mask of the last witness
    count = 0
    for Fb in enumerate_removable_sets(G, s, mode):
        count += 1
        if wmask is not None and not Fb & wmask:
            continue
        masks = _minus(adj, edges, Fb)
        if best is None:  # the first set
            ideal = _rank_bound(n, G.m - Fb.bit_count(), which)
        else:
            found = _cannot_beat(n, masks, which, best[0], bits)
            if found is not None:
                wmask = found
                continue
        val, cert, _ = _classical_kernel(n, masks, which)
        if best is None or (val < best[0] if minimize else val > best[0]):
            best = (val, Fb, cert)
            if val == ideal:
                wmask = 0  # nothing beats it: every later set is skipped
    val, Fb, cert = best
    cert["removed_edges"] = _removed_edges(edges, Fb)
    elapsed = (time.perf_counter() - t0) * 1000
    return ParameterResult(which, s, val, cert,
                           {"nodes": count, "elapsed_ms": elapsed})


def oracle_robust(G: Graph, which: str, s: int,
                  caps: SolverCaps = DEFAULT_CAPS) -> ParameterResult:
    """Exhaustive enumeration over every removable set; the test oracle."""
    _require(G.m <= caps.oracle_edges, "oracle", G.m, caps.oracle_edges, "edge count")
    return _enumerated_robust(G, which, s, "all")


def robust_via_maximal(G: Graph, which: str, s: int) -> ParameterResult:
    """Generic solver over inclusion-maximal removable sets (monotonicity:
    removing more edges never hurts the objective)."""
    _require(G.m <= MAXIMAL_EDGES, "maximal", G.m, MAXIMAL_EDGES, "edge count")
    return _enumerated_robust(G, which, s, "maximal")


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
    rows: list[int] = []
    nbrs = [list(_bits(m)) for m in masks]
    row_of = [0] * n  # bit j: adjacent to the vertex placed at position j
    used = 0

    def candidates():
        cands = [(row_of[v], v) for v in range(n) if not (used >> v) & 1]
        if not cands:
            return []
        best_row = min(cands)[0]
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
        pos = len(rows)
        if pos == n:
            if best is None or rows < best:
                best = rows[:]
            return
        for row, v in candidates():
            if best is not None:
                prefix = rows + [row]
                if prefix > best[:pos + 1]:
                    continue
            rows.append(row)
            used |= 1 << v
            bit = 1 << pos
            for w in nbrs[v]:
                row_of[w] |= bit
            rec()
            for w in nbrs[v]:
                row_of[w] ^= bit
            used &= ~(1 << v)
            rows.pop()

    rec()
    payload = "".join(format(r, "x") + "." for r in best)
    return f"n{n}:{payload}"
