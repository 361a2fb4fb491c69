"""Structural filters for the clique-cover robustness conjecture, plus the
exhaustive small-order explorer.

Each filter is a necessary condition for a graph with an edge to satisfy
theta_1 = theta (proofs argue from that equality, so edgeless graphs, which
satisfy it trivially, are exempt and never enter the explorer).  A failing
applicable filter therefore certifies theta_1 > theta without computing
theta_1; the explorer exploits exactly that.

The connectivity filter is special: it only binds minimum-order candidates,
so it counts as applicable only when every smaller order has already been
cleared (the explorer tracks this; standalone calls leave it advisory).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

from .graph import Graph
from .exact import (DEFAULT_CAPS, CapExceeded, SolverCaps, _require,
                    canonical_form, classical_parameter, iota,
                    robust_parameter)

FILTER_ORDER = (
    "theta_gt_alpha",
    "theta_ge_4",
    "two_triangles",
    "dominating_edge_ok",
    "iota_le_theta",
    "critical",
    "connected_and_co_connected",
)


@dataclass
class FilterVerdict:
    status: str  # pass | fail | not-applicable
    witness: dict = field(default_factory=dict)


@dataclass
class FilterReport:
    verdicts: dict[str, FilterVerdict]
    conclusion: str  # cannot-be-exact | candidate


def exactness_filters(G: Graph, caps: SolverCaps = DEFAULT_CAPS,
                      minimal_context: bool = False,
                      lazy: bool = False) -> FilterReport:
    """Evaluate every necessary condition for theta_1(G) = theta(G) on a
    graph with at least one edge.

    minimal_context marks the connectivity condition applicable (sound when
    all smaller orders are already known to be non-exact).  With lazy=True
    evaluation stops at the first applicable failure.
    """
    _require(G.n <= caps.filters_n, "filters", G.n, caps.filters_n)
    verdicts: dict[str, FilterVerdict] = {}
    theta = classical_parameter(G, "theta", caps).value
    alpha = classical_parameter(G, "alpha", caps).value

    def done() -> FilterReport:
        failed = any(v.status == "fail" for v in verdicts.values())
        for name in FILTER_ORDER:
            verdicts.setdefault(name, FilterVerdict("not-applicable", {"reason": "skipped"}))
        return FilterReport(verdicts, "cannot-be-exact" if failed else "candidate")

    def record(name, ok, witness):
        verdicts[name] = FilterVerdict("pass" if ok else "fail", witness)
        return not ok and lazy

    if record("theta_gt_alpha", theta > alpha, {"theta": theta, "alpha": alpha}):
        return done()
    if record("theta_ge_4", theta >= 4, {"theta": theta}):
        return done()

    # every edge must lie in at least two triangles
    bad_edge = None
    masks = G.adjacency_masks()
    for u, v in G.sorted_edges():
        tri = (masks[u] & masks[v]).bit_count()
        if tri < 2:
            bad_edge = (u, v, tri)
            break
    if record("two_triangles", bad_edge is None,
              {} if bad_edge is None else
              {"edge": bad_edge[:2], "triangles": bad_edge[2]}):
        return done()

    # a dominating edge must exist whenever theta <= 4
    if theta <= 4:
        dom = None
        for u, v in G.sorted_edges():
            cover = masks[u] | masks[v] | (1 << u) | (1 << v)
            if cover == (1 << G.n) - 1:
                dom = (u, v)
                break
        if record("dominating_edge_ok", dom is not None,
                  {"edge": list(dom)} if dom else {"theta": theta}):
            return done()
    else:
        verdicts["dominating_edge_ok"] = FilterVerdict(
            "not-applicable", {"theta": theta})

    it = iota(G, caps)
    if record("iota_le_theta", it.value <= theta,
              {"iota": it.value, "theta": theta,
               "inducing_set": it.certificate["inducing_set"]}):
        return done()

    # criticality: removing any vertex must drop theta by exactly one
    non_critical = None
    for x in range(G.n):
        H, _ = G.induced_subgraph([v for v in range(G.n) if v != x])
        tx = classical_parameter(H, "theta", caps).value
        if tx != theta - 1:
            non_critical = (x, tx)
            break
    if record("critical", non_critical is None,
              {} if non_critical is None else
              {"vertex": non_critical[0], "theta_minus_x": non_critical[1],
               "theta": theta}):
        return done()

    conn = G.is_connected()
    co_conn = G.complement().is_connected()
    if minimal_context:
        if record("connected_and_co_connected", conn and co_conn,
                  {"connected": conn, "co_connected": co_conn}):
            return done()
    else:
        verdicts["connected_and_co_connected"] = FilterVerdict(
            "not-applicable",
            {"connected": conn, "co_connected": co_conn,
             "reason": "binds minimum-order candidates only"})
    return done()


# ---------------------------------------------------------------------------
# exhaustive explorer
# ---------------------------------------------------------------------------


@dataclass
class ExplorationReport:
    n_max: int
    use_filters: bool
    orders: dict[int, dict]
    counterexamples: list[dict]
    elapsed_ms: float = 0.0

    def to_dict(self) -> dict:
        return {
            "n_max": self.n_max,
            "use_filters": self.use_filters,
            "orders": {str(k): v for k, v in sorted(self.orders.items())},
            "counterexamples": self.counterexamples,
            "elapsed_ms": self.elapsed_ms,
        }


def nonisomorphic_graphs(n: int) -> list[Graph]:
    """All graphs on n vertices up to isomorphism, sorted by canonical form.

    Built order by order by vertex augmentation (McKay, Isomorph-free
    exhaustive generation, J. Algorithms 1998): each class on k vertices is
    a representative H on k - 1 vertices plus a new vertex whose neighbour
    set N leaves it of minimum degree, |N| <= deg(u) for every old vertex u;
    one graph is kept per canonical form.

    Complete: let v be a minimum-degree vertex of a graph G on k vertices.
    G - v is isomorphic to some representative H; carry N(v) over to H by
    that isomorphism.  Every old vertex then has its degree in G, which is
    at least |N(v)|, so the candidate is generated and it is isomorphic to G.
    """
    if n < 0:
        raise ValueError("vertex count must be non-negative")
    classes = [Graph(0)]
    for k in range(1, n + 1):
        new = k - 1
        reps: dict[str, Graph] = {}
        for H in classes:
            degrees = [H.degree(u) for u in range(new)]
            for nbrs in range(1 << new):
                d = nbrs.bit_count()
                if any(degrees[u] + (nbrs >> u & 1) < d for u in range(new)):
                    continue
                g = Graph(k, [*H.edges, *((u, new) for u in range(new)
                                          if nbrs >> u & 1)])
                reps.setdefault(canonical_form(g), g)
        classes = [reps[key] for key in sorted(reps)]
    return classes


def explore_exact_conjecture(n_max: int, use_filters: bool = True,
                             caps: SolverCaps = DEFAULT_CAPS,
                             progress=None) -> ExplorationReport:
    """Check theta_1 > theta for every non-edgeless graph up to n_max
    vertices (up to isomorphism); filtered graphs are certified non-exact
    by the failing condition instead of the expensive theta_1 run."""
    if n_max > caps.explorer_n:
        raise CapExceeded(f"explorer cap is {caps.explorer_n} vertices")
    t0 = time.perf_counter()
    orders: dict[int, dict] = {}
    counterexamples: list[dict] = []
    clean_below = True
    for n in range(1, n_max + 1):
        graphs = nonisomorphic_graphs(n)
        stats = {
            "labeled": 1 << (n * (n - 1) // 2),
            "classes": len(graphs),
            "non_edgeless": 0,
            "filtered_out": {},
            "theta1_computed": 0,
            "confirmed": 0,
            "counterexamples": 0,
        }
        for g in graphs:
            if g.m == 0:
                continue
            stats["non_edgeless"] += 1
            if use_filters:
                report = exactness_filters(g, caps, minimal_context=clean_below,
                                           lazy=True)
                if report.conclusion == "cannot-be-exact":
                    first_fail = next(k for k in FILTER_ORDER
                                      if report.verdicts[k].status == "fail")
                    stats["filtered_out"][first_fail] = \
                        stats["filtered_out"].get(first_fail, 0) + 1
                    stats["confirmed"] += 1
                    continue
            theta = classical_parameter(g, "theta", caps)
            theta1 = robust_parameter(g, "theta", 1, caps=caps)
            stats["theta1_computed"] += 1
            if theta1.value > theta.value:
                stats["confirmed"] += 1
            else:
                from .selection import selection_from_edge_set
                stats["counterexamples"] += 1
                F = [tuple(e) for e in theta1.certificate["removed_edges"]]
                counterexamples.append({
                    "n": g.n,
                    "edges": [list(e) for e in g.sorted_edges()],
                    "theta": theta.value,
                    "theta_cover": theta.certificate["clique_cover"],
                    "theta1": theta1.value,
                    "removed_edges": theta1.certificate["removed_edges"],
                    "selection": selection_from_edge_set(F, g, 1).to_pairs(),
                    "theta1_cover": theta1.certificate["clique_cover"],
                })
        if stats["counterexamples"]:
            clean_below = False
        orders[n] = stats
        if progress is not None:
            progress(n, stats)
    return ExplorationReport(n_max, use_filters, orders, counterexamples,
                             (time.perf_counter() - t0) * 1000)
