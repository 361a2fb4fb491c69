"""Nice tree decompositions and linear-time dynamic programs for the four
robust parameters on bounded-treewidth graphs.

Shared selection state per bag: `arcs` is the partial selection restricted
to bag-internal edges, stored as (tail, head) pairs with out-degree <= 1;
`pset` is the set of bag vertices whose selection is already spent, either
on a stored arc or on an edge into the already-forgotten region.  Every
selection choice is made when the later endpoint of its edge is introduced,
which enumerates each selection exactly once.  At join nodes both children
must agree on the stored arcs, and a vertex may carry a forgotten-edge
selection from at most one side (it selects only once).

Parameter strategies:

* alpha_1 maximizes jointly over selection and independent set, so a plain
  value table over (state, set-trace) suffices.
* omega_1 <= t is decided by hunting a selection whose removed edges meet
  every (t+1)-clique; a clique is checked at the forget of its first
  forgotten vertex, where it still sits inside the child bag.
* chi_1 <= k is decided over (state, bag coloring): properness on the
  removed graph is a purely local edge condition, checked as endpoints
  are introduced.
* theta_1 is a max over selections of a minimum cover, so rows carry the
  whole cost profile over flagged bag partitions (flag = class already
  touches a forgotten vertex).  Every finished table is pruned by
  dominance: of two rows with the same (arcs, pset), the one whose profile
  is pointwise <= the other's is dropped, reading a missing partition as
  cost +inf.  This is sound because the rows above depend on a row only
  through its (arcs, pset), which fixes the same future choices for both,
  and through its profile, which introduce, forget and join transform by
  monotone min-plus maps; so the dropped row never ends with a larger cover
  than the kept one, and the final max is unchanged.

The engine appends synthetic forget nodes above the root until the bag is
empty, so extraction reads a table over the trivial state.
"""

from __future__ import annotations

import itertools
import time
from dataclasses import dataclass

from .graph import Graph
from .graphio import HEADER_COUNT_CAP, ParseError
from .exact import (DEFAULT_CAPS, CapExceeded, ParameterResult, SolverCaps,
                    _max_clique, _removed_masks, classical_parameter)
from .selection import Edge


# ---------------------------------------------------------------------------
# tree decompositions
# ---------------------------------------------------------------------------


@dataclass
class TreeDecomposition:
    bags: list[frozenset[int]]
    tree_edges: list[tuple[int, int]]

    @property
    def width(self) -> int:
        return max((len(b) for b in self.bags), default=1) - 1

    def neighbors(self) -> list[list[int]]:
        adj: list[list[int]] = [[] for _ in self.bags]
        for i, j in self.tree_edges:
            adj[i].append(j)
            adj[j].append(i)
        return adj


def heuristic_decomposition(G: Graph) -> TreeDecomposition:
    """Min-fill elimination ordering; width is heuristic, not optimal."""
    n = G.n
    if n == 0:
        return TreeDecomposition([frozenset()], [])
    nbrs: list[set[int]] = [set(G.adj[v]) for v in range(n)]
    alive = set(range(n))
    bags: list[frozenset[int]] = []
    bag_of: dict[int, int] = {}
    elim_order: list[int] = []
    while alive:
        best_v, best_key = -1, None
        for v in sorted(alive):
            live = nbrs[v] & alive
            fill = sum(1 for a, b in itertools.combinations(sorted(live), 2)
                       if b not in nbrs[a])
            key = (fill, len(live), v)
            if best_key is None or key < best_key:
                best_v, best_key = v, key
        v = best_v
        live = sorted(nbrs[v] & alive)
        bag_of[v] = len(bags)
        bags.append(frozenset([v] + live))
        elim_order.append(v)
        for a, b in itertools.combinations(live, 2):
            nbrs[a].add(b)
            nbrs[b].add(a)
        alive.discard(v)
    pos = {v: i for i, v in enumerate(elim_order)}
    edges = []
    for v in elim_order:
        later = [w for w in bags[bag_of[v]] if w != v and pos[w] > pos[v]]
        if later:
            w = min(later, key=lambda w: pos[w])
            edges.append((bag_of[v], bag_of[w]))
    # chain together any disconnected roots (isolated vertices etc.)
    adj = [[] for _ in bags]
    for i, j in edges:
        adj[i].append(j)
        adj[j].append(i)
    seen: set[int] = set()
    roots = []
    for i in range(len(bags)):
        if i in seen:
            continue
        roots.append(i)
        stack = [i]
        seen.add(i)
        while stack:
            x = stack.pop()
            for y in adj[x]:
                if y not in seen:
                    seen.add(y)
                    stack.append(y)
    for a, b in zip(roots, roots[1:]):
        edges.append((a, b))
    return TreeDecomposition(bags, edges)


def validate_decomposition(T: TreeDecomposition, G: Graph):
    """(ok, witness): coverage, edge containment, and connectivity of every
    vertex's bag set inside the host tree."""
    nodes_of: list[list[int]] = [[] for _ in range(G.n)]
    pairs: set[tuple[int, int]] = set()
    for i, b in enumerate(T.bags):
        for v in b:
            if not 0 <= v < G.n:
                return False, f"bag {i} mentions unknown vertex {v}"
            nodes_of[v].append(i)
        pairs.update(itertools.combinations(sorted(b), 2))
    missing = [v for v in range(G.n) if not nodes_of[v]]
    if missing:
        return False, f"condition (i): vertices {missing} in no bag"
    for e in G.sorted_edges():
        if e not in pairs:
            return False, f"condition (ii): edge {e} in no bag"
    adj = T.neighbors()
    for v in range(G.n):
        member = set(nodes_of[v])
        seen = {nodes_of[v][0]}
        stack = [nodes_of[v][0]]
        while stack:
            x = stack.pop()
            for y in adj[x]:
                if y in member and y not in seen:
                    seen.add(y)
                    stack.append(y)
        if seen != member:
            return False, f"condition (iii): bags of vertex {v} are disconnected"
    return True, None


def write_td(T: TreeDecomposition, n_vertices: int) -> str:
    width = max((len(b) for b in T.bags), default=0)
    lines = [f"s td {len(T.bags)} {width} {n_vertices}"]
    for i, b in enumerate(T.bags, start=1):
        lines.append("b " + " ".join([str(i)] + [str(v + 1) for v in sorted(b)]))
    for i, j in T.tree_edges:
        lines.append(f"{i + 1} {j + 1}")
    return "\n".join(lines) + "\n"


def _td_int(token: str, line_no: int, low: int = 1, high: int | None = None,
            what: str = "field") -> int:
    """One integer field of a .td line, required to lie in low..high."""
    try:
        value = int(token)
    except ValueError:
        raise ParseError(f"non-integer {what} {token!r}", line_no) from None
    if high is not None and not low <= value <= high:
        raise ParseError(f"{what} {value} outside {low}..{high}", line_no)
    if value < low:
        raise ParseError(f"{what} {value} below {low}", line_no)
    return value


def read_td(text: str) -> TreeDecomposition:
    """Parse the PACE .td format written by write_td; malformed input raises
    graphio.ParseError naming the line: a missing or repeated s-line, a bag
    count above graphio.HEADER_COUNT_CAP, a repeated bag, a bag or tree-edge
    index outside 1..bag count, or a vertex id below 1."""
    bags: dict[int, frozenset[int]] = {}
    edges: list[tuple[int, int]] = []
    count = None
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("c"):
            continue
        parts = line.split()
        if parts[0] == "s":
            if count is not None:
                raise ParseError("second s-line header", line_no)
            if len(parts) < 3:
                raise ParseError("malformed s-line, expected 's td bags width n'", line_no)
            count = _td_int(parts[2], line_no, low=0, high=HEADER_COUNT_CAP,
                            what="bag count")
            continue
        if count is None:
            raise ParseError("bag or tree edge line before the s-line header", line_no)
        if parts[0] == "b":
            if len(parts) < 2:
                raise ParseError("malformed bag line, expected 'b index vertices...'", line_no)
            index = _td_int(parts[1], line_no, high=count, what="bag index")
            if index - 1 in bags:
                raise ParseError(f"second line for bag {index}", line_no)
            bags[index - 1] = frozenset(
                _td_int(x, line_no, what="vertex id") - 1 for x in parts[2:])
        else:
            if len(parts) != 2:
                raise ParseError("malformed tree edge line, expected 'i j'", line_no)
            i, j = (_td_int(x, line_no, high=count, what="tree edge endpoint")
                    for x in parts)
            edges.append((i - 1, j - 1))
    if count is None:
        raise ParseError("missing s-line header")
    return TreeDecomposition([bags.get(i, frozenset()) for i in range(count)], edges)


# ---------------------------------------------------------------------------
# nice decompositions
# ---------------------------------------------------------------------------


@dataclass
class NiceNode:
    kind: str  # leaf | introduce | forget | join
    bag: frozenset[int]
    vertex: int | None = None
    children: tuple[int, ...] = ()


@dataclass
class NiceTreeDecomposition:
    nodes: list[NiceNode]
    root: int

    @property
    def width(self) -> int:
        return max((len(nd.bag) for nd in self.nodes), default=1) - 1

    def validate(self, G: Graph):
        bags = [nd.bag for nd in self.nodes]
        edges = []
        for i, nd in enumerate(self.nodes):
            for c in nd.children:
                edges.append((i, c))
        ok, why = validate_decomposition(TreeDecomposition(bags, edges), G)
        if not ok:
            return ok, why
        for i, nd in enumerate(self.nodes):
            if nd.kind == "leaf":
                if nd.children or len(nd.bag) != 1:
                    return False, f"node {i}: leaf must be a childless singleton"
            elif nd.kind == "introduce":
                (c,) = nd.children
                if nd.vertex in self.nodes[c].bag or nd.bag != self.nodes[c].bag | {nd.vertex}:
                    return False, f"node {i}: bad introduce"
            elif nd.kind == "forget":
                (c,) = nd.children
                if nd.vertex not in self.nodes[c].bag or nd.bag != self.nodes[c].bag - {nd.vertex}:
                    return False, f"node {i}: bad forget"
            elif nd.kind == "join":
                a, b = nd.children
                if not (nd.bag == self.nodes[a].bag == self.nodes[b].bag):
                    return False, f"node {i}: join bags differ"
            else:
                return False, f"node {i}: unknown kind {nd.kind!r}"
        return True, None


def _postorder(nodes: list[NiceNode], root: int) -> list[int]:
    order: list[int] = []
    stack: list[tuple[int, bool]] = [(root, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            order.append(node)
        else:
            stack.append((node, True))
            for c in nodes[node].children:
                stack.append((c, False))
    return order


def make_nice(T: TreeDecomposition, G: Graph) -> NiceTreeDecomposition:
    """Equal-width nice form: singleton leaves, unit introduce/forget steps,
    binary joins.  The input is compacted first (bags contained in a
    neighbor are absorbed), which keeps the node count within 4|V|."""
    if G.n == 0:
        raise ValueError("nice decompositions need at least one vertex")
    ok, why = validate_decomposition(T, G)
    if not ok:
        raise ValueError(f"invalid tree decomposition: {why}")
    bags = [set(b) for b in T.bags]
    adj = [set(x) for x in T.neighbors()]
    alive = [True] * len(bags)
    changed = True
    while changed:
        changed = False
        for i in range(len(bags)):
            if not alive[i]:
                continue
            absorber = next((j for j in adj[i] if alive[j] and bags[i] <= bags[j]), None)
            if absorber is None:
                continue
            for k in adj[i]:
                if k != absorber:
                    adj[k].discard(i)
                    adj[k].add(absorber)
                    adj[absorber].add(k)
            adj[absorber].discard(i)
            alive[i] = False
            changed = True
    live_ids = [i for i in range(len(bags)) if alive[i]]
    root_old = max(live_ids, key=lambda i: (len(bags[i]), -i))

    nodes: list[NiceNode] = []

    def add(kind, bag, vertex=None, children=()):
        nodes.append(NiceNode(kind, frozenset(bag), vertex, tuple(children)))
        return len(nodes) - 1

    def leaf_chain(bag: set[int]) -> int:
        vs = sorted(bag)
        cur = add("leaf", {vs[0]})
        have = {vs[0]}
        for v in vs[1:]:
            have.add(v)
            cur = add("introduce", set(have), v, (cur,))
        return cur

    def adapt(top: int, target: set[int]) -> int:
        cur = top
        have = set(nodes[top].bag)
        for v in sorted(have - target, reverse=True):
            have.discard(v)
            cur = add("forget", set(have), v, (cur,))
        for v in sorted(target - have):
            have.add(v)
            cur = add("introduce", set(have), v, (cur,))
        return cur

    parent: dict[int, int | None] = {root_old: None}
    order = [root_old]
    stack = [root_old]
    while stack:
        x = stack.pop()
        for y in adj[x]:
            if alive[y] and y not in parent:
                parent[y] = x
                order.append(y)
                stack.append(y)
    built: dict[int, int] = {}
    for x in reversed(order):
        kids = [built[y] for y in adj[x] if alive[y] and parent.get(y) == x]
        bag = bags[x]
        if not kids:
            built[x] = leaf_chain(bag)
            continue
        adapted = [adapt(kid, bag) for kid in kids]
        cur = adapted[0]
        for other in adapted[1:]:
            cur = add("join", bag, None, (cur, other))
        built[x] = cur
    nice = NiceTreeDecomposition(nodes, built[root_old])
    ok, why = nice.validate(G)
    if not ok:
        raise AssertionError(f"make_nice built an invalid nice decomposition: {why}")
    return nice


# ---------------------------------------------------------------------------
# the dynamic programming engine
# ---------------------------------------------------------------------------


def _subsets(items):
    for r in range(len(items) + 1):
        yield from itertools.combinations(items, r)


def _norm(u, v) -> Edge:
    return (u, v) if u < v else (v, u)


def _removed(arcs) -> frozenset[Edge]:
    return frozenset(_norm(a, b) for a, b in arcs)


def _sigma_introduce(arcs, pset, v, bag_nbrs):
    """All selection-state extensions when v enters the bag: v may select one
    bag edge, and any subset of its still-unselected neighbors may select
    their edge to v."""
    minus = [u for u in bag_nbrs if u not in pset]
    for v_arc in [None] + list(bag_nbrs):
        for T in _subsets(minus):
            new_arcs = set(arcs)
            new_p = set(pset)
            for u in T:
                new_arcs.add((u, v))
                new_p.add(u)
            if v_arc is not None:
                new_arcs.add((v, v_arc))
                new_p.add(v)
            yield tuple(sorted(new_arcs)), frozenset(new_p), (v_arc, tuple(T))


def _sigma_forget(arcs, pset, v):
    new_arcs = tuple(sorted((a, b) for a, b in arcs if a != v and b != v))
    return new_arcs, frozenset(pset - {v})


def _join_pset(arcs, pa, pb):
    """Combined selection status at a join, or None if both sides claim a
    forgotten-edge selection for the same vertex."""
    tails = {a for a, _ in arcs}
    if (pa - tails) & (pb - tails):
        return None
    return pa | pb


class _DpStats:
    def __init__(self):
        self.max_rows = 0
        self.rows_total = 0


def _run_dp(G: Graph, nice: NiceTreeDecomposition, strategy, trace=None):
    """Bottom-up table pass; returns (final table, tables, prov, nodes list).

    Table rows are (arcs, pset, payload) -> value; `prov` mirrors the tables
    with provenance tuples for certificate reconstruction.  A strategy with a
    `dominates` test has each finished table pruned before it is stored and
    counted, so kept rows only point at kept child rows.  `trace`, when a
    list, collects one record per node: rows kept and rows pruned.
    """
    nodes = list(nice.nodes)
    cur = nice.root
    bag = set(nodes[cur].bag)
    for v in sorted(bag, reverse=True):
        bag = bag - {v}
        nodes.append(NiceNode("forget", frozenset(bag), v, (cur,)))
        cur = len(nodes) - 1
    top = cur
    order = _postorder(nodes, top)
    tables: list[dict | None] = [None] * len(nodes)
    prov: list[dict] = [dict() for _ in nodes]
    stats = _DpStats()

    for node in order:
        nd = nodes[node]
        tbl: dict = {}
        pv = prov[node]

        def put(key, value, p):
            old = tbl.get(key)
            if old is None or strategy.better(value, old):
                tbl[key] = value
                pv[key] = p

        if nd.kind == "leaf":
            (v,) = nd.bag
            for pay, val in strategy.leaf(v):
                put(((), frozenset(), pay), val, ("leaf",))
        elif nd.kind == "introduce":
            (c,) = nd.children
            v = nd.vertex
            bag_nbrs = sorted(u for u in G.adj[v] if u in nodes[c].bag)
            groups: dict[tuple, list] = {}
            for (arcs, pset, pay), val in tables[c].items():
                groups.setdefault((arcs, pset), []).append((pay, val))
            for (arcs, pset), rows in groups.items():
                for arcs2, pset2, choice in _sigma_introduce(arcs, pset, v, bag_nbrs):
                    removed = _removed(arcs2)
                    for pay, val in rows:
                        for pay2, val2 in strategy.introduce(v, bag_nbrs, removed, pay, val):
                            put((arcs2, pset2, pay2), val2,
                                ("intro", (arcs, pset, pay), choice, v, c))
            tables[c] = None
        elif nd.kind == "forget":
            (c,) = nd.children
            v = nd.vertex
            child_bag = nodes[c].bag
            for (arcs, pset, pay), val in tables[c].items():
                if not strategy.forget_filter(v, child_bag, arcs):
                    continue
                arcs2, pset2 = _sigma_forget(arcs, pset, v)
                res = strategy.forget(v, pay, val)
                if res is None:
                    continue
                pay2, val2 = res
                put((arcs2, pset2, pay2), val2, ("forget", (arcs, pset, pay), c))
            tables[c] = None
        else:  # join
            a, b = nd.children
            buckets: dict[tuple, list] = {}
            for (arcs, pset, pay), val in tables[b].items():
                buckets.setdefault((arcs, strategy.join_key(pay)), []).append(
                    (pset, pay, val))
            for (arcs, pset, pay), val in tables[a].items():
                for pb, payb, valb in buckets.get((arcs, strategy.join_key(pay)), ()):
                    combined = _join_pset(arcs, pset, pb)
                    if combined is None:
                        continue
                    res = strategy.join(pay, val, payb, valb)
                    if res is None:
                        continue
                    pay2, val2 = res
                    put((arcs, combined, pay2), val2,
                        ("join", (arcs, pset, pay), (arcs, pb, payb), a, b))
            tables[a] = None
            tables[b] = None

        dropped = _dominated_rows(tbl, strategy.dominates) if strategy.dominates else ()
        for key in dropped:
            del tbl[key]
            del pv[key]
        tables[node] = tbl
        stats.max_rows = max(stats.max_rows, len(tbl))
        stats.rows_total += len(tbl)
        if trace is not None:
            trace.append({"node": node, "kind": nd.kind, "bag": sorted(nd.bag),
                          "rows": len(tbl), "pruned": len(dropped)})

    return tables[top], prov, nodes, top, stats


def _dominated_rows(tbl, dominates) -> list:
    """Keys of the rows to drop: among rows with the same (arcs, pset), every
    row whose payload some other row's payload dominates.  Dominance is a
    strict partial order on distinct keys, so the kept rows are the maximal
    ones and every dropped row is dominated by a kept one."""
    groups: dict[tuple, list] = {}
    for key in tbl:
        groups.setdefault(key[:2], []).append(key)
    dropped = []
    for keys in groups.values():
        front: list = []
        for key in keys:
            if any(dominates(k[2], key[2]) for k in front):
                dropped.append(key)
                continue
            beaten = [k for k in front if dominates(key[2], k[2])]
            if beaten:
                dropped.extend(beaten)
                front = [k for k in front if k not in beaten]
            front.append(key)
    return dropped


def _collect_certificate(prov, nodes, top, key, collect):
    """Walk provenance from (top, key); calls collect(kind, v, parent_key)
    at leaves and introduces, and gathers all chosen arcs."""
    removed: set[Edge] = set()
    stack = [(top, key)]
    while stack:
        nd, k = stack.pop()
        entry = prov[nd][k]
        kind = entry[0]
        if kind == "leaf":
            collect("leaf", nodes[nd].vertex or next(iter(nodes[nd].bag)), k)
        elif kind == "intro":
            child_key, (v_arc, T), v, c = entry[1], entry[2], entry[3], entry[4]
            if v_arc is not None:
                removed.add(_norm(v, v_arc))
            for u in T:
                removed.add(_norm(u, v))
            collect("intro", v, k)
            stack.append((c, child_key))
        elif kind == "forget":
            stack.append((entry[2], entry[1]))
        else:  # join
            stack.append((entry[3], entry[1]))
            stack.append((entry[4], entry[2]))
    return removed


# -- strategies --------------------------------------------------------------


class _Strategy:
    """Hook defaults; each strategy overrides the hooks it changes."""

    dominates = None  # no dominance test: finished tables are not pruned

    @staticmethod
    def better(new, old):
        return False  # the first row stored under a key wins

    @staticmethod
    def join_key(pay):
        return pay

    @staticmethod
    def forget_filter(v, child_bag, arcs):
        return True


class _AlphaStrategy(_Strategy):
    """Largest independent set in the removed graph, cooperative max."""

    def __init__(self, G: Graph):
        self.G = G

    @staticmethod
    def better(new, old):
        return new > old

    @staticmethod
    def leaf(v):
        return [(frozenset(), 0), (frozenset({v}), 1)]

    @staticmethod
    def introduce(v, bag_nbrs, removed, S, val):
        yield S, val
        if all(_norm(u, v) in removed for u in bag_nbrs if u in S):
            yield S | {v}, val + 1

    @staticmethod
    def forget(v, S, val):
        return S - {v}, val

    @staticmethod
    def join(Sa, va, Sb, vb):
        return Sa, va + vb - len(Sa)


class _OmegaDecision(_Strategy):
    """Reachability: selections whose removed edges meet every target clique."""

    def __init__(self, G: Graph, t: int):
        self.G = G
        self.t = t  # decide omega_1 <= t by hitting all (t+1)-cliques

    @staticmethod
    def leaf(v):
        return [((), 0)]

    @staticmethod
    def introduce(v, bag_nbrs, removed, pay, val):
        yield (), 0

    def forget_filter(self, v, child_bag, arcs):
        size = self.t + 1
        if len(child_bag) < size:
            return True
        removed = _removed(arcs)
        others = sorted(child_bag - {v})
        for rest in itertools.combinations(others, size - 1):
            Q = (v,) + rest
            if all(self.G.has_edge(a, b) for a, b in itertools.combinations(Q, 2)):
                if not any(_norm(a, b) in removed
                           for a, b in itertools.combinations(Q, 2)):
                    return False
        return True

    @staticmethod
    def forget(v, pay, val):
        return pay, val

    @staticmethod
    def join(pa, va, pb, vb):
        return pa, 0


class _ChiDecision(_Strategy):
    """Reachability over (state, bag coloring) for a fixed palette size."""

    def __init__(self, G: Graph, k: int):
        self.G = G
        self.k = k

    def leaf(self, v):
        return [(((v, c),), 0) for c in range(self.k)]

    def introduce(self, v, bag_nbrs, removed, pay, val):
        cmap = dict(pay)
        for c in range(self.k):
            ok = True
            for u in bag_nbrs:
                if cmap.get(u) == c and _norm(u, v) not in removed:
                    ok = False
                    break
            if ok:
                yield tuple(sorted(cmap.items() | {(v, c)})), 0

    @staticmethod
    def forget(v, pay, val):
        return tuple(p for p in pay if p[0] != v), val

    @staticmethod
    def join(pa, va, pb, vb):
        return pa, 0


class _ThetaStrategy(_Strategy):
    """Max over selections of the minimum clique cover; rows carry the whole
    cover-cost profile over flagged bag partitions."""

    def __init__(self, G: Graph):
        self.G = G

    @staticmethod
    def dominates(pa, pb):
        """True when a row with profile pb may be dropped for one with pa:
        every flagged partition of pa also appears in pb at a cost <= pa's.
        A partition missing from pb costs +inf there, so it never lets pb
        be dropped."""
        if len(pa) > len(pb):
            return False
        costs = dict(pb)
        return all(fp in costs and costs[fp] <= cost for fp, cost in pa)

    @staticmethod
    def join_key(pay):
        return None  # profiles pair up inside join()

    @staticmethod
    def leaf(v):
        profile = ((((v,), False),), 1)
        return [((profile,), 0)]

    def introduce(self, v, bag_nbrs, removed, pay, val):
        nbrs = set(bag_nbrs)
        out: dict[tuple, int] = {}
        for fp, cost in pay:
            # v as a fresh singleton class
            fp_single = tuple(sorted(fp + (((v,), False),)))
            if out.get(fp_single, 1 << 30) > cost + 1:
                out[fp_single] = cost + 1
            # attach v to a class with no forgotten vertices, staying a clique
            # of the removed graph
            for i, (cls, flag) in enumerate(fp):
                if flag:
                    continue
                if all(u in nbrs and _norm(u, v) not in removed for u in cls):
                    cls2 = tuple(sorted(cls + (v,)))
                    fp2 = tuple(sorted(fp[:i] + ((cls2, False),) + fp[i + 1:]))
                    if out.get(fp2, 1 << 30) > cost:
                        out[fp2] = cost
        if out:
            yield tuple(sorted(out.items())), 0

    @staticmethod
    def forget(v, pay, val):
        out: dict[tuple, int] = {}
        for fp, cost in pay:
            parts = []
            for cls, flag in fp:
                if v in cls:
                    rest = tuple(u for u in cls if u != v)
                    if rest:
                        parts.append((rest, True))
                    # else the class closes; it stays counted in cost
                else:
                    parts.append((cls, flag))
            fp2 = tuple(sorted(parts))
            if out.get(fp2, 1 << 30) > cost:
                out[fp2] = cost
        return tuple(sorted(out.items())), 0

    @staticmethod
    def join(pa, va, pb, vb):
        index: dict[tuple, list] = {}
        for fp, cost in pb:
            key = tuple(cls for cls, _ in fp)
            index.setdefault(key, []).append((fp, cost))
        out: dict[tuple, int] = {}
        for fp_a, cost_a in pa:
            key = tuple(cls for cls, _ in fp_a)
            for fp_b, cost_b in index.get(key, ()):
                combined = []
                ok = True
                for (cls, fa), (_, fb) in zip(fp_a, fp_b):
                    if fa and fb:
                        ok = False
                        break
                    combined.append((cls, fa or fb))
                if not ok:
                    continue
                fp2 = tuple(combined)
                cost = cost_a + cost_b - len(fp2)
                if out.get(fp2, 1 << 30) > cost:
                    out[fp2] = cost
        if not out:
            return None
        return tuple(sorted(out.items())), 0


# ---------------------------------------------------------------------------
# public front end
# ---------------------------------------------------------------------------


DP_PARAMETERS = ("alpha1", "omega1", "chi1", "theta1")
DP_WIDTH_CAP = 6  # widest decomposition the DP accepts


def dp_robust(G: Graph, nice: NiceTreeDecomposition, which: str,
              k: int | None = None, caps: SolverCaps = DEFAULT_CAPS,
              trace_file: str | None = None) -> ParameterResult:
    """Compute a robust parameter by dynamic programming over a nice tree
    decomposition.  `which` is one of alpha1 / omega1 / chi1 / theta1; for
    chi1 an explicit k runs the single decision instead of the minimizing
    loop.  `trace_file` dumps per-node table sizes (rows kept, rows pruned)
    as JSON for debugging."""
    if which not in DP_PARAMETERS:
        raise ValueError(f"unknown dp parameter {which!r}")
    if G.n == 0:
        raise ValueError("empty graph")
    if nice.width > DP_WIDTH_CAP:
        raise CapExceeded(f"decomposition width {nice.width} exceeds dp cap {DP_WIDTH_CAP}")
    ok, why = nice.validate(G)
    if not ok:
        raise ValueError(f"invalid nice decomposition: {why}")
    t0 = time.perf_counter()
    width = nice.width
    trace: list | None = [] if trace_file else None

    if which == "alpha1":
        strategy = _AlphaStrategy(G)
        final, prov, nodes, top, stats = _run_dp(G, nice, strategy, trace)
        key, value = max(final.items(), key=lambda kv: kv[1])
        S: set[int] = set()

        def collect(kind, v, row_key):
            if kind == "leaf" and v in row_key[2]:
                S.add(v)
            elif kind == "intro" and v in row_key[2]:
                S.add(v)

        removed = _collect_certificate(prov, nodes, top, key, collect)
        cert = {"removed_edges": [list(e) for e in sorted(removed)],
                "independent_set": sorted(S)}
        result = ParameterResult("alpha", 1, value, cert)

    elif which == "omega1":
        value = None
        for t in range(1, width + 3):
            strategy = _OmegaDecision(G, t)
            final, prov, nodes, top, stats = _run_dp(G, nice, strategy, trace)
            if final:
                key = next(iter(final))
                removed = _collect_certificate(prov, nodes, top, key,
                                               lambda *a: None)
                # t is minimal, so the removed graph's largest clique has
                # exactly t vertices
                clique, _ = _max_clique(G.n, _removed_masks(G, removed))
                if len(clique) != t:
                    raise AssertionError(
                        f"omega1 dp decided {t}, but the removed graph has a "
                        f"largest clique of {len(clique)} vertices")
                cert = {"removed_edges": [list(e) for e in sorted(removed)],
                        "clique": clique}
                value = t
                break
        if value is None:
            raise AssertionError(f"omega1 decision must succeed by t = width + 1 = {width + 1}")
        result = ParameterResult("omega", 1, value, cert)

    elif which == "chi1":
        ks = [k] if k is not None else list(range(1, width + 3))
        value = None
        for kk in ks:
            strategy = _ChiDecision(G, kk)
            final, prov, nodes, top, stats = _run_dp(G, nice, strategy, trace)
            if final:
                key = next(iter(final))
                coloring: dict[int, int] = {}

                def collect(kind, v, row_key):
                    cmap = dict(row_key[2])
                    if v in cmap:
                        coloring[v] = cmap[v]

                removed = _collect_certificate(prov, nodes, top, key, collect)
                cert = {"removed_edges": [list(e) for e in sorted(removed)],
                        "coloring": [coloring[v] for v in range(G.n)]}
                value = kk
                break
        if value is None:
            if k is not None:
                raise ValueError(f"graph is not robust {k}-colorable")
            raise AssertionError("decision must succeed by k = width + 1")
        result = ParameterResult("chi", 1, value, cert)

    else:  # theta1
        strategy = _ThetaStrategy(G)
        final, prov, nodes, top, stats = _run_dp(G, nice, strategy, trace)
        value = -1
        key = None
        for rk in final:
            profile = rk[2]
            if len(profile) != 1 or profile[0][0] != ():
                raise AssertionError(
                    f"theta1 root row must hold one cost for the empty bag, got {profile!r}")
            cost = profile[0][1]
            if cost > value:
                value, key = cost, rk
        removed = _collect_certificate(prov, nodes, top, key, lambda *a: None)
        cert = {"removed_edges": [list(e) for e in sorted(removed)]}
        if G.n <= caps.theta_n:
            H = Graph(G.n, G.edges - removed)
            cover = classical_parameter(H, "theta", caps)
            if cover.value != value:
                raise AssertionError(
                    f"theta1 dp value {value} disagrees with the clique cover "
                    f"number {cover.value} of its removed graph")
            cert["clique_cover"] = cover.certificate["clique_cover"]
        else:
            cert["clique_cover"] = None
        result = ParameterResult("theta", 1, value, cert)

    result.stats = {"max_rows": stats.max_rows, "rows_total": stats.rows_total,
                    "dp_nodes": len(nodes),
                    "elapsed_ms": (time.perf_counter() - t0) * 1000}
    if trace_file:
        import json
        with open(trace_file, "w", encoding="utf-8") as fh:
            json.dump({"parameter": which, "value": result.value,
                       "nodes": trace}, fh, sort_keys=True)
    return result


def dp_all(G: Graph):
    """Convenience: heuristic decomposition, nice form, then every DP
    parameter; returns (nice, dict of results)."""
    T = heuristic_decomposition(G)
    nice = make_nice(T, G)
    return nice, {w: dp_robust(G, nice, w) for w in DP_PARAMETERS}
