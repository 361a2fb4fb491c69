"""Nice tree decompositions and linear-time dynamic programs for the four
robust parameters on bounded-treewidth graphs.

Shared selection state per bag: in a 1-removed subgraph every vertex
pays for (selects) at most one removed edge at it, and no later node needs
to know which endpoint pays for a removed edge with both ends in the bag.
So a row keeps `R`, the removed bag edges as a bitmask over the edge
indices of G.sorted_edges(), and `A`, the vertex bitmask of the bag
vertices whose selection is already spent on an edge to a forgotten
vertex.  By Hakimi's orientation theorem (1965), R can still be paid for
with nothing from A exactly when no component of (bag, R) has more edges
than vertices outside A (`_payable`); every row passes that test.  Each
edge is removed or kept at the introduce of its later endpoint v, one
choice per subset T of v's bag neighbours, so every removed edge set is
enumerated once.  Who pays for a removed bag edge is settled when its first
endpoint v is forgotten: if v is in A, the other endpoints pay, else v pays
for one of the edges and the others pay for theirs; a payer must be
outside A and joins it.  At join nodes both children must agree on R, and
their A sets must be disjoint (a vertex pays once).

Every parameter is one optimization pass with one table per node: a row
(R, A, payload) maps to (value, provenance), the table keeps the
better value per row, the provenance names the child row or rows it came
from, and the answer is the best root row.  Parameter strategies:

* alpha_1 maximizes jointly over selection and independent set; the
  payload is the set's trace on the bag, a vertex mask.
* omega_1 is a min over selections of the largest surviving clique.  The
  value is the largest clique of G - F met so far: a clique is met at an
  introduce of one of its vertices with the rest of it in the child bag
  (the lowest node whose bag holds the whole clique is such an introduce,
  or a leaf for a single vertex), where all its edges are already decided.
  Join takes the max of the two sides.
* chi_1 is a min over selections and colorings.  The payload is the bag's
  partition into color classes, vertex masks ordered by lowest vertex (for
  disjoint classes, the order of sorted vertex tuples), the value the most
  classes any bag has held; a vertex joins a class only if it has no
  surviving edge into it.
  No row holds more than width // 2 + 1 classes: chi_1 <= floor(d/2) + 1
  by the degeneracy greedy and d <= width, so an optimal coloring never
  needs more.  The coloring is rebuilt top-down from each vertex's
  partition at its forget: a vertex takes a class-mate's color, else the
  lowest color no other class of that bag holds.  Every vertex that shares
  a bag with it and is forgotten higher up sits in that bag, so classes and
  colors stay one-to-one in every bag and at most `value` colors are used.
* theta_1 is a max over selections of a minimum cover, so rows carry the
  whole cost profile over flagged bag partitions (class mask, flag = class
  already touches a forgotten vertex).  Every finished table is pruned by
  dominance: of two rows with the same (R, A), the one whose profile is
  pointwise <= the other's is dropped, reading a missing partition as
  cost +inf.  This is sound because the rows above depend on a row only
  through its (R, A), which allows the same removals and payers above for
  both, and through its profile, which introduce, forget and join
  transform by monotone min-plus maps; so the dropped row never ends with
  a larger cover than the kept one, and the final max is unchanged.

The engine appends synthetic forget nodes above the root until the bag is
empty, so extraction reads a table over the trivial state, and every
vertex has exactly one forget node.
"""

from __future__ import annotations

import functools
import itertools
import time
from dataclasses import dataclass

from .graph import Graph
from .graphio import HEADER_COUNT_CAP, ParseError
# classical_parameter is not called here; it stays bound because
# perfbench/tracing.py wraps treewidth.classical_parameter by name.
from .exact import (CapExceeded, ParameterResult, _bits, _classical_kernel,
                    _removed_masks, classical_parameter)
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
    bags: list[frozenset[int]] = []  # bag i: the i-th eliminated vertex
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
        bags.append(frozenset([v] + live))
        elim_order.append(v)
        for a, b in itertools.combinations(live, 2):
            nbrs[a].add(b)
            nbrs[b].add(a)
        alive.discard(v)
    pos = {v: i for i, v in enumerate(elim_order)}
    edges = []
    top = list(range(len(bags)))  # bag -> the parentless bag of its tree
    for i in reversed(range(len(bags))):  # a parent bag comes later
        later = [pos[w] for w in bags[i] if pos[w] > i]
        if later:
            j = min(later)
            edges.append((i, j))
            top[i] = top[j]
    edges.reverse()
    # chain the trees (isolated vertices etc.) by their lowest bags
    lowest: dict[int, int] = {}
    for i, t in enumerate(top):
        lowest.setdefault(t, i)
    lows = list(lowest.values())
    edges += zip(lows, lows[1:])
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
    root: int | None  # None only for the empty graph, which has no nodes

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
    neighbor are absorbed), which keeps the node count within 4|V|.  The
    empty graph's nice form has no nodes and no root."""
    ok, why = validate_decomposition(T, G)
    if not ok:
        raise ValueError(f"invalid tree decomposition: {why}")
    if G.n == 0:
        return NiceTreeDecomposition([], None)
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
        if not kids:  # a singleton leaf, then its bag's other vertices
            built[x] = adapt(add("leaf", {min(bag)}), bag)
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


def _payable(edges, R, A) -> bool:
    """Can every edge of R (a bitmask over `edges`) be paid for by one of
    its endpoints, each vertex paying at most once and no vertex of the
    mask A paying?  By Hakimi's orientation theorem (1965) with capacities
    0 and 1, exactly when no component of R has more edges than vertices
    outside A: a connected vertex set grows to its component by adding
    vertices that each bring at least one edge and at most one capacity."""
    comps: list[tuple[int, int]] = []  # (vertex mask, edge count)
    for i in _bits(R):
        a, b = edges[i]
        mask, count = 1 << a | 1 << b, 1
        rest = []
        for cmask, ccount in comps:
            if cmask & mask:
                mask |= cmask
                count += ccount
            else:
                rest.append((cmask, ccount))
        rest.append((mask, count))
        comps = rest
    return all(count <= (mask & ~A).bit_count() for mask, count in comps)


def _run_dp(G: Graph, nice: NiceTreeDecomposition, strategy, trace=None):
    """Bottom-up table pass; returns (tables, nodes, top).  `tables[node]`
    maps a row (R, A, payload) to (value, provenance): the value the
    strategy finds better, and the child row it came from (with the tuple
    T of neighbours whose edge to v it removes at an introduce of v, both
    child rows at a join, None at a leaf).  `R` is a bitmask over
    G.sorted_edges() and `A` a vertex bitmask (module docstring).  A
    strategy with a `dominates` test has each finished table pruned before
    it is stored, so kept rows only point at kept child rows.  `trace`,
    when a list, collects one record per node: rows kept and pruned.

    Every strategy transform runs once per distinct input at a node.  The
    introduce hook, `introduce(v, live, R, payload, value)`, reads only
    `live`, the mask of v's bag neighbours whose edge to v survives (and,
    for omega, the group's own R), so it runs once per child (R, A) group
    and choice of T; forget and join run once per distinct payload and
    value.  An introduce writes its rows without comparing: v is new to the
    bag, so R' = R | (edges v-T) gives back both R and T, and distinct
    (child state, T) pairs give distinct (R', A).
    """
    nodes = list(nice.nodes)
    cur = nice.root
    bag = set(nodes[cur].bag)
    for v in sorted(bag, reverse=True):
        bag = bag - {v}
        nodes.append(NiceNode("forget", frozenset(bag), v, (cur,)))
        cur = len(nodes) - 1
    top = cur
    tables: dict[int, dict] = {}
    edges = G.sorted_edges()
    index = {e: i for i, e in enumerate(edges)}
    better = strategy.better
    feasible = functools.cache(lambda R, A: _payable(edges, R, A))

    for node in _postorder(nodes, top):
        nd = nodes[node]
        v = nd.vertex
        tbl: dict = {}

        def put(key, value, p):
            old = tbl.get(key)
            if old is None or better(value, old[0]):
                tbl[key] = (value, p)

        if nd.kind == "leaf":
            (v,) = nd.bag
            for pay, val in strategy.leaf(v):
                put((0, 0, pay), val, None)
        elif nd.kind == "introduce":
            (c,) = nd.children
            bag_nbrs = sorted(u for u in G.adj[v] if u in nodes[c].bag)
            nbr_mask = sum(1 << u for u in bag_nbrs)
            choices = [(T, sum(1 << index[_norm(u, v)] for u in T),
                        nbr_mask & ~sum(1 << u for u in T))
                       for T in _subsets(bag_nbrs)]
            groups: dict[tuple, list] = {}
            for key, (val, _) in tables[c].items():
                groups.setdefault(key[:2], []).append((key, val))
            for (R, A), rows in groups.items():
                for T, cut, live in choices:
                    R2 = R | cut
                    if cut and not feasible(R2, A):
                        continue
                    out: dict = {}
                    for key, val in rows:
                        for pay2, val2 in strategy.introduce(v, live, R, key[2], val):
                            old = out.get(pay2)
                            if old is None or better(val2, old[0]):
                                out[pay2] = (val2, key)
                    for pay2, (val2, key) in out.items():
                        tbl[R2, A, pay2] = (val2, (key, T))
        elif nd.kind == "forget":
            (c,) = nd.children
            vbit = 1 << v
            other = {index[_norm(u, v)]: 1 << u for u in G.adj[v]}
            v_edges = sum(1 << i for i in other)
            states: dict[tuple, list] = {}
            moved: dict[tuple, tuple] = {}
            for key, (val, _) in tables[c].items():
                R, A, pay = key
                got = states.get((R, A))
                if got is None:
                    got = states[R, A] = _forget_states(
                        R, A, vbit, v_edges, other, feasible)
                if not got:
                    continue
                res = moved.get((pay, val))
                if res is None:
                    res = moved[pay, val] = strategy.forget(v, pay, val)
                for R2, A2 in got:
                    put((R2, A2, res[0]), res[1], key)
        else:  # join
            a, b = nd.children
            join_key = strategy.join_key
            buckets: dict[tuple, list] = {}
            for key, (val, _) in tables[b].items():
                buckets.setdefault((key[0], join_key(key[2])), []).append((key, val))
            joined: dict[tuple, tuple | None] = {}
            for key, (val, _) in tables[a].items():
                R, A, pay = key
                rows_b = buckets.get((R, join_key(pay)))
                if not rows_b:
                    continue
                for key_b, val_b in rows_b:
                    # a vertex pays once: a forgotten edge on one side only
                    if A & key_b[1] or not feasible(R, A | key_b[1]):
                        continue
                    both = (pay, val, key_b[2], val_b)
                    if both in joined:
                        res = joined[both]
                    else:
                        res = joined[both] = strategy.join(pay, val, key_b[2], val_b)
                    if res is not None:
                        put((R, A | key_b[1], res[0]), res[1], (key, key_b))

        dropped = _dominated_rows(tbl, strategy.dominates) if strategy.dominates else ()
        for key in dropped:
            del tbl[key]
        tables[node] = tbl
        if trace is not None:
            trace.append({"node": node, "kind": nd.kind, "bag": sorted(nd.bag),
                          "rows": len(tbl), "pruned": len(dropped)})

    return tables, nodes, top


def _forget_states(R, A, vbit, v_edges, other, feasible) -> list:
    """The (R', A') a row (R, A) leaves when v is forgotten: who pays for
    each removed edge vx of R is settled here.  `v_edges` masks v's edge
    bits, and `other` maps each edge index of v to its other endpoint's
    vertex bit.  If v has spent its selection (v in A), every such x pays;
    otherwise v pays for one vx and the other x pay for theirs.  A payer
    must not be in A and joins it, and the new state must pass `feasible`.
    "v pays for none" is left out: its A' contains the A' of each choice
    above, and a smaller A' allows every completion a larger one does."""
    mine = R & v_edges
    R2 = R & ~v_edges
    if not mine:
        return [(R2, A & ~vbit)]
    X = 0
    for i in _bits(mine):
        X |= other[i]
    if A & vbit:
        payers = [X]
    else:
        payers = [X & ~(1 << u) for u in _bits(X)]
    return [(R2, (A | P) & ~vbit) for P in payers
            if not P & A and feasible(R2, (A | P) & ~vbit)]


def _dominated_rows(tbl, dominates) -> list:
    """Keys of the rows to drop: among rows with the same (R, A), every row
    whose payload some other row's payload dominates.  Dominance is a
    strict partial order on distinct keys, so the kept rows are the maximal
    ones and every dropped row is dominated by a kept one.  A payload is a
    sequence of (item, cost) pairs; `dominates(pa, costs_b)` reads the
    other row's as a dict, built once per row here."""
    groups: dict[tuple, list] = {}
    for key in tbl:
        groups.setdefault(key[:2], []).append(key)
    dropped = []
    for keys in groups.values():
        if len(keys) == 1:
            continue
        costs = {key: dict(key[2]) for key in keys}
        front: list = []
        for key in keys:
            if any(dominates(k[2], costs[key]) for k in front):
                dropped.append(key)
                continue
            beaten = [k for k in front if dominates(key[2], costs[k])]
            if beaten:
                dropped.extend(beaten)
                front = [k for k in front if k not in beaten]
            front.append(key)
    return dropped


def _walk_provenance(tables, nodes, top, key):
    """Walk provenance down from (top, key); returns the chosen removed edges
    and, for every vertex, the payload of the row it was forgotten from.
    The walk is top-down, and `forgotten` lists the vertices in walk order,
    so a vertex comes after every vertex forgotten above it."""
    removed: set[Edge] = set()
    forgotten: dict[int, object] = {}
    stack = [(top, key)]
    while stack:
        node, k = stack.pop()
        nd = nodes[node]
        p = tables[node][k][1]
        if nd.kind == "introduce":
            child_key, T = p
            for u in T:
                removed.add(_norm(u, nd.vertex))
            stack.append((nd.children[0], child_key))
        elif nd.kind == "forget":
            forgotten[nd.vertex] = p[2]
            stack.append((nd.children[0], p))
        elif nd.kind == "join":
            stack += zip(nd.children, p)
    return removed, forgotten


def _kernel_certificate(G: Graph, removed, which: str, value: int) -> dict:
    """The classical kernel's certificate for G - removed, checked against
    the DP value."""
    got, cert, _ = _classical_kernel(G.n, _removed_masks(G, removed), which)
    if got != value:
        raise AssertionError(f"{which}1 dp value {value} disagrees with the "
                             f"{which} number {got} of its removed graph")
    return cert


# -- strategies --------------------------------------------------------------


class _Strategy:
    """Hook defaults for a maximizing strategy; each strategy overrides the
    hooks it changes.  `value(pay, val)` reads the answer off the payload
    and value of a root row, and `certificate(removed, forgotten, value)` builds the certificate
    entries beyond the removed edges."""

    dominates = None  # no dominance test: finished tables are not pruned

    def __init__(self, G: Graph, width: int):
        self.G = G

    @staticmethod
    def better(new, old):
        return new > old

    @staticmethod
    def join_key(pay):
        return pay

    @staticmethod
    def value(pay, val):
        return val


class _AlphaStrategy(_Strategy):
    """Largest independent set in the removed graph, cooperative max; the
    payload is the set's trace on the bag, a vertex mask."""

    @staticmethod
    def leaf(v):
        return [(0, 0), (1 << v, 1)]

    @staticmethod
    def introduce(v, live, R, S, val):
        yield S, val
        if not S & live:
            yield S | 1 << v, val + 1

    @staticmethod
    def forget(v, S, val):
        return S & ~(1 << v), val

    @staticmethod
    def join(Sa, va, Sb, vb):
        return Sa, va + vb - Sa.bit_count()

    @staticmethod
    def certificate(removed, forgotten, value):
        return {"independent_set": sorted(v for v, S in forgotten.items() if S >> v & 1)}


class _OmegaStrategy(_Strategy):
    """Min over selections of the largest clique of the removed graph."""

    def __init__(self, G: Graph, width: int):
        super().__init__(G, width)
        self.edges = G.sorted_edges()
        self.masks = G.adjacency_masks()

    @staticmethod
    def better(new, old):
        return new < old

    @staticmethod
    def leaf(v):
        return [((), 1)]

    def introduce(self, v, live, R, pay, val):
        # the surviving edges among the live neighbors: G's, less R's
        masks = {u: self.masks[u] & live for u in _bits(live)}
        for i in _bits(R):
            a, b = self.edges[i]
            if a in masks and b in masks:
                masks[a] &= ~(1 << b)
                masks[b] &= ~(1 << a)
        yield pay, max(val, _largest_clique(live, masks) + 1)

    @staticmethod
    def forget(v, pay, val):
        return pay, val

    @staticmethod
    def join(pa, va, pb, vb):
        return pa, max(va, vb)

    def certificate(self, removed, forgotten, value):
        return _kernel_certificate(self.G, removed, "omega", value)


def _largest_clique(cand: int, masks: dict) -> int:
    """Size of the largest clique inside the vertex mask `cand`."""
    if not cand:
        return 0
    low = cand & -cand
    rest = cand ^ low
    return max(1 + _largest_clique(rest & masks[low.bit_length() - 1], masks),
               _largest_clique(rest, masks))


def _by_lowest(classes) -> tuple:
    """Disjoint class masks ordered by their lowest vertex: the order of the
    classes as sorted vertex tuples."""
    return tuple(sorted(classes, key=lambda cls: cls & -cls))


class _ChiStrategy(_Strategy):
    """Min over selections and colorings of the most color classes any bag
    holds; the payload is the bag's partition into classes, a tuple of
    vertex masks ordered by lowest vertex."""

    def __init__(self, G: Graph, width: int):
        super().__init__(G, width)
        self.cap = width // 2 + 1  # chi_1 <= floor(d/2) + 1 and d <= width

    @staticmethod
    def better(new, old):
        return new < old

    @staticmethod
    def leaf(v):
        return [((1 << v,), 1)]

    def introduce(self, v, live, R, classes, val):
        bit = 1 << v
        if len(classes) < self.cap:
            yield _by_lowest(classes + (bit,)), max(val, len(classes) + 1)
        for i, cls in enumerate(classes):
            if not cls & live:
                yield _by_lowest(classes[:i] + (cls | bit,) + classes[i + 1:]), val

    @staticmethod
    def forget(v, classes, val):
        bit = 1 << v
        return _by_lowest(cls & ~bit for cls in classes if cls != bit), val

    @staticmethod
    def join(pa, va, pb, vb):
        return pa, max(va, vb)

    def certificate(self, removed, forgotten, value):
        color: dict[int, int] = {}
        for v, classes in forgotten.items():
            bit = 1 << v
            own = next(cls for cls in classes if cls & bit)
            mates = own ^ bit
            if mates:
                color[v] = color[(mates & -mates).bit_length() - 1]
            else:
                held = {color[u] for cls in classes if cls != own for u in _bits(cls)}
                color[v] = min(set(range(len(classes))) - held)
        return {"coloring": [color[v] for v in range(self.G.n)]}


def _keep_cheapest(costs: dict, fp, cost: int) -> None:
    """Record `cost` for flagged partition `fp` unless `costs` holds one no
    higher."""
    if costs.get(fp, cost + 1) > cost:
        costs[fp] = cost


class _ThetaStrategy(_Strategy):
    """Max over selections of the minimum clique cover; rows carry the whole
    cover-cost profile over flagged bag partitions.  A flagged partition is
    a sorted tuple of (class mask, flag) pairs, a profile a sorted tuple of
    (flagged partition, cost) pairs."""

    @staticmethod
    def dominates(pa, costs):
        """True when a row whose profile, as a dict, is `costs` may be
        dropped for one with profile pa: every flagged partition of pa also
        appears in `costs` at a cost <= pa's.  A partition missing from
        `costs` costs +inf there, so it never lets that row be dropped."""
        return len(pa) <= len(costs) and all(
            costs.get(fp, cost + 1) <= cost for fp, cost in pa)

    @staticmethod
    def join_key(pay):
        return None  # profiles pair up inside join()

    @staticmethod
    def value(profile, val):
        if len(profile) != 1 or profile[0][0] != ():
            raise AssertionError(
                f"theta1 root row must hold one cost for the empty bag, got {profile!r}")
        return profile[0][1]

    @staticmethod
    def leaf(v):
        fp = ((1 << v, False),)
        return [(((fp, 1),), 0)]

    @staticmethod
    def introduce(v, live, R, pay, val):
        bit = 1 << v
        out: dict[tuple, int] = {}
        for fp, cost in pay:
            # v as a fresh singleton class
            _keep_cheapest(out, tuple(sorted(fp + ((bit, False),))), cost + 1)
            # attach v to a class with no forgotten vertices whose every
            # member keeps its edge to v, so it stays a clique
            for i, (cls, flag) in enumerate(fp):
                if not flag and not cls & ~live:
                    grown = fp[:i] + ((cls | bit, False),) + fp[i + 1:]
                    _keep_cheapest(out, tuple(sorted(grown)), cost)
        if out:
            yield tuple(sorted(out.items())), 0

    @staticmethod
    def forget(v, pay, val):
        bit = 1 << v
        out: dict[tuple, int] = {}
        for fp, cost in pay:
            # v's class loses v and is flagged; a class of v alone closes
            # and stays counted in cost
            parts = [(cls & ~bit, True) if cls & bit else (cls, flag)
                     for cls, flag in fp if cls != bit]
            _keep_cheapest(out, tuple(sorted(parts)), cost)
        return tuple(sorted(out.items())), 0

    @staticmethod
    def join(pa, va, pb, vb):
        index: dict[tuple, list] = {}
        for fp, cost in pb:
            index.setdefault(tuple(cls for cls, _ in fp), []).append((fp, cost))
        out: dict[tuple, int] = {}
        for fp_a, cost_a in pa:
            for fp_b, cost_b in index.get(tuple(cls for cls, _ in fp_a), ()):
                if any(fa and fb for (_, fa), (_, fb) in zip(fp_a, fp_b)):
                    continue
                fp2 = tuple((cls, fa or fb) for (cls, fa), (_, fb) in zip(fp_a, fp_b))
                _keep_cheapest(out, fp2, cost_a + cost_b - len(fp2))
        if not out:
            return None
        return tuple(sorted(out.items())), 0

    def certificate(self, removed, forgotten, value):
        return _kernel_certificate(self.G, removed, "theta", value)


# ---------------------------------------------------------------------------
# public front end
# ---------------------------------------------------------------------------


_STRATEGIES = {"alpha1": _AlphaStrategy, "omega1": _OmegaStrategy,
               "chi1": _ChiStrategy, "theta1": _ThetaStrategy}
DP_PARAMETERS = tuple(_STRATEGIES)
DP_WIDTH_CAP = 6  # widest decomposition the DP accepts


def dp_robust(G: Graph, nice: NiceTreeDecomposition, which: str,
              trace_file: str | None = None) -> ParameterResult:
    """Compute a robust parameter by one dynamic-programming pass over a
    nice tree decomposition.  `which` is one of alpha1 / omega1 / chi1 /
    theta1.  `trace_file` dumps per-node table sizes (rows kept, rows
    pruned) as JSON for debugging."""
    if which not in DP_PARAMETERS:
        raise ValueError(f"unknown dp parameter {which!r}")
    if nice.width > DP_WIDTH_CAP:
        raise CapExceeded(f"decomposition width {nice.width} exceeds dp cap {DP_WIDTH_CAP}")
    ok, why = nice.validate(G)
    if not ok:
        raise ValueError(f"invalid nice decomposition: {why}")
    t0 = time.perf_counter()
    trace: list | None = [] if trace_file else None
    strategy = _STRATEGIES[which](G, nice.width)
    if nice.nodes:
        tables, nodes, top = _run_dp(G, nice, strategy, trace)
        key = value = None
        for row, (val, _) in tables[top].items():
            row_value = strategy.value(row[2], val)
            if key is None or strategy.better(row_value, value):
                key, value = row, row_value
        removed, forgotten = _walk_provenance(tables, nodes, top, key)
    else:  # the empty graph: no tables, nothing removed, value 0
        tables, nodes, removed, forgotten, value = {}, [], set(), {}, 0
    cert = {"removed_edges": [list(e) for e in sorted(removed)],
            **strategy.certificate(removed, forgotten, value)}
    result = ParameterResult(which[:-1], 1, value, cert)
    sizes = [len(tbl) for tbl in tables.values()]
    result.stats = {"max_rows": max(sizes, default=0), "rows_total": sum(sizes),
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
