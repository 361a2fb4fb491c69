"""Nice tree decompositions and linear-time dynamic programs for the four
robust parameters on bounded-treewidth graphs.

Shared selection state per bag: `arcs` is the partial selection restricted
to bag-internal edges, with out-degree <= 1, stored as an int with two bits
per edge index i of G.sorted_edges() (bit 2i: the lower endpoint selects
the edge, bit 2i + 1: the higher one does); `pset` is the vertex bitmask
of the bag vertices whose selection is already spent, either on a stored
arc or on an edge into the already-forgotten region.  Every
selection choice is made when the later endpoint of its edge is introduced,
which enumerates each selection exactly once.  At join nodes both children
must agree on the stored arcs, and a vertex may carry a forgotten-edge
selection from at most one side (it selects only once).

Every parameter is one optimization pass with one table per node: a row
(arcs, pset, payload) maps to (value, provenance), the table keeps the
better value per row, the provenance names the child row or rows it came
from, and the answer is the best root row.  Parameter strategies:

* alpha_1 maximizes jointly over selection and independent set; the
  payload is the set's trace on the bag.
* omega_1 is a min over selections of the largest surviving clique.  The
  value is the largest clique of G - F met so far: a clique is met at an
  introduce of one of its vertices with the rest of it in the child bag
  (the lowest node whose bag holds the whole clique is such an introduce,
  or a leaf for a single vertex), where all its edges are already decided.
  Join takes the max of the two sides.
* chi_1 is a min over selections and colorings.  The payload is the bag's
  partition into color classes, the value the most classes any bag has
  held; a vertex joins a class only if it has no surviving edge into it.
  No row holds more than width // 2 + 1 classes: chi_1 <= floor(d/2) + 1
  by the degeneracy greedy and d <= width, so an optimal coloring never
  needs more.  The coloring is rebuilt top-down from each vertex's
  partition at its forget: a vertex takes a class-mate's color, else the
  lowest color no other class of that bag holds.  Every vertex that shares
  a bag with it and is forgotten higher up sits in that bag, so classes and
  colors stay one-to-one in every bag and at most `value` colors are used.
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
empty, so extraction reads a table over the trivial state, and every
vertex has exactly one forget node.
"""

from __future__ import annotations

import itertools
import time
from dataclasses import dataclass

from .graph import Graph
from .graphio import HEADER_COUNT_CAP, ParseError
# classical_parameter is not called here; it stays bound because
# perfbench/tracing.py wraps treewidth.classical_parameter by name.
from .exact import (CapExceeded, ParameterResult, _classical_kernel,
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


def _introduce_choices(index, v, bag_nbrs, pset):
    """Every selection choice when v enters the bag, in the engine's fixed
    order: v selects no edge or one bag edge, and any subset T of its
    neighbors not in `pset` select their edge to v.  Each choice is (arcs
    added, pset added, (v_arc, T), mask over `bag_nbrs` positions of the
    removed edges at v).  `index` maps an edge to its G.sorted_edges()
    position i: an arc is bit 2i when the lower endpoint selects the edge
    and bit 2i + 1 when the higher one does."""
    def arc(tail, head):
        return 1 << (2 * index[_norm(tail, head)] + (tail > head))

    free = [j for j, u in enumerate(bag_nbrs) if not pset >> u & 1]
    subsets = []
    for T in _subsets(free):
        arcs = p = r = 0
        for j in T:
            arcs |= arc(bag_nbrs[j], v)
            p |= 1 << bag_nbrs[j]
            r |= 1 << j
        subsets.append((arcs, p, tuple(bag_nbrs[j] for j in T), r))
    choices = [(arcs, p, (None, T), r) for arcs, p, T, r in subsets]
    for j, u in enumerate(bag_nbrs):
        mine = arc(v, u)
        choices += [(arcs | mine, p | 1 << v, (u, T), r | 1 << j)
                    for arcs, p, T, r in subsets]
    return choices


def _run_dp(G: Graph, nice: NiceTreeDecomposition, strategy, trace=None):
    """Bottom-up table pass; returns (tables, nodes, top).  `tables[node]`
    maps a row (arcs, pset, payload) to (value, provenance): the value the
    strategy finds better, and the child row it came from (with the
    `(v_arc, T)` choice at an introduce, both child rows at a join, None at
    a leaf).  `arcs` is a bitmask over the selected arcs (see
    `_introduce_choices`) and `pset` a vertex bitmask.  A strategy with a
    `dominates` test has each finished table pruned before it is stored, so
    kept rows only point at kept child rows.  `trace`, when a list, collects
    one record per node: rows kept and pruned.

    Every strategy transform runs once per distinct input at a node: an
    introduce reads only the removed edges (and, for omega, the group's own
    arcs), so it runs once per child (arcs, pset) group and distinct set of
    removed edges at v; forget and join run once per distinct payload and
    value.  An introduce writes its rows without comparing: v is new to the
    bag, so distinct (child state, choice) pairs give distinct (arcs, pset).
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
    arc_states: dict[int, tuple] = {}  # arcs -> (removed edges, tail mask)

    def arc_state(arcs):
        got = arc_states.get(arcs)
        if got is None:
            removed, tails, rest = [], 0, arcs
            while rest:
                low = rest & -rest
                bit = low.bit_length() - 1
                edge = edges[bit >> 1]
                removed.append(edge)
                tails |= 1 << edge[bit & 1]
                rest ^= low
            got = arc_states[arcs] = (frozenset(removed), tails)
        return got

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
            groups: dict[tuple, list] = {}
            for key, (val, _) in tables[c].items():
                groups.setdefault(key[:2], []).append((key, val))
            choices_of: dict[int, list] = {}
            for (arcs, pset), rows in groups.items():
                spent = pset & nbr_mask
                choices = choices_of.get(spent)
                if choices is None:
                    choices = choices_of[spent] = _introduce_choices(index, v, bag_nbrs, pset)
                removed_before = arc_state(arcs)[0]
                resolved: dict[int, dict] = {}  # removed edges at v -> rows
                for add_arcs, add_p, choice, at_v in choices:
                    out = resolved.get(at_v)
                    if out is None:
                        out = resolved[at_v] = {}
                        removed = removed_before.union(
                            _norm(u, v) for j, u in enumerate(bag_nbrs) if at_v >> j & 1)
                        for key, val in rows:
                            for pay2, val2 in strategy.introduce(v, bag_nbrs, removed,
                                                                 key[2], val):
                                old = out.get(pay2)
                                if old is None or better(val2, old[0]):
                                    out[pay2] = (val2, key)
                    arcs2, pset2 = arcs | add_arcs, pset | add_p
                    for pay2, (val2, key) in out.items():
                        tbl[arcs2, pset2, pay2] = (val2, (key, choice))
        elif nd.kind == "forget":
            (c,) = nd.children
            keep_p = ~(1 << v)
            keep_arcs = ~sum(3 << 2 * index[_norm(u, v)] for u in G.adj[v])
            moved: dict[tuple, tuple] = {}
            for key, (val, _) in tables[c].items():
                arcs, pset, pay = key
                got = moved.get((pay, val))
                if got is None:
                    got = moved[pay, val] = strategy.forget(v, pay, val)
                put((arcs & keep_arcs, pset & keep_p, got[0]), got[1], key)
        else:  # join
            a, b = nd.children
            join_key = strategy.join_key
            buckets: dict[tuple, list] = {}
            for key, (val, _) in tables[b].items():
                buckets.setdefault((key[0], join_key(key[2])), []).append((key, val))
            joined: dict[tuple, tuple | None] = {}
            for key, (val, _) in tables[a].items():
                arcs, pset, pay = key
                rows_b = buckets.get((arcs, join_key(pay)))
                if not rows_b:
                    continue
                # a vertex selects once: a forgotten-edge selection on one side only
                alone = pset & ~arc_state(arcs)[1]
                for key_b, val_b in rows_b:
                    if alone & key_b[1]:
                        continue
                    both = (pay, val, key_b[2], val_b)
                    if both in joined:
                        res = joined[both]
                    else:
                        res = joined[both] = strategy.join(pay, val, key_b[2], val_b)
                    if res is not None:
                        put((arcs, pset | key_b[1], res[0]), res[1], (key, key_b))

        dropped = _dominated_rows(tbl, strategy.dominates) if strategy.dominates else ()
        for key in dropped:
            del tbl[key]
        tables[node] = tbl
        if trace is not None:
            trace.append({"node": node, "kind": nd.kind, "bag": sorted(nd.bag),
                          "rows": len(tbl), "pruned": len(dropped)})

    return tables, nodes, top


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
            child_key, (v_arc, T) = p
            if v_arc is not None:
                removed.add(_norm(nd.vertex, v_arc))
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
    """Largest independent set in the removed graph, cooperative max."""

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

    @staticmethod
    def certificate(removed, forgotten, value):
        return {"independent_set": sorted(v for v, S in forgotten.items() if v in S)}


class _OmegaStrategy(_Strategy):
    """Min over selections of the largest clique of the removed graph."""

    @staticmethod
    def better(new, old):
        return new < old

    @staticmethod
    def leaf(v):
        return [((), 1)]

    def introduce(self, v, bag_nbrs, removed, pay, val):
        live = [u for u in bag_nbrs if _norm(u, v) not in removed]
        has_edge = self.G.has_edge
        size = next(r for r in range(len(live), -1, -1)
                    if any(all(has_edge(a, b) and _norm(a, b) not in removed
                               for a, b in itertools.combinations(Q, 2))
                           for Q in itertools.combinations(live, r)))
        yield pay, max(val, size + 1)

    @staticmethod
    def forget(v, pay, val):
        return pay, val

    @staticmethod
    def join(pa, va, pb, vb):
        return pa, max(va, vb)

    def certificate(self, removed, forgotten, value):
        return _kernel_certificate(self.G, removed, "omega", value)


class _ChiStrategy(_Strategy):
    """Min over selections and colorings of the most color classes any bag
    holds; the payload is the bag's partition into classes."""

    def __init__(self, G: Graph, width: int):
        super().__init__(G, width)
        self.cap = width // 2 + 1  # chi_1 <= floor(d/2) + 1 and d <= width

    @staticmethod
    def better(new, old):
        return new < old

    @staticmethod
    def leaf(v):
        return [(((v,),), 1)]

    def introduce(self, v, bag_nbrs, removed, classes, val):
        live = {u for u in bag_nbrs if _norm(u, v) not in removed}
        if len(classes) < self.cap:
            yield tuple(sorted(classes + ((v,),))), max(val, len(classes) + 1)
        for i, cls in enumerate(classes):
            if live.isdisjoint(cls):
                grown = tuple(sorted(cls + (v,)))
                yield tuple(sorted(classes[:i] + (grown,) + classes[i + 1:])), val

    @staticmethod
    def forget(v, classes, val):
        rest = (tuple(u for u in cls if u != v) for cls in classes)
        return tuple(sorted(cls for cls in rest if cls)), val

    @staticmethod
    def join(pa, va, pb, vb):
        return pa, max(va, vb)

    def certificate(self, removed, forgotten, value):
        color: dict[int, int] = {}
        for v, classes in forgotten.items():
            own = next(cls for cls in classes if v in cls)
            mate = next((u for u in own if u != v), None)
            if mate is not None:
                color[v] = color[mate]
            else:
                held = {color[u] for cls in classes if cls is not own for u in cls}
                color[v] = min(set(range(len(classes))) - held)
        return {"coloring": [color[v] for v in range(self.G.n)]}


class _ThetaStrategy(_Strategy):
    """Max over selections of the minimum clique cover; rows carry the whole
    cover-cost profile over flagged bag partitions."""

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
    def value(profile, val):
        if len(profile) != 1 or profile[0][0] != ():
            raise AssertionError(
                f"theta1 root row must hold one cost for the empty bag, got {profile!r}")
        return profile[0][1]

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
