"""Per-vertex edge selections, removable edge sets and their recognition.

The key reformulation used throughout the solvers: an edge set F is the image
of some selection with budget s exactly when (V, F) can be oriented with
out-degree at most s everywhere (Hakimi).  For s = 1 that is the
quasi-unicyclic (pseudoforest) condition: every component keeps edges <=
vertices.  `RemovableSet` is the one incremental form of this test that
every solver uses, at every s: it keeps F with such an orientation, asks
whether F + e still orients by a search along directed paths for a vertex
with slack, pushes e by reversing one such path, and pops it on backtrack.
`orient_with_cap` is a loop of pushes that returns the orientation or a
density witness, and `enumerate_removable_sets` a walk of pushes and pops
that yields each removable set as an edge-bit int over `G.sorted_edges()`,
the edge index the exact solvers share.  Searching over sparse edge sets
instead of vertex-indexed selection mappings is what keeps the exact
solvers feasible: the feasible sets form a downward-closed family, and a
selection is reconstructed only at the end.
"""

from __future__ import annotations

import json
from collections import deque
from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

from .graph import Graph

Edge = tuple[int, int]


def _norm(e: Iterable[int]) -> Edge:
    u, v = e
    return (u, v) if u < v else (v, u)


class UnionFind:
    """Union-find with per-root vertex/edge counters and an undo stack.

    add_edge answers whether the growing edge set stays a pseudoforest
    (every component keeps edges <= vertices).  The solvers use it only as a
    forest test (`exact._mask_forest`, the arboricity certificate), which
    compares roots before each add; removability at every s is
    `RemovableSet`'s.  No path compression, so that checkpoint/rollback undo
    exactly; only the `perfbench` primitive timing calls them.
    """

    def __init__(self, n: int):
        self.parent = list(range(n))
        self.rank = [0] * n
        self.verts = [1] * n
        self.edges = [0] * n
        self.trail: list[tuple] = []

    def find(self, x: int) -> int:
        while self.parent[x] != x:
            x = self.parent[x]
        return x

    def add_edge(self, u: int, v: int) -> bool:
        """Record edge (u, v); returns False if some component now has
        more edges than vertices (operation is still recorded for undo)."""
        ru, rv = self.find(u), self.find(v)
        if ru == rv:
            self.edges[ru] += 1
            self.trail.append(("self", ru))
            return self.edges[ru] <= self.verts[ru]
        if self.rank[ru] < self.rank[rv]:
            ru, rv = rv, ru
        bumped = self.rank[ru] == self.rank[rv]
        if bumped:
            self.rank[ru] += 1
        self.parent[rv] = ru
        self.verts[ru] += self.verts[rv]
        self.edges[ru] += self.edges[rv] + 1
        self.trail.append(("merge", ru, rv, bumped))
        return self.edges[ru] <= self.verts[ru]

    def checkpoint(self) -> int:
        return len(self.trail)

    def rollback(self, mark: int) -> None:
        while len(self.trail) > mark:
            op = self.trail.pop()
            if op[0] == "self":
                self.edges[op[1]] -= 1
            else:
                _, ru, rv, bumped = op
                self.parent[rv] = rv
                self.verts[ru] -= self.verts[rv]
                self.edges[ru] -= self.edges[rv] + 1
                if bumped:
                    self.rank[ru] -= 1


@dataclass(frozen=True)
class SSelection:
    """Assignment of at most s incident edges to each vertex."""

    s: int
    assignment: tuple[tuple[Edge, ...], ...]  # per-vertex tuples of edges

    @property
    def n(self) -> int:
        return len(self.assignment)

    def removed_edges(self) -> frozenset[Edge]:
        return frozenset(e for edges in self.assignment for e in edges)

    def validate(self, G: Graph) -> None:
        if self.n != G.n:
            raise ValueError("selection sized for a different graph")
        if self.s < 0:
            raise ValueError("budget must be non-negative")
        for v, edges in enumerate(self.assignment):
            if len(edges) > self.s:
                raise ValueError(f"vertex {v} selects {len(edges)} > s = {self.s} edges")
            for e in edges:
                if v not in e:
                    raise ValueError(f"edge {e} assigned to non-incident vertex {v}")
                if _norm(e) not in G.edges:
                    raise ValueError(f"selected edge {e} not in the graph")

    def to_pairs(self) -> list[tuple[int, int]]:
        """JSON form: (vertex, other endpoint) pairs, sorted."""
        pairs = []
        for v, edges in enumerate(self.assignment):
            for u, w in edges:
                pairs.append((v, w if u == v else u))
        return sorted(pairs)

    def to_json(self) -> str:
        return json.dumps({"s": self.s, "pairs": self.to_pairs()})

    @classmethod
    def from_pairs(cls, n: int, s: int, pairs: Iterable[tuple[int, int]]) -> "SSelection":
        assignment: list[list[Edge]] = [[] for _ in range(n)]
        for v, w in pairs:
            assignment[v].append(_norm((v, w)))
        return cls(s, tuple(tuple(sorted(a)) for a in assignment))

    @classmethod
    def from_json(cls, n: int, text: str) -> "SSelection":
        data = json.loads(text)
        return cls.from_pairs(n, data["s"], [tuple(p) for p in data["pairs"]])

    @classmethod
    def empty(cls, n: int, s: int = 1) -> "SSelection":
        return cls(s, tuple(() for _ in range(n)))


@dataclass(frozen=True)
class RemovedGraph:
    base: Graph
    selection: SSelection
    removed_edges: frozenset[Edge]
    result: Graph


def is_quasi_unicyclic(G: Graph) -> bool:
    """True iff every component is a tree or unicyclic (edges <= vertices)."""
    F = RemovableSet(G.n, 1)
    return all(F.push(e) for e in G.edges)


class RemovableSet:
    """A growing edge set F kept removable at budget s, with undo.

    F is removable (the edge image of some s-selection) iff F can be
    oriented with out-degree <= s (Hakimi); the class keeps F with such an
    orientation at every s (at s = 1 that is the pseudoforest test, and at
    s = 0 no vertex has slack).  can_add(e) says whether an endpoint of e,
    or a vertex reached from one along directed paths, has out-degree below
    s.  It writes nothing but, on a no, `witness`: the reached set, which
    spans more than s times its size of the edges of F + e.  push(e) adds e
    when can_add(e) holds: e leaves the endpoint of smaller out-degree, and
    if that tail goes over s, one breadth-first hunt finds a vertex with
    slack and reverses the path to it.  pop() drops the last edge and its
    arc; out-degrees stay within s, and can_add is exact from any valid
    orientation, so the reversals need no undo.  `edges` lists F in push
    order, and heads[i] is the head of edges[i].
    """

    def __init__(self, n: int, s: int):
        if s < 0:
            raise ValueError("budget must be non-negative")
        self.cap = s
        self.edges: list[Edge] = []
        self.outdeg = [0] * n
        self.tails: list[int] = []
        self.heads: list[int] = []
        self.out_arcs: list[set[int]] = [set() for _ in range(n)]
        self.witness: set[int] | None = None

    def can_add(self, e: Edge) -> bool:
        u, v = e
        outdeg, cap = self.outdeg, self.cap
        if outdeg[u] < cap or outdeg[v] < cap:
            return True
        out_arcs, heads = self.out_arcs, self.heads
        reached = {u, v}
        stack = [u, v]
        while stack:
            for a in out_arcs[stack.pop()]:
                y = heads[a]
                if y not in reached:
                    if outdeg[y] < cap:
                        return True
                    reached.add(y)
                    stack.append(y)
        self.witness = reached
        return False

    def push(self, e: Edge) -> bool:
        if not self.can_add(e):
            return False
        u, v = e
        outdeg, tails, heads, out_arcs = self.outdeg, self.tails, self.heads, self.out_arcs
        cap = self.cap
        aid = len(heads)
        tail, head = (u, v) if outdeg[u] <= outdeg[v] else (v, u)
        tails.append(tail)
        heads.append(head)
        out_arcs[tail].add(aid)
        outdeg[tail] += 1
        if outdeg[tail] > cap:
            parent_arc: dict[int, int] = {}
            visited = {tail}
            queue = deque([tail])
            target = None
            while target is None:
                x = queue.popleft()
                for a in out_arcs[x]:
                    y = heads[a]
                    if y in visited:
                        continue
                    visited.add(y)
                    parent_arc[y] = a
                    if outdeg[y] < cap:
                        target = y
                        break
                    queue.append(y)
            y = target
            while y != tail:
                a = parent_arc[y]
                t = tails[a]
                out_arcs[t].discard(a)
                outdeg[t] -= 1
                tails[a], heads[a] = y, t
                out_arcs[y].add(a)
                outdeg[y] += 1
                y = t
        self.edges.append(e)
        return True

    def pop(self) -> Edge:
        aid = len(self.heads) - 1
        tail = self.tails.pop()
        self.heads.pop()
        self.out_arcs[tail].discard(aid)
        self.outdeg[tail] -= 1
        return self.edges.pop()


def orient_with_cap(n: int, edges: Sequence[Edge], cap: int):
    """Try to orient `edges` with out-degree <= cap at every vertex.

    Returns (heads, None) on success, where heads[i] is the head of edges[i],
    or (None, witness) on failure with a vertex set inducing more than
    cap * |witness| of the given edges (the density obstruction).
    """
    if cap < 0:
        raise ValueError("cap must be non-negative")
    if cap == 0:
        if not edges:
            return [], None
        return None, sorted({v for e in edges for v in e})
    F = RemovableSet(n, cap)
    for e in edges:
        if not F.push(e):
            return None, sorted(F.witness)
    return F.heads, None


def is_removable(F: Iterable[Edge], G: Graph, s: int):
    """Whether F is the edge image of some s-selection on G.

    Returns (True, orientation) with orientation mapping each edge of F to
    its head under a cap-s orientation (the other endpoint selects it),
    or (False, None).
    """
    F = sorted(_norm(e) for e in F)
    for e in F:
        if e not in G.edges:
            raise ValueError(f"edge {e} not in the graph")
    heads, _ = orient_with_cap(G.n, F, s)
    if heads is None:
        return False, None
    return True, {e: heads[i] for i, e in enumerate(F)}


def selection_from_edge_set(F: Iterable[Edge], G: Graph, s: int) -> SSelection:
    """Injective selection realizing F: every edge assigned to exactly one
    endpoint (the tail of a cap-s orientation)."""
    F = sorted(_norm(e) for e in F)
    ok, orientation = is_removable(F, G, s)
    if not ok:
        raise ValueError(f"edge set is not removable at budget s = {s}")
    assignment: list[list[Edge]] = [[] for _ in range(G.n)]
    for e in F:
        head = orientation[e]
        tail = e[0] if e[1] == head else e[1]
        assignment[tail].append(e)
    sel = SSelection(s, tuple(tuple(sorted(a)) for a in assignment))
    sel.validate(G)
    return sel


def apply_selection(G: Graph, f: SSelection) -> RemovedGraph:
    f.validate(G)
    removed = f.removed_edges()
    result = Graph(G.n, G.edges - removed)
    return RemovedGraph(G, f, removed, result)


def selection_digraph(G: Graph, f: SSelection) -> list[tuple[int, int]]:
    """Arc list (v, w) for f(v) = vw; only defined for budget 1.
    Two-cycles appear when both endpoints select the same edge."""
    if f.s != 1:
        raise ValueError("selection digraph is defined for s = 1 only")
    f.validate(G)
    return f.to_pairs()


def maximal_extension(G: Graph, s: int, F: int = 0) -> int:
    """The removable set F, an edge-bit int over G.sorted_edges(), grown
    greedily in edge order to a maximal one.  The removable sets are the
    independent sets of a matroid (a union of s bicircular matroids), so
    every maximal one has this size, the rank: its `.bit_count()`."""
    edges = G.sorted_edges()
    grown = RemovableSet(G.n, s)
    held = 0
    for i in sorted(range(len(edges)), key=lambda i: not F >> i & 1):  # F first
        if grown.push(edges[i]):
            held |= 1 << i
    return held


DEFAULT_ENUM_ALL_EDGE_CAP = 20
DEFAULT_ENUM_MAXIMAL_EDGE_CAP = 24


def enumerate_removable_sets(G: Graph, s: int, mode: str = "all",
                             edge_cap: int | None = None) -> Iterator[int]:
    """Stream the removable edge sets of G at budget s, each as an edge-bit
    int: bit i is set when F holds edge i of G.sorted_edges().

    mode 'all' yields every removable set exactly once; 'maximal' yields
    exactly the inclusion-maximal ones, the sets of rank size.  The walk
    branches on each edge in sorted order (take it if a RemovableSet accepts
    the push, then leave it), so feasibility costs one incremental push per
    branch; in mode 'maximal' it drops a branch that cannot reach the rank.
    The tree is walked in one loop: `taken` holds the edge indices of F,
    each a take decision whose leave branch is still to come, so
    backtracking pops the last one, clears its bit and resumes just past
    it.  The guard caps keep the exponential walk at desk scale.
    """
    if mode not in ("all", "maximal"):
        raise ValueError("mode must be 'all' or 'maximal'")
    if s < 0:
        raise ValueError("budget must be non-negative")
    cap = edge_cap if edge_cap is not None else (
        DEFAULT_ENUM_ALL_EDGE_CAP if mode == "all" else DEFAULT_ENUM_MAXIMAL_EDGE_CAP)
    if G.m > cap:
        raise ValueError(f"graph has {G.m} edges, enumeration guard is {cap}")
    edges = G.sorted_edges()
    m = len(edges)
    floor = maximal_extension(G, s).bit_count() if mode == "maximal" else 0
    F = RemovableSet(G.n, s)
    push, pop = F.push, F.pop
    taken: list[int] = []
    bits = 0
    i = 0
    while True:
        if len(taken) + m - i >= floor:
            if i < m:
                if push(edges[i]):
                    taken.append(i)
                    bits |= 1 << i
                i += 1
                continue
            yield bits
        if not taken:
            return
        pop()
        i = taken.pop()
        bits ^= 1 << i
        i += 1
