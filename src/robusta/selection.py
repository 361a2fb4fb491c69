"""Per-vertex edge selections, removable edge sets and their recognition.

The key reformulation used throughout the solvers: an edge set F is the image
of some selection with budget s exactly when (V, F) can be oriented with
out-degree at most s everywhere (Hakimi).  For s = 1 that is the
quasi-unicyclic (pseudoforest) condition, checkable per component by
comparing edge and vertex counts; for larger budgets it is a path-reversal
orientation test.  `RemovableSet` is the one incremental form of this test
that every solver uses: push an edge if F + e stays removable, pop it on
backtrack.  `orient_with_cap` runs the same orientation from scratch and
returns the orientation or a density witness.  Searching over sparse edge
sets instead of vertex-indexed selection mappings is what keeps the exact
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

    add_edge answers, in amortized near-constant time, whether the growing
    edge set stays a pseudoforest (every component keeps edges <= vertices).
    No path compression so that operations can be rolled back exactly.
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


class _Orientation:
    """An orientation with out-degree <= cap, grown one edge at a time.

    Each push orients the new edge away from the endpoint of smaller
    out-degree; if that tail goes over the cap, one breadth-first hunt along
    directed paths finds a vertex with slack and reverses the path to it.
    When no such vertex is reachable, the reachable set carries more than
    cap * |set| edges (the density obstruction): the push is undone and the
    set is kept as `witness`.  pop() only drops the last arc: that keeps
    every out-degree within the cap, and the push test is exact from any
    valid orientation, so the reversals need no undo.
    """

    def __init__(self, n: int, cap: int):
        self.cap = cap
        self.outdeg = [0] * n
        self.tails: list[int] = []
        self.heads: list[int] = []  # heads[i] is the head of the i-th pushed edge
        self.out_arcs: list[set[int]] = [set() for _ in range(n)]
        self.witness: set[int] | None = None

    def push(self, u: int, v: int) -> bool:
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
            while queue and target is None:
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
            if target is None:
                self.witness = visited
                self.pop()
                return False
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
        return True

    def pop(self) -> None:
        aid = len(self.heads) - 1
        tail = self.tails.pop()
        self.heads.pop()
        self.out_arcs[tail].discard(aid)
        self.outdeg[tail] -= 1


class RemovableSet:
    """A growing edge set F kept removable at budget s, with undo.

    F is removable (the edge image of some s-selection) iff F can be oriented
    with out-degree <= s (Hakimi).  push(e) adds e and returns True when F + e
    is still removable, and otherwise returns False leaving F unchanged; pop()
    removes the last pushed edge; can_add(e) asks without changing F.  The
    budget picks the test: for s = 1 the rollback UnionFind (pseudoforest:
    every component keeps edges <= vertices), for s >= 2 one path-reversal
    step of an incremental orientation per push, and at s = 0 no edge is
    removable.  `edges` lists F in push order.
    """

    def __init__(self, n: int, s: int):
        if s < 0:
            raise ValueError("budget must be non-negative")
        self.edges: list[Edge] = []
        self._uf = UnionFind(n) if s == 1 else None
        self._marks: list[int] = []
        self._orientation = _Orientation(n, s) if s >= 2 else None

    def push(self, e: Edge) -> bool:
        uf = self._uf
        if uf is not None:
            mark = uf.checkpoint()
            if not uf.add_edge(*e):
                uf.rollback(mark)
                return False
            self._marks.append(mark)
        elif self._orientation is None or not self._orientation.push(*e):
            return False
        self.edges.append(e)
        return True

    def pop(self) -> Edge:
        if self._uf is not None:
            self._uf.rollback(self._marks.pop())
        else:
            self._orientation.pop()
        return self.edges.pop()

    def can_add(self, e: Edge) -> bool:
        uf = self._uf
        if uf is not None:
            # the hot test of the s = 1 searches: skip push's bookkeeping
            mark = uf.checkpoint()
            ok = uf.add_edge(*e)
            uf.rollback(mark)
            return ok
        if not self.push(e):
            return False
        self.pop()
        return True


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
    orientation = _Orientation(n, cap)
    for u, v in edges:
        if not orientation.push(u, v):
            return None, sorted(orientation.witness)
    return orientation.heads, None


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
    arcs = []
    for v, edges in enumerate(f.assignment):
        for u, w in edges:
            arcs.append((v, w if u == v else u))
    return sorted(arcs)


DEFAULT_ENUM_ALL_EDGE_CAP = 20
DEFAULT_ENUM_MAXIMAL_EDGE_CAP = 24


def enumerate_removable_sets(G: Graph, s: int, mode: str = "all",
                             edge_cap: int | None = None) -> Iterator[frozenset[Edge]]:
    """Stream the removable edge sets of G at budget s.

    mode 'all' yields every removable set exactly once; 'maximal' yields
    exactly the inclusion-maximal ones.  The walk branches on each edge in
    sorted order (take it if a RemovableSet accepts the push, then leave it),
    so feasibility costs one incremental push per branch; the guard caps keep
    the exponential walk at desk scale.
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
    F = RemovableSet(G.n, s)

    def dfs(i: int):
        if i == m:
            if mode == "all":
                yield frozenset(F.edges)
            else:
                chosen = set(F.edges)
                if all(e in chosen or not F.can_add(e) for e in edges):
                    yield frozenset(chosen)
            return
        if F.push(edges[i]):
            yield from dfs(i + 1)
            F.pop()
        yield from dfs(i + 1)

    yield from dfs(0)
