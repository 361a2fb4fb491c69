"""Polynomial-time constructions: bounded out-degree orientation, minimum
quasi-unicyclic edge decomposition, the degeneracy greedy robust coloring,
the max-degree local-search partition, and edge-coloring based reductions.

Everything here is deterministic given the input graph; ties break by vertex
or neighbor id so that tests can pin outputs.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass

from .graph import Graph
from .selection import (Edge, SSelection, is_quasi_unicyclic, orient_with_cap,
                        selection_from_edge_set)


@dataclass(frozen=True)
class Orientation:
    """Direction per edge plus the achieved maximum out-degree.

    witness is a vertex set U with ceil(e(G[U]) / |U|) equal to
    max_outdegree, certifying that no orientation does better.
    """

    edges: tuple[Edge, ...]
    heads: tuple[int, ...]
    max_outdegree: int
    witness: tuple[int, ...]

    def arcs(self) -> list[tuple[int, int]]:
        out = []
        for (u, v), h in zip(self.edges, self.heads):
            out.append((u, v) if h == v else (v, u))
        return out

    def outdegrees(self, n: int) -> list[int]:
        deg = [0] * n
        for tail, _ in self.arcs():
            deg[tail] += 1
        return deg


@dataclass(frozen=True)
class Decomposition:
    """Edge partition into quasi-unicyclic classes with its orientation."""

    classes: tuple[tuple[Edge, ...], ...]
    orientation: Orientation

    @property
    def k(self) -> int:
        return len(self.classes)


@dataclass(frozen=True)
class RobustColoring:
    """A selection together with a coloring proper on the removed graph."""

    selection: SSelection
    coloring: tuple[int, ...]
    k: int

    def validate(self, G: Graph) -> None:
        self.selection.validate(G)
        removed = self.selection.removed_edges()
        for u, v in G.edges:
            if (u, v) not in removed and self.coloring[u] == self.coloring[v]:
                raise ValueError(f"surviving edge ({u},{v}) is monochromatic")


def min_outdegree_orientation(G: Graph) -> Orientation:
    """Orientation whose maximum out-degree hits the density optimum
    max over non-empty U of ceil(e(G[U]) / |U|)."""
    edges = G.sorted_edges()
    if not edges:
        return Orientation((), (), 0, (0,) if G.n else ())
    t = -(-len(edges) // G.n)
    witness: tuple[int, ...] = ()
    while True:
        heads, stuck = orient_with_cap(G.n, edges, t)
        if heads is not None:
            if not witness:
                # feasible at the trivial lower bound: V itself is the witness
                witness = tuple(range(G.n))
            return Orientation(tuple(edges), tuple(heads), t, witness)
        # the stuck set induces more than t * |stuck| edges, forcing t + 1
        witness = tuple(stuck)
        t += 1


def quasi_unicyclic_edge_decomposition(G: Graph) -> Decomposition:
    """Split E(G) into the minimum number of quasi-unicyclic classes.

    Out-edges at each vertex go to pairwise distinct classes (ranked by
    neighbor id), so every class has out-degree <= 1 and is a pseudoforest.
    """
    ori = min_outdegree_orientation(G)
    classes: list[list[Edge]] = [[] for _ in range(ori.max_outdegree)]
    by_tail: dict[int, list[tuple[int, Edge]]] = {}
    for e, h in zip(ori.edges, ori.heads):
        tail = e[0] if e[1] == h else e[1]
        by_tail.setdefault(tail, []).append((h, e))
    for tail in sorted(by_tail):
        for rank, (_, e) in enumerate(sorted(by_tail[tail])):
            classes[rank].append(e)
    result = Decomposition(tuple(tuple(sorted(cls)) for cls in classes), ori)
    for rank, cls in enumerate(result.classes):
        if not is_quasi_unicyclic(Graph(G.n, cls)):
            raise AssertionError(f"edge decomposition class {rank} of {result.k} is not "
                                 f"quasi-unicyclic: {list(cls)}")
    return result


def degeneracy_order(G: Graph) -> tuple[int, list[int]]:
    """(degeneracy, ordering) with every vertex having <= d earlier neighbors.

    Repeated minimum-degree removal with lowest-id tie-break, reversed.
    """
    n = G.n
    deg = [G.degree(v) for v in range(n)]
    removed = [False] * n
    removal: list[int] = []
    d = 0
    heap = [(deg[v], v) for v in range(n)]
    heapq.heapify(heap)
    while heap:
        dv, v = heapq.heappop(heap)
        if removed[v] or dv != deg[v]:
            continue
        removed[v] = True
        removal.append(v)
        d = max(d, dv)
        for w in G.adj[v]:
            if not removed[w]:
                deg[w] -= 1
                heapq.heappush(heap, (deg[w], w))
    removal.reverse()
    return d, removal


def degeneracy_greedy(G: Graph) -> RobustColoring:
    """Simultaneous selection and coloring along a degeneracy ordering.

    Uses at most floor(d/2) + 1 colors: among that many classes, some class
    holds at most one surviving earlier neighbor; selecting the edge to that
    neighbor keeps the coloring proper on the removed graph.
    """
    d, order = degeneracy_order(G)
    k = d // 2 + 1
    color: list[int | None] = [None] * G.n
    picked: list[Edge | None] = [None] * G.n
    removed: set[Edge] = set()
    for v in order:
        counts = [0] * k
        witness: list[int | None] = [None] * k
        for w in G.adj[v]:
            c = color[w]
            if c is None:
                continue
            e = (v, w) if v < w else (w, v)
            if e in removed:
                continue
            counts[c] += 1
            witness[c] = w
        j = next(c for c in range(k) if counts[c] <= 1)
        color[v] = j
        if counts[j] == 1:
            w = witness[j]
            e = (v, w) if v < w else (w, v)
            picked[v] = e
            removed.add(e)
        elif G.adj[v]:
            w = G.adj[v][0]
            e = (v, w) if v < w else (w, v)
            picked[v] = e
            removed.add(e)
    assignment = tuple((picked[v],) if picked[v] is not None else () for v in range(G.n))
    sel = SSelection(1, assignment)
    rc = RobustColoring(sel, tuple(color), k)
    rc.validate(G)
    return rc


def max_degree_partition(G: Graph, k: int) -> tuple[RobustColoring, int]:
    """Local-search k-partition for graphs with max degree < 3k.

    Moving any vertex with >= 3 same-class neighbors strictly increases the
    crossing-edge count, so at most |E| moves happen; final classes induce
    max degree <= 2 (paths and cycles), which form the selection.

    Returns (coloring, number of moves performed).
    """
    if k < 1:
        raise ValueError("k must be positive")
    if G.max_degree() >= 3 * k:
        raise ValueError(f"requires max degree < {3 * k}")
    cls = [v % k for v in range(G.n)]
    moves = 0
    while True:
        mover = None
        for v in range(G.n):
            same = sum(1 for w in G.adj[v] if cls[w] == cls[v])
            if same >= 3:
                mover = v
                break
        if mover is None:
            break
        counts = [0] * k
        for w in G.adj[mover]:
            counts[cls[w]] += 1
        target = next(c for c in range(k) if c != cls[mover] and counts[c] <= 2)
        cls[mover] = target
        moves += 1
        if moves > G.m:
            raise AssertionError("local search exceeded its move budget")
    intra = [e for e in G.sorted_edges() if cls[e[0]] == cls[e[1]]]
    sel = selection_from_edge_set(intra, G, 1)
    rc = RobustColoring(sel, tuple(cls), k)
    rc.validate(G)
    return rc, moves


# -- edge coloring -----------------------------------------------------------


class _EdgePalette:
    """Bookkeeping for the fan/Kempe edge-coloring construction."""

    def __init__(self, G: Graph, palette: int):
        self.G = G
        self.palette = palette
        self.color: dict[Edge, int] = {}
        self.at: list[dict[int, int]] = [dict() for _ in range(G.n)]  # at[v][c] = partner

    @staticmethod
    def _e(u, v) -> Edge:
        return (u, v) if u < v else (v, u)

    def free(self, v: int) -> int:
        return next(c for c in range(self.palette) if c not in self.at[v])

    def is_free(self, v: int, c: int) -> bool:
        return c not in self.at[v]

    def set(self, u: int, v: int, c: int) -> None:
        e = self._e(u, v)
        old = self.color.get(e)
        if old is not None:
            del self.at[u][old]
            del self.at[v][old]
        self.color[e] = c
        self.at[u][c] = v
        self.at[v][c] = u

    def unset(self, u: int, v: int) -> None:
        e = self._e(u, v)
        old = self.color.pop(e, None)
        if old is not None:
            del self.at[u][old]
            del self.at[v][old]

    def get(self, u: int, v: int):
        return self.color.get(self._e(u, v))

    def invert_path(self, start: int, first: int, second: int) -> None:
        """Swap colors along the maximal first/second alternating path that
        begins at `start` with a `first`-colored edge."""
        x, want = start, first
        chain: list[tuple[int, int, int]] = []
        while want in self.at[x]:
            y = self.at[x][want]
            chain.append((x, y, want))
            x, want = y, (second if want == first else first)
        for a, b, _ in chain:
            self.unset(a, b)
        for a, b, w in chain:
            self.set(a, b, second if w == first else first)


def edge_coloring_upper(G: Graph) -> dict[Edge, int]:
    """Proper edge coloring with at most max_degree + 1 colors via the
    constructive fan-rotation argument.  Graphs of maximum degree <= 2 are
    colored optimally (alternating along paths and cycles)."""
    maxdeg = G.max_degree()
    if maxdeg == 0:
        return {}
    if maxdeg <= 2:
        return _color_paths_and_cycles(G)
    pal = _EdgePalette(G, maxdeg + 1)

    for u, v in G.sorted_edges():
        # maximal fan of u starting at v: each next fan edge's color is free
        # at the previous fan vertex
        fan = [v]
        fan_set = {v}
        while True:
            last = fan[-1]
            nxt = None
            for c in range(pal.palette):
                if pal.is_free(last, c):
                    w = pal.at[u].get(c)
                    if w is not None and w not in fan_set:
                        nxt = w
                        break
            if nxt is None:
                break
            fan.append(nxt)
            fan_set.add(nxt)
        c = pal.free(u)
        d = pal.free(fan[-1])
        if c != d:
            pal.invert_path(u, d, c)
        # d is now free at u; pick a fan prefix ending at a d-free vertex
        w_idx = None
        for i, fv in enumerate(fan):
            if i > 0:
                col = pal.get(u, fan[i])
                if col is None or not pal.is_free(fan[i - 1], col):
                    break  # fan condition broken from here on
            if pal.is_free(fv, d):
                w_idx = i
                break
        if w_idx is None:
            raise AssertionError("fan rotation failed to find a target vertex")
        # rotate the prefix: shift colors toward u's earlier fan edges
        shifted = [pal.get(u, fan[j]) for j in range(1, w_idx + 1)]
        for j in range(1, w_idx + 1):
            pal.unset(u, fan[j])
        for j in range(w_idx):
            pal.set(u, fan[j], shifted[j])
        pal.set(u, fan[w_idx], d)

    _check_proper(G, pal.color)
    return _compact_colors(G, pal.color, maxdeg + 1)


def _color_paths_and_cycles(G: Graph) -> dict[Edge, int]:
    """Optimal edge coloring when every component is a path or a cycle:
    alternate two colors, with a third only on odd cycles."""
    color: dict[Edge, int] = {}
    for comp in G.components():
        ends = [v for v in comp if G.degree(v) == 1]
        start = min(ends) if ends else min(comp)
        prev, cur, idx = None, start, 0
        while True:
            nxt = next((w for w in G.adj[cur] if w != prev), None)
            if nxt is None:
                break
            e = (cur, nxt) if cur < nxt else (nxt, cur)
            if e in color:
                break
            if nxt == start and idx % 2 == 0 and idx > 0:
                color[e] = 2  # closing edge of an odd cycle
            else:
                color[e] = idx % 2
            prev, cur, idx = cur, nxt, idx + 1
    _check_proper(G, color)
    return color


def _check_proper(G: Graph, color: dict[Edge, int]) -> None:
    for v in range(G.n):
        seen = set()
        for w in G.adj[v]:
            e = (v, w) if v < w else (w, v)
            c = color[e]
            if c in seen:
                raise AssertionError(f"edge coloring clashes at vertex {v}")
            seen.add(c)


def _compact_colors(G: Graph, color: dict[Edge, int], palette: int) -> dict[Edge, int]:
    """Greedy pass that tries to empty small classes, then renumbers."""
    def taken(v, skip):
        out = set()
        for w in G.adj[v]:
            e = (v, w) if v < w else (w, v)
            if e != skip:
                out.add(color[e])
        return out

    sizes: dict[int, int] = {}
    for c in color.values():
        sizes[c] = sizes.get(c, 0) + 1
    for c in sorted(sizes, key=lambda c: (sizes[c], c)):
        for e in sorted(e for e, cc in color.items() if cc == c):
            u, v = e
            blocked = taken(u, e) | taken(v, e)
            for alt in range(palette):
                if alt != c and alt not in blocked:
                    color[e] = alt
                    break
    _check_proper(G, color)
    remap: dict[int, int] = {}
    for e in sorted(color):
        remap.setdefault(color[e], len(remap))
    return {e: remap[c] for e, c in color.items()}


def edge_color_reduction(G: Graph):
    """Drop two color classes of a proper edge coloring to form a selection.

    Returns (selection, surviving edge coloring, colors_used).  For max
    degree <= 1 the whole edge set is removable and the result degenerates
    to zero colors.
    """
    if G.max_degree() <= 1:
        sel = selection_from_edge_set(G.sorted_edges(), G, 1)
        return sel, {}, 0
    coloring = edge_coloring_upper(G)
    classes: dict[int, list[Edge]] = {}
    for e, c in coloring.items():
        classes.setdefault(c, []).append(e)
    # two color classes together induce paths and cycles, hence removable;
    # drop the two largest (ties by low color id)
    drop = sorted(classes, key=lambda c: (-len(classes[c]), c))[:2]
    dropped_edges = [e for c in drop for e in classes[c]]
    sel = selection_from_edge_set(dropped_edges, G, 1)
    survivors = {e: c for e, c in coloring.items() if c not in drop}
    remap: dict[int, int] = {}
    for e in sorted(survivors):
        remap.setdefault(survivors[e], len(remap))
    survivors = {e: remap[c] for e, c in survivors.items()}
    return sel, survivors, len(set(survivors.values()))
