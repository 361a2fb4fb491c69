"""Graph file formats: DIMACS .col, plain edge lists, DOT export.

External labels survive only in the mapping returned by the parsers; every
Graph lives on 0..n-1 internally.
"""

from __future__ import annotations

from .graph import DEGENERACY_GADGET_ORDER_CAP, Graph

# Largest vertex or bag count a file header may declare.  The parsers
# allocate what the header declares, so a larger count is rejected before
# anything is built; this is the order of the largest graph robusta builds.
HEADER_COUNT_CAP = DEGENERACY_GADGET_ORDER_CAP


class ParseError(ValueError):
    def __init__(self, message: str, line_no: int | None = None):
        if line_no is not None:
            message = f"line {line_no}: {message}"
        super().__init__(message)
        self.line_no = line_no


def parse_graph(text: str, format: str) -> tuple[Graph, dict]:
    """Parse `text` in the named format; returns (graph, label -> vertex map)."""
    if format in ("dimacs", "dimacs-col", "col"):
        return parse_dimacs(text)
    if format in ("edgelist", "edge-list"):
        return parse_edgelist(text)
    raise ValueError(f"unknown graph format {format!r}")


def parse_dimacs(text: str) -> tuple[Graph, dict]:
    """DIMACS coloring format: 'p edge n m' then 'e u v' with 1-based labels."""
    n = None
    declared_m = None
    edges: list[tuple[int, int]] = []
    seen: set[tuple[int, int]] = set()
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("c"):
            continue
        parts = line.split()
        if parts[0] == "p":
            if n is not None:
                raise ParseError("duplicate problem line", line_no)
            if len(parts) != 4 or parts[1] not in ("edge", "col"):
                raise ParseError("malformed problem line, expected 'p edge n m'", line_no)
            try:
                n, declared_m = int(parts[2]), int(parts[3])
            except ValueError:
                raise ParseError("non-integer counts in problem line", line_no) from None
            if n < 0:
                raise ParseError(f"negative vertex count {n}", line_no)
            if n > HEADER_COUNT_CAP:
                raise ParseError(f"vertex count {n} above the limit {HEADER_COUNT_CAP}",
                                 line_no)
        elif parts[0] == "e":
            if n is None:
                raise ParseError("edge line before problem line", line_no)
            if len(parts) != 3:
                raise ParseError("malformed edge line, expected 'e u v'", line_no)
            try:
                u, v = int(parts[1]), int(parts[2])
            except ValueError:
                raise ParseError("non-integer endpoint", line_no) from None
            if u == v:
                raise ParseError(f"loop at vertex {u}", line_no)
            if not (1 <= u <= n and 1 <= v <= n):
                raise ParseError(f"endpoint outside 1..{n}", line_no)
            key = (u - 1, v - 1) if u < v else (v - 1, u - 1)
            if key in seen:
                raise ParseError(f"duplicate edge {u} {v}", line_no)
            seen.add(key)
            edges.append(key)
        else:
            raise ParseError(f"unrecognized line {line!r}", line_no)
    if n is None:
        raise ParseError("missing problem line")
    if declared_m is not None and declared_m != len(edges):
        raise ParseError(f"problem line declares {declared_m} edges, found {len(edges)}")
    mapping = {str(i + 1): i for i in range(n)}
    return Graph(n, edges), mapping


def parse_edgelist(text: str) -> tuple[Graph, dict]:
    """One 'u v' pair per line, 0-based integer labels, '#' comments.

    Labels need not be dense; they are remapped to 0..n-1 in sorted order.
    Isolated vertices cannot be expressed in this format.
    """
    raw_edges: list[tuple[int, int]] = []
    labels: set[int] = set()
    seen: set[tuple[int, int]] = set()
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        if len(parts) != 2:
            raise ParseError("expected exactly two labels per line", line_no)
        try:
            u, v = int(parts[0]), int(parts[1])
        except ValueError:
            raise ParseError("non-integer label", line_no) from None
        if u < 0 or v < 0:
            raise ParseError("labels must be non-negative", line_no)
        if u == v:
            raise ParseError(f"loop at vertex {u}", line_no)
        key = (u, v) if u < v else (v, u)
        if key in seen:
            raise ParseError(f"duplicate edge {u} {v}", line_no)
        seen.add(key)
        raw_edges.append(key)
        labels.update(key)
    mapping = {str(lbl): i for i, lbl in enumerate(sorted(labels))}
    edges = [(mapping[str(u)], mapping[str(v)]) for u, v in raw_edges]
    return Graph(len(labels), edges), mapping


def write_dimacs(G: Graph) -> str:
    lines = [f"p edge {G.n} {G.m}"]
    lines += [f"e {u + 1} {v + 1}" for u, v in G.sorted_edges()]
    return "\n".join(lines) + "\n"


def write_edgelist(G: Graph) -> str:
    return "".join(f"{u} {v}\n" for u, v in G.sorted_edges())


def to_dot(G: Graph) -> str:
    lines = ["graph G {"]
    lines += [f"  {v};" for v in range(G.n) if not G.adj[v]]
    lines += [f"  {u} -- {v};" for u, v in G.sorted_edges()]
    lines.append("}")
    return "\n".join(lines) + "\n"


def read_graph_file(path: str, format: str) -> tuple[Graph, dict]:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_graph(fh.read(), format)
