"""Standalone re-validation of parameter certificates.

A certificate never proves optimality; it proves achievement: the value is
realized by the exhibited structure (selection plus coloring / clique /
independent set / cover / edge coloring).  Optimality is the solvers'
contract, cross-checked in the test suite against the brute-force oracle.
"""

from __future__ import annotations

import json
import sys

from .graph import Graph
from .selection import UnionFind, is_quasi_unicyclic, is_removable


class CertificateError(ValueError):
    pass


def _check_removed(G: Graph, cert: dict, s: int) -> frozenset:
    if type(s) is not int or s < 0:
        raise CertificateError(f"budget {s!r} is not a non-negative integer")
    F = frozenset(tuple(sorted(e)) for e in cert.get("removed_edges", []))
    for e in F:
        if e not in G.edges:
            raise CertificateError(f"removed pair {list(e)} is not an edge of the graph")
    if s == 0:
        if F:
            raise CertificateError("classical certificate removes edges")
        return F
    ok, _ = is_removable(F, G, s)
    if not ok:
        raise CertificateError(f"removed set is not removable at budget {s}")
    return F


def _check_vertices(G: Graph, vertices, what: str) -> None:
    """Raise unless `vertices` lists distinct vertices of G, each in 0..n-1."""
    seen: set[int] = set()
    for v in vertices:
        if type(v) is not int or not 0 <= v < G.n:
            raise CertificateError(f"{what} names {v!r}, not a vertex of the graph")
        if v in seen:
            raise CertificateError(f"{what} repeats vertex {v}")
        seen.add(v)


def validate_result(G: Graph, result: dict) -> None:
    """Raise CertificateError unless the certificate achieves the value."""
    param = result["parameter"]
    s = result.get("s", 0)
    value = result["value"]
    cert = result["certificate"]
    if param in ("chi", "omega", "alpha", "theta", "chi_prime"):
        F = _check_removed(G, cert, s)

    if param == "chi":
        coloring = cert["coloring"]
        if len(coloring) != G.n:
            raise CertificateError("coloring length mismatch")
        if G.n and len(set(coloring)) > value:
            raise CertificateError("coloring uses more colors than the value")
        for u, v in G.edges:
            if (u, v) not in F and coloring[u] == coloring[v]:
                raise CertificateError(f"surviving edge ({u},{v}) monochromatic")
        if s and "partition" in cert:
            seen: set[int] = set()
            for cls in cert["partition"]:
                seen.update(cls)
            if seen != set(range(G.n)):
                raise CertificateError("partition does not cover the vertices")
    elif param == "omega":
        clique = cert["clique"]
        _check_vertices(G, clique, "clique")
        if len(clique) != value:
            raise CertificateError("clique size differs from the value")
        for i, u in enumerate(clique):
            for v in clique[i + 1:]:
                e = (u, v) if u < v else (v, u)
                if e not in G.edges or e in F:
                    raise CertificateError(f"clique pair ({u},{v}) is not a surviving edge")
    elif param == "alpha":
        S = cert["independent_set"]
        _check_vertices(G, S, "independent set")
        if len(S) != value:
            raise CertificateError("independent set size differs from the value")
        for i, u in enumerate(S):
            for v in S[i + 1:]:
                e = (u, v) if u < v else (v, u)
                if e in G.edges and e not in F:
                    raise CertificateError(f"pair ({u},{v}) stays adjacent")
    elif param == "theta":
        cover = cert["clique_cover"]
        if cover is None:
            raise CertificateError("certificate omits the clique cover")
        if len(cover) != value:
            raise CertificateError("cover size differs from the value")
        seen: set[int] = set()
        for cls in cover:
            for u in cls:
                if u in seen:
                    raise CertificateError(f"vertex {u} covered twice")
                seen.add(u)
            for i, u in enumerate(cls):
                for v in cls[i + 1:]:
                    e = (u, v) if u < v else (v, u)
                    if e not in G.edges or e in F:
                        raise CertificateError(f"cover class pair ({u},{v}) not adjacent after removal")
        if seen != set(range(G.n)):
            raise CertificateError("cover misses vertices")
    elif param == "chi_prime":
        coloring = {tuple(sorted(e)): c for e, c in cert["edge_coloring"]}
        survivors = G.edges - F
        if set(coloring) != set(survivors):
            raise CertificateError("edge coloring does not match the surviving edges")
        if len(set(coloring.values())) > value:
            raise CertificateError("edge coloring uses more colors than the value")
        for v in range(G.n):
            seen_colors = set()
            for w in G.adj[v]:
                e = (v, w) if v < w else (w, v)
                if e in coloring:
                    if coloring[e] in seen_colors:
                        raise CertificateError(f"edge colors clash at vertex {v}")
                    seen_colors.add(coloring[e])
    elif param == "arboricity":
        classes = cert["forest_partition"]
        seen = set()
        for cls in classes:
            seen.update(cls)
            uf = UnionFind(G.n)
            cset = set(cls)
            for e in G.edges:
                if e[0] in cset and e[1] in cset and not uf.push(e):
                    raise CertificateError("forest class contains a cycle")
        if seen != set(range(G.n)) or len(classes) != value:
            raise CertificateError("forest partition invalid")
    elif param == "degeneracy":
        order = cert["elimination_ordering"]
        if sorted(order) != list(range(G.n)):
            raise CertificateError("ordering is not a permutation")
        pos = {v: i for i, v in enumerate(order)}
        worst = 0
        for v in range(G.n):
            worst = max(worst, sum(1 for w in G.adj[v] if pos[w] < pos[v]))
        if worst > value:
            raise CertificateError("ordering exceeds the claimed degeneracy")
    elif param == "iota":
        _check_vertices(G, cert["inducing_set"], "inducing set")
        W = set(cert["inducing_set"])
        if len(W) != value:
            raise CertificateError("inducing set size differs from the value")
        if not is_quasi_unicyclic(Graph(G.n, [(u, v) for u, v in G.edges
                                              if u in W and v in W])):
            raise CertificateError("induced subgraph is not quasi-unicyclic")
    else:
        raise CertificateError(f"unknown parameter {param!r}")


def _main(argv) -> int:
    """Exit 0 when every certificate is valid, 2 on an invalid certificate,
    3 on a usage or input error; each failure prints one `error:` line.
    RESULT.json holds a `compute` report, a list of results or one result."""
    from .graphio import read_graph_file
    if len(argv) != 3:
        print("error: usage: python -m robusta.certify RESULT.json "
              "GRAPH.{col,edges}", file=sys.stderr)
        return 3
    fmt = "dimacs" if argv[2].endswith(".col") else "edgelist"
    try:
        G, _ = read_graph_file(argv[2], fmt)
    except (OSError, ValueError) as exc:  # ParseError is a ValueError
        print(f"error: cannot read graph {argv[2]}: {exc}", file=sys.stderr)
        return 3
    try:
        with open(argv[1], "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except (OSError, ValueError) as exc:  # so is a JSON syntax error
        print(f"error: cannot read results {argv[1]}: {exc}", file=sys.stderr)
        return 3
    if isinstance(data, dict) and "results" in data:
        data = data["results"]
    results = data if isinstance(data, list) else [data]
    for i, r in enumerate(results):
        if not (isinstance(r, dict)
                and {"parameter", "value", "certificate"} <= r.keys()):
            print(f"error: result {i} has no parameter, value and certificate",
                  file=sys.stderr)
            return 3
        try:
            validate_result(G, r)
        except CertificateError as exc:
            print(f"error: result {i} ({r['parameter']!r}): {exc}", file=sys.stderr)
            return 2
        except (KeyError, TypeError, IndexError, AttributeError, ValueError) as exc:
            print(f"error: result {i} ({r['parameter']!r}): malformed "
                  f"certificate: {exc!r}", file=sys.stderr)
            return 2
    print(f"{len(results)} certificate(s) valid")
    return 0


if __name__ == "__main__":
    raise SystemExit(_main(sys.argv))
