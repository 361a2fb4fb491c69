"""Spans around the public names one robusta module calls in another.

Nothing under src/ is touched: `install` rebinds names in the calling
module's namespace (for example `robusta.cli.robust_parameter`) to wrappers
that record a span and then call the original, and `uninstall` puts the
originals back.  Private functions are never wrapped.

A span has a name, start, end, parent and instance id.  Coarse spans (one
per CLI call, solver entry, certificate check, file read) are kept as full
records.  Fine spans that can fire a million times in a pass (`Graph`
construction, `orient_with_cap`, enumeration steps, `edge_coloring_upper`)
are leaves and are kept as per-name totals only; their time is still
charged to the enclosing span's child time, so self times stay exact:
self = duration - time covered by child spans, and the self times of all
spans of a pass sum to the pass's wall time.
"""

from __future__ import annotations

import json
import os
import time
from collections import Counter, defaultdict
from functools import partial

clock = time.perf_counter

PARAMS = ("chi", "omega", "alpha", "theta", "chi_prime")
DP = ("chi1", "omega1", "alpha1", "theta1")
ROW_KINDS = ("introduce", "forget", "join")


def metric_specs():
    """(name, unit) of every per-layer metric, in report order."""
    out = [("cli.invocations", "count"), ("cli.self_ms", "ms"),
           ("graphio.read_ms", "ms")]
    for p in PARAMS:
        for s in (1, 2):
            out += [(f"exact.{p}.s{s}.ms", "ms"), (f"exact.{p}.s{s}.nodes", "count")]
    out += [("exact.oracle.ms", "ms"), ("exact.oracle.sets", "count"),
            ("exact.maximal.ms", "ms"), ("exact.maximal.sets", "count"),
            ("exact.classical.calls", "count"), ("exact.classical.ms", "ms"),
            ("selection.enumerate.all.ms", "ms"),
            ("selection.enumerate.maximal.ms", "ms"),
            ("selection.orient_with_cap.calls", "count"),
            ("selection.orient_with_cap.ms", "ms"),
            ("selection.unionfind.built", "count"),
            ("graph.built", "count"), ("graph.build_ms", "ms"),
            ("poly.edge_coloring_upper.calls", "count"),
            ("poly.edge_coloring_upper.ms", "ms"),
            ("treewidth.decompose.ms", "ms")]
    for d in DP:
        out += [(f"treewidth.dp.{d}.ms", "ms"),
                (f"treewidth.dp.{d}.max_rows", "count"),
                (f"treewidth.dp.{d}.rows_total", "count")]
        out += [(f"treewidth.dp.{d}.rows.{k}", "count") for k in ROW_KINDS]
    out += [("certify.validate.calls", "count"), ("certify.validate.ms", "ms"),
            ("trace.overhead_frac", "ratio")]
    return out


class Tracer:
    """Span recorder for one traced pass.  Spans are kept in memory and
    written out by `dump` when the run ends."""

    def __init__(self, scratch_dir: str, dp_rows: bool = False):
        self.scratch_dir = scratch_dir
        # with dp_rows, every dp_robust call also writes its per-node JSON
        # dump (trace_file) inside its span; that pass gives the row counts
        # per node kind, and its DP times are not used
        self.with_dp_rows = dp_rows
        self.records = []                 # (id, name, start, end, parent, instance, self)
        self.stack = []                   # [span id, child time] of open spans
        self.total = defaultdict(float)   # name -> summed duration (s)
        self.self_time = defaultdict(float)
        self.calls = Counter()
        self.counts = Counter()           # nodes, sets, rows, constructions
        self.maxima = Counter()
        self.dp_rows = {d: Counter() for d in DP}  # rows per node kind
        self.instance = None
        self._next_id = 0

    # -- span primitives ------------------------------------------------

    def open(self):
        self._next_id += 1
        self.stack.append([self._next_id, 0.0])
        return self._next_id

    def close(self, name, t0, t1):
        sid, child = self.stack.pop()
        dur = t1 - t0
        self.total[name] += dur
        self.self_time[name] += dur - child
        self.calls[name] += 1
        parent = None
        if self.stack:
            self.stack[-1][1] += dur
            parent = self.stack[-1][0]
        self.records.append((sid, name, t0, t1, parent, self.instance, dur - child))

    def leaf(self, name, t0, t1):
        """A span with no children, kept as a total only."""
        dur = t1 - t0
        self.total[name] += dur
        self.self_time[name] += dur
        self.calls[name] += 1
        if self.stack:
            self.stack[-1][1] += dur

    def call(self, name, fn, *args, **kw):
        self.open()
        t0 = clock()
        try:
            return fn(*args, **kw)
        finally:
            self.close(name, t0, clock())

    # -- output -----------------------------------------------------------

    def metrics(self) -> dict:
        ms = lambda name: self.total[name] * 1000.0  # noqa: E731
        out = {"cli.invocations": self.calls["cli"],
               "cli.self_ms": self.self_time["cli"] * 1000.0,
               "graphio.read_ms": ms("graphio.read")}
        for p in PARAMS:
            for s in (1, 2):
                key = f"exact.{p}.s{s}"
                out[key + ".ms"] = ms(key)
                out[key + ".nodes"] = self.counts[key + ".nodes"]
        out.update({
            "exact.oracle.ms": ms("exact.oracle"),
            "exact.oracle.sets": self.counts["exact.oracle.sets"],
            "exact.maximal.ms": ms("exact.maximal"),
            "exact.maximal.sets": self.counts["exact.maximal.sets"],
            "exact.classical.calls": self.calls["exact.classical"],
            "exact.classical.ms": ms("exact.classical"),
            "selection.enumerate.all.ms": ms("selection.enumerate.all"),
            "selection.enumerate.maximal.ms": ms("selection.enumerate.maximal"),
            "selection.orient_with_cap.calls": self.calls["selection.orient_with_cap"],
            "selection.orient_with_cap.ms": ms("selection.orient_with_cap"),
            "selection.unionfind.built": self.counts["selection.unionfind.built"],
            "graph.built": self.calls["graph.build"],
            "graph.build_ms": ms("graph.build"),
            "poly.edge_coloring_upper.calls": self.calls["poly.edge_coloring_upper"],
            "poly.edge_coloring_upper.ms": ms("poly.edge_coloring_upper"),
            "treewidth.decompose.ms": ms("treewidth.decompose"),
        })
        for d in DP:
            key = f"treewidth.dp.{d}"
            out[key + ".ms"] = ms(key)
            out[key + ".max_rows"] = self.maxima[key + ".max_rows"]
            out[key + ".rows_total"] = self.counts[key + ".rows_total"]
            for k in ROW_KINDS:
                out[f"{key}.rows.{k}"] = self.dp_rows[d][k]
        out["certify.validate.calls"] = self.calls["certify.validate"]
        out["certify.validate.ms"] = ms("certify.validate")
        return out

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for sid, name, t0, t1, parent, inst, self_s in self.records:
                fh.write(json.dumps({"id": sid, "name": name, "start": t0,
                                     "end": t1, "parent": parent,
                                     "instance": inst, "self": self_s}) + "\n")
            fh.write(json.dumps({"leaf_totals": {
                k: {"calls": self.calls[k], "s": self.total[k]}
                for k in ("graph.build", "selection.orient_with_cap",
                          "selection.enumerate.all", "selection.enumerate.maximal",
                          "poly.edge_coloring_upper")}}) + "\n")


def _dp_trace_rows(path: str) -> Counter:
    with open(path, encoding="utf-8") as fh:
        nodes = json.load(fh)["nodes"]
    rows = Counter()
    for rec in nodes:
        rows[rec["kind"]] += rec["rows"]
    return rows


def install(robusta, tracer: Tracer):
    """Wrap the cross-module names; returns the list of (module, name,
    original) needed by `uninstall`."""
    cli, exact, treewidth = robusta.cli, robusta.exact, robusta.treewidth
    certify = robusta.certify
    saved = []
    dp_trace = os.path.join(tracer.scratch_dir, "dp_trace.json")

    def patch(module, name, wrapper):
        saved.append((module, name, getattr(module, name)))
        setattr(module, name, wrapper)

    def leaf(name, fn):
        def wrapper(*args, **kw):
            t0 = clock()
            try:
                return fn(*args, **kw)
            finally:
                tracer.leaf(name, t0, clock())
        return wrapper

    # cli -> graphio, exact, treewidth, certify
    patch(cli, "read_graph_file", partial(tracer.call, "graphio.read", cli.read_graph_file))

    def robust_parameter(G, which, s, *args, **kw):
        name = f"exact.{which}.s{s}"
        res = tracer.call(name, orig_robust, G, which, s, *args, **kw)
        tracer.counts[name + ".nodes"] += res.stats.get("nodes", 0)
        return res
    orig_robust = cli.robust_parameter
    patch(cli, "robust_parameter", robust_parameter)

    def tier(name, orig):
        def wrapper(*args, **kw):
            res = tracer.call(name, orig, *args, **kw)
            tracer.counts[name + ".sets"] += res.stats.get("nodes", 0)
            return res
        return wrapper
    patch(cli, "oracle_robust", tier("exact.oracle", cli.oracle_robust))
    patch(cli, "robust_via_maximal", tier("exact.maximal", cli.robust_via_maximal))

    orig_classical = exact.classical_parameter
    for module in (cli, exact, treewidth):
        patch(module, "classical_parameter",
              partial(tracer.call, "exact.classical", orig_classical))

    patch(cli, "heuristic_decomposition",
          partial(tracer.call, "treewidth.decompose", cli.heuristic_decomposition))
    patch(cli, "make_nice", partial(tracer.call, "treewidth.decompose", cli.make_nice))

    def dp_robust(G, nice, which, *args, **kw):
        name = f"treewidth.dp.{which}"
        if tracer.with_dp_rows:
            kw["trace_file"] = dp_trace
        res = tracer.call(name, orig_dp, G, nice, which, *args, **kw)
        tracer.counts[name + ".rows_total"] += res.stats["rows_total"]
        key = name + ".max_rows"
        tracer.maxima[key] = max(tracer.maxima[key], res.stats["max_rows"])
        if not tracer.with_dp_rows:
            return res
        # reading the dump is harness work, kept out of the cli self time
        tracer.open()
        t0 = clock()
        tracer.dp_rows[which].update(_dp_trace_rows(dp_trace))
        tracer.close("trace.bookkeeping", t0, clock())
        return res
    orig_dp = cli.dp_robust
    patch(cli, "dp_robust", dp_robust)

    patch(certify, "validate_result",
          partial(tracer.call, "certify.validate", certify.validate_result))

    # exact / treewidth -> graph, selection, poly
    base_graph = robusta.graph.Graph

    class TracedGraph(base_graph):
        __slots__ = ()

        def __init__(self, n, edges=()):
            t0 = clock()
            try:
                super().__init__(n, edges)
            finally:
                tracer.leaf("graph.build", t0, clock())

    patch(exact, "Graph", TracedGraph)
    patch(treewidth, "Graph", TracedGraph)

    base_uf = robusta.selection.UnionFind

    class CountedUnionFind(base_uf):
        def __init__(self, n):
            tracer.counts["selection.unionfind.built"] += 1
            super().__init__(n)

    patch(exact, "UnionFind", CountedUnionFind)
    patch(exact, "orient_with_cap",
          leaf("selection.orient_with_cap", exact.orient_with_cap))
    patch(exact, "edge_coloring_upper",
          leaf("poly.edge_coloring_upper", exact.edge_coloring_upper))

    orig_enum = exact.enumerate_removable_sets

    def enumerate_removable_sets(G, s, mode="all", *args, **kw):
        name = f"selection.enumerate.{mode}"
        it = orig_enum(G, s, mode, *args, **kw)
        while True:
            t0 = clock()
            try:
                item = next(it)
            except StopIteration:
                return
            finally:
                tracer.leaf(name, t0, clock())
            yield item
    patch(exact, "enumerate_removable_sets", enumerate_removable_sets)
    return saved


def uninstall(saved) -> None:
    for module, name, original in reversed(saved):
        setattr(module, name, original)
