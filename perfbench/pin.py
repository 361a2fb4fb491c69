#!/usr/bin/env python3
"""Pin the reference values of every workload's base graphs.

    python3 perfbench/pin.py [--workload NAME ...]

Runs each instance of the default seed through `robusta.cli.main`, exactly
as the benchmark does (every seed relabels the same base graphs, so the
values hold on every seed), then cross-checks the value with every
independent engine that is within its caps: the oracle for m <= 14 (its own
cap is 18, but one call at n = 9, m = 18 takes 17-42 s), the maximal-set
enumeration for m <= 18 (at s = 2 one call on n = 8, m = 18 takes about 4
s, so beyond that only where no other engine checks the instance), the
treewidth DP for s = 1 and heuristic width <= 3 (its own cap is 6, but the
theta1 tables of one width-4+ graph on 9 vertices grew past 7 GB), the
basis brute force of checks.py where it takes the graph, and the exact
engine where the workload runs another one. The process's address space is
capped at 3 GiB so that a blow-up fails here. Any disagreement aborts
before that workload is written. The values, the digest of the base graphs
and the count of checks per engine go to perfbench/reference.json.
Not timed; run it again only when the corpus definition changes.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import sys
import time
from collections import Counter

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

from checks import BASE, basis_reference  # noqa: E402
from workloads import DEFAULT_SEED, WORKLOADS, build_corpus  # noqa: E402

ORACLE_EDGES, MAXIMAL_EDGES, DP_WIDTH = 14, 18, 3
MEMORY_CAP = 3 << 30


def cross_check(robusta, G, base, s, engine):
    """{engine: value} for every independent engine within its caps."""
    ex, tw = robusta.exact, robusta.treewidth
    out = {}
    if engine != "exact":
        out["exact"] = ex.robust_parameter(G, base, s).value
    if engine != "oracle" and G.m <= ORACLE_EDGES:
        out["oracle"] = ex.oracle_robust(G, base, s).value
    if engine != "maximal" and G.m <= MAXIMAL_EDGES:
        out["maximal"] = ex.robust_via_maximal(G, base, s).value
    if engine != "dp" and s == 1 and base != "chi_prime":
        T = tw.heuristic_decomposition(G)
        if T.width <= DP_WIDTH:
            out["dp"] = tw.dp_robust(G, tw.make_nice(T, G), base + "1").value
    basis = basis_reference(robusta, G, s, {base})
    if basis is not None:
        out["basis"] = basis[base]
    if not out and engine != "maximal":   # no other check: pay for the slow one
        out["maximal"] = ex.robust_via_maximal(G, base, s).value
    return out


def pin(robusta, name, work_dir):
    w = WORKLOADS[name]
    corpus = build_corpus(robusta, w, DEFAULT_SEED, os.path.join(work_dir, name))
    values, checked = [], Counter()
    memo = {}
    t0 = time.perf_counter()
    for inst in corpus.instances:
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            rc = robusta.cli.main(list(inst.argv))
        if rc != 0:
            raise SystemExit(f"{name} instance {inst.index} exited {rc}")
        value = json.loads(buf.getvalue())["results"][0]["value"]
        key = (inst.graph, BASE[inst.param], inst.s, inst.engine)
        if key not in memo:
            memo[key] = cross_check(robusta, corpus.graphs[inst.graph],
                                    key[1], key[2], inst.engine)
        for engine, other in memo[key].items():
            if other != value:
                raise SystemExit(f"{name} instance {inst.index}: {inst.engine} gives "
                                 f"{value}, {engine} gives {other}")
            checked[engine] += 1
        if not memo[key]:
            checked["none"] += 1
        values.append(value)
    print(f"{name}: {len(values)} values, cross-checks {dict(checked)}, "
          f"{time.perf_counter() - t0:.1f} s", flush=True)
    return {"base_sha256": corpus.base_digest, "values": values,
            "cross_checked": dict(sorted(checked.items()))}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", action="append", choices=sorted(WORKLOADS))
    args = ap.parse_args(argv)
    resource.setrlimit(resource.RLIMIT_AS, (MEMORY_CAP, MEMORY_CAP))
    import robusta
    import robusta.cli  # noqa: F401
    path = os.path.join(HERE, "reference.json")
    try:
        with open(path, encoding="utf-8") as fh:
            ref = json.load(fh)
    except FileNotFoundError:
        ref = {}
    work_dir = os.path.join(ROOT, ".perfbench", "pin")
    for name in args.workload or sorted(WORKLOADS):
        ref[name] = pin(robusta, name, work_dir)
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(ref, fh, sort_keys=True, separators=(",", ":"))
            fh.write("\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
