#!/usr/bin/env python3
"""One-shot baseline cases: not gated, not part of any workload.

    python3 perfbench/baseline.py [--slow]

Reproduces the Baseline rows of ROADMAP.md and the aim-1 primitives, one
timed run each, and prints one JSON line per case (name, seconds, value,
search nodes) plus a summary in .perfbench/baseline.json.  `--slow` adds the
cases that take minutes: chi1prime on erdos_renyi(12, 0.8, 3) (about 170 s),
the dense cap-scale probes kept out of the workloads, and the whole
criterion-9 DP corpus.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import random
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

clock = time.perf_counter


def _solver(which, s, n, p, seed):
    def case(R):
        res = R.robust_parameter(R.erdos_renyi(n, p, seed), which, s)
        return res.value, res.stats.get("nodes")
    return case


def _cli(*argv):
    def case(R):
        from robusta import cli
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(io.StringIO()):
            rc = cli.main(list(argv))
        if rc != 0:
            raise RuntimeError(f"exit code {rc}")
        report = json.loads(buf.getvalue())
        if "results" in report:
            return [r["value"] for r in report["results"]], None
        return report.get("violations", report.get("counterexamples")), None
    return case


def _unionfind(R):
    """200k push/rollback pairs on a 64-vertex union-find."""
    from robusta.selection import UnionFind
    rng = random.Random(0)
    uf = UnionFind(64)
    ok = 0
    for _ in range(200_000):
        mark = uf.checkpoint()
        ok += uf.add_edge(rng.randrange(64), rng.randrange(64))
        if len(uf.trail) > 40:
            uf.rollback(mark - 20 if mark > 20 else 0)
    return ok, None


def _orient(R):
    """orient_with_cap at s = 2 on every prefix of 40 random 12-vertex graphs."""
    from robusta.selection import orient_with_cap
    ok = 0
    for seed in range(40):
        edges = R.erdos_renyi(12, 0.5, seed).sorted_edges()
        for k in range(1, len(edges) + 1):
            heads, _ = orient_with_cap(12, edges[:k], 2)
            ok += heads is not None
    return ok, None


def _classical(which, ns):
    """Classical solvers at n = 16-20 (chi's default cap of 16 raised to 20)."""
    def case(R):
        caps = R.SolverCaps(chi_n=20)
        vals = [R.classical_parameter(R.erdos_renyi(n, 0.5, n), which, caps).value
                for n in ns]
        return vals, None
    return case


def _criterion9(R):
    """The criterion-9 corpus (100 graphs, width <= 3): DP time per parameter."""
    from robusta.treewidth import dp_robust, heuristic_decomposition, make_nice
    per = {w: 0.0 for w in ("chi1", "omega1", "alpha1", "theta1")}
    seed = collected = 0
    while collected < 100:
        n = 4 + seed % 7
        G = R.erdos_renyi(n, 2.6 / n, seed)
        seed += 1
        T = heuristic_decomposition(G)
        if T.width > 3:
            continue
        collected += 1
        nice = make_nice(T, G)
        for w in per:
            t0 = clock()
            dp_robust(G, nice, w)
            per[w] += clock() - t0
    total = sum(per.values())
    return {w: round(t, 3) for w, t in per.items()}, {"theta1_share": per["theta1"] / total}


CASES = {
    "chi1prime-er10-0.5-1": _solver("chi_prime", 1, 10, 0.5, 1),
    "chi1prime-er12-0.5-2": _solver("chi_prime", 1, 12, 0.5, 2),
    "theta1-er8-0.6-1": _solver("theta", 1, 8, 0.6, 1),
    "theta1-er9-0.6-2": _solver("theta", 1, 9, 0.6, 2),
    "theta1-er10-0.5-3": _solver("theta", 1, 10, 0.5, 3),
    "chi1-er16-0.5-3": _solver("chi", 1, 16, 0.5, 3),
    "chi1-er16-0.8-4": _solver("chi", 1, 16, 0.8, 4),
    "cli-complete7-all5": _cli("compute", "--gen", "complete:7", "--param",
                               "chi1,omega1,alpha1,theta1,chi1prime"),
    "cli-explore-6": _cli("explore", "--n-max", "6"),
    "cli-explore-7": _cli("explore", "--n-max", "7"),
    "cli-verify-sandwich": _cli("verify", "--suite", "sandwich", "--corpus",
                                "random:50,9,0.4", "--seed", "11"),
    "unionfind-push-rollback": _unionfind,
    "orient_with_cap-s2": _orient,
    "classical-omega-n16-20": _classical("omega", range(16, 21)),
    "classical-chi-n16-20": _classical("chi", range(16, 21)),
}
SLOW = {
    "chi1prime-er12-0.8-3": _solver("chi_prime", 1, 12, 0.8, 3),
    "theta2-er9-0.7-1": _solver("theta", 2, 9, 0.7, 1),
    "theta2-er10-0.7-1": _solver("theta", 2, 10, 0.7, 1),
    "chiprime2-er9-0.7-1": _solver("chi_prime", 2, 9, 0.7, 1),
    "criterion9-dp-corpus": _criterion9,
}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--slow", action="store_true", help="add the cases that take minutes")
    args = ap.parse_args(argv)
    import robusta as R
    table = {**CASES, **(SLOW if args.slow else {})}
    rows = []
    for name, case in table.items():
        t0 = clock()
        value, extra = case(R)
        row = {"case": name, "seconds": clock() - t0, "value": value, "extra": extra}
        rows.append(row)
        print(json.dumps(row), flush=True)
    os.makedirs(os.path.join(ROOT, ".perfbench"), exist_ok=True)
    with open(os.path.join(ROOT, ".perfbench", "baseline.json"), "w", encoding="utf-8") as fh:
        json.dump({"python": sys.version.split()[0], "nproc": os.cpu_count(),
                   "cases": rows}, fh, indent=1)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
