#!/usr/bin/env python3
"""Self-checks of the benchmark itself.

    python3 perfbench/selfcheck.py

1. The corpus is deterministic per seed: two builds of one seed give the
   same digest of the DIMACS files, another seed gives another digest (other
   vertex names) over the same base graphs, and the base graphs match the
   digest pinned in reference.json.
2. An injected wrong value and an injected corrupted certificate are each
   counted as a failed instance (and make the run incorrect), on the
   default seed and on another one.
3. Traced and untraced passes give identical values, on every workload.
4. Spans nest: every span lies inside its parent, no self time is negative,
   and the self times of a traced pass sum to its wall time.

Exits 0 when every check passes.  Takes about two minutes.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

from checks import load_reference  # noqa: E402
from workloads import DEFAULT_SEED, WORKLOADS, build_corpus  # noqa: E402

WORK = os.path.join(ROOT, ".perfbench", "selfcheck")


def bench(*args):
    """Run the benchmark; returns (last-line result, report of the run)."""
    proc = subprocess.run([sys.executable, os.path.join(HERE, "run.py"), *args],
                          capture_output=True, text=True, cwd=ROOT, timeout=300)
    if proc.returncode != 0:
        raise RuntimeError(f"run.py {' '.join(args)} exited {proc.returncode}: "
                           f"{proc.stderr[-500:]}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    opts = dict(zip(args[::2], args[1::2]))
    name = (f"report-{opts['--workload']}-seed{opts.get('--seed', DEFAULT_SEED)}"
            f"-trace{opts.get('--trace', '0')}.json")
    with open(os.path.join(ROOT, ".perfbench", name), encoding="utf-8") as fh:
        return result, json.load(fh)


def check_corpus(robusta):
    pinned = load_reference(HERE)
    for name, w in WORKLOADS.items():
        a = build_corpus(robusta, w, DEFAULT_SEED, os.path.join(WORK, name, "a"))
        b = build_corpus(robusta, w, DEFAULT_SEED, os.path.join(WORK, name, "b"))
        c = build_corpus(robusta, w, DEFAULT_SEED + 1, os.path.join(WORK, name, "c"))
        yield (f"corpus {name}: same seed, same digest", a.digest == b.digest)
        yield (f"corpus {name}: other seed, other digest", a.digest != c.digest)
        yield (f"corpus {name}: every seed relabels the same base graphs",
               a.base_digest == c.base_digest)
        yield (f"corpus {name}: base graphs match the pinned digest",
               name in pinned and pinned[name]["base_sha256"] == a.base_digest)
        yield (f"corpus {name}: at least 100 instances", len(a.instances) >= 100)


def check_injection():
    for kind, seed in (("value", DEFAULT_SEED), ("certificate", DEFAULT_SEED),
                       ("value", DEFAULT_SEED + 1), ("certificate", DEFAULT_SEED + 1)):
        for name in ("exact-core", "chiprime"):
            result, _ = bench("--workload", name, "--seed", str(seed),
                              "--seconds", "0", "--trace", "0", "--inject", kind)
            yield (f"{name} seed {seed}: injected {kind} is counted as failed",
                   result["failed"] >= 1 and result["correct"] is False)


def check_traced():
    for name in WORKLOADS:
        result, report = bench("--workload", name, "--seconds", "0", "--trace", "1")
        yield (f"{name}: traced and untraced values identical, all certified",
               result["correct"] and result["failed"] == 0)
        sc = report["self_checks"]
        yield (f"{name}: spans nest, self times >= 0 and sum to the traced wall",
               bool(sc) and all(s["ok"] for s in sc))


def main() -> int:
    import robusta
    failed = 0
    for group in (check_corpus(robusta), check_injection(), check_traced()):
        for label, ok in group:
            print(f"{'PASS' if ok else 'FAIL'} {label}", flush=True)
            failed += not ok
    print(f"{failed} check(s) failed")
    return 1 if failed else 0


if __name__ == "__main__":
    raise SystemExit(main())
