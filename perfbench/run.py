#!/usr/bin/env python3
"""robusta benchmark: certified solve time, end to end and per layer.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  Each instance is one in-process
`robusta.cli.main(["compute", ...])` call on a generated DIMACS file, in a
closed loop with one client (one process, no threads).  A pass runs the
workload's whole instance set; passes repeat until `--seconds` have passed.
Every output is checked outside the timed region, after the measured
window: exit code, a fresh `certify.validate_result` call, the pinned
reference value, the relations between one graph's values and agreement
between passes.

`--trace 0` prints the end-to-end metrics; `--trace 1` alternates untraced
and traced passes and prints the per-layer metrics.  The last line of
standard output is one JSON object: correct, attempted, failed, metrics.
A fuller report (provenance, every instance's value, span records) goes to
.perfbench/ under the repository root.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import importlib
import io
import json
import os
import platform
import resource
import signal
import statistics
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".perfbench")
sys.path.insert(0, HERE)

import checks  # noqa: E402
import tracing  # noqa: E402
from workloads import DEFAULT_SEED, WORKLOADS, build_corpus  # noqa: E402

clock = time.perf_counter
SETUP_REPEATS = 15
SOFT_DEADLINE_S = 140   # start no instance after this
HARD_DEADLINE_S = 165   # abort a running instance after this

END_TO_END = (("wall_s", "s"), ("instance_ms_p50", "ms"),
              ("instance_ms_p90", "ms"), ("certified_frac", "ratio"),
              ("peak_rss_mb", "MB"), ("setup_s", "s"))


class Deadline(Exception):
    pass


def import_robusta():
    """Import robusta afresh from src/ (drops any copy already loaded)."""
    for name in [m for m in sys.modules if m == "robusta" or m.startswith("robusta.")]:
        del sys.modules[name]
    robusta = importlib.import_module("robusta")
    importlib.import_module("robusta.cli")
    return robusta


def setup(workload, seed, directory):
    t0 = clock()
    robusta = import_robusta()
    corpus = build_corpus(robusta, workload, seed, directory)
    return clock() - t0, robusta, corpus


class Outcome:
    __slots__ = ("rc", "out", "err", "exc", "seconds")

    def __init__(self, rc, out, err, exc, seconds):
        self.rc, self.out, self.err, self.exc = rc, out, err, exc
        self.seconds = seconds


def run_pass(robusta, corpus, t_start, tracer=None):
    """One closed-loop pass over the instance set; returns (wall, outcomes)."""
    main = robusta.cli.main
    if tracer is not None:
        cli_main = main

        def main(argv):
            return tracer.call("cli", cli_main, argv)
        tracer.open()
    outcomes = []
    # the outcomes of earlier passes stay alive until the checks; freeze
    # them so that the collector's full scans inside a pass do not grow
    # with the number of passes already run
    gc.collect()
    gc.freeze()
    t0 = clock()
    for inst in corpus.instances:
        if clock() - t_start > SOFT_DEADLINE_S:
            outcomes.append(Outcome(None, "", "", "not started: run deadline", 0.0))
            continue
        if tracer is not None:
            tracer.instance = inst.index
        out, err = io.StringIO(), io.StringIO()
        exc = None
        t1 = clock()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                rc = main(list(inst.argv))
        except SystemExit as e:   # argparse rejects the command line
            rc = e.code
        except Exception as e:    # a crash is a failed instance, not the end of the run
            rc, exc = None, f"{type(e).__name__}: {e}"
        outcomes.append(Outcome(rc, out.getvalue(), err.getvalue(), exc, clock() - t1))
    wall = clock() - t0
    if tracer is not None:
        tracer.instance = None
        tracer.close("pass", t0, t0 + wall)
    return wall, outcomes


def next_cpu(cpus, k):
    """Pin the process to the k-th allowed CPU, round robin.  On a shared
    host one CPU can run 50 % slower than another for a whole run; putting
    passes on every CPU lets the best-of-k estimate find the fast one."""
    if len(cpus) > 1:
        os.sched_setaffinity(0, {cpus[k % len(cpus)]})


def percentile_ms(samples, q):
    """q-th percentile (q in 1..99) of seconds, in ms, by statistics.quantiles."""
    return statistics.quantiles(samples, n=100, method="inclusive")[q - 1] * 1000.0


def provenance():
    info = {"python": platform.python_version(), "implementation": platform.python_implementation(),
            "nproc": os.cpu_count(), "platform": platform.platform()}
    try:
        info["nproc_affinity"] = len(os.sched_getaffinity(0))
    except AttributeError:
        pass
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            models = [ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")]
        info["cpu_model"] = models[0] if models else None
    except OSError:
        info["cpu_model"] = platform.processor() or None
    info["commit"] = _git_head()
    digest = hashlib.sha256()
    pkg = os.path.join(SRC, "robusta")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name), "rb") as fh:
                digest.update(name.encode() + b"\n" + fh.read())
    info["source_sha256"] = digest.hexdigest()
    return info


def _git_head():
    """The commit of the checkout, read from .git without running git."""
    head = os.path.join(ROOT, ".git", "HEAD")
    try:
        with open(head, encoding="utf-8") as fh:
            ref = fh.read().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        path = os.path.join(ROOT, ".git", name)
        if os.path.exists(path):
            with open(path, encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(ROOT, ".git", "packed-refs"), encoding="utf-8") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + name):
                    return line.split()[0]
    except OSError:
        pass
    return None


def inject(outcome, kind, corpus, inst):
    """Tamper with one output after the timer stopped (benchmark self-test)."""
    report = json.loads(outcome.out)
    res = report["results"][0]
    if kind == "value":
        res["value"] += 1
    else:
        n = corpus.graphs[inst.graph].n
        res["certificate"].setdefault("removed_edges", []).append([0, n])
    outcome.out = json.dumps(report)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--inject", choices=("value", "certificate"),
                    help="tamper with one output after timing (self-test)")
    args = ap.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "robusta", "cli.py")):
        print(f"error: robusta sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    t_start = clock()
    signal.signal(signal.SIGALRM, _on_alarm)
    signal.alarm(HARD_DEADLINE_S)
    try:
        return _run(args, t_start)
    finally:
        signal.alarm(0)


def _on_alarm(signum, frame):
    raise Deadline(f"run exceeded {HARD_DEADLINE_S} s")


def _run(args, t_start) -> int:
    workload = WORKLOADS[args.workload]
    tag = f"{workload.name}-seed{args.seed}"
    corpus_dir = os.path.join(WORK, "corpus", tag)
    os.makedirs(WORK, exist_ok=True)

    dt, robusta, corpus = setup(workload, args.seed, corpus_dir)
    setups, digests = [dt], {corpus.digest}

    def set_up_again():
        # later set-ups are timed between passes, so that their median does
        # not hang on the machine's speed in the run's first second
        nonlocal robusta, corpus
        dt, robusta, corpus = setup(workload, args.seed, corpus_dir)
        setups.append(dt)
        digests.add(corpus.digest)

    untraced, traced = [], []      # (wall, outcomes) per pass
    tracer_runs = []
    deadline = t_start + args.seconds
    cpus = sorted(os.sched_getaffinity(0))
    while True:
        next_cpu(cpus, len(untraced))
        wall, outs = run_pass(robusta, corpus, t_start)
        untraced.append((wall, outs))
        if args.trace:
            # the first traced pass also dumps the DP tables per node kind;
            # its DP times carry that write and are not used
            tracer = tracing.Tracer(WORK, dp_rows=not traced)
            saved = tracing.install(robusta, tracer)
            try:
                wall_t, outs_t = run_pass(robusta, corpus, t_start, tracer)
            finally:
                tracing.uninstall(saved)
            traced.append((wall_t, outs_t))
            tracer_runs.append(tracer)
        if args.trace == 0 and len(setups) < SETUP_REPEATS:
            set_up_again()
        done = clock() >= deadline and (not args.trace or len(traced) >= 2)
        if done or clock() - t_start > SOFT_DEADLINE_S:
            break
    while args.trace == 0 and len(setups) < SETUP_REPEATS:
        set_up_again()
    failures = []
    if len(digests) != 1:
        failures.append("corpus differs between set-ups of one seed")

    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    # -- correctness, outside every timer and after the measured window ------
    refs, ref_source = checks.reference_values(corpus, HERE)
    if refs is None:
        failures.append(ref_source)
    if args.inject:
        inst = corpus.instances[0]
        inject(untraced[0][1][0], args.inject, corpus, inst)
    verdict = checks.Verdict(robusta, corpus, refs)
    for _, outs in untraced + traced:
        verdict.add_pass(outs)
    failures += verdict.messages

    attempted = verdict.attempted
    failed = verdict.failed
    # each instance's best time over the untraced passes (see README: the
    # machine's speed drifts, so best-of-k is the stable estimate)
    lat = [min(outs[i].seconds for _, outs in untraced)
           for i in range(len(corpus.instances))
           if all(outs[i].rc == 0 for _, outs in untraced)]
    walls = [w for w, _ in untraced]
    report = {
        "workload": workload.name, "why": workload.why, "seed": args.seed,
        "trace": args.trace, "seconds": args.seconds,
        "provenance": provenance(),
        "corpus": {"graphs": len(corpus.graphs), "instances": len(corpus.instances),
                   "sha256": corpus.digest, "base_sha256": corpus.base_digest,
                   "reference": ref_source},
        "passes": {"untraced": len(untraced), "traced": len(traced)},
        "pass_walls_s": walls,
        "setup_s": setups,
        "latency_samples": len(lat),
        "failed_frac": failed / attempted,
        "values": verdict.values,
        "latency_ms_best": [x * 1000.0 for x in lat],
    }
    flags = []

    if args.trace == 0:
        metrics = {
            "wall_s": sum(lat),
            "instance_ms_p50": percentile_ms(lat, 50) if len(lat) >= 2 else 0.0,
            "instance_ms_p90": percentile_ms(lat, 90) if len(lat) >= 2 else 0.0,
            "certified_frac": (attempted - failed) / attempted,
            "peak_rss_mb": peak_rss_mb,
            "setup_s": statistics.median(setups),
        }
        units = dict(END_TO_END)
    else:
        per_pass = [t.metrics() for t in tracer_runs]
        timed = per_pass[1:] or per_pass       # passes without the DP dumps
        units = dict(tracing.metric_specs())
        metrics = {}
        for name, unit in tracing.metric_specs():
            if name == "trace.overhead_frac":
                continue
            if ".rows." in name:               # only the first pass dumps them
                metrics[name] = per_pass[0][name]
                continue
            vals = [m[name] for m in (per_pass if unit == "count" else timed)]
            if unit == "count":
                metrics[name] = vals[0]
                if any(v != vals[0] for v in vals):
                    flags.append(f"count {name} differs between traced passes: {vals}")
            else:
                metrics[name] = min(vals)
        metrics["trace.overhead_frac"] = \
            min(w for w, _ in (traced[1:] or traced)) / min(walls) - 1.0
        report["self_checks"] = [checks.span_self_check(t, w)
                                 for t, (w, _) in zip(tracer_runs, traced)]
        for sc in report["self_checks"]:
            if not sc["ok"]:
                failures.append(f"span self-check failed: {sc}")
        tracer_runs[0].dump(os.path.join(WORK, f"spans-{tag}.jsonl"))
        flags += checks.count_history(WORK, tag, report["provenance"]["source_sha256"]
                                      + "/" + corpus.digest,
                                      {k: v for k, v in metrics.items()
                                       if units[k] == "count"})
    report["flags"] = flags
    report["metrics"] = {k: {"value": v, "unit": units[k]} for k, v in metrics.items()}
    report["failures"] = failures[:50]
    correct = not failures and failed == 0
    with open(os.path.join(WORK, f"report-{tag}-trace{args.trace}.json"), "w",
              encoding="utf-8") as fh:
        json.dump(report, fh, indent=1, sort_keys=True)

    print(f"workload {workload.name} seed {args.seed}: {len(corpus.instances)} instances "
          f"on {len(corpus.graphs)} graphs, {len(untraced)} untraced + {len(traced)} traced "
          f"passes, reference: {ref_source}")
    if args.trace == 0:
        print(f"  {len(lat)} instances, each timed at its best of {len(untraced)} passes "
              f"(fastest whole pass {min(walls):.6g} s); "
              f"failed_frac {report['failed_frac']:.6g} ({failed}/{attempted})")
    for msg in failures[:10]:
        print(f"  FAIL {msg}")
    for msg in flags:
        print(f"  FLAG {msg}")
    for name, m in report["metrics"].items():
        print(f"  {name} = {m['value']:.6g} {m['unit']}")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": report["metrics"]}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
