"""Correctness checks on benchmark outputs, all made outside the timers.

An instance fails when it exits non-zero, raises, returns a certificate that
a fresh `certify.validate_result` call rejects, returns a value that differs
from its reference, or returns a different value in a later pass.  The
reference is the value pinned in reference.json, which holds on every seed
(seeds only relabel vertices; see workloads.py).  In every pass the values
must also satisfy the sandwich and monotonicity relations between
parameters of one graph.
"""

from __future__ import annotations

import json
import os
from itertools import combinations
from math import comb

from workloads import removable_basis

BASE = {"chi": "chi", "omega": "omega", "alpha": "alpha", "theta": "theta",
        "chiprime": "chi_prime", "chi1": "chi", "omega1": "omega",
        "alpha1": "alpha", "theta1": "theta"}
# parameters whose robust value can only fall as the budget grows; they are
# also the ones the adversary minimizes
FALLING = {"chi", "omega", "chi_prime"}
# largest C(m, m - rank) the basis brute force (a cross-check of pin.py)
# takes on
BASIS_CANDIDATES = 4000


def load_reference(here: str) -> dict:
    with open(os.path.join(here, "reference.json"), encoding="utf-8") as fh:
        return json.load(fh)


def reference_values(corpus, here: str):
    """(values or None, description of where they come from).

    Every seed relabels the same base graphs, and the robust parameters do
    not depend on vertex names, so the values pinned by pin.py are the
    reference on every seed, as long as the base graphs are the pinned ones."""
    pinned = load_reference(here).get(corpus.workload.name)
    if pinned is None:
        return None, "error: no pinned values for this workload (run pin.py)"
    if pinned["base_sha256"] != corpus.base_digest or \
            len(pinned["values"]) != len(corpus.instances):
        return None, ("error: base graphs differ from the pinned ones "
                      "(corpus definition or generator changed; run pin.py)")
    return pinned["values"], "pinned values (reference.json), relabeled by the seed"


def basis_reference(robusta, G, s, params, max_candidates=BASIS_CANDIDATES):
    """{parameter: robust value} of G at budget s, or None when too costly.

    The removable sets at budget s (edge sets orientable with out-degree at
    most s) are the independent sets of a matroid, and every parameter is
    monotone under edge removal, so each robust value is reached at a basis.
    This walks the complements of size m - rank, keeps those whose
    complement is removable, and evaluates the classical parameters of what
    is left.  It uses the classical kernels and `selection.is_removable`,
    none of the exact engine's robust searches."""
    edges = G.sorted_edges()
    removable = robusta.selection.is_removable
    k = len(edges) - len(removable_basis(robusta.selection, G, s))
    if comb(len(edges), k) > max_candidates:
        return None
    # with k >= 1 edges left no basis can do better than these, so a
    # parameter that reaches its bound needs no further walk
    n = G.n
    bound = ({"chi": 2, "omega": 2, "chi_prime": 1, "alpha": n - 1, "theta": n - 1}
             if k else {})
    best, todo = {}, set(params)
    every = set(edges)
    for kept in combinations(edges, k):
        if not todo:
            break
        if not removable(every.difference(kept), G, s)[0]:
            continue
        H = robusta.graph.Graph(n, kept)
        for p in list(todo):
            v = robusta.exact.classical_parameter(H, p).value
            if p not in best or (v < best[p] if p in FALLING else v > best[p]):
                best[p] = v
            if best[p] == bound.get(p):
                todo.discard(p)
    return best


class Verdict:
    """Accumulates per-instance failures over every pass of a run."""

    KEEP = 50  # failure messages kept for the report

    def __init__(self, robusta, corpus, refs):
        self.corpus = corpus
        self.refs = refs
        self.validate = robusta.certify.validate_result
        self.values = None
        self.attempted = 0
        self.failed = 0
        self.messages = []

    def _fail(self, bad, inst, why):
        """Mark `inst` failed in the current pass (once, whatever the count
        of reasons)."""
        if inst.index in bad:
            return
        bad[inst.index] = why
        self.failed += 1
        if len(self.messages) < self.KEEP:
            self.messages.append(f"instance {inst.index} ({' '.join(inst.argv[3:])}): {why}")

    def _check(self, inst, o):
        if o.exc is not None:
            return None, o.exc
        if o.rc != 0:
            return None, f"exit code {o.rc}: {o.err.strip()[-200:]}"
        try:
            res = json.loads(o.out)["results"]
            if len(res) != 1:
                return None, f"{len(res)} results"
            res = res[0]
            if res["parameter"] != BASE[inst.param] or res["s"] != inst.s:
                return None, f"answered {res['parameter']} at s = {res['s']}"
            self.validate(self.corpus.graphs[inst.graph], res)
        except (ValueError, KeyError, TypeError, IndexError) as exc:
            return None, f"certificate rejected: {type(exc).__name__}: {exc}"
        value = res["value"]
        if self.refs is not None and self.refs[inst.index] is not None \
                and value != self.refs[inst.index]:
            return value, f"value {value}, reference {self.refs[inst.index]}"
        return value, None

    def add_pass(self, outcomes):
        values, bad = [], {}
        for inst, o in zip(self.corpus.instances, outcomes):
            self.attempted += 1
            value, why = self._check(inst, o)
            if why is None and self.values is not None and value != self.values[inst.index]:
                why = f"value {value}, first pass gave {self.values[inst.index]}"
            if why is not None:
                self._fail(bad, inst, why)
            values.append(value)
        if self.values is None:
            self.values = values
        # relations between this pass's values on each graph
        by_graph = {}
        for inst, v in zip(self.corpus.instances, values):
            if v is not None:
                by_graph.setdefault(inst.graph, {})[(inst.engine, BASE[inst.param], inst.s)] = (v, inst)
        for g, vals in by_graph.items():
            for why, inst in relation_violations(vals, self.corpus.graphs[g].n):
                self._fail(bad, inst, why)


def relation_violations(vals, n):
    """Yield (message, instance) for each broken relation among one graph's
    values; `vals` maps (engine, parameter, s) to (value, instance)."""
    get = lambda e, p, s: vals.get((e, p, s), (None, None))[0]  # noqa: E731
    engines = {k[0] for k in vals}
    for (e, p, s), (v, inst) in vals.items():
        for e2 in engines - {e}:
            other = get(e2, p, s)
            if other is not None and other != v:
                yield f"{e} gives {v}, {e2} gives {other}", inst
        if s == 2 and get(e, p, 1) is not None:
            v1 = get(e, p, 1)
            if (v > v1) if p in FALLING else (v < v1):
                yield f"{p}_2 = {v} against {p}_1 = {v1}", inst
        if p == "chi":
            om, al = get(e, "omega", s), get(e, "alpha", s)
            if om is not None and v < om:
                yield f"chi_{s} = {v} < omega_{s} = {om}", inst
            if al and v * al < n:
                yield f"chi_{s} * alpha_{s} = {v * al} < n = {n}", inst
        if p == "theta":
            om, al = get(e, "omega", s), get(e, "alpha", s)
            if al is not None and v < al:
                yield f"theta_{s} = {v} < alpha_{s} = {al}", inst
            if om and v * om < n:
                yield f"theta_{s} * omega_{s} = {v * om} < n = {n}", inst


def span_self_check(tracer, wall: float) -> dict:
    """Spans nest inside their parents, no self time is negative, and the
    self times of all spans add up to the pass's wall time."""
    eps = 1e-9
    spans = {r[0]: r for r in tracer.records}
    min_self = min((r[6] for r in tracer.records), default=0.0)
    nested = all(r[4] is None or (spans[r[4]][2] - eps <= r[2] and r[3] <= spans[r[4]][3] + eps)
                 for r in tracer.records)
    self_sum = sum(tracer.self_time.values())
    ok = nested and min_self >= -eps and abs(self_sum - wall) <= 1e-6 * max(wall, 1.0)
    return {"ok": ok, "nested": nested, "min_self_s": min_self,
            "self_sum_s": self_sum, "wall_s": wall, "spans": len(tracer.records)}


def count_history(work: str, tag: str, source: str, counts: dict) -> list:
    """Compare count metrics with the last run of the same seed on the same
    sources and corpus (`source` names both); returns one flag per count
    that did not repeat."""
    path = os.path.join(work, f"counts-{tag}.json")
    flags = []
    try:
        with open(path, encoding="utf-8") as fh:
            old = json.load(fh)
    except (OSError, ValueError):
        old = None
    if old is not None and old.get("source_sha256") == source:
        for name, value in counts.items():
            if old["counts"].get(name) != value:
                flags.append(f"count {name} = {value}, previous run of this seed "
                             f"gave {old['counts'].get(name)}")
    tmp = path + ".tmp"
    with open(tmp, "w", encoding="utf-8") as fh:
        json.dump({"source_sha256": source, "counts": counts}, fh, sort_keys=True)
    os.replace(tmp, path)
    return flags
