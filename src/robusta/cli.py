"""Command line interface.

    robusta <compute|decompose|verify|hardness-demo|explore|random-experiment>
            [--gen SPEC | --input FILE --format {dimacs,edgelist}]
            [--param LIST] [--s N] [--engine NAME] [--seed N] [--out FILE]

JSON is the canonical output (sorted keys, fixed separators); identical
command, seed and config produce identical reports except for the `timing`
block, which --no-timing zeroes for byte-exact comparison.  Randomized
commands require an explicit --seed.  Exit codes: 0 success, 2 bound or
certificate violation, 3 cap, input or usage error.

main() may be called repeatedly in one process: the argument parser is built
once, on the first call, and reused.

Caps may be overridden by an INI config file (section [caps]); overrides
print a hard warning to stderr.
"""

from __future__ import annotations

import argparse
import configparser
import dataclasses
import functools
import json
import sys
import time

from . import certify
from .exact import (DEFAULT_CAPS, SolverCaps, classical_parameter,
                    iota, oracle_robust, robust_chromatic, robust_parameter,
                    robust_via_maximal)
from .filters import explore_exact_conjecture
from .graph import (Graph, blow_up, disjoint_union, erdos_renyi, generate,
                    random_multipartite, union_graphs, walecki_cycles)
from .graphio import ParseError, read_graph_file
from .poly import (degeneracy_greedy, degeneracy_order, edge_color_reduction,
                   max_degree_partition, quasi_unicyclic_edge_decomposition)
from .treewidth import dp_robust, heuristic_decomposition, make_nice

EXIT_OK = 0
EXIT_VIOLATION = 2
EXIT_INPUT = 3


class CliError(Exception):
    """Bad input or usage; `main` prints it and exits with EXIT_INPUT."""


# -- parameter naming ---------------------------------------------------------

_PARAM_ALIASES = {
    "chi": ("chi", None), "omega": ("omega", None), "alpha": ("alpha", None),
    "theta": ("theta", None), "chiprime": ("chi_prime", None),
    "chi_prime": ("chi_prime", None), "arboricity": ("arboricity", None),
    "degeneracy": ("degeneracy", None), "iota": ("iota", None),
    "chi1": ("chi", 1), "omega1": ("omega", 1), "alpha1": ("alpha", 1),
    "theta1": ("theta", 1), "chi1prime": ("chi_prime", 1),
    "chiprime1": ("chi_prime", 1),
}

_ROBUST = {"chi", "omega", "alpha", "theta", "chi_prime"}


def _parse_params(spec: str, default_s: int):
    out = []
    for token in spec.split(","):
        token = token.strip().lower()
        if token not in _PARAM_ALIASES:
            raise CliError(f"unknown parameter {token!r}")
        base, forced_s = _PARAM_ALIASES[token]
        s = forced_s if forced_s is not None else default_s
        if base not in _ROBUST:
            s = 0
        out.append((token, base, s))
    return out


# -- graph sources ------------------------------------------------------------


def _parse_gen_spec(spec: str):
    if ":" in spec:
        name, argstr = spec.split(":", 1)
        args = [a for a in argstr.split(",") if a != ""]
    else:
        name, args = spec, []
    return name, args


def _load_graph(args) -> tuple[Graph, dict]:
    if args.gen and args.input:
        raise CliError("--gen and --input are mutually exclusive")
    if args.gen:
        name, params = _parse_gen_spec(args.gen)
        try:
            G = generate(name, params, getattr(args, "seed", None))
        except ValueError as exc:
            raise CliError(str(exc)) from exc
        desc = {"generator": name, "params": params}
        if getattr(args, "seed", None) is not None:
            desc["seed"] = args.seed
        return G, desc
    if args.input:
        fmt = args.format or ("dimacs" if args.input.endswith(".col") else "edgelist")
        try:
            G, mapping = read_graph_file(args.input, fmt)
        except (OSError, ParseError) as exc:
            raise CliError(f"cannot read graph: {exc}") from exc
        return G, {"file": args.input, "format": fmt, "label_map_size": len(mapping)}
    raise CliError("a graph source is required (--gen or --input)")


def _cap_value(path: str, key: str, text: str) -> int:
    try:
        return int(text)
    except ValueError:
        raise CliError(f"[caps] {key} in {path}: expected an integer, "
                       f"got {text!r}") from None


def _load_caps(args) -> SolverCaps:
    caps = DEFAULT_CAPS
    if getattr(args, "config", None):
        parser = configparser.ConfigParser()
        try:
            read = parser.read(args.config)
            items = parser.items("caps") if parser.has_section("caps") else None
        except configparser.Error as exc:
            raise CliError(f"cannot parse config file {args.config}: {exc}") from exc
        if not read:
            raise CliError(f"cannot read config file {args.config}")
        if items is not None:
            known = {f.name for f in dataclasses.fields(SolverCaps)}
            unknown = sorted({k for k, _ in items} - known)
            if unknown:
                raise CliError(f"unknown [caps] keys in {args.config}: "
                               f"{', '.join(unknown)}; known keys: "
                               f"{', '.join(sorted(known))}")
            overrides = {k: _cap_value(args.config, k, v) for k, v in items}
            print(f"warning: overriding solver caps from {args.config}: "
                  f"{sorted(overrides)}", file=sys.stderr)
            caps = caps.override(**overrides)
    return caps


def _zero_elapsed(obj):
    if isinstance(obj, dict):
        for key in ("elapsed_ms", "wall_ms"):
            if key in obj:
                obj[key] = 0.0
        for v in obj.values():
            _zero_elapsed(v)
    elif isinstance(obj, list):
        for v in obj:
            _zero_elapsed(v)


def _emit(report: dict, args, t0: float) -> None:
    report["timing"] = {"wall_ms": round((time.perf_counter() - t0) * 1000, 3)}
    if args.no_timing:
        _zero_elapsed(report)
    text = json.dumps(report, sort_keys=True, separators=(",", ":")) + "\n"
    if args.out:
        try:
            with open(args.out, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as exc:
            raise CliError(f"cannot write report: {exc}") from exc
    else:
        sys.stdout.write(text)


def _result_dict(res) -> dict:
    return {"parameter": res.parameter, "s": res.s, "value": res.value,
            "certificate": res.certificate, "stats": res.stats}


# -- compute ------------------------------------------------------------------


def _compute_one(G: Graph, base: str, s: int, engine: str, caps: SolverCaps):
    """The one map from (engine, parameter, s) to a solver.  The tier
    functions are looked up in this module at call time, so rebinding
    `cli.<name>` reaches them."""
    if engine == "dp":
        if s != 1 or base not in ("chi", "omega", "alpha", "theta"):
            raise CliError("engine dp supports chi1, omega1, alpha1, theta1 only")
        nice = make_nice(heuristic_decomposition(G), G)
        return dp_robust(G, nice, base + "1")
    if base == "iota":
        return iota(G, caps)
    if s == 0:
        return classical_parameter(G, base, caps)
    if engine == "oracle":
        return oracle_robust(G, base, s, caps)
    if engine == "maximal":
        return robust_via_maximal(G, base, s)
    return robust_parameter(G, base, s, caps=caps)


def _poly_bounds(G: Graph, base: str, s: int) -> dict:
    if s != 1 or base not in ("chi", "chi_prime"):
        raise CliError("engine poly-bounds supports chi1 and chi1prime")
    if base == "chi":
        rc = degeneracy_greedy(G)
        delta = G.max_degree()
        bounds = {
            "upper_degeneracy_greedy": rc.k,
            "upper_max_degree": -(-(delta + 1) // 3),
            "lower_trivial": 0 if G.m == 0 else 1,
        }
        witness = {"selection": rc.selection.to_pairs(),
                   "coloring": list(rc.coloring)}
        dec = quasi_unicyclic_edge_decomposition(G)
        bounds["edge_decomposition_classes"] = dec.k
        return {"parameter": "chi", "s": 1, "bounds": bounds, "witness": witness}
    sel, coloring, used = edge_color_reduction(G)
    delta = G.max_degree()
    bounds = {"upper_reduction": used,
              "upper_max_degree": max(delta - 1, 0) if delta > 1 else 0,
              "lower_min_degree": max(G.min_degree() - 2, 0)}
    witness = {"selection": sel.to_pairs(),
               "edge_coloring": [[list(e), c] for e, c in sorted(coloring.items())]}
    return {"parameter": "chi_prime", "s": 1, "bounds": bounds, "witness": witness}


def cmd_compute(args) -> int:
    t0 = time.perf_counter()
    caps = _load_caps(args)
    G, desc = _load_graph(args)
    params = _parse_params(args.param, args.s)
    results = []
    for token, base, s in params:
        if args.engine == "poly-bounds":
            results.append(_poly_bounds(G, base, s))
            continue
        res = _compute_one(G, base, s, args.engine, caps)
        certify.validate_result(G, _result_dict(res))
        entry = _result_dict(res)
        entry["requested_as"] = token
        results.append(entry)
    report = {"command": "compute", "input": desc,
              "engine": args.engine, "results": results}
    _emit(report, args, t0)
    return EXIT_OK


# -- decompose ----------------------------------------------------------------


def cmd_decompose(args) -> int:
    t0 = time.perf_counter()
    G, desc = _load_graph(args)
    dec = quasi_unicyclic_edge_decomposition(G)
    witness = list(dec.orientation.witness)
    if G.n <= 8 and G.m:
        import itertools as it
        best, best_u = 0, ()
        for k in range(1, G.n + 1):
            for U in it.combinations(range(G.n), k):
                val = -(-G.induced_edge_count(U) // len(U))
                if val > best:
                    best, best_u = val, U
        witness = list(best_u)
    report = {
        "command": "decompose", "input": desc,
        "classes": [[list(e) for e in cls] for cls in dec.classes],
        "class_count": dec.k,
        "max_outdegree": dec.orientation.max_outdegree,
        "witness_subset": witness,
        "arcs": [list(a) for a in dec.orientation.arcs()],
    }
    _emit(report, args, t0)
    return EXIT_OK


# -- verify -------------------------------------------------------------------


def _row(name, lhs, rhs, ok=None) -> dict:
    """One verify row; `ok` defaults to lhs <= rhs."""
    ok = (lhs <= rhs) if ok is None else ok
    return {"inequality": name, "lhs": lhs, "rhs": rhs, "pass": bool(ok)}


def _sandwich_rows(G: Graph, s_values, value) -> list[dict]:
    rows = []
    chi = value(G, "chi", 0)
    omega = value(G, "omega", 0)
    theta = value(G, "theta", 0)
    arb = value(G, "arboricity", 0)
    d = value(G, "degeneracy", 0)
    delta = G.max_degree()
    for s in s_values:
        chs, oms = value(G, "chi", s), value(G, "omega", s)
        als, ths = value(G, "alpha", s), value(G, "theta", s)
        rows.append(_row(f"chi_{s} >= omega_{s}", oms, chs))
        if als:
            rows.append(_row(f"chi_{s} >= n/alpha_{s}", -(-G.n // als), chs))
        rows.append(_row(f"theta_{s} >= alpha_{s}", als, ths))
        if oms:
            rows.append(_row(f"theta_{s} >= n/omega_{s}", -(-G.n // oms), ths))
    if 1 in s_values:
        chi1 = value(G, "chi", 1)
        omega1 = value(G, "omega", 1)
        theta1 = value(G, "theta", 1)
        rows.append(_row("ceil(chi/3) <= chi1", -(-chi // 3), chi1))
        rows.append(_row("chi1 <= chi", chi1, chi))
        rows.append(_row("ceil(omega/3) <= omega1", -(-omega // 3), omega1))
        rows.append(_row("omega1 <= omega", omega1, omega))
        isolated = [v for v in range(G.n) if G.degree(v) == 0]
        if not isolated:
            rows.append(_row("theta <= theta1", theta, theta1))
            rows.append(_row("theta1 <= 3*theta", theta1, 3 * theta))
        rows.append(_row("ceil(a/2) <= chi1", -(-arb // 2), chi1))
        rows.append(_row("chi1 <= a", chi1, arb))
        rows.append(_row("chi1 <= ceil((Delta+1)/3)", chi1, -(-(delta + 1) // 3)))
        rows.append(_row("chi1 <= floor(d/2)+1", chi1, d // 2 + 1))
    return rows


def _operations_rows(G: Graph, seed: int, value, caps) -> list[dict]:
    import random as _random
    rows = []
    rng = _random.Random(seed)
    chi1 = value(G, "chi", 1)
    # monotonicity under edge deletion
    if G.m:
        edges = G.sorted_edges()
        e = edges[rng.getrandbits(16) % len(edges)]
        H = Graph(G.n, G.edges - {e})
        rows.append(_row("chi1(G-e) <= chi1(G)", value(H, "chi", 1), chi1))
        rows.append(_row("omega1(G-e) <= omega1(G)",
                         value(H, "omega", 1), value(G, "omega", 1)))
        rows.append(_row("alpha1(G) <= alpha1(G-e)",
                         value(G, "alpha", 1), value(H, "alpha", 1)))
        rows.append(_row("theta1(G) <= theta1(G-e)",
                         value(G, "theta", 1), value(H, "theta", 1)))
    # vertex-disjoint union laws against a small partner; chi_1 is capped
    # at robust_chi_n, theta_1 at robust_n
    H = erdos_renyi(4, 0.5, seed + 101)
    D = disjoint_union([G, H])
    if D.n <= caps.robust_chi_n:
        lhs = value(D, "chi", 1)
        rhs = max(chi1, value(H, "chi", 1))
        rows.append(_row("chi1 disjoint-union law", lhs, rhs, ok=lhs == rhs))
    if D.n <= caps.robust_n:
        ta, tb = value(G, "theta", 1), value(H, "theta", 1)
        td = value(D, "theta", 1)
        rows.append(_row("theta1 disjoint-union law", td, ta + tb, ok=td == ta + tb))
    # same-vertex-set union bound
    H2 = erdos_renyi(G.n, 0.3, seed + 77)
    U = union_graphs([G, H2])
    if U.n <= caps.robust_chi_n:
        bound = min(value(G, "chi", 0) * value(H2, "chi", 1),
                    chi1 * value(H2, "chi", 0))
        rows.append(_row("chi1(G u H) <= min(chi*chi1)",
                         value(U, "chi", 1), bound))
    return rows


def _union_rows(k: int, value) -> list[dict]:
    cycles = walecki_cycles(k)
    chi1_union = value(union_graphs(cycles), "chi", 1)
    prod = 1
    for c in cycles:
        prod *= value(c, "chi", 1)
    expected = -(-(2 * k + 1) // 3)
    return [
        _row(f"chi1(union of {k} hamiltonian cycles) <= (2k+1)*prod",
             chi1_union, (2 * k + 1) * prod),
        _row("(2k+1)/3 <= chi1(union)", (2 * k + 1) / 3, chi1_union),
        _row("chi1(K_{2k+1}) = ceil((2k+1)/3)", chi1_union, expected,
             ok=chi1_union == expected),
    ]


def _degree_rows(G: Graph, value, caps) -> list[dict]:
    delta = G.max_degree()
    k = max(1, -(-(delta + 1) // 3))
    rc, moves = max_degree_partition(G, k)
    ok = True
    for c in range(rc.k):
        cls = [v for v in range(G.n) if rc.coloring[v] == c]
        sub, _ = G.induced_subgraph(cls)
        ok &= sub.max_degree() <= 2
    rows = [_row("local search moves <= |E|", moves, G.m),
            _row("classes induce max degree <= 2", int(not ok), 0, ok=ok)]
    if G.n <= caps.robust_chi_n:
        rows.append(_row("chi1 <= ceil((Delta+1)/3)", value(G, "chi", 1), k))
    return rows


def _degeneracy_rows(G: Graph, value, caps) -> list[dict]:
    rc = degeneracy_greedy(G)
    d, _ = degeneracy_order(G)
    try:
        rc.validate(G)
        valid = True
    except ValueError:
        valid = False
    rows = [_row("greedy coloring proper on removed graph", int(not valid), 0, ok=valid),
            _row("greedy k <= floor(d/2)+1", rc.k, d // 2 + 1)]
    if G.n <= caps.robust_chi_n:
        rows.append(_row("chi1 <= floor(d/2)+1", value(G, "chi", 1), d // 2 + 1))
    return rows


def _edge_index_rows(G: Graph, value) -> list[dict]:
    rows = []
    delta, small_delta = G.max_degree(), G.min_degree()
    chi_prime1 = value(G, "chi_prime", 1)
    if delta > 1:
        chi_prime = value(G, "chi_prime", 0)
        rows.append(_row("chi_prime1 <= chi_prime - 2", chi_prime1, chi_prime - 2))
        rows.append(_row("chi_prime1 <= Delta - 1", chi_prime1, delta - 1))
    rows.append(_row("delta - 2 <= chi_prime1", small_delta - 2, chi_prime1))
    return rows


_SUITES = ("sandwich", "operations", "union", "degree", "degeneracy", "edge-index")


def _corpus_graphs(args):
    if args.corpus:
        spec = args.corpus
        name, argstr = (spec.split(":", 1) + [""])[:2]
        if name != "random":
            raise CliError(f"unknown corpus {name!r} (expected random:count,n_max,p)")
        parts = argstr.split(",")
        if len(parts) != 3:
            raise CliError("corpus spec is random:count,n_max,p")
        count, n_max, p = int(parts[0]), int(parts[1]), float(parts[2])
        if args.seed is None:
            raise CliError("corpus verification requires --seed")
        out = []
        for i in range(count):
            n = 4 + (args.seed + i) % max(1, n_max - 3)
            out.append((f"random[{i}]", erdos_renyi(n, p, args.seed + i)))
        return out
    G, desc = _load_graph(args)
    return [(json.dumps(desc, sort_keys=True), G)]


def cmd_verify(args) -> int:
    t0 = time.perf_counter()
    caps = _load_caps(args)
    suite = args.suite
    if suite not in _SUITES:
        raise CliError(f"unknown suite {suite!r}; choose from {', '.join(_SUITES)}")

    @functools.cache
    def value(G: Graph, which: str, s: int):
        """The value of one (graph, parameter, budget), solved once per run."""
        if s == 0:
            return classical_parameter(G, which, caps).value
        return robust_parameter(G, which, s, caps=caps).value

    checks = []
    if suite == "union":
        for k in (2, 3, 4):
            checks.append({"graph": f"walecki:{k}", "rows": _union_rows(k, value)})
    else:
        for label, G in _corpus_graphs(args):
            if suite == "sandwich":
                rows = _sandwich_rows(G, [int(x) for x in args.s_list.split(",")], value)
            elif suite == "operations":
                rows = _operations_rows(G, args.seed or 0, value, caps)
            elif suite == "degree":
                rows = _degree_rows(G, value, caps)
            elif suite == "degeneracy":
                rows = _degeneracy_rows(G, value, caps)
            else:
                if G.max_degree() <= 1:
                    continue
                rows = _edge_index_rows(G, value)
            checks.append({"graph": label, "rows": rows})
    if args.inject_fault and checks and checks[0]["rows"]:
        checks[0]["rows"][0]["pass"] = False
        checks[0]["rows"][0]["injected_fault"] = True
    violations = [c["graph"] for c in checks
                  for r in c["rows"] if not r["pass"]]
    report = {"command": "verify", "suite": suite, "checks": checks,
              "violations": sorted(set(violations))}
    _emit(report, args, t0)
    return EXIT_VIOLATION if violations else EXIT_OK


# -- hardness demo ------------------------------------------------------------


def cmd_hardness_demo(args) -> int:
    t0 = time.perf_counter()
    caps = _load_caps(args)
    G, desc = _load_graph(args)
    plus, sets = blow_up(G)
    chi_g = classical_parameter(G, "chi", caps).value
    notices = []
    if plus.n <= caps.chi_n:
        chi_plus = classical_parameter(plus, "chi", caps).value
    else:
        # G embeds by picking one vertex per class, and copying a coloring of
        # G onto the classes colors G+; both directions are certified
        chi_plus = chi_g
        notices.append("chi(G+) certified by embedding and coloring transfer")
    if plus.n <= caps.robust_chi_n:
        res1 = robust_chromatic(plus, 1, caps)
        certify.validate_result(plus, _result_dict(res1))
        chi1_plus = res1.value
        mode = "exact"
    else:
        chi1_plus = None
        mode = "bounds"
        notices.append(f"order {plus.n} beyond exact cap; reporting bounds only")
    report = {
        "command": "hardness-demo", "input": desc,
        "order": plus.n, "blowup_class_size": G.n + 1,
        "chi_G": chi_g, "chi_Gplus": chi_plus,
        "chi1_Gplus": chi1_plus, "mode": mode,
        "classes": [list(s) for s in sets],
        "equality_chain_holds": (chi1_plus == chi_plus == chi_g)
        if chi1_plus is not None else None,
        "chi1_upper_bound": chi_g,
        "notices": notices,
    }
    _emit(report, args, t0)
    return EXIT_OK


# -- explore ------------------------------------------------------------------


def cmd_explore(args) -> int:
    t0 = time.perf_counter()
    caps = _load_caps(args)

    def progress(n, stats):
        print(f"order {n}: {stats['classes']} classes, "
              f"{stats['theta1_computed']} theta1 runs, "
              f"{stats['counterexamples']} counterexamples", file=sys.stderr)

    rep = explore_exact_conjecture(args.n_max, not args.no_filters, caps,
                                   progress=progress)
    report = {"command": "explore", **rep.to_dict()}
    _emit(report, args, t0)
    return EXIT_OK


# -- random experiment --------------------------------------------------------


def cmd_random_experiment(args) -> int:
    t0 = time.perf_counter()
    caps = _load_caps(args)
    if args.seed is None:
        raise CliError("random-experiment requires --seed")
    m, r, p, trials = args.m, args.r, args.p, args.trials
    if m * r > caps.robust_chi_n:
        raise CliError(f"order {m * r} exceeds the exact cap {caps.robust_chi_n}")
    hits = 0
    samples = []
    for i in range(trials):
        G = random_multipartite(m, r, p, args.seed + i)
        val = robust_chromatic(G, 1, caps).value
        samples.append(val)
        hits += val == r
    report = {
        "command": "random-experiment",
        "m": m, "r": r, "p": p, "trials": trials, "seed": args.seed,
        "chi1_values": samples,
        "frequency_chi1_equals_r": hits / trials if trials else None,
        "note": "observational; the full-equality regime is asymptotic",
    }
    _emit(report, args, t0)
    return EXIT_OK


# -- argument plumbing --------------------------------------------------------


def _add_common(p, source=True):
    if source:
        p.add_argument("--gen", help="generator spec name:arg1,arg2,...")
        p.add_argument("--input", help="graph file")
        p.add_argument("--format", choices=["dimacs", "edgelist"])
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--out", help="write the JSON report here instead of stdout")
    p.add_argument("--config", help="INI file overriding solver caps")
    p.add_argument("--no-timing", action="store_true",
                   help="zero the timing block for byte-exact comparison")


class _ArgumentParser(argparse.ArgumentParser):
    """Reports usage errors as CliError (exit 3) instead of exiting 2,
    which here means a bound or certificate violation.  Subparsers are
    built from the same class."""

    def error(self, message):
        raise CliError(f"{self.prog}: {message}\n{self.format_usage().rstrip()}")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The parser, built on the first call and shared by every later one;
    parse_args keeps no state between calls."""
    ap = _ArgumentParser(prog="robusta",
                         description="robust graph parameter toolkit")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("compute", help="compute parameters of one graph")
    _add_common(p)
    p.add_argument("--param", required=True,
                   help="comma list: chi,omega,alpha,theta,chiprime,"
                        "arboricity,degeneracy,iota,chi1,omega1,alpha1,"
                        "theta1,chi1prime")
    p.add_argument("--s", type=int, default=0, help="selection budget")
    p.add_argument("--engine", default="exact",
                   choices=["exact", "oracle", "dp", "maximal", "poly-bounds"])
    p.set_defaults(func=cmd_compute)

    p = sub.add_parser("decompose", help="minimum quasi-unicyclic edge decomposition")
    _add_common(p)
    p.set_defaults(func=cmd_decompose)

    p = sub.add_parser("verify", help="run an inequality suite")
    _add_common(p)
    p.add_argument("--suite", required=True, help=", ".join(_SUITES))
    p.add_argument("--corpus", help="random:count,n_max,p (needs --seed)")
    p.add_argument("--s-list", default="0,1",
                   help="comma list of budgets for the sandwich suite")
    p.add_argument("--inject-fault", action="store_true",
                   help="flip one verdict; harness self-test")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("hardness-demo",
                       help="blow-up construction and the equality chain")
    _add_common(p)
    p.set_defaults(func=cmd_hardness_demo)

    p = sub.add_parser("explore", help="exhaustive conjecture exploration")
    _add_common(p, source=False)
    p.add_argument("--n-max", type=int, required=True)
    p.add_argument("--no-filters", action="store_true")
    p.set_defaults(func=cmd_explore)

    p = sub.add_parser("random-experiment",
                       help="random multipartite robust chromatic frequency")
    _add_common(p, source=False)
    p.add_argument("--m", type=int, required=True, help="part size")
    p.add_argument("--r", type=int, required=True, help="part count")
    p.add_argument("--p", type=float, required=True)
    p.add_argument("--trials", type=int, default=10)
    p.set_defaults(func=cmd_random_experiment)
    return ap


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return args.func(args)
    except (CliError, ValueError) as exc:  # CapExceeded and ParseError included
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    raise SystemExit(main())
