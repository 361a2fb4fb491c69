import json
import subprocess
import sys

import pytest

from robusta import Graph, cycle, erdos_renyi, generate, maximal_outerplanar
from robusta.certify import validate_result
from robusta.cli import _PARAM_ALIASES, build_parser, main


def run_cli(args, tmp_path=None):
    """Invoke the CLI in-process; returns (exit_code, parsed stdout or None)."""
    import contextlib
    import io

    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = main(args)
    text = buf.getvalue()
    return code, (json.loads(text) if text.strip() else None)


def test_compute_complete7_chi1():
    code, report = run_cli(["compute", "--gen", "complete:7",
                            "--param", "chi1", "--engine", "exact",
                            "--no-timing"])
    assert code == 0
    assert report["results"][0]["value"] == 3


def test_compute_multipartite_chi1():
    code, report = run_cli(["compute", "--gen", "complete-multipartite:2,3,4",
                            "--param", "chi1", "--no-timing"])
    assert code == 0
    assert report["results"][0]["value"] == 2


def test_compute_star_chi1prime_oracle():
    code, report = run_cli(["compute", "--gen", "star:9",
                            "--param", "chi1prime", "--engine", "oracle",
                            "--no-timing"])
    assert code == 0
    assert report["results"][0]["value"] == 0


def test_compute_s_flag_and_lists():
    code, report = run_cli(["compute", "--gen", "complete:5",
                            "--param", "chi,omega", "--s", "2", "--no-timing"])
    assert code == 0
    by_name = {r["requested_as"]: r for r in report["results"]}
    assert by_name["chi"]["s"] == 2 and by_name["omega"]["s"] == 2


def test_compute_dp_engine():
    code, report = run_cli(["compute", "--gen", "cycle:6", "--param",
                            "theta1", "--engine", "dp", "--no-timing"])
    assert code == 0
    assert report["results"][0]["value"] == 6


@pytest.mark.parametrize("engine", ["exact", "oracle", "maximal", "dp"])
def test_compute_empty_graph_every_engine(engine):
    code, report = run_cli(["compute", "--gen", "empty:0", "--engine", engine,
                            "--param", "chi1,omega1,alpha1,theta1", "--no-timing"])
    assert code == 0, engine
    for result in report["results"]:
        assert result["value"] == 0
        validate_result(Graph(0), result)


@pytest.mark.parametrize("gen, G", [
    (["cycle:17"], cycle(17)),
    (["maximal-outerplanar:30", "--seed", "2"], maximal_outerplanar(30, 2)),
])
def test_compute_dp_beyond_exact_caps(gen, G):
    # both graphs have more vertices than the exact theta cap (16)
    code, report = run_cli(["compute", "--gen", *gen, "--engine", "dp",
                            "--param", "chi1,omega1,alpha1,theta1", "--no-timing"])
    assert code == 0
    assert [r["requested_as"] for r in report["results"]] == \
        ["chi1", "omega1", "alpha1", "theta1"]
    for result in report["results"]:
        validate_result(G, result)


def test_compute_dp_decomposes_once(monkeypatch, tmp_path):
    """A multi-token dp command decomposes the graph once and shares the
    nice form; the report's bytes are those of one decomposition per token
    (sha256 recorded when every token decomposed on its own)."""
    import hashlib

    from robusta import cli
    calls = {"heuristic_decomposition": 0, "make_nice": 0}
    for name in calls:
        def counting(*args, _name=name, _orig=getattr(cli, name)):
            calls[_name] += 1
            return _orig(*args)
        monkeypatch.setattr(cli, name, counting)
    out = tmp_path / "report.json"
    code, _ = run_cli(["compute", "--gen", "erdos-renyi:9,0.35", "--seed", "1",
                       "--engine", "dp", "--param", "chi1,omega1,alpha1,theta1",
                       "--no-timing", "--out", str(out)])
    assert code == 0
    assert calls == {"heuristic_decomposition": 1, "make_nice": 1}
    assert hashlib.sha256(out.read_bytes()).hexdigest() == \
        "562299ba57803dc7b9d3cd5c854a700c35adc23067425b33409a367cb191beea"
    # a token the dp engine rejects fails before anything is decomposed
    code, _ = run_cli(["compute", "--gen", "cycle:5", "--param", "chi", "--s", "2",
                       "--engine", "dp", "--no-timing"])
    assert code == 3 and calls["heuristic_decomposition"] == 1


def test_compute_poly_bounds():
    code, report = run_cli(["compute", "--gen", "erdos-renyi:30,0.1",
                            "--seed", "4", "--param", "chi1",
                            "--engine", "poly-bounds", "--no-timing"])
    assert code == 0
    bounds = report["results"][0]["bounds"]
    assert bounds["upper_degeneracy_greedy"] >= 1


def test_compute_unknown_param_exit3():
    code, _ = run_cli(["compute", "--gen", "complete:3",
                       "--param", "zeta", "--no-timing"])
    assert code == 3


def test_compute_cap_exceeded_exit3():
    code, _ = run_cli(["compute", "--gen", "complete:30",
                       "--param", "chi", "--no-timing"])
    assert code == 3


def test_usage_errors_exit3(capsys):
    for argv in (["compute", "--gen", "complete:3"],  # --param missing
                 ["compute", "--gen", "complete:3", "--param", "chi",
                  "--seed", "x"],
                 ["compute", "--gen", "complete:3", "--param", "chi",
                  "--engine", "fast"],
                 ["frobnicate"], []):
        code, report = run_cli(argv)
        assert code == 3 and report is None, argv
        err = capsys.readouterr().err
        assert err.startswith("error: robusta") and "\nusage: robusta" in err, argv


def test_help_exits_0(capsys):
    for argv in (["--help"], ["compute", "-h"]):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 0
        assert capsys.readouterr().out.startswith("usage: robusta")


def test_unwritable_out_exit3(tmp_path, capsys):
    target = tmp_path / "missing" / "r.json"
    code, report = run_cli(["compute", "--gen", "complete:4", "--param", "chi",
                            "--s", "1", "--out", str(target), "--no-timing"])
    assert code == 3 and report is None and not target.exists()
    assert "cannot write report" in capsys.readouterr().err


def test_parser_reuse_matches_fresh_process(tmp_path, capsys):
    """One parser serves every call: options of an earlier call, or of one
    that failed half-way through parsing, never leak into the next."""
    assert build_parser() is build_parser()
    out = tmp_path / "oracle.json"
    assert main(["compute", "--gen", "complete:4", "--param", "chi",
                 "--engine", "oracle", "--s", "2", "--out", str(out),
                 "--no-timing"]) == 0
    assert json.loads(out.read_text())["results"][0]["s"] == 2
    assert main(["compute", "--gen", "complete:4", "--s", "1",
                 "--engine", "dp", "--param"]) == 3
    capsys.readouterr()
    plain = ["compute", "--gen", "erdos-renyi:7,0.5", "--seed", "3",
             "--param", "chi,omega1", "--no-timing"]
    assert main(plain) == 0
    text = capsys.readouterr().out
    report = json.loads(text)
    assert report["engine"] == "exact"
    assert [r["s"] for r in report["results"]] == [0, 1]
    proc = subprocess.run([sys.executable, "-m", "robusta.cli", *plain],
                          capture_output=True, text=True)
    assert proc.returncode == 0 and proc.stdout == text


def test_input_file_roundtrip(tmp_path):
    col = tmp_path / "g.col"
    col.write_text("p edge 4 6\ne 1 2\ne 1 3\ne 1 4\ne 2 3\ne 2 4\ne 3 4\n")
    code, report = run_cli(["compute", "--input", str(col), "--format",
                            "dimacs", "--param", "chi1", "--no-timing"])
    assert code == 0
    assert report["results"][0]["value"] == 2


def test_malformed_input_exit3(tmp_path):
    bad = tmp_path / "bad.col"
    bad.write_text("p edge 3 1\ne 1 1\n")
    code, _ = run_cli(["compute", "--input", str(bad), "--format", "dimacs",
                       "--param", "chi", "--no-timing"])
    assert code == 3


def test_header_count_above_cap_exit3(tmp_path, capsys):
    big = tmp_path / "big.col"
    big.write_text("p edge 1000000 0\n")
    code, _ = run_cli(["compute", "--input", str(big), "--format", "dimacs",
                       "--param", "chi", "--no-timing"])
    assert code == 3
    assert "line 1: vertex count 1000000 above the limit" in capsys.readouterr().err


def test_decompose():
    code, report = run_cli(["decompose", "--gen", "complete:7", "--no-timing"])
    assert code == 0
    assert report["class_count"] == 3
    w = report["witness_subset"]
    from robusta import complete
    e = complete(7).induced_edge_count(w)
    assert -(-e // len(w)) == 3


def test_verify_sandwich_pass_and_fault_injection():
    args = ["verify", "--suite", "sandwich", "--gen", "complete:6",
            "--no-timing"]
    code, report = run_cli(args)
    assert code == 0 and report["violations"] == []
    code2, report2 = run_cli(args + ["--inject-fault"])
    assert code2 == 2 and report2["violations"]


def test_verify_union_suite():
    code, report = run_cli(["verify", "--suite", "union", "--no-timing"])
    assert code == 0
    walecki3 = next(c for c in report["checks"] if c["graph"] == "walecki:3")
    rows = {r["inequality"]: r for r in walecki3["rows"]}
    assert rows["chi1(union of 3 hamiltonian cycles) <= (2k+1)*prod"]["lhs"] == 3
    assert rows["chi1(union of 3 hamiltonian cycles) <= (2k+1)*prod"]["rhs"] == 7


def test_verify_operations_suite_guards_theta1_law_by_robust_n():
    # corpus orders are 4 + (seed + i) % 6; the union partner adds 4 vertices,
    # so random[0] (order 9) is within the chi_1 cap but not the theta_1 cap
    code, report = run_cli(["verify", "--suite", "operations", "--corpus",
                            "random:6,9,0.4", "--seed", "11", "--no-timing"])
    assert code == 0 and report["violations"] == []
    orders = []
    for i, check in enumerate(report["checks"]):
        n = 4 + (11 + i) % 6
        orders.append(n + 4)
        names = {r["inequality"] for r in check["rows"]}
        assert "chi1 disjoint-union law" in names
        assert ("theta1 disjoint-union law" in names) == (n + 4 <= 12)
    assert max(orders) > 12 >= min(orders)


def test_verify_solves_each_instance_once(monkeypatch):
    """Every verify suite goes through one cached lookup per run: no (graph,
    parameter, budget) reaches the exact tier twice."""
    from robusta import cli
    seen = []
    solve = cli.robust_parameter

    def counting(G, which, s, *args, **kw):
        seen.append((G, which, s))
        return solve(G, which, s, *args, **kw)

    def bypass(*args, **kw):
        raise AssertionError("robust_chromatic called around the verify cache")

    monkeypatch.setattr(cli, "robust_parameter", counting)
    monkeypatch.setattr(cli, "robust_chromatic", bypass)
    for args in (["--suite", "operations", "--corpus", "random:6,9,0.4", "--seed", "11"],
                 ["--suite", "sandwich", "--corpus", "random:6,8,0.4", "--seed", "3",
                  "--s-list", "0,1,2"],
                 ["--suite", "degree", "--gen", "complete:7"],
                 ["--suite", "degeneracy", "--gen", "complete:6"],
                 ["--suite", "edge-index", "--gen", "cycle:6"],
                 ["--suite", "union"]):
        seen.clear()
        code, report = run_cli(["verify", *args, "--no-timing"])
        assert code == 0 and report["violations"] == [], args
        assert seen and len(seen) == len(set(seen)), args


def test_verify_corpus_requires_seed():
    code, _ = run_cli(["verify", "--suite", "sandwich",
                       "--corpus", "random:4,8,0.4", "--no-timing"])
    assert code == 3


def test_hardness_demo():
    code, report = run_cli(["hardness-demo", "--gen", "complete:3",
                            "--no-timing"])
    assert code == 0
    assert report["chi_G"] == report["chi_Gplus"] == report["chi1_Gplus"] == 3
    assert report["equality_chain_holds"]
    code, report = run_cli(["hardness-demo", "--gen", "path:3", "--no-timing"])
    assert report["chi1_Gplus"] == 2 and report["equality_chain_holds"]
    code, report = run_cli(["hardness-demo", "--gen", "complete:1",
                            "--no-timing"])
    assert report["chi1_Gplus"] == 1 and report["equality_chain_holds"]
    # beyond the exact cap the command degrades to bound mode
    code, report = run_cli(["hardness-demo", "--gen", "complete:5",
                            "--no-timing"])
    assert code == 0 and report["mode"] == "bounds"
    assert report["chi1_Gplus"] is None and report["chi1_upper_bound"] == 5
    assert report["notices"]


def test_explore_and_cap():
    code, report = run_cli(["explore", "--n-max", "4", "--no-timing"])
    assert code == 0
    assert report["counterexamples"] == []
    assert report["orders"]["4"]["classes"] == 11
    code, _ = run_cli(["explore", "--n-max", "9", "--no-timing"])
    assert code == 3


def test_explore_orders_pinned():
    # recorded with the labeled-sweep generator the augmentation replaced
    code, report = run_cli(["explore", "--n-max", "6", "--no-timing"])
    assert code == 0 and report["counterexamples"] == []
    base = {"counterexamples": 0, "theta1_computed": 0}
    assert report["orders"] == {
        "1": {**base, "labeled": 1, "classes": 1, "non_edgeless": 0,
              "confirmed": 0, "filtered_out": {}},
        "2": {**base, "labeled": 2, "classes": 2, "non_edgeless": 1,
              "confirmed": 1, "filtered_out": {"theta_gt_alpha": 1}},
        "3": {**base, "labeled": 8, "classes": 4, "non_edgeless": 3,
              "confirmed": 3, "filtered_out": {"theta_gt_alpha": 3}},
        "4": {**base, "labeled": 64, "classes": 11, "non_edgeless": 10,
              "confirmed": 10, "filtered_out": {"theta_gt_alpha": 10}},
        "5": {**base, "labeled": 1024, "classes": 34, "non_edgeless": 33,
              "confirmed": 33,
              "filtered_out": {"theta_ge_4": 1, "theta_gt_alpha": 32}},
        "6": {**base, "labeled": 32768, "classes": 156, "non_edgeless": 155,
              "confirmed": 155,
              "filtered_out": {"theta_ge_4": 3, "theta_gt_alpha": 151,
                               "two_triangles": 1}},
    }


def test_random_experiment():
    code, report = run_cli(["random-experiment", "--m", "3", "--r", "3",
                            "--p", "1.0", "--trials", "5", "--seed", "1",
                            "--no-timing"])
    assert code == 0
    assert report["frequency_chi1_equals_r"] == 1.0
    code, report = run_cli(["random-experiment", "--m", "2", "--r", "2",
                            "--p", "0.0", "--trials", "4", "--seed", "1",
                            "--no-timing"])
    assert report["frequency_chi1_equals_r"] == 0.0
    code, _ = run_cli(["random-experiment", "--m", "3", "--r", "3",
                       "--p", "0.5", "--trials", "2", "--no-timing"])
    assert code == 3  # seed is mandatory


def test_byte_identical_reports(tmp_path):
    out1, out2 = tmp_path / "a.json", tmp_path / "b.json"
    args = ["compute", "--gen", "erdos-renyi:8,0.4", "--seed", "5",
            "--param", "chi1,omega1,theta1", "--no-timing"]
    run_cli(args + ["--out", str(out1)])
    run_cli(args + ["--out", str(out2)])
    assert out1.read_bytes() == out2.read_bytes()


def test_dp_theta1_omega1_reports_byte_identical(tmp_path):
    out1, out2 = tmp_path / "a.json", tmp_path / "b.json"
    args = ["compute", "--gen", "erdos-renyi:9,0.35", "--seed", "4",
            "--engine", "dp", "--param", "theta1,omega1", "--no-timing"]
    run_cli(args + ["--out", str(out1)])
    run_cli(args + ["--out", str(out2)])
    assert out1.read_bytes() == out2.read_bytes()


def test_config_override_warning(tmp_path, capsys):
    cfg = tmp_path / "caps.ini"
    cfg.write_text("[caps]\nchi_n = 4\n")
    code, _ = run_cli(["compute", "--gen", "complete:6", "--param", "chi",
                       "--config", str(cfg), "--no-timing"])
    assert code == 3  # the lowered cap now rejects K6
    assert "warning" in capsys.readouterr().err


@pytest.mark.parametrize("key", ["robust_nn", "canonical_n"])
def test_config_unknown_cap_key_exit3(tmp_path, capsys, key):
    cfg = tmp_path / "bad.ini"
    cfg.write_text(f"[caps]\n{key} = 5\n")
    code, report = run_cli(["compute", "--gen", "complete:4", "--param", "chi1",
                            "--config", str(cfg), "--no-timing"])
    assert code == 3 and report is None
    assert key in capsys.readouterr().err


@pytest.mark.parametrize("text", ["not an ini\n", "[caps]\nchi_n = 4\nchi_n = 5\n"])
def test_config_unparsable_exit3(tmp_path, capsys, text):
    cfg = tmp_path / "broken.ini"
    cfg.write_text(text)
    code, report = run_cli(["compute", "--gen", "complete:4", "--param", "chi1",
                            "--config", str(cfg), "--no-timing"])
    assert code == 3 and report is None
    assert str(cfg) in capsys.readouterr().err


@pytest.mark.parametrize("argv, expects", [
    (["--gen", "complete"], "n"),
    (["--gen", "complete:3,9"], "n"),
    (["--gen", "erdos-renyi:5", "--seed", "1"], "n,p"),
    (["--gen", "random-multipartite:2", "--seed", "1"], "m,r,p"),
    (["--gen", "complete-multipartite"], "s1,s2,..."),
])
def test_gen_wrong_parameter_count_exit3(capsys, argv, expects):
    code, report = run_cli(["compute", *argv, "--param", "chi", "--no-timing"])
    assert code == 3 and report is None
    kind = argv[1].split(":")[0]
    assert f"generator {kind!r} expects parameters {expects};" in capsys.readouterr().err


@pytest.mark.parametrize("argv, message", [
    (["--gen", "complete:abc"],
     "generator 'complete' parameter n: expected an integer, got 'abc'"),
    (["--gen", "erdos-renyi:5,abc", "--seed", "1"],
     "generator 'erdos-renyi' parameter p: expected a number, got 'abc'"),
    (["--config", "CAPS"],
     "[caps] chi_n in CAPS: expected an integer, got 'four'"),
], ids=["gen-integer", "gen-number", "config-cap"])
def test_non_numeric_value_names_its_field_exit3(tmp_path, capsys, argv, message):
    cfg = tmp_path / "caps.ini"
    cfg.write_text("[caps]\nchi_n = four\n")
    argv = [str(cfg) if a == "CAPS" else a for a in argv]
    if "--gen" not in argv:
        argv += ["--gen", "complete:4"]
    code, report = run_cli(["compute", *argv, "--param", "chi", "--no-timing"])
    assert code == 3 and report is None
    assert f"error: {message.replace('CAPS', str(cfg))}" in capsys.readouterr().err


@pytest.mark.parametrize("argv, message", [
    (["random-experiment", "--m", "2", "--r", "2", "--p", "0.5", "--trials", "-3",
      "--seed", "1"], "--trials must be non-negative, got -3"),
    (["random-experiment", "--m", "2", "--r", "2", "--p", "0.5", "--trials", "100001",
      "--seed", "1"], "--trials 100001 above the limit 100000"),
    (["explore", "--n-max", "-2"], "--n-max must be at least 1, got -2"),
    (["verify", "--suite", "sandwich", "--corpus", "random:2,3,0.4", "--seed", "1"],
     "corpus n_max must be at least 4, got 3"),
    (["verify", "--suite", "sandwich", "--corpus", "random:-1,9,0.4", "--seed", "1"],
     "corpus count must be non-negative, got -1"),
    (["verify", "--suite", "sandwich", "--corpus", "random:3,9,1.5", "--seed", "1"],
     "corpus p must lie in [0, 1], got 1.5"),
    (["verify", "--suite", "sandwich", "--corpus", "random:x,9,0.4", "--seed", "1"],
     "corpus count: expected an integer, got 'x'"),
    (["verify", "--suite", "sandwich", "--corpus", "random:3,y,0.4", "--seed", "1"],
     "corpus n_max: expected an integer, got 'y'"),
    (["verify", "--suite", "sandwich", "--corpus", "random:3,9,abc", "--seed", "1"],
     "corpus p: expected a number, got 'abc'"),
    (["verify", "--suite", "sandwich", "--gen", "complete:4", "--s-list", "0,x"],
     "--s-list: expected an integer, got 'x'"),
    (["compute", "--gen", "complete:448", "--param", "chi"],
     "generator 'complete': 100128 vertex pairs above the limit 100000"),
    (["compute", "--gen", "complete:4", "--param", "arboricity,iota,chi1", "--s", "-1"],
     "--s must be non-negative, got -1"),
], ids=["trials", "trials-limit", "n-max", "corpus-n-max", "corpus-count",
        "corpus-p-range", "corpus-count-integer", "corpus-n-max-integer",
        "corpus-p-number", "s-list", "gen-order", "compute-s"])
def test_bad_number_names_its_option_exit3(capsys, argv, message):
    code, report = run_cli([*argv, "--no-timing"])
    assert code == 3 and report is None
    assert capsys.readouterr().err == f"error: {message}\n"


def _refuse(*args, **kw):
    raise AssertionError("called before the input was checked")


@pytest.mark.parametrize("corpus, message", [
    ("random:100001,9,0.4", "corpus count 100001 above the limit 100000"),
    ("random:1,448,0.5", "corpus n_max 448: 100128 vertex pairs above the limit 100000"),
], ids=["count", "n-max"])
def test_verify_corpus_bounds_checked_before_drawing(monkeypatch, capsys, corpus, message):
    monkeypatch.setattr("robusta.cli.erdos_renyi", _refuse)
    code, report = run_cli(["verify", "--suite", "sandwich", "--corpus", corpus,
                            "--seed", "1", "--no-timing"])
    assert code == 3 and report is None
    assert capsys.readouterr().err == f"error: {message}\n"


def test_random_experiment_trials_checked_before_drawing(monkeypatch, capsys):
    monkeypatch.setattr("robusta.cli.random_multipartite", _refuse)
    code, report = run_cli(["random-experiment", "--m", "2", "--r", "2", "--p", "0.5",
                            "--trials", "100000000", "--seed", "1", "--no-timing"])
    assert code == 3 and report is None
    assert capsys.readouterr().err == "error: --trials 100000000 above the limit 100000\n"


def test_verify_corpus_draws_each_graph_after_the_one_before(monkeypatch, capsys):
    """The first graph (447 vertices) is over the chi_n cap, so the run
    stops before it draws the other two."""
    drawn = []

    def draw(n, p, seed):
        drawn.append(n)
        return erdos_renyi(n, p, seed)

    monkeypatch.setattr("robusta.cli.erdos_renyi", draw)
    code, report = run_cli(["verify", "--suite", "sandwich", "--corpus",
                            "random:3,447,0.5", "--seed", "443", "--no-timing"])
    assert code == 3 and report is None and drawn == [447]
    assert capsys.readouterr().err.startswith("error: ")


def test_hardness_demo_cap_checked_before_blow_up(monkeypatch, capsys):
    """chi(G) hits the chi_n cap (16) before the order-306 blow-up is built."""
    monkeypatch.setattr("robusta.cli.blow_up", _refuse)
    code, report = run_cli(["hardness-demo", "--gen", "complete:17", "--no-timing"])
    assert code == 3 and report is None
    assert capsys.readouterr().err == "error: chi: vertex count 17 exceeds cap 16\n"


def test_oracle_cap_error_names_the_edge_count(capsys):
    code, report = run_cli(["compute", "--gen", "complete:7", "--param", "chi",
                            "--s", "1", "--engine", "oracle", "--no-timing"])
    assert code == 3 and report is None
    assert "error: oracle: edge count 21 exceeds cap 18" in capsys.readouterr().err


@pytest.mark.parametrize("s", ["1", "2"])
def test_engines_agree_on_every_param_token(s):
    """Every --param token through exact, oracle and maximal gives the same
    certified values; dp answers exactly the chi/omega/alpha/theta tokens at
    budget 1 and agrees with them, and exits 3 on every other token."""
    source = ["--gen", "erdos_renyi:6,0.5", "--seed", "8"]
    G = generate("erdos_renyi", ["6", "0.5"], 8)
    assert G.n == 6 and G.m <= 10
    tokens = sorted(_PARAM_ALIASES)
    values = {}
    for engine in ("exact", "oracle", "maximal"):
        code, report = run_cli(["compute", *source, "--param", ",".join(tokens),
                                "--s", s, "--engine", engine, "--no-timing"])
        assert code == 0, engine
        for res in report["results"]:
            validate_result(G, res)
        values[engine] = {r["requested_as"]: r["value"] for r in report["results"]}
    assert values["exact"] == values["oracle"] == values["maximal"]
    for token in tokens:
        base, forced_s = _PARAM_ALIASES[token]
        code, report = run_cli(["compute", *source, "--param", token, "--s", s,
                                "--engine", "dp", "--no-timing"])
        if base in ("chi", "omega", "alpha", "theta") and (forced_s or int(s)) == 1:
            assert code == 0, token
            validate_result(G, report["results"][0])
            assert report["results"][0]["value"] == values["exact"][token]
        else:
            assert code == 3 and report is None, token


def test_console_entry_point():
    proc = subprocess.run([sys.executable, "-m", "robusta.cli", "compute",
                           "--gen", "complete:4", "--param", "omega1",
                           "--no-timing"], capture_output=True, text=True)
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["results"][0]["value"] == 2


def test_certify_module_entry(tmp_path):
    from robusta import complete, robust_chromatic
    from robusta.graphio import write_dimacs
    g = complete(5)
    res = robust_chromatic(g)
    result_file = tmp_path / "res.json"
    result_file.write_text(json.dumps({
        "parameter": res.parameter, "s": res.s, "value": res.value,
        "certificate": res.certificate}))
    graph_file = tmp_path / "g.col"
    graph_file.write_text(write_dimacs(g))
    proc = subprocess.run([sys.executable, "-m", "robusta.certify",
                           str(result_file), str(graph_file)],
                          capture_output=True, text=True)
    assert proc.returncode == 0
    assert "valid" in proc.stdout


@pytest.mark.parametrize("case, expected", [
    ("compute-report", 0), ("changed-value", 2), ("missing-file", 3),
    ("one-argument", 3), ("poly-bounds-report", 3),
])
def test_certify_module_exit_codes(tmp_path, case, expected):
    """The certify entry point reads `compute --out` reports and maps each
    failure to one `error:` line: 2 for an invalid certificate, 3 for usage
    and input errors."""
    from robusta import complete
    from robusta.graphio import write_dimacs
    graph_file = tmp_path / "g.col"
    graph_file.write_text(write_dimacs(complete(5)))
    report_file = tmp_path / "report.json"
    engine, params = (("poly-bounds", "chi1,chi1prime") if case == "poly-bounds-report"
                      else ("exact", "theta1,chi1"))
    code, _ = run_cli(["compute", "--input", str(graph_file), "--param", params,
                       "--engine", engine, "--out", str(report_file)])
    assert code == 0
    if case == "changed-value":
        data = json.loads(report_file.read_text())
        data["results"][0]["value"] += 1
        report_file.write_text(json.dumps(data))
    argv = {"missing-file": [str(report_file), str(tmp_path / "missing.col")],
            "one-argument": [str(report_file)]}.get(
                case, [str(report_file), str(graph_file)])
    proc = subprocess.run([sys.executable, "-m", "robusta.certify", *argv],
                          capture_output=True, text=True)
    assert proc.returncode == expected, proc.stderr
    if expected:
        assert proc.stderr.startswith("error: ")
        assert proc.stderr.count("\n") == 1 and proc.stdout == ""
    else:
        assert proc.stdout == "2 certificate(s) valid\n" and proc.stderr == ""
