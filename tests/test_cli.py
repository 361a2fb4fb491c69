import json
import subprocess
import sys

from robusta.cli import main


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


def test_config_override_warning(tmp_path, capsys):
    cfg = tmp_path / "caps.ini"
    cfg.write_text("[caps]\nchi_n = 4\n")
    code, _ = run_cli(["compute", "--gen", "complete:6", "--param", "chi",
                       "--config", str(cfg), "--no-timing"])
    assert code == 3  # the lowered cap now rejects K6
    assert "warning" in capsys.readouterr().err


def test_config_unknown_cap_key_exit3(tmp_path, capsys):
    cfg = tmp_path / "bad.ini"
    cfg.write_text("[caps]\nrobust_nn = 5\n")
    code, report = run_cli(["compute", "--gen", "complete:4", "--param", "chi1",
                            "--config", str(cfg), "--no-timing"])
    assert code == 3 and report is None
    assert "robust_nn" in capsys.readouterr().err


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
