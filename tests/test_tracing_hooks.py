"""The benchmark's tracer (perfbench/tracing.py) rebinds robusta names from
outside; a refactor that renames or drops one of them would break
`perfbench/run.py --trace 1`.  This installs the tracer, runs traced CLI
calls through every tier it wraps, and uninstalls it again."""

import contextlib
import importlib.util
import io
from pathlib import Path

import robusta
import robusta.certify
import robusta.cli
import robusta.exact
import robusta.treewidth

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_installs_and_uninstalls(tmp_path):
    tracing = _load_tracing()
    before = {name: getattr(robusta.exact, name)
              for name in ("orient_with_cap", "UnionFind", "enumerate_removable_sets",
                           "Graph", "classical_parameter")}
    tracer = tracing.Tracer(str(tmp_path))
    saved = tracing.install(robusta, tracer)
    try:
        wrapped = {(module.__name__, name) for module, name, _ in saved}
        for name in ("orient_with_cap", "UnionFind", "enumerate_removable_sets"):
            assert ("robusta.exact", name) in wrapped
        for name in ("oracle_robust", "robust_via_maximal", "robust_parameter"):
            assert ("robusta.cli", name) in wrapped
        for engine, param, s in (("oracle", "chi", "2"), ("maximal", "theta", "2"),
                                 ("exact", "theta", "2"), ("dp", "alpha", "1")):
            with contextlib.redirect_stdout(io.StringIO()):
                code = robusta.cli.main(["compute", "--gen", "erdos_renyi:6,0.9",
                                         "--seed", "2", "--param", param, "--s", s,
                                         "--engine", engine, "--no-timing"])
            assert code == 0, engine
    finally:
        tracing.uninstall(saved)
    assert tracer.calls["exact.oracle"] == 1
    assert tracer.calls["exact.maximal"] == 1
    assert tracer.calls["exact.theta.s2"] == 1
    assert tracer.calls["treewidth.dp.alpha1"] == 1
    assert tracer.calls["selection.enumerate.all"] > 0
    assert tracer.calls["selection.enumerate.maximal"] > 0
    for name, original in before.items():
        assert getattr(robusta.exact, name) is original


def test_tracer_dp_rows_cover_every_dp_token(tmp_path):
    """The first traced pass of `perfbench/run.py --trace 1` passes
    `trace_file=` to every dp call and reads the per-node dump back."""
    tracing = _load_tracing()
    original = robusta.treewidth.classical_parameter
    tracer = tracing.Tracer(str(tmp_path), dp_rows=True)
    saved = tracing.install(robusta, tracer)
    try:
        assert ("robusta.treewidth", "classical_parameter") in \
            {(module.__name__, name) for module, name, _ in saved}
        for token in tracing.DP:
            with contextlib.redirect_stdout(io.StringIO()):
                code = robusta.cli.main(["compute", "--gen", "erdos_renyi:9,0.35",
                                         "--seed", "4", "--param", token,
                                         "--engine", "dp", "--no-timing"])
            assert code == 0, token
    finally:
        tracing.uninstall(saved)
    metrics = tracer.metrics()
    for token in tracing.DP:
        key = f"treewidth.dp.{token}"
        assert tracer.calls[key] == 1
        kinds = [metrics[f"{key}.rows.{kind}"] for kind in tracing.ROW_KINDS]
        assert all(rows > 0 for rows in kinds), (token, kinds)
        assert sum(kinds) < metrics[f"{key}.rows_total"]  # leaves count too
    assert robusta.treewidth.classical_parameter is original
