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
    for name, original in before.items():
        assert getattr(robusta.exact, name) is original
