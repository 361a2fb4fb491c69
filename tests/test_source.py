"""Checks on the package source itself."""

import ast
import os
import pathlib
import subprocess
import sys

import pytest

SRC = pathlib.Path(__file__).resolve().parents[1] / "src" / "robusta"


def test_src_has_no_assert_statements():
    """`python -O` strips `assert`, so correctness checks in the package must
    raise explicitly."""
    files = sorted(SRC.glob("*.py"))
    assert files, f"no sources found under {SRC}"
    found = []
    for path in files:
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        found += [f"{path.name}:{node.lineno}" for node in ast.walk(tree)
                  if isinstance(node, ast.Assert)]
    assert found == [], f"assert statements in src/robusta: {', '.join(found)}"


def test_src_imports_only_stdlib():
    """The package has no runtime dependency: every absolute import names a
    standard-library module or robusta itself."""
    allowed = set(sys.stdlib_module_names) | {"robusta"}
    found = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            found += [f"{path.name}:{node.lineno} {name}" for name in names
                      if name.split(".")[0] not in allowed]
    assert found == [], f"non-stdlib imports in src/robusta: {', '.join(found)}"


def test_private_names_are_referenced():
    """Every module-level private name (def, class or assignment) in the
    package is used somewhere in the package: no dead helpers."""
    defined: dict[str, str] = {}
    used: set[str] = set()
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names = [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
            else:
                continue
            defined.update((name, f"{path.name}:{node.lineno} {name}") for name in names
                           if name.startswith("_") and not name.startswith("__"))
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                used.update(alias.name for alias in node.names)
    unused = sorted(where for name, where in defined.items() if name not in used)
    assert unused == [], f"unreferenced private names in src/robusta: {', '.join(unused)}"


# ER(6, 8/15) with seed 40 has 8 edges: a graph of the oracle benchmark's
# heaviest (n, m) cell, on which the enumeration tiers skip most sets
BENCH_SHAPED_6_8 = "erdos_renyi:6,0.5333333333333333"


@pytest.mark.parametrize("args", [
    ["--gen", "erdos_renyi:8,0.5", "--seed", "3",
     "--param", "chi,omega,alpha,theta,chiprime", "--s", "1"],
    # 21 edges, D* = 2: chi'_2 = 2 is found by phase 2, in 19 nodes
    ["--gen", "erdos_renyi:8,0.7", "--seed", "3",
     "--param", "chi,omega,alpha,theta,chiprime", "--s", "2"],
    ["--gen", BENCH_SHAPED_6_8, "--seed", "40",
     "--param", "chi,omega,alpha,theta,chiprime", "--s", "1", "--engine", "oracle"],
    ["--gen", BENCH_SHAPED_6_8, "--seed", "40",
     "--param", "chi,omega,alpha,theta,chiprime", "--s", "1", "--engine", "maximal"],
    ["--gen", "erdos_renyi:6,0.5", "--seed", "7",
     "--param", "chi,omega,alpha,theta,chiprime", "--s", "2", "--engine", "oracle"],
    ["--gen", "erdos_renyi:6,0.5", "--seed", "7",
     "--param", "chi,omega,alpha,theta,chiprime", "--s", "2", "--engine", "maximal"],
    ["--gen", "erdos_renyi:9,0.35", "--seed", "4",
     "--param", "chi1,omega1,alpha1,theta1", "--engine", "dp"],
    # chi'_1 = D* = 7: phase 2 ends at phase 1's witness grown to a maximal set
    ["--gen", "erdos_renyi:12,0.8", "--seed", "3", "--param", "chi1prime"],
    # chi'_1 = D* = 2: that set fails the 2-edge-colouring, and the walk finds another
    ["--gen", "erdos_renyi:6,0.6", "--seed", "23", "--param", "chi1prime"],
], ids=["exact-s1", "exact-s2", "oracle-s1", "maximal-s1", "oracle-s2", "maximal-s2", "dp",
        "chiprime-f1", "chiprime-walk"])
def test_optimized_mode_report_is_identical(args):
    """`python -O` runs the same code minus `assert`: the report bytes of the
    exact, oracle and maximal tiers and the treewidth DP must not change."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC.parent), env.get("PYTHONPATH")) if p)
    outs = []
    for flags in ([], ["-O"]):
        proc = subprocess.run([sys.executable, *flags, "-m", "robusta.cli", "compute",
                               *args, "--no-timing"],
                              capture_output=True, env=env, check=False)
        assert proc.returncode == 0, proc.stderr.decode()
        outs.append(proc.stdout)
    assert outs[0] and outs[0] == outs[1]
