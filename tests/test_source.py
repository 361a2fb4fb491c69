"""Checks on the package source itself."""

import ast
import pathlib

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
