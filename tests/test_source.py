"""Properties of the library source itself."""

from __future__ import annotations

import ast
from pathlib import Path

import arrlevels

SRC = Path(arrlevels.__file__).parent


def _nodes(matches) -> list[str]:
    found = []
    for path in sorted(SRC.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        found += [f"{path.name}:{node.lineno}" for node in ast.walk(tree) if matches(node)]
    return found


def test_library_has_no_assert_statements():
    # python -O drops assert statements, and with them any check they make
    assert _nodes(lambda node: isinstance(node, ast.Assert)) == []


def _is_float(node: ast.AST) -> bool:
    if isinstance(node, ast.Constant):
        return isinstance(node.value, float)
    return isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id == "float"


def test_library_has_no_floating_point():
    # every count and every root interval is exact; a float would round
    assert _nodes(_is_float) == []
