"""Properties of the library source itself."""

from __future__ import annotations

import ast
from pathlib import Path

import arrlevels

SRC = Path(arrlevels.__file__).parent


def test_library_has_no_assert_statements():
    # python -O drops assert statements, and with them any check they make
    found = []
    for path in sorted(SRC.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        found += [f"{path.name}:{node.lineno}" for node in ast.walk(tree) if isinstance(node, ast.Assert)]
    assert found == []
