"""Properties of the library source itself."""

from __future__ import annotations

import ast
from pathlib import Path

import arrlevels

SRC = Path(arrlevels.__file__).parent


def _trees():
    for path in sorted(SRC.rglob("*.py")):
        yield path.name, ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


def _nodes(matches) -> list[str]:
    return [f"{name}:{node.lineno}" for name, tree in _trees() for node in ast.walk(tree) if matches(node)]


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


def _own_nodes(fn: ast.AST):
    """The nodes of fn's own scope, without the bodies of functions nested in it."""
    stack = list(ast.iter_child_nodes(fn))
    while stack:
        node = stack.pop()
        yield node
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            stack.extend(ast.iter_child_nodes(node))


def _unused_locals(fn: ast.AST) -> set[str]:
    # a nested function may read its parent's locals, so loads count from
    # the whole body; names starting with _ are unused on purpose
    stored = {n.id for n in _own_nodes(fn) if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Store)}
    read = {n.id for n in ast.walk(fn) if isinstance(n, ast.Name) and not isinstance(n.ctx, ast.Store)}
    declared = {x for n in ast.walk(fn) if isinstance(n, (ast.Global, ast.Nonlocal)) for x in n.names}
    return {x for x in stored - read - declared if not x.startswith("_")}


def test_library_has_no_unused_locals():
    # a local that is stored and never read is dead code, or a typo for one that is
    found = [
        f"{name}:{node.name}:{local}"
        for name, tree in _trees()
        for node in ast.walk(tree)
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        for local in sorted(_unused_locals(node))
    ]
    assert found == []


def _unused_imports(scope: ast.AST) -> set[str]:
    # the names bound by the imports of scope's own body, read nowhere in it;
    # the package's public names are bound by __getattr__, not by imports
    bound = {
        (alias.asname or alias.name).split(".")[0]
        for node in _own_nodes(scope)
        if isinstance(node, (ast.Import, ast.ImportFrom)) and getattr(node, "module", None) != "__future__"
        for alias in node.names
    }
    read = {n.id for n in ast.walk(scope) if isinstance(n, ast.Name) and not isinstance(n.ctx, ast.Store)}
    return bound - read


def test_library_has_no_unused_imports():
    # an import that nothing reads costs load time and hides what a module needs
    found = [
        f"{name}:{getattr(scope, 'name', '<module>')}:{imported}"
        for name, tree in _trees()
        for scope in ast.walk(tree)
        if isinstance(scope, (ast.Module, ast.FunctionDef, ast.AsyncFunctionDef))
        for imported in sorted(_unused_imports(scope))
    ]
    assert found == []


def _object_setattr_calls(node: ast.AST, fn: str | None = None):
    """(enclosing function name, call) for each object.__setattr__ call under node."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield from _object_setattr_calls(child, child.name)
            continue
        func = getattr(child, "func", None)
        if (
            isinstance(child, ast.Call)
            and isinstance(func, ast.Attribute)
            and func.attr == "__setattr__"
            and isinstance(func.value, ast.Name)
            and func.value.id == "object"
        ):
            yield fn, child
        yield from _object_setattr_calls(child, fn)


def test_records_write_only_declared_cache_slots():
    # records refuse assignment; object.__setattr__ gets round that, so it
    # may set fields while a record is built, and afterwards only fill the
    # cache slots that equality, hashing and pickling never read
    from arrlevels.config import _HashedOnce

    allowed = set(_HashedOnce.__slots__)
    calls = [(name, fn, call) for name, tree in _trees() for fn, call in _object_setattr_calls(tree)]
    assert any(fn != "__init__" for _, fn, _ in calls)  # the walk sees the cache writes
    found = []
    for name, fn, call in calls:
        slot = call.args[1] if len(call.args) == 3 else None
        if fn != "__init__" and not (isinstance(slot, ast.Constant) and slot.value in allowed):
            found.append(f"{name}:{call.lineno}")
    assert found == []
