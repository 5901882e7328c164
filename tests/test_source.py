import ast
from pathlib import Path

import megset


def _package_trees():
    for path in sorted(Path(megset.__file__).parent.glob("*.py")):
        yield path.name, ast.parse(path.read_text(encoding="utf-8"), str(path))


def test_package_has_no_assert_statements():
    # python -O strips assert statements, so an invariant must raise instead
    offenders = [
        f"{name}:{node.lineno}"
        for name, tree in _package_trees()
        for node in ast.walk(tree)
        if isinstance(node, ast.Assert)
    ]
    assert offenders == []


def _calls_by_name(fn, name: str) -> bool:
    for node in ast.walk(fn):
        if isinstance(node, ast.Call):
            f = node.func
            if isinstance(f, ast.Name) and f.id == name:
                return True
            if (isinstance(f, ast.Attribute) and f.attr == name
                    and isinstance(f.value, ast.Name) and f.value.id in ("self", "cls")):
                return True
    return False


def test_package_has_no_self_calls():
    # deep inputs must not hit the recursion limit, so searches keep explicit stacks
    offenders = [
        f"{name}:{node.lineno} {node.name}"
        for name, tree in _package_trees()
        for node in ast.walk(tree)
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        and _calls_by_name(node, node.name)
    ]
    assert offenders == []
