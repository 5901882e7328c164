import ast
from pathlib import Path

import megset


def test_package_has_no_assert_statements():
    # python -O strips assert statements, so an invariant must raise instead
    offenders = [
        f"{path.name}:{node.lineno}"
        for path in sorted(Path(megset.__file__).parent.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert offenders == []
