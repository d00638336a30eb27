"""Checks on the library source itself."""

import ast
from pathlib import Path

import g1min


def test_no_assert_statements_in_library():
    # `python -O` strips assert statements, so correctness checks must raise
    found = []
    for path in sorted(Path(g1min.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Assert):
                found.append(f"{path.name}:{node.lineno}")
    assert found == []
