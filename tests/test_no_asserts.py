"""Library invariants raise typed exceptions: `python -O` strips `assert`."""

import ast
from pathlib import Path

import streamfec

SRC = Path(streamfec.__file__).resolve().parent


def test_library_has_no_assert_statements():
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(SRC.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Assert)
    ]
    assert found == []
