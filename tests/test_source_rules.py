"""Source-level rules the package keeps."""

import ast
from pathlib import Path

SOURCES = sorted((Path(__file__).resolve().parents[1] / "src" / "clinpol").glob("*.py"))


def test_sources_are_found():
    assert len(SOURCES) >= 10


def test_no_assert_statements_in_the_package():
    # python -O strips asserts, so an invariant the package relies on must
    # raise explicitly instead
    found = [f"{path.name}:{node.lineno}"
             for path in SOURCES
             for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
             if isinstance(node, ast.Assert)]
    assert found == []
