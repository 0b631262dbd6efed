"""Library invariants raise typed MalleLabErrors: `python -O` strips asserts."""

import ast

from library_sources import library_modules


def test_no_assert_statements_in_the_library():
    found = {}
    for name, tree in library_modules().items():
        lines = [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Assert)]
        if lines:
            found[name] = lines
    assert found == {}
