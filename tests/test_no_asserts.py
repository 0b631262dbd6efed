"""Library invariants raise typed MalleLabErrors: `python -O` strips asserts."""

import ast
from pathlib import Path

SOURCE_DIR = Path(__file__).parent.parent / "src" / "malle_lab"


def test_no_assert_statements_in_the_library():
    sources = sorted(SOURCE_DIR.glob("*.py"))
    assert sources, f"no modules found under {SOURCE_DIR}"
    found = {}
    for path in sources:
        tree = ast.parse(path.read_text(), filename=str(path))
        lines = [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Assert)]
        if lines:
            found[path.name] = lines
    assert found == {}
