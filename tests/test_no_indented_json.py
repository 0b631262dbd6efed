"""No `json.dump` or `json.dumps` call with an `indent` keyword in the library.

With `indent` set, CPython's `json` leaves its C encoder for the
pure-Python one.  Reports are indented by `report.dump_report`, which
canonicalises and indents in one walk (docs/decisions.md, "One walk per
report").
"""

import ast

from library_sources import library_modules, ref_name

DUMPERS = {"dump", "dumps"}


def indented_dumps(tree: ast.Module) -> list[int]:
    """Line of each dump/dumps call in tree that passes `indent`, by line."""
    return sorted(
        node.lineno
        for node in ast.walk(tree)
        if isinstance(node, ast.Call)
        and ref_name(node) in DUMPERS
        and any(kw.arg == "indent" for kw in node.keywords)
    )


def test_the_lint_finds_indented_dumps():
    source = """
import json
from json import dumps
json.dumps(report, sort_keys=True)
json.dump(report, fh)
text = json.dumps(report, sort_keys=True, indent=2)  # bad
json.dump(report, fh, indent=1)  # bad
dumps(report, indent=4)  # bad
print(json.dumps({"error": str(exc)}), file=sys.stderr)
loads(text, indent=2)
"""
    bad = [n for n, line in enumerate(source.splitlines(), 1) if line.endswith("# bad")]
    assert indented_dumps(ast.parse(source)) == bad


def test_no_library_module_indents_with_json():
    found = []
    for module, tree in library_modules().items():
        found += [f"{module}:{line}" for line in indented_dumps(tree)]
    assert found == []
