"""The README's library tour runs, and its stated values hold.

Every `expr  # value` line of the `## Library tour` block whose comment
starts with an integer or a `Fraction(p, q)` is checked: after the whole
block has run, `expr` must evaluate to that value.  Every
`module.NAME = value` that the `## Limits` section states must be the
value of that module constant.
"""

import ast
import importlib
import re
from fractions import Fraction
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"
VALUE = re.compile(r"Fraction\(-?\d+, \d+\)|-?\d+(?![\w./])")


def tour_block() -> str:
    return README.read_text().split("## Library tour", 1)[1].split("```python\n", 1)[1].split("```", 1)[0]


def stated_values(block: str) -> list[tuple[str, str]]:
    """(expression, value) for each line whose comment starts with a value."""
    out = []
    for line in block.splitlines():
        code, _, comment = line.partition("#")
        value = VALUE.match(comment.strip())
        if not value:
            continue
        try:
            ast.parse(code.strip(), mode="eval")
        except SyntaxError:
            continue  # an assignment or statement states no value
        out.append((code.strip(), value.group()))
    return out


def test_library_tour_runs_and_its_values_hold():
    block = tour_block()
    namespace: dict = {}
    exec(block, namespace)
    checked = stated_values(block)
    assert checked
    for expr, value in checked:
        assert eval(expr, namespace) == eval(value, {"Fraction": Fraction}), expr


def limits_section() -> str:
    return README.read_text().split("## Limits", 1)[1].split("\n## ", 1)[0]


def test_limits_state_the_module_constants():
    stated = re.findall(r"`(\w+)\.([A-Z_]+) = ([^`]+)`", limits_section())
    assert {name for _, name, _ in stated} == {
        "ORDER_CAP",
        "NODE_CAP",
        "VISITED_CAP",
        "LATTICE_CAP",
        "GROUP_CACHE_SIZE",
        "MILLER_RABIN_LIMIT",
    }
    for module, name, value in stated:
        actual = getattr(importlib.import_module(f"malle_lab.{module}"), name)
        assert actual == eval(value, {}), f"{module}.{name}"
