"""What the tests/test_no_*.py lints share: the library's modules, parsed,
and the name a decorator or call refers to."""

import ast
from pathlib import Path

ROOT = Path(__file__).parent.parent
SOURCE_DIR = ROOT / "src" / "malle_lab"


def library_modules() -> dict[str, ast.Module]:
    """File name -> parsed module, for every module of the library, by file name."""
    paths = sorted(SOURCE_DIR.glob("*.py"))
    assert paths, f"no modules found under {SOURCE_DIR}"
    return {path.name: ast.parse(path.read_text(), filename=str(path)) for path in paths}


def ref_name(node: ast.expr) -> str | None:
    """The last name of node, or of the function node calls: `f` for `f`,
    `m.f`, `f(...)` and `m.f(...)`; None for anything else."""
    if isinstance(node, ast.Call):
        node = node.func
    if isinstance(node, ast.Attribute):
        return node.attr
    if isinstance(node, ast.Name):
        return node.id
    return None
