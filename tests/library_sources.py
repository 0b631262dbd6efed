"""What the tests/test_no_*.py lints and conftest.py share: the library's
modules, parsed or imported, its memos, and the name a decorator or call
refers to."""

import ast
import importlib
from pathlib import Path

ROOT = Path(__file__).parent.parent
SOURCE_DIR = ROOT / "src" / "malle_lab"


def library_modules() -> dict[str, ast.Module]:
    """File name -> parsed module, for every module of the library, by file name."""
    paths = sorted(SOURCE_DIR.glob("*.py"))
    assert paths, f"no modules found under {SOURCE_DIR}"
    return {path.name: ast.parse(path.read_text(), filename=str(path)) for path in paths}


def library_module(file_name: str):
    """The imported library module of a file name such as `groups.py`."""
    stem = Path(file_name).stem
    return importlib.import_module("malle_lab" if stem == "__init__" else f"malle_lab.{stem}")


def library_memos() -> dict[str, object]:
    """`module.name` -> memo, for every module-level function of the library
    that has cache_clear (an lru_cache or cache), by name.  A memo imported
    into another module is listed once, under the module that defines it."""
    memos = {}
    for file_name in sorted(path.name for path in SOURCE_DIR.glob("*.py")):
        module = library_module(file_name)
        for name, value in vars(module).items():
            if hasattr(value, "cache_clear") and getattr(value, "__module__", None) == module.__name__:
                memos[f"{Path(file_name).stem}.{name}"] = value
    return memos


def clear_library_memos() -> None:
    for memo in library_memos().values():
        memo.cache_clear()


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
