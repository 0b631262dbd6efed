"""No memo decorator on a method: such a cache keys on `self` and keeps every instance alive."""

import ast
from pathlib import Path

SOURCE_DIR = Path(__file__).parent.parent / "src" / "malle_lab"
MEMO_DECORATORS = {"lru_cache", "cache"}


def _decorator_name(node: ast.expr) -> str | None:
    if isinstance(node, ast.Call):
        node = node.func
    if isinstance(node, ast.Attribute):
        return node.attr
    if isinstance(node, ast.Name):
        return node.id
    return None


def test_no_memo_decorator_on_a_method():
    sources = sorted(SOURCE_DIR.glob("*.py"))
    assert sources, f"no modules found under {SOURCE_DIR}"
    found = []
    for path in sources:
        tree = ast.parse(path.read_text(), filename=str(path))
        for cls in ast.walk(tree):
            if not isinstance(cls, ast.ClassDef):
                continue
            for fn in ast.walk(cls):
                if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)) and any(
                    _decorator_name(d) in MEMO_DECORATORS for d in fn.decorator_list
                ):
                    found.append(f"{path.name}:{fn.lineno} {cls.name}.{fn.name}")
    assert found == []
