"""No memo decorator on a method: such a cache keys on `self` and keeps every instance alive."""

import ast

from library_sources import library_modules, ref_name

MEMO_DECORATORS = {"lru_cache", "cache"}


def test_no_memo_decorator_on_a_method():
    found = []
    for module, tree in library_modules().items():
        for cls in ast.walk(tree):
            if not isinstance(cls, ast.ClassDef):
                continue
            for fn in ast.walk(cls):
                if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)) and any(
                    ref_name(d) in MEMO_DECORATORS for d in fn.decorator_list
                ):
                    found.append(f"{module}:{fn.lineno} {cls.name}.{fn.name}")
    assert found == []
