"""Every memo in the library is bounded.

An `lru_cache` states an integer `maxsize`, as a literal or a module
constant; a bare `@lru_cache` or `maxsize=None` fails.  `functools.cache`
never drops an entry, so it is allowed only on a function without
parameters, which has a single entry.
"""

import ast
from typing import Mapping

from library_sources import library_module, library_modules, ref_name


def _maxsize(call: ast.Call, constants: Mapping[str, object]) -> object:
    """The maxsize an lru_cache(...) call states, or None."""
    node = next((kw.value for kw in call.keywords if kw.arg == "maxsize"), None)
    if node is None and call.args:
        node = call.args[0]
    if isinstance(node, ast.Constant):
        return node.value
    if isinstance(node, ast.Name):
        return constants.get(node.id)
    return None


def unbounded_caches(tree: ast.Module, constants: Mapping[str, object]) -> list[tuple[int, str]]:
    """(line, reason) of each unbounded memo in tree, by line; names in a
    maxsize resolve in constants."""
    found = []
    for fn in ast.walk(tree):
        if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        a = fn.args
        takes_parameters = bool(a.posonlyargs or a.args or a.vararg or a.kwonlyargs or a.kwarg)
        for d in fn.decorator_list:
            if ref_name(d) == "cache" and takes_parameters:
                found.append((d.lineno, f"cache on {fn.name}, which takes parameters"))
            elif ref_name(d) == "lru_cache" and not isinstance(d, ast.Call):
                found.append((d.lineno, "lru_cache without maxsize"))
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        if ref_name(node) == "lru_cache":
            size = _maxsize(node, constants)
            if type(size) is not int:
                found.append((node.lineno, f"lru_cache with maxsize {size!r}"))
        elif ref_name(node) == "cache":  # `@cache` is no call; `cache(f)` is
            found.append((node.lineno, "cache called on a function"))
    return sorted(found)


def test_the_lint_tells_bounded_from_unbounded():
    source = """
SIZE = 8
NONE = None

@lru_cache(maxsize=SIZE)
def ok_constant(x): ...

@functools.lru_cache(16)
def ok_literal(x): ...

@cache
def ok_nullary(): ...

@lru_cache(maxsize=None)
def bad_none(x): ...

@lru_cache(maxsize=NONE)
def bad_none_constant(x): ...

@lru_cache
def bad_bare(x): ...

@functools.cache
def bad_cache(x): ...

@cache
def bad_cache_keyword(*, x): ...

bad_call = lru_cache(None)(ok_constant)
bad_cache_call = cache(ok_constant)
"""
    lines = source.splitlines()
    # one finding per bad case: on the decorator above `def bad_...`, or on a `bad_` assignment
    bad = [
        n
        for n, line in enumerate(lines, 1)
        if line.startswith("bad_") or (n < len(lines) and lines[n].startswith("def bad_"))
    ]
    found = unbounded_caches(ast.parse(source), {"SIZE": 8, "NONE": None})
    assert [line for line, _ in found] == bad, found
    assert len(bad) == 7


def test_every_cache_in_the_library_is_bounded():
    found = []
    for file_name, tree in library_modules().items():
        module = library_module(file_name)
        found += [f"{file_name}:{line} {why}" for line, why in unbounded_caches(tree, vars(module))]
    assert found == []
