"""No frozen dataclass holds state that is filled after it is built.

A frozen dataclass is a value: equal fields, equal objects.  A
`field(init=False, default_factory=...)` on one is a store that starts
empty and fills later, hidden from equality and at odds with
`dataclasses.replace`, which either starts it empty or hands the copy
state that describes the old fields.  Caches belong on `FiniteGroup`,
which owns the class rows, or in the bounded memos.
"""

import ast

from library_sources import library_modules, ref_name


def _keyword(call: ast.Call, name: str) -> ast.expr | None:
    return next((kw.value for kw in call.keywords if kw.arg == name), None)


def _is_frozen_dataclass(cls: ast.ClassDef) -> bool:
    for d in cls.decorator_list:
        if isinstance(d, ast.Call) and ref_name(d) == "dataclass":
            frozen = _keyword(d, "frozen")
            if isinstance(frozen, ast.Constant) and frozen.value is True:
                return True
    return False


def lazy_fields(tree: ast.Module) -> list[tuple[int, str]]:
    """(line, Class.field) of each init=False field with a default_factory
    in a frozen dataclass of tree, by line."""
    found = []
    for cls in ast.walk(tree):
        if not isinstance(cls, ast.ClassDef) or not _is_frozen_dataclass(cls):
            continue
        for stmt in cls.body:
            if not (isinstance(stmt, ast.AnnAssign) and isinstance(stmt.value, ast.Call)):
                continue
            call = stmt.value
            init = _keyword(call, "init")
            if (
                ref_name(call) == "field"
                and isinstance(init, ast.Constant)
                and init.value is False
                and _keyword(call, "default_factory") is not None
            ):
                found.append((stmt.lineno, f"{cls.name}.{ast.unparse(stmt.target)}"))
    return sorted(found)


def test_the_lint_tells_lazy_fields_from_values():
    source = """
@dataclass(frozen=True)
class Bad:
    ok_value: int
    ok_default: dict = field(default_factory=dict)
    ok_made_in_post_init: dict = field(init=False, compare=False)
    bad_rows: dict = field(default_factory=dict, init=False, compare=False)

@dataclasses.dataclass(frozen=True, eq=False)
class AlsoBad:
    bad_list: list = dataclasses.field(init=False, repr=False, default_factory=list)

@dataclass
class NotFrozen:
    ok_rows: dict = field(default_factory=dict, init=False)

@dataclass(frozen=False)
class FrozenFalse:
    ok_rows: dict = field(default_factory=dict, init=False)
"""
    lines = source.splitlines()
    bad = [n for n, line in enumerate(lines, 1) if line.strip().startswith("bad_")]
    found = lazy_fields(ast.parse(source))
    assert found == [(bad[0], "Bad.bad_rows"), (bad[1], "AlsoBad.bad_list")], found


def test_no_frozen_dataclass_in_the_library_has_a_lazy_field():
    found = []
    for module, tree in library_modules().items():
        found += [f"{module}:{line} {name}" for line, name in lazy_fields(tree)]
    assert found == []
