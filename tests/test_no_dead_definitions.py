"""Every module-level function and class of the library is used.

A definition counts as used when its name is read anywhere in the library
outside its own body (as a name, an attribute or inside a string
annotation).  A re-export from `__init__.py` counts only when a reader
outside the library and its tests reads the name: `bench/*.py`,
`demos/*.py` or the README's `## Library tour` block.  A helper whose last
caller is gone, such as a `coset_order` left behind once the cosets are
numbered in one table, fails here, and so does an export that only a test
reads: that code belongs in the tests.
"""

import ast

from library_sources import ROOT, library_modules
from test_readme import tour_block


def definitions(tree: ast.Module) -> list[ast.AST]:
    return [
        node
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
    ]


def read_names(node: ast.AST) -> set[str]:
    names = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            names.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            names.add(sub.attr)
        elif isinstance(sub, ast.Constant) and isinstance(sub.value, str):
            try:
                names |= read_names(ast.parse(sub.value, mode="eval"))
            except SyntaxError:
                pass
    return names


def exported_names(tree: ast.Module) -> set[str]:
    return {
        alias.asname or alias.name
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    }


def test_string_annotations_and_attributes_count_as_reads():
    tree = ast.parse("def f(a: 'list[A]') -> None:\n    return m.g(b)\n")
    assert {"A", "g", "b"} <= read_names(tree)
    assert "f" not in read_names(tree.body[0].args) | read_names(tree.body[0].body[0])


def unread_definitions(modules: dict[str, ast.Module]) -> list[str]:
    """`module:line name` of each definition no other top-level statement reads."""
    readers: dict[str, list[ast.AST]] = {}
    for tree in modules.values():
        for top in tree.body:
            for name in read_names(top):
                readers.setdefault(name, []).append(top)
    return [
        f"{module}:{node.lineno} {node.name}"
        for module, tree in modules.items()
        for node in definitions(tree)
        if all(top is node for top in readers.get(node.name, []))
    ]


def unused_definitions(modules: dict[str, ast.Module], outside: set[str]) -> list[str]:
    """The unread definitions of modules that `__init__.py` does not export
    to a reader of the names in outside."""
    modules = dict(modules)
    exported = exported_names(modules.pop("__init__.py")) & outside
    return [d for d in unread_definitions(modules) if d.split()[-1] not in exported]


def outside_reads() -> set[str]:
    """The names that bench/*.py, demos/*.py and the README's library tour read."""
    paths = [path for d in ("bench", "demos") for path in sorted((ROOT / d).glob("*.py"))]
    texts = [path.read_text() for path in paths]
    assert len(texts) > 2, "no bench or demo scripts found"
    return set().union(*(read_names(ast.parse(text)) for text in texts + [tour_block()]))


def test_an_export_counts_only_when_read_outside_the_library_and_its_tests():
    modules = {
        "__init__.py": ast.parse("from .m import f, g, h\n"),
        "m.py": ast.parse("def f():\n    pass\n\n\ndef g():\n    pass\n\n\ndef h():\n    pass\n"),
    }
    # bench, demos and the tour read g and h; only a test reads f
    outside = read_names(ast.parse("from malle_lab import g, m\ng()\nm.h()\n"))
    assert unused_definitions(modules, outside) == ["m.py:1 f"]
    assert unused_definitions(modules, outside | {"f"}) == []


def test_every_definition_is_used_or_exported():
    assert unused_definitions(library_modules(), outside_reads()) == []
