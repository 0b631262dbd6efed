"""Every module-level function and class of the library is used.

A definition counts as used when its name is read anywhere in the library
outside its own body (as a name, an attribute or inside a string
annotation), or when `__init__.py` re-exports it.  A helper whose last
caller is gone, such as a `coset_order` left behind once the cosets are
numbered in one table, fails here.
"""

import ast

from library_sources import library_modules


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


def test_every_definition_is_used_or_exported():
    modules = library_modules()
    exported = exported_names(modules.pop("__init__.py"))
    assert [d for d in unread_definitions(modules) if d.split()[-1] not in exported] == []
