"""Every name a library module imports is used in that module.

`__init__.py` is skipped: its imports are the package's re-exports.  A name
that appears only inside a string annotation ("ConjugacyClass") counts as
used.
"""

import ast

from library_sources import library_modules


def imported_names(tree: ast.Module) -> dict[str, int]:
    """Bound name -> line, for every import except `from __future__`."""
    names = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                names[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                names[alias.asname or alias.name] = node.lineno
    return names


def annotations(tree: ast.AST):
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            annotation = node.returns
        elif isinstance(node, (ast.arg, ast.AnnAssign)):
            annotation = node.annotation
        else:
            continue
        if annotation is not None:
            yield annotation


def used_names(tree: ast.AST) -> set[str]:
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for annotation in annotations(tree):
        for node in ast.walk(annotation):
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                used |= used_names(ast.parse(node.value, mode="eval"))
    return used


def test_string_annotations_count_as_used():
    tree = ast.parse("from x import A, B, C\ndef f(a: 'list[A]') -> 'B': pass\n")
    assert set(imported_names(tree)) - used_names(tree) == {"C"}


def test_no_unused_imports_in_the_library():
    modules = library_modules()
    del modules["__init__.py"]
    found = {}
    for module, tree in modules.items():
        used = used_names(tree)
        unused = sorted(
            f"{name} (line {line})"
            for name, line in imported_names(tree).items()
            if name not in used
        )
        if unused:
            found[module] = unused
    assert found == {}
