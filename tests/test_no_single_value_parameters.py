"""Every defaulted parameter of the library is set by some caller.

A default that no call in `src/`, `bench/` or `demos/` overrides is a
parameter that only one value reaches: a constant dressed as an option,
such as a `canonical_only` flag left behind once its other mode is gone.
Calls from the tests do not count, since a test can exercise a mode that
nothing else uses.  Calls are matched by the function's name (a class
name for `__init__`), so two functions of one name share their callers.
"""

import ast

from library_sources import ROOT, SOURCE_DIR, library_modules

CALLER_DIRS = [SOURCE_DIR, ROOT / "bench", ROOT / "demos"]


def defaults(node: ast.FunctionDef, name: str, bound: bool) -> list[tuple[str, str, int | None, int]]:
    """(name, parameter, position in a call or None, line) of each default of node.

    Positions count the arguments a call passes, so a bound method's self
    or cls is not one of them.
    """
    args = node.args
    positional = (args.posonlyargs + args.args)[1 if bound else 0 :]
    first = len(positional) - len(args.defaults)
    out = [(name, p.arg, i, node.lineno) for i, p in enumerate(positional) if i >= first]
    out += [
        (name, p.arg, None, node.lineno)
        for p, default in zip(args.kwonlyargs, args.kw_defaults)
        if default is not None
    ]
    return out


def defaulted_parameters(tree: ast.Module) -> list[tuple[str, str, int | None, int]]:
    """The defaults of each module-level function and method.

    A class's __init__ is called by the class's name.
    """
    found = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            found += defaults(node, node.name, bound=False)
        elif isinstance(node, ast.ClassDef):
            for sub in node.body:
                if isinstance(sub, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    static = any(getattr(d, "id", None) == "staticmethod" for d in sub.decorator_list)
                    name = node.name if sub.name == "__init__" else sub.name
                    found += defaults(sub, name, bound=not static)
    return found


def overridden(calls: list[ast.Call], name: str, parameter: str, position: int | None) -> bool:
    for call in calls:
        func = call.func
        if (func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)) != name:
            continue
        if any(k.arg in (parameter, None) for k in call.keywords):
            return True
        if position is not None and (
            len(call.args) > position or any(isinstance(a, ast.Starred) for a in call.args)
        ):
            return True
    return False


def calls_in(paths) -> list[ast.Call]:
    return [
        node
        for path in paths
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.Call)
    ]


def single_value_parameters(sources: dict[str, ast.Module], calls: list[ast.Call]) -> list[str]:
    """`module:line name(parameter)` of each default that no call overrides."""
    return [
        f"{module}:{line} {name}({parameter})"
        for module, tree in sources.items()
        for name, parameter, position, line in defaulted_parameters(tree)
        if not overridden(calls, name, parameter, position)
    ]


def test_a_default_no_caller_sets_is_reported():
    source = ast.parse(
        "def f(a, b=1, *, c=2): ...\n"
        "class K:\n"
        "    def __init__(self, x=0): ...\n"
        "    def m(self, y=0): ...\n"
        "f(0, 5)\nK()\nobj.m(y=1)\n"
    )
    calls = [n for n in ast.walk(source) if isinstance(n, ast.Call)]
    assert single_value_parameters({"m.py": source}, calls) == ["m.py:1 f(c)", "m.py:3 K(x)"]


def test_every_default_has_a_caller_that_sets_it():
    sources = library_modules()
    calls = calls_in(path for d in CALLER_DIRS for path in sorted(d.rglob("*.py")))
    assert single_value_parameters(sources, calls) == []
