"""Deterministic JSON reports for the CLI.

All numbers are serialized canonically: exact rationals as "p/q" strings,
integers as JSON integers, floats rounded to 12 significant digits.  Keys
are turned into strings and sorted, so identical inputs produce
byte-identical reports.

`dump_report` writes a report in one walk: it canonicalises each value as
it indents it.  The text is `json.dumps(canonical(report), sort_keys=True,
indent=2) + "\n"` for the canonical form `tests/test_report.py` spells
out, but `json.dumps` with an indent leaves CPython's C encoder for the
pure-Python one and would need a second walk (docs/decisions.md, "One
walk per report").
"""

from __future__ import annotations

from fractions import Fraction
from json.encoder import encode_basestring_ascii
from typing import Any

SCHEMA_VERSION = 1


def build_report(command: str, inputs: dict, outputs: dict, warnings: list[str]) -> dict:
    return {
        "schema_version": SCHEMA_VERSION,
        "command": command,
        "inputs": inputs,
        "outputs": outputs,
        "warnings": sorted(warnings),
    }


def dump_report(report: dict) -> str:
    """The report as indented canonical JSON, with a final newline.  Raises
    TypeError on a value that is not a str, int, float, Fraction, bool,
    None, dict, list or tuple, and on two keys of one dict with the same
    str()."""
    out: list[str] = []
    _write(report, "\n", out)
    out.append("\n")
    return "".join(out)


def _write(value: Any, newline: str, out: list[str]) -> None:
    """Append the canonical JSON of value to out; newline is "\\n" and the
    indent of the line value starts on."""
    cls = type(value)
    if cls is str:
        out.append(encode_basestring_ascii(value))
    elif cls is int:
        out.append(int.__repr__(value))
    elif cls is dict:
        _write_dict(value, newline, out)
    elif cls is list or cls is tuple:
        _write_list(value, newline, out)
    elif value is True or value is False or value is None:
        out.append("true" if value else "false" if value is False else "null")
    # the other types, and subclasses of the four above
    elif isinstance(value, Fraction):
        out.append(f'"{value.numerator}/{value.denominator}"')
    elif isinstance(value, int):
        out.append(int.__repr__(value))
    elif isinstance(value, float):
        # json writes a non-finite float as NaN, Infinity or -Infinity
        text = float.__repr__(float(f"{value:.12g}"))
        out.append({"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}.get(text, text))
    elif isinstance(value, str):
        out.append(encode_basestring_ascii(value))
    elif isinstance(value, dict):
        _write_dict(value, newline, out)
    elif isinstance(value, (list, tuple)):
        _write_list(value, newline, out)
    else:
        raise TypeError(f"cannot serialize {cls.__name__}")


def _write_dict(value: dict, newline: str, out: list[str]) -> None:
    if not value:
        out.append("{}")
        return
    keyed = {str(k): v for k, v in value.items()}
    if len(keyed) != len(value):
        raise TypeError(f"keys collide as strings: {sorted(map(repr, value))}")
    inner = newline + "  "
    sep = "{" + inner
    for key in sorted(keyed):
        out.append(sep + encode_basestring_ascii(key) + ": ")
        _write(keyed[key], inner, out)
        sep = "," + inner
    out.append(newline + "}")


def _write_list(value: list | tuple, newline: str, out: list[str]) -> None:
    if not value:
        out.append("[]")
        return
    inner = newline + "  "
    sep = "[" + inner
    for item in value:
        out.append(sep)
        _write(item, inner, out)
        sep = "," + inner
    out.append(newline + "]")
