"""Deterministic JSON reports for the CLI.

All numbers are serialized canonically: exact rationals as "p/q" strings,
integers as JSON integers.  Keys are sorted so identical inputs produce
byte-identical reports.
"""

from __future__ import annotations

import json
from fractions import Fraction
from typing import Any

SCHEMA_VERSION = 1


def canonical(value: Any) -> Any:
    """Recursively convert to JSON-serializable canonical form."""
    if isinstance(value, Fraction):
        return f"{value.numerator}/{value.denominator}"
    if isinstance(value, bool) or value is None:
        return value
    if isinstance(value, int):
        return value
    if isinstance(value, float):
        return float(f"{value:.12g}")
    if isinstance(value, str):
        return value
    if isinstance(value, dict):
        return {str(k): canonical(v) for k, v in sorted(value.items(), key=lambda kv: str(kv[0]))}
    if isinstance(value, (list, tuple)):
        return [canonical(v) for v in value]
    raise TypeError(f"cannot serialize {type(value).__name__}")


def build_report(command: str, inputs: dict, outputs: dict, warnings: list[str]) -> dict:
    return {
        "schema_version": SCHEMA_VERSION,
        "command": command,
        "inputs": canonical(inputs),
        "outputs": canonical(outputs),
        "warnings": sorted(warnings),
    }


def dump_report(report: dict) -> str:
    return json.dumps(report, sort_keys=True, indent=2) + "\n"
