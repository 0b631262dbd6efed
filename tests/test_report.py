"""report.dump_report writes what json.dumps writes of the canonical form,
in one walk."""

import json
import math
from enum import IntEnum
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from malle_lab.report import build_report, dump_report
from test_golden import GOLDEN, GROUP_FILES


def canonical(value):
    """The JSON-serializable canonical form of value: the oracle the
    one-walk writer is checked against."""
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


def oracle_dump(value) -> str:
    return json.dumps(canonical(value), sort_keys=True, indent=2) + "\n"


class Level(IntEnum):
    """An int subclass whose repr is not its digits."""

    LOW = 1
    HIGH = 12


leaves = st.one_of(
    st.fractions(),
    st.booleans(),
    st.integers(),
    st.none(),
    st.floats(),
    st.sampled_from([-0.0, 1e16, 0.1 + 0.2, math.nan, math.inf, -math.inf]),
    st.text(),
    st.sampled_from(["é", "ü∞", "日本", "\U0001d53d_q", '"\\\n\t']),
    st.sampled_from(list(Level)),
)
keys = st.one_of(st.text(), st.integers(), st.sampled_from(["é", "日本", 1, -1, 10, 2]))
values = st.recursive(
    leaves,
    lambda children: st.one_of(
        st.lists(children, max_size=4),
        st.lists(children, max_size=4).map(tuple),
        st.dictionaries(keys, children, max_size=4).filter(
            lambda d: len({str(k) for k in d}) == len(d)
        ),
    ),
    max_leaves=20,
)


@settings(max_examples=400, deadline=None)
@given(values)
def test_one_walk_writes_what_json_writes_of_the_canonical_form(value):
    assert dump_report(value) == oracle_dump(value)


@pytest.mark.parametrize(
    "value, text",
    [
        ({}, "{}"),
        ([], "[]"),
        ((), "[]"),
        ({"a": {}, "b": [[], ()]}, '{\n  "a": {},\n  "b": [\n    [],\n    []\n  ]\n}'),
        (Fraction(-3, 6), '"-1/2"'),
        (Level.HIGH, "12"),
        ([True, False, None], "[\n  true,\n  false,\n  null\n]"),
        (-0.0, "-0.0"),
        (1e16, "1e+16"),
        (2 / 3, "0.666666666667"),
        ([math.nan, math.inf, -math.inf], "[\n  NaN,\n  Infinity,\n  -Infinity\n]"),
        ({10: 1, 9: 2}, '{\n  "10": 1,\n  "9": 2\n}'),
        ("F_q ∋ é", '"F_q \\u220b \\u00e9"'),
    ],
)
def test_pinned_texts(value, text):
    assert dump_report(value) == text + "\n" == oracle_dump(value)


def test_keys_that_collide_as_strings_are_refused():
    # the canonical form keeps one of the two values and drops the other
    with pytest.raises(TypeError, match="keys collide as strings"):
        dump_report({"outputs": {1: "int key", "1": "str key"}})


@pytest.mark.parametrize("value", [{1, 2}, b"bytes", object(), 1j])
def test_other_types_are_refused(value):
    with pytest.raises(TypeError, match="cannot serialize"):
        dump_report(build_report("invariants", {"q": 5}, {"x": [value]}, []))


def test_build_report_leaves_the_values_to_the_writer():
    report = build_report("series", {"q": 5}, {"coefficients": {10: 3, 2: 1}}, ["b", "a"])
    assert report == {
        "schema_version": 1,
        "command": "series",
        "inputs": {"q": 5},
        "outputs": {"coefficients": {10: 3, 2: 1}},
        "warnings": ["a", "b"],
    }
    assert dump_report(report) == oracle_dump(report)


GOLDEN_REPORTS = sorted(p for p in GOLDEN.glob("*.json") if p.stem not in GROUP_FILES)


@pytest.mark.parametrize("path", GOLDEN_REPORTS, ids=[p.stem for p in GOLDEN_REPORTS])
def test_golden_reports_round_trip(path: Path):
    text = path.read_text()
    assert dump_report(json.loads(text)) == text
