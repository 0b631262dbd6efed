"""Permutation arithmetic and cycle-notation parsing."""

import re
from itertools import count

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from malle_lab.errors import DegreeMismatch, ParseError, PointOutOfRange
from malle_lab.perms import Permutation, format_cycles, parse_cycles, product


def perm_strategy(n: int):
    return st.permutations(list(range(1, n + 1))).map(
        lambda images: Permutation(tuple(images))
    )


# degrees 1-4, so the identity turns up often
small_perms = st.integers(1, 4).flatmap(perm_strategy)

# the cycle-notation grammar, as parse_cycles' docstring states it
GRAMMAR = re.compile(r"(?:\s*(?:id|\([\d\s]*\)))*\s*")

# digit runs (0 and the Arabic-Indic three too); brackets, id, stray
# letters, a comma and the whitespace that str.split also splits on
DIGIT_RUNS = ["0", "1", "2", "3", "9", "12", "18", "123", "\u0663"]
TEXT_TOKENS = DIGIT_RUNS + ["(", ")", "()", "id", "i", "d", ",", " ", "\t", "\n", "\x1c"]

# cycles of digit runs, run together or not
cycle_texts = st.builds(
    lambda sep, runs: "(" + sep.join(runs) + ")",
    st.sampled_from(["", " ", "\t\n"]),
    st.lists(st.sampled_from(DIGIT_RUNS), max_size=4),
)
texts = st.lists(cycle_texts | st.sampled_from(TEXT_TOKENS), max_size=6).map("".join)


ORACLE_TOKEN = re.compile(r"\s*(\(|\)|\d+|id)")


def oracle_parse_cycles(text: str, degree: int) -> Permutation:
    """The token state machine that parse_cycles' grammar regex replaced.

    Whitespace-insensitive; digits inside a cycle may also be run together
    when all points are single digits, e.g. "(123)(456)".  "id" and "()"
    denote the identity.  Cycles need not be disjoint and compose left to
    right.  Raises ParseError (with position) or PointOutOfRange.
    """
    pos = 0
    cycles: list[list[int]] = []
    current: list[int] | None = None
    saw_id = False
    while pos < len(text):
        m = ORACLE_TOKEN.match(text, pos)
        if m is None:
            if text[pos:].strip() == "":
                break
            raise ParseError(f"unexpected character {text[pos:].lstrip()[0]!r}", pos)
        token = m.group(1)
        pos = m.end()
        if token == "(":
            if current is not None:
                raise ParseError("nested '('", pos - 1)
            current = []
        elif token == ")":
            if current is None:
                raise ParseError("')' without '('", pos - 1)
            cycles.append(current)
            current = None
        elif token == "id":
            if current is not None:
                raise ParseError("'id' inside a cycle", pos - len(token))
            saw_id = True
        else:
            if current is None:
                raise ParseError(f"number {token} outside a cycle", pos - len(token))
            if degree <= 9 and len(token) > 1:
                points = [int(ch) for ch in token]
            else:
                points = [int(token)]
            for point in points:
                if not 1 <= point <= degree:
                    raise PointOutOfRange(f"point {point} outside 1..{degree}")
                if point in current:
                    raise ParseError(f"point {point} repeated in cycle", pos - len(token))
                current.append(point)
    if current is not None:
        raise ParseError("unclosed '('", len(text))
    if not cycles and not saw_id and text.strip() == "":
        raise ParseError("empty input", 0)
    return Permutation.from_cycles([c for c in cycles if c], degree)


class TestBasics:
    def test_identity(self):
        e = Permutation.identity(5)
        assert e.is_identity
        assert all(e(i) == i for i in range(1, 6))

    def test_composition_left_to_right(self):
        # (1 2) then (2 3): 1 -> 2 -> 3
        a = parse_cycles("(1 2)", 3)
        b = parse_cycles("(2 3)", 3)
        assert (a * b)(1) == 3

    def test_inverse_and_pow(self):
        p = parse_cycles("(1 2 3 4)", 4)
        assert (p * p.inverse()).is_identity
        assert p**4 == Permutation.identity(4)
        assert p**-1 == p.inverse()
        assert p**0 == Permutation.identity(4)

    def test_non_bijection_is_rejected(self):
        with pytest.raises(ValueError):
            Permutation((1, 1, 3))

    def test_from_cycles_with_a_repeated_point_is_rejected(self):
        # the bijection check runs once, after the last cycle
        for cycles, degree in [([(1, 2, 1)], 3), ([(1, 3, 1)], 4), ([(1, 2), (3, 4, 3)], 4)]:
            with pytest.raises(ValueError, match="not a bijection"):
                Permutation.from_cycles(cycles, degree)

    def test_from_cycles_checks_the_range_of_every_point(self):
        for cycles in [[(1, 2), (3, 5)], [(1, 2), (0, 3)]]:
            with pytest.raises(PointOutOfRange):
                Permutation.from_cycles(cycles, 4)

    def test_parse_cycles_does_not_call_from_cycles(self, monkeypatch):
        # parse_cycles checks each point once and composes the cycles
        # itself; from_cycles keeps its checks for direct callers (above)
        def refuse(cls, cycles, degree):
            raise AssertionError("parse_cycles called from_cycles")

        monkeypatch.setattr(Permutation, "from_cycles", classmethod(refuse))
        assert parse_cycles("(1 2 3)(3 4)", 4).images == (2, 4, 1, 3)

    @given(st.lists(st.lists(st.integers(1, 8), min_size=1, max_size=8, unique=True), max_size=6))
    def test_from_cycles_is_the_product_of_its_cycles(self, cycles):
        # cycles may overlap; each one is built here without from_cycles
        singles = []
        for cycle in cycles:
            images = list(range(1, 9))
            for a, b in zip(cycle, cycle[1:] + cycle[:1]):
                images[a - 1] = b
            singles.append(Permutation(images))
        assert Permutation.from_cycles(cycles, 8) == product(singles, 8)

    def test_products_and_inverses_are_permutations(self):
        p = parse_cycles("(1 2 3)(4 5)", 5)
        q = parse_cycles("(2 5)", 5)
        for r in (p * q, p.inverse(), p**-3, Permutation.identity(5)):
            assert type(r) is Permutation
            assert sorted(r.images) == [1, 2, 3, 4, 5]
            assert Permutation(r.images) == r

    def test_conjugation_relabels_cycles(self):
        # h^-1 g h relabels the points of g through h
        g = parse_cycles("(1 2 3)", 6)
        h = parse_cycles("(14)(25)(36)", 6)
        assert g.conjugate_by(h) == parse_cycles("(4 5 6)", 6)

    def test_order_and_index(self):
        p = parse_cycles("(1 2)(3 4 5)", 6)
        assert p.order() == 6
        assert p.index() == 3  # 6 points, 3 orbits: {1,2},{3,4,5},{6}

    def test_index_of_identity_is_zero(self):
        assert Permutation.identity(7).index() == 0


class TestParsing:
    def test_three_cycle(self):
        p = parse_cycles("(1 2 3)", 6)
        assert p(1) == 2 and p(3) == 1 and p(4) == 4

    def test_paper_tau(self):
        p = parse_cycles("(14)(25)(36)", 6)
        assert p(1) == 4 and p(4) == 1 and p.order() == 2

    def test_id_literal(self):
        assert parse_cycles("id", 4).is_identity
        assert parse_cycles("()", 4).is_identity

    def test_nondisjoint_cycles_compose(self):
        # (1 2)(2 3) applied left to right: 1 -> 2 -> 3
        p = parse_cycles("(1 2)(2 3)", 3)
        assert p(1) == 3

    def test_point_out_of_range(self):
        with pytest.raises(PointOutOfRange):
            parse_cycles("(1 7)", 6)

    def test_parse_error_position(self):
        with pytest.raises(ParseError) as exc:
            parse_cycles("(1 2", 6)
        assert exc.value.position is not None

    def test_repeated_point_in_cycle(self):
        with pytest.raises(ParseError):
            parse_cycles("(1 2 1)", 6)

    def test_large_degree_needs_separators(self):
        # at degree > 9 digit runs are ambiguous, so "14" is one point
        p = parse_cycles("(1 14)", 18)
        assert p(1) == 14

    @given(
        st.sampled_from([1, 6]).flatmap(perm_strategy),
        st.lists(st.text(" \t\n\x1c", max_size=3), min_size=3, max_size=3),
    )
    def test_round_trip(self, p, gaps):
        # degree 1 prints as "id"; whitespace may stand between the cycles
        lead, between, trail = gaps
        text = lead + format_cycles(p).replace(")(", ")" + between + "(") + trail
        assert parse_cycles(text, p.degree) == p

    @given(perm_strategy(12))
    def test_round_trip_large(self, p):
        assert parse_cycles(format_cycles(p), 12) == p

    @pytest.mark.parametrize(
        "text, degree, cycles",
        [
            (text, 9, None)  # outside the grammar
            for text in ["(1 (2))", ")", "1 2", "(id)", "(1,2)", "(1 2", "i d", "", "  ", "(1 2)x"]
        ]
        + [
            ("id()", 9, []),
            ("()(1 2)\tid", 9, [(1, 2)]),
            ("(12)", 9, [(1, 2)]),  # digit by digit at degree <= 9
            ("(12)", 12, [(12,)]),  # the single point 12 above that
        ],
    )
    def test_grammar_table(self, text, degree, cycles):
        if cycles is None:
            with pytest.raises(ParseError) as exc:
                parse_cycles(text, degree)
            assert type(exc.value.position) is int
            assert 0 <= exc.value.position <= len(text)
        else:
            assert parse_cycles(text, degree) == Permutation.from_cycles(cycles, degree)

    @settings(max_examples=400)
    @given(st.sampled_from([1, 3, 9, 10, 18]), texts)
    def test_agrees_with_the_token_oracle(self, degree, text):
        def outcome(parse):
            try:
                return parse(text, degree)
            except (ParseError, PointOutOfRange) as exc:
                return type(exc)

        got, want = outcome(parse_cycles), outcome(oracle_parse_cycles)
        if not GRAMMAR.fullmatch(text) or not text.strip():
            # the grammar is checked before any point is read
            assert got is ParseError
            assert want in (ParseError, PointOutOfRange)
        else:
            assert got == want


class TestAlgebra:
    @given(perm_strategy(5), perm_strategy(5), perm_strategy(5))
    def test_associativity(self, a, b, c):
        assert (a * b) * c == a * (b * c)

    @given(perm_strategy(5), perm_strategy(5))
    def test_inverse_of_product(self, a, b):
        assert (a * b).inverse() == b.inverse() * a.inverse()

    @given(perm_strategy(5), perm_strategy(5))
    def test_conjugation_is_homomorphism(self, g, h):
        assert (g * g).conjugate_by(h) == g.conjugate_by(h) * g.conjugate_by(h)

    @given(perm_strategy(6))
    def test_index_additive_over_cycles(self, p):
        # ind = sum over cycles of (length - 1)
        assert p.index() == sum(len(c) - 1 for c in p.cycles())

    @given(perm_strategy(6), perm_strategy(6))
    def test_conjugate_by_is_h_inverse_g_h(self, g, h):
        # conjugate_by composes images in one pass; this is its definition
        assert g.conjugate_by(h) == h.inverse() * g * h

    @given(perm_strategy(7))
    def test_index_is_degree_minus_orbits(self, p):
        assert p.index() == p.degree - len(p.cycles(include_fixed=True))

    @given(small_perms)
    def test_is_identity_is_equality_with_the_identity(self, p):
        assert p.is_identity == (p == Permutation.identity(p.degree))

    @given(perm_strategy(7), st.integers(-60, 60))
    def test_pow_is_repeated_multiplication(self, p, k):
        # p**k is k copies of p, or |k| of its inverse, multiplied left to
        # right; the empty product (k = 0) is the identity
        base = p if k >= 0 else p.inverse()
        assert p**k == product([base] * abs(k), degree=7)

    @given(perm_strategy(7))
    def test_order_is_the_least_power_giving_the_identity(self, p):
        identity = Permutation.identity(7)
        assert p.order() == next(k for k in count(1) if p**k == identity)

    def test_mixed_degrees_raise(self):
        p, q = parse_cycles("(1 2)", 3), parse_cycles("(1 2)", 4)
        for a, b in ((p, q), (q, p)):
            with pytest.raises(DegreeMismatch):
                a * b
            with pytest.raises(DegreeMismatch):
                a.conjugate_by(b)

    def test_product_helper(self):
        ps = [parse_cycles(s, 3) for s in ("(1 2)", "(1 2)", "(1 2 3)")]
        assert product(ps, 3) == parse_cycles("(1 2 3)", 3)
        assert product([], 3).is_identity
