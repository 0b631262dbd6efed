"""Twisted class orbits, b-constants, and the cyclotomic variant."""

from fractions import Fraction

import pytest

from malle_lab.errors import (
    BadModulus,
    InvariantViolation,
    NotAHomomorphism,
    NotSplit,
)
from malle_lab.groups import closure, find_cyclic_complement
from malle_lab.invariants import (
    FunctionField,
    RationalNumberField,
    TwistSpec,
    asymptotic_prediction,
    b_constant,
    b_e,
    b_phi,
    b_report,
    minimal_index_classes,
    orbit_blocks,
    render_growth,
    revised_b,
    twist_class,
)
from malle_lab.perms import parse_cycles


def klueners():
    gens = [parse_cycles(s, 6) for s in ("(1 2 3)", "(4 5 6)", "(14)(25)(36)")]
    return closure(gens, 6)


def klueners_g1(N):
    return closure([parse_cycles("(1 2 3)", 6), parse_cycles("(4 5 6)", 6)], 6)


class TestMinimalClasses:
    def test_s3_minimal_is_transpositions(self):
        G = closure([parse_cycles("(1 2)", 3), parse_cycles("(1 2 3)", 3)], 3)
        classes = minimal_index_classes(G)
        assert len(classes) == 1
        assert classes[0].size == 3 and classes[0].index == 1

    def test_g1_minimal_classes(self):
        N = klueners()
        G1 = klueners_g1(N)
        classes = minimal_index_classes(G1)
        # the four single 3-cycles, each its own class in the abelian G1
        assert len(classes) == 4
        assert all(c.index == 2 for c in classes)


class TestTwist:
    def test_twist_orbit_structure_g1_q5(self):
        # q = 5: c -> c^{-1} twisted through tau, pairing (123) <-> (465)
        N = klueners()
        G1 = klueners_g1(N)
        ctx = find_cyclic_complement(N, G1)
        spec = TwistSpec(q=5, e=1, ctx=ctx)
        c = G1.class_of(parse_cycles("(1 2 3)", 6))
        image = twist_class(c, spec)
        assert image.representative == parse_cycles("(4 6 5)", 6)
        # applying the twist twice returns to the start (order-2 orbit)
        assert twist_class(image, spec) == c

    def test_twist_permutes_classes(self):
        N = klueners()
        G1 = klueners_g1(N)
        ctx = find_cyclic_complement(N, G1)
        spec = TwistSpec(q=5, e=1, ctx=ctx)
        classes = [c for c in G1.conjugacy_classes() if not c.is_trivial]
        images = {twist_class(c, spec).class_id for c in classes}
        assert images == {c.class_id for c in classes}

    def test_twist_preserves_index(self):
        N = klueners()
        G1 = klueners_g1(N)
        ctx = find_cyclic_complement(N, G1)
        spec = TwistSpec(q=5, e=1, ctx=ctx)
        for c in G1.conjugacy_classes():
            if c.is_trivial:
                continue
            assert twist_class(c, spec).index == c.index

    def test_inadmissible_e_rejected(self):
        N = klueners()
        G1 = klueners_g1(N)
        ctx = find_cyclic_complement(N, G1)
        with pytest.raises(Exception):
            TwistSpec(q=5, e=2, ctx=ctx)  # d' = 2, gcd(2,2) != 1

    def test_twist_leaving_the_pool_is_a_typed_error(self, monkeypatch):
        # raised, not asserted, so the check survives python -O
        import malle_lab.invariants as inv

        N = klueners()
        G1 = klueners_g1(N)
        spec = TwistSpec(q=5, e=1, ctx=find_cyclic_complement(N, G1))
        trivial = G1.class_of(G1.identity)
        monkeypatch.setattr(inv, "twist_class", lambda c, spec: trivial)
        with pytest.raises(InvariantViolation):
            orbit_blocks(spec, restrict_minimal=True)

    def test_q_not_coprime_rejected(self):
        N = klueners()
        G1 = klueners_g1(N)
        ctx = find_cyclic_complement(N, G1)
        with pytest.raises(ValueError):
            TwistSpec(q=3, e=1, ctx=ctx)


class TestBConstant:
    def test_klueners_g1(self):
        N = klueners()
        ctx = find_cyclic_complement(N, klueners_g1(N))
        for q in (5, 11):
            assert b_constant(ctx, q) == 2

    def test_klueners_full_group(self):
        N = klueners()
        ctx = find_cyclic_complement(N, N)
        for q in (5, 11):
            assert b_constant(ctx, q) == 1

    def test_b_e_direct_orbit_oracle(self):
        # independent oracle: explicit orbit loop on minimal classes
        N = klueners()
        G1 = klueners_g1(N)
        ctx = find_cyclic_complement(N, G1)
        spec = TwistSpec(q=5, e=1, ctx=ctx)
        classes = {c.class_id: c for c in minimal_index_classes(G1)}
        seen = set()
        orbit_count = 0
        for cid, c in classes.items():
            if cid in seen:
                continue
            orbit_count += 1
            cur = c
            while cur.class_id not in seen:
                seen.add(cur.class_id)
                cur = twist_class(cur, spec)
        assert b_e(spec) == orbit_count == 2

    def test_b_report_argmax(self):
        N = klueners()
        ctx = find_cyclic_complement(N, klueners_g1(N))
        rep = b_report(ctx, 5)
        assert rep.value == 2 and rep.argmax == (1,)

    def test_non_split_b_report_raises(self):
        C4 = closure([parse_cycles("(1 2 3 4)", 4)], 4)
        C2 = closure([parse_cycles("(13)(24)", 4)], 4)
        ctx = find_cyclic_complement(C4, C2)
        with pytest.raises(NotSplit):
            b_report(ctx, 3)

    def test_blocks_cover_minimal_classes(self):
        N = klueners()
        G1 = klueners_g1(N)
        ctx = find_cyclic_complement(N, G1)
        spec = TwistSpec(q=5, e=1, ctx=ctx)
        blocks = orbit_blocks(spec, restrict_minimal=True)
        covered = set().union(*(b.classes for b in blocks))
        assert covered == {c.class_id for c in minimal_index_classes(G1)}


class TestAsymptotics:
    def test_render_growth(self):
        assert render_growth(Fraction(1, 2), 1) == "X^{1/2}"
        assert render_growth(Fraction(1, 2), 2) == "X^{1/2} log X"
        assert render_growth(Fraction(1, 4), 3) == "X^{1/4} (log X)^2"
        assert render_growth(Fraction(1), 1) == "X^1"

    def test_klueners_prediction(self):
        N = klueners()
        ctx = find_cyclic_complement(N, klueners_g1(N))
        rep = asymptotic_prediction(ctx, 5)
        assert rep.a == Fraction(1, 2)
        assert rep.b == 2
        assert rep.formula == "X^{1/2} log X"


class TestNumberField:
    def test_b_phi_klueners_m3(self):
        # phi sending the unit 2 to the tau-coset acts on the four
        # minimal classes in two orbits
        N = klueners()
        G1 = klueners_g1(N)
        tau = parse_cycles("(14)(25)(36)", 6)
        field = RationalNumberField(M=3, phi_table={1: tau**0, 2: tau})
        assert b_phi(N, G1, field) == 2

    def test_b_phi_trivial_phi(self):
        # trivial phi: orbits of powering by units of (Z/3)*
        N = klueners()
        G1 = klueners_g1(N)
        e = parse_cycles("id", 6)
        field = RationalNumberField(M=3, phi_table={1: e, 2: e})
        # powering by 2 = inversion pairs each 3-cycle with its inverse
        assert b_phi(N, G1, field) == 2

    def test_b_phi_full_group(self):
        N = klueners()
        e = parse_cycles("id", 6)
        field = RationalNumberField(M=3, phi_table={1: e, 2: e})
        assert b_phi(N, N, field) == 1

    def test_non_homomorphism_rejected(self):
        N = klueners()
        G1 = klueners_g1(N)
        tau = parse_cycles("(14)(25)(36)", 6)
        e = parse_cycles("id", 6)
        # phi(1) must be the identity coset; mapping 1 to the tau-coset
        # cannot respect the unit-group multiplication
        field = RationalNumberField(M=3, phi_table={1: tau, 2: e})
        with pytest.raises(NotAHomomorphism):
            b_phi(N, G1, field)

    def test_bad_modulus(self):
        N = klueners()
        G1 = klueners_g1(N)
        e = parse_cycles("id", 6)
        field = RationalNumberField(M=2, phi_table={1: e})
        with pytest.raises(BadModulus):
            b_phi(N, G1, field)


class TestRevisedB:
    def test_klueners_function_field(self):
        N = klueners()
        rep = revised_b(N, FunctionField(5))
        assert rep.value == 2

    def test_klueners_number_field(self):
        N = klueners()
        rep = revised_b(N, RationalNumberField(M=3))
        assert rep.value == 2

    def test_function_and_number_field_agree(self):
        N = klueners()
        ff = revised_b(N, FunctionField(5))
        nf = revised_b(N, RationalNumberField(M=3))
        assert ff.value == nf.value == 2

    def test_rows_cover_candidates(self):
        N = klueners()
        rep = revised_b(N, FunctionField(5))
        statuses = {r.G_order: r.status for r in rep.rows}
        assert statuses[9] == "ok"
        assert statuses[18] == "ok"
