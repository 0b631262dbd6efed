"""Euler products, exact expansion, pole extraction, Tauberian fit."""

import math
from fractions import Fraction
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from malle_lab import braid, series
from malle_lab.braid import ClassVector
from malle_lab.errors import EnumerationCapExceeded, InsufficientRange, TrivialClassPresent
from malle_lab.groups import (
    closure,
    find_cyclic_complement,
    normal_subgroups_with_cyclic_quotient,
)
from malle_lab.invariants import OrbitBlock, TwistSpec, orbit_blocks
from malle_lab.perms import Permutation, parse_cycles
from malle_lab.presets import abelian_q, abelian_suite, get_preset
from malle_lab.series import (
    CoefficientTable,
    PoleReport,
    RationalGF,
    SandwichReport,
    brute_force_h3,
    dominant_pole,
    euler_product,
    expand,
    h2_desk_scale,
    prop_main_check,
    tauberian_fit,
)


def klueners():
    gens = [parse_cycles(s, 6) for s in ("(1 2 3)", "(4 5 6)", "(14)(25)(36)")]
    return closure(gens, 6)


def klueners_blocks(q=5):
    N = klueners()
    G1 = closure([parse_cycles("(1 2 3)", 6), parse_cycles("(4 5 6)", 6)], 6)
    ctx = find_cyclic_complement(N, G1)
    spec = TwistSpec(q=q, e=1, ctx=ctx)
    return orbit_blocks(spec, restrict_minimal=False)


def oracle_brute_force_h3(blocks, q, R):
    """The recursive block-multiset enumeration that brute_force_h3 replaced.

    Every rational class vector of the given type is a unique nonnegative
    combination sum a_O * O of blocks; it contributes q^(number of classes)
    at r = weighted size.
    """
    gf = euler_product(blocks, q)  # validates block set
    values: dict[int, int] = {r: 0 for r in range(R + 1)}

    def descend(i: int, r: int, size: int):
        if i == len(gf.factors):
            values[r] = values.get(r, 0) + q**size
            return
        c, w = gf.factors[i]
        m = 0
        while r + m * w <= R:
            descend(i + 1, r + m * w, size + m * c)
            m += 1

    descend(0, 0, 0)
    return CoefficientTable(q=q, values=values)


def criterion_5_block_systems():
    """(blocks, q) for every block system that acceptance criterion 5 expands."""
    from test_acceptance import preset_groups

    systems = []
    for N, _ in preset_groups():
        for G in normal_subgroups_with_cyclic_quotient(N):
            if G.order == 1:
                continue
            ctx = find_cyclic_complement(N, G)
            if not ctx.split:
                continue
            for q in (2, 3, 5):
                if math.gcd(q, N.order) != 1:
                    continue
                for e in ctx.admissible_e():
                    spec = TwistSpec(q=q, e=e, ctx=ctx)
                    systems.append((orbit_blocks(spec, restrict_minimal=False), q))
    return systems


def wreath_a_blocks(q=5):
    pre = get_preset("wreath-s18")
    N = pre.spec.group()
    ctx = find_cyclic_complement(N, pre.spec.subgroup("A"))
    return orbit_blocks(TwistSpec(q=q, e=1, ctx=ctx), restrict_minimal=False)


def block(size, index, first=1):
    return OrbitBlock(e=1, classes=frozenset(range(first, first + size)), size=size, index=index)


class TestBruteForceH3:
    def assert_expand_agrees(self, blocks, q, R):
        got = brute_force_h3(blocks, q, R).values
        assert list(got) == list(range(R + 1))
        assert got == expand(euler_product(blocks, q), R).values
        return got

    def assert_three_agree(self, blocks, q, R):
        got = self.assert_expand_agrees(blocks, q, R)
        assert got == oracle_brute_force_h3(blocks, q, R).values

    def test_criterion_5_block_systems(self):
        systems = criterion_5_block_systems()
        assert len(systems) == 47
        for blocks, q in systems:
            self.assert_three_agree(blocks, q, 40)

    def test_klueners_g1_r120(self):
        self.assert_three_agree(klueners_blocks(), 5, 120)

    def test_wreath_a_r80(self):
        self.assert_three_agree(wreath_a_blocks(), 5, 80)

    def test_klueners_g1_q7_r400(self):
        self.assert_expand_agrees(klueners_blocks(7), 7, 400)

    def test_wreath_a_r200(self):
        self.assert_expand_agrees(wreath_a_blocks(), 5, 200)

    def test_single_block_closed_form(self):
        # one block of size 2 and index 2: q^(2m) at r = 4m, the one cell
        # of each row; the rows between stay empty and give 0
        for R in (0, 3, 4, 9, 12):
            got = brute_force_h3([block(2, 2)], 3, R).values
            assert got == {r: (9 ** (r // 4) if r % 4 == 0 else 0) for r in range(R + 1)}
            self.assert_three_agree([block(2, 2)], 3, R)

    def test_validates_block_set(self):
        with pytest.raises(ValueError):
            brute_force_h3([], 2, 4)
        with pytest.raises(TrivialClassPresent):
            brute_force_h3([block(1, 0)], 2, 4)

    @settings(max_examples=100, deadline=None)
    @given(
        shapes=st.lists(
            st.tuples(st.integers(1, 3), st.integers(1, 4)), min_size=1, max_size=6
        ),
        q=st.integers(2, 16),
        data=st.data(),
    )
    def test_random_block_systems(self, shapes, q, data):
        blocks = [block(size, index, 10 * i) for i, (size, index) in enumerate(shapes)]
        # the oracle makes one call per multiset: keep the box of
        # multiplicities prod (R // w + 1) at most 10^5
        top = max(
            R for R in range(41) if math.prod(R // b.weight + 1 for b in blocks) <= 10**5
        )
        R = data.draw(st.integers(0, top), label="R")
        self.assert_three_agree(blocks, q, R)


class TestExpand:
    def test_single_factor_geometric(self):
        # 1/(1 - q u^2) has coefficient q^m at u^{2m}
        gf = RationalGF(q=2, factors=((1, 2),))
        table = expand(gf, 10)
        for r, v in table.values.items():
            assert v == (2 ** (r // 2) if r % 2 == 0 else 0)

    def test_two_factor_hand_check(self):
        # 1/((1 - q u)(1 - q^2 u^2)): coefficient of u^2 is q^2 + q^2
        gf = RationalGF(q=3, factors=((1, 1), (2, 2)))
        table = expand(gf, 4)
        assert table.values[0] == 1
        assert table.values[1] == 3
        assert table.values[2] == 9 + 9
        assert table.values[3] == 27 + 27
        assert table.values[4] == 81 + 81 + 81

    def test_matches_oracle_klueners(self):
        blocks = klueners_blocks()
        gf = euler_product(blocks, 5)
        assert expand(gf, 40).values == brute_force_h3(blocks, 5, 40).values

    def test_coefficients_nonnegative_and_partial_sums_monotone(self):
        blocks = klueners_blocks()
        table = expand(euler_product(blocks, 5), 30)
        assert all(v >= 0 for v in table.values.values())
        sums = [sum(table.values[r] for r in range(1, j)) for j in range(1, 31)]
        assert sums == sorted(sums)

    def test_invalid_factor_rejected(self):
        with pytest.raises(ValueError):
            RationalGF(q=2, factors=((0, 2),))
        with pytest.raises(ValueError):
            RationalGF(q=2, factors=((1, 0),))


class TestDominantPole:
    def test_spec_example_four_factors(self):
        gf = RationalGF(q=5, factors=((2, 4), (2, 4), (2, 8), (2, 8)))
        rep = dominant_pole(gf)
        assert rep.a == Fraction(1, 2)
        assert rep.b == 2

    def test_single_factor(self):
        rep = dominant_pole(RationalGF(q=2, factors=((1, 2),)))
        assert rep.a == Fraction(1, 2) and rep.b == 1

    def test_one_class_index_four(self):
        rep = dominant_pole(RationalGF(q=2, factors=((1, 4),)))
        assert rep.a == Fraction(1, 4) and rep.b == 1

    def test_caveat_always_present(self):
        rep = dominant_pole(RationalGF(q=2, factors=((1, 2),)))
        assert "equal modulus" in rep.caveat

    def test_a_matches_group_invariant(self):
        from malle_lab.groups import a_invariant

        G1 = closure([parse_cycles("(1 2 3)", 6), parse_cycles("(4 5 6)", 6)], 6)
        rep = dominant_pole(euler_product(klueners_blocks(), 5))
        assert rep.a == a_invariant(G1)

    def test_b_matches_invariants_module_on_minimal_blocks(self):
        from malle_lab.invariants import b_e

        N = klueners()
        G1 = closure([parse_cycles("(1 2 3)", 6), parse_cycles("(4 5 6)", 6)], 6)
        ctx = find_cyclic_complement(N, G1)
        spec = TwistSpec(q=5, e=1, ctx=ctx)
        minimal = orbit_blocks(spec, restrict_minimal=True)
        rep = dominant_pole(euler_product(minimal, 5))
        assert rep.b == b_e(spec)


class TestTauberianFit:
    def test_klueners_bounded(self):
        blocks = klueners_blocks()
        gf = euler_product(blocks, 5)
        table = expand(gf, 60)
        fit = tauberian_fit(table, dominant_pole(gf))
        assert fit.ok
        assert fit.spread <= 10

    def test_single_block_closed_form(self):
        gf = RationalGF(q=2, factors=((1, 2),))
        table = expand(gf, 60)
        fit = tauberian_fit(table, dominant_pole(gf))
        assert fit.ok
        assert fit.spread <= 4

    def test_wrong_a_flags_failure(self):
        gf = RationalGF(q=2, factors=((1, 2),))
        table = expand(gf, 60)
        wrong = PoleReport(a=Fraction(1, 4), b=1)
        fit = tauberian_fit(table, wrong)
        assert not fit.ok

    def test_insufficient_range(self):
        gf = RationalGF(q=2, factors=((1, 2),))
        with pytest.raises(InsufficientRange):
            tauberian_fit(expand(gf, 20), dominant_pole(gf))

    def test_single_block_past_the_float_range(self):
        # 7^601 and the partial sums at R = 600 are far past the float range;
        # the ratios of the closed form tend to a constant
        gf = RationalGF(q=7, factors=((1, 2),))
        fit = tauberian_fit(expand(gf, 600), dominant_pole(gf))
        assert fit.ok
        assert fit.spread == pytest.approx(1, abs=1e-9)

    @pytest.mark.parametrize("q", [5, 7, 11, 13])
    def test_log_ratios_match_the_float_quotient(self, q):
        # where q^(r+1) fits a float, the ratios are the direct quotients
        gf = euler_product(klueners_blocks(q), q)
        table, pole = expand(gf, 60), dominant_pole(gf)
        support = sorted(r for r, v in table.values.items() if r >= 1 and v > 0)
        upper = support[len(support) // 2 :]
        ratios = []
        for r in support:
            if r in upper:
                S = sum(table.values[k] for k in range(1, r + 1))
                X = float(q) ** (r + 1)
                ratios.append(S / (X ** float(pole.a) * math.log(X) ** (pole.b - 1)))
        fit = tauberian_fit(table, pole)
        assert fit.min_ratio == pytest.approx(min(ratios), rel=1e-12)
        assert fit.max_ratio == pytest.approx(max(ratios), rel=1e-12)

    def test_one_nonzero_coefficient(self):
        # R >= 40, but the only term past r = 0 sits at r = 30
        gf = RationalGF(q=2, factors=((1, 30),))
        with pytest.raises(InsufficientRange, match="fewer than two"):
            tauberian_fit(expand(gf, 40), dominant_pole(gf))


class TestH2DeskScale:
    def test_the_twist_table_is_built_once_per_spec(self, monkeypatch):
        # frobenius_stable_orbits reads spec.image_indices, one image per
        # element of G; orbit_blocks' twist_class reads class rows and
        # images no element.  Neither grows with the class vectors h2 visits.
        N = klueners()
        G1 = closure([parse_cycles("(1 2 3)", 6), parse_cycles("(4 5 6)", 6)], 6)
        ctx = find_cyclic_complement(N, G1)
        image, power = TwistSpec.image, Permutation.__pow__
        calls, powers = [], []

        def counted(spec, g):
            calls.append(g)
            return image(spec, g)

        def counted_power(g, k):
            powers.append(g)
            return power(g, k)

        monkeypatch.setattr(TwistSpec, "image", counted)
        monkeypatch.setattr(Permutation, "__pow__", counted_power)
        filled = []
        for R in (16, 24):
            calls.clear()
            powers.clear()
            spec = TwistSpec(q=5, e=1, ctx=ctx)
            h2_desk_scale(G1, N, spec, R)
            assert len(calls) == G1.order == 9
            # the powers beyond the table's: the power row's fills, one per
            # nontrivial class of G1, whose classes are single elements
            # (tau^{-1} is made with ctx, before the count starts)
            filled.append(len(powers) - G1.order)
            assert spec.image_indices == [G1.index[image(spec, g)] for g in G1.elements]
        # the power row is made at R = 16 and read at R = 24
        assert filled == [len(G1.conjugacy_classes()) - 1, 0] == [8, 0]

    def test_abelian_single_orbit_per_rational_vector(self):
        # C3 regular: trivial twist at q = 7 (7 = 1 mod 3); every
        # rational vector with a product-one generating tuple gets one
        # stable orbit
        C3 = closure([parse_cycles("(1 2 3)", 3)], 3)
        ctx = find_cyclic_complement(C3, C3)
        spec = TwistSpec(q=7, e=1, ctx=ctx)
        h2 = h2_desk_scale(C3, C3, spec, R=8)
        h3 = brute_force_h3(orbit_blocks(spec, restrict_minimal=False), 7, 8)
        for r, v in h2.items():
            assert v <= h3.values[r]

    def test_h2_matches_union_find_recount_s3(self):
        # at q = 7 = 1 mod 6 the model fixes every orbit of S3, so h2[r] is
        # the orbit count times 7^length, summed over the block combinations
        # of weight r; union_find_orbits calls neither canonical nor
        # _orbit_partition
        from test_braid import enumerate_nielsen, union_find_orbits

        G = closure([parse_cycles("(1 2)", 3), parse_cycles("(1 2 3)", 3)], 3)
        spec = TwistSpec(q=7, e=1, ctx=find_cyclic_complement(G, G))
        blocks = orbit_blocks(spec, restrict_minimal=False)
        expect: dict[int, int] = {}
        for mults in product(*(range(8 // blk.weight + 1) for blk in blocks)):
            r = sum(m * blk.weight for blk, m in zip(blocks, mults))
            if not 0 < r <= 8:
                continue
            counts = {cid: m for blk, m in zip(blocks, mults) for cid in blk.classes}
            cv = ClassVector.from_counts(G, counts)
            tuples = [t.entries for t in enumerate_nielsen(G, cv)]
            if tuples:
                expect[r] = expect.get(r, 0) + union_find_orbits(G, G, tuples) * 7**cv.length
        assert sorted(expect) == [4, 6, 8]
        assert h2_desk_scale(G, G, spec, R=8) == expect

    def test_r_with_no_rational_vector_is_absent(self):
        C3 = closure([parse_cycles("(1 2 3)", 3)], 3)
        ctx = find_cyclic_complement(C3, C3)
        spec = TwistSpec(q=7, e=1, ctx=ctx)
        h2 = h2_desk_scale(C3, C3, spec, R=7)
        # every class has index 2, so odd weights are unreachable
        assert all(r % 2 == 0 for r in h2)

    def test_a_pair_other_than_spec_ctx_is_refused(self):
        # (G, N) must be the pair spec.ctx holds; a mismatch used to give
        # an empty table, and a vacuous sandwich from prop_main_check
        N = klueners()
        G1 = closure([parse_cycles("(1 2 3)", 6), parse_cycles("(4 5 6)", 6)], 6)
        ctx = find_cyclic_complement(N, G1)
        assert h2_desk_scale(G1, N, TwistSpec(q=5, e=1, ctx=ctx), 8) == {8: 875}
        for G, other in ((N, ctx), (G1, find_cyclic_complement(N, N))):
            spec = TwistSpec(q=5, e=1, ctx=other)
            with pytest.raises(ValueError, match="spec.ctx"):
                h2_desk_scale(G, N, spec, 8)
            with pytest.raises(ValueError, match="spec.ctx"):
                prop_main_check(G, N, spec, 8)

    @pytest.mark.parametrize("R", [-1, -3])
    def test_a_negative_R_is_refused(self, R):
        # as in expand; these used to return an empty table or raise a bare
        # StopIteration or IndexError
        C3 = closure([parse_cycles("(1 2 3)", 3)], 3)
        spec = TwistSpec(q=7, e=1, ctx=find_cyclic_complement(C3, C3))
        blocks = orbit_blocks(spec, restrict_minimal=False)
        for call in (
            lambda: brute_force_h3(blocks, 7, R),
            lambda: h2_desk_scale(C3, C3, spec, R),
            lambda: prop_main_check(C3, C3, spec, R),
        ):
            with pytest.raises(ValueError, match="R must be nonnegative"):
                call()


NO_SHIFT = "no shift m <= R validates the lower bound"


def oracle_sandwich(h3, h2, R):
    """The sandwich loops prop_main_check ran before its prefix sums.

    Both partial sums are recomputed for every checkpoint and every shift;
    h3_sum is the CoefficientTable.partial_sum it called.
    """

    def h3_sum(below: int) -> int:
        return sum(v for r, v in h3.values.items() if 1 <= r < below)

    def h2_sum(below: int) -> int:
        return sum(v for r, v in h2.items() if 1 <= r < below)

    # right side: smallest rational c1 with h2 partial sums <= c1 * h3 sums
    c1 = Fraction(1)
    for Rp in range(1, R + 2):
        s3 = h3_sum(Rp)
        s2 = h2_sum(Rp)
        if s3 == 0:
            if s2 > 0:
                return SandwichReport(
                    m=0,
                    c1=Fraction(0),
                    R=R,
                    violated=True,
                    detail=f"h2 positive but h3 zero below R'={Rp}",
                )
            continue
        c1 = max(c1, Fraction(s2, s3))
    # left side: smallest m such that the shifted h3 sum never exceeds h2
    for m in range(0, R + 1):
        ok = True
        for Rp in range(1, R + 2):
            if h3_sum(Rp - m) > h2_sum(Rp):
                ok = False
                break
        if ok:
            return SandwichReport(m=m, c1=c1, R=R, violated=False)
    return SandwichReport(m=R, c1=c1, R=R, violated=True, detail=NO_SHIFT)


def sandwich_on(h3_values, h2):
    """prop_main_check with the two coefficient tables given, not computed."""
    C3 = closure([parse_cycles("(1 2 3)", 3)], 3)
    spec = TwistSpec(q=7, e=1, ctx=find_cyclic_complement(C3, C3))
    R = len(h3_values) - 1
    h3 = CoefficientTable(q=spec.q, values=dict(enumerate(h3_values)))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(series, "brute_force_h3", lambda blocks, q, R: h3)
        mp.setattr(series, "h2_desk_scale", lambda G, N, spec, R: h2)
        return prop_main_check(C3, C3, spec, R), oracle_sandwich(h3, h2, R)


class TestPropMain:
    @settings(max_examples=150, deadline=None)
    @given(data=st.data())
    def test_prefix_sums_match_the_oracle(self, data):
        R = data.draw(st.integers(0, 30), label="R")
        # many zeros, as in a lacunary h3, and none below a drawn start, so
        # that h2 can come first; r = 0 is drawn too and must be left out of
        # every sum
        term = st.one_of(st.just(0), st.integers(1, 10), st.integers(1, 10**6))
        values = data.draw(st.lists(term, min_size=R + 1, max_size=R + 1), label="h3")
        start = data.draw(st.one_of(st.just(1), st.integers(1, R + 1)), label="start")
        h3_values = [v if r == 0 or r >= start else 0 for r, v in enumerate(values)]
        h2 = data.draw(
            st.dictionaries(st.integers(1, max(R, 1)), st.integers(0, 10**6), max_size=6),
            label="h2",
        )
        got, want = sandwich_on(h3_values, h2)
        assert want.detail != NO_SHIFT
        assert got == want

    def test_h2_positive_where_h3_is_zero_is_violated(self):
        got, want = sandwich_on([1, 0, 0, 4, 9], {2: 7})
        assert got == want
        assert got == SandwichReport(
            m=0, c1=Fraction(0), R=4, violated=True, detail="h2 positive but h3 zero below R'=3"
        )

    def test_matches_the_oracle_on_criterion_8(self):
        from test_acceptance import ABELIAN_SANDWICH

        S3 = closure([parse_cycles("(1 2)", 3), parse_cycles("(1 2 3)", 3)], 3)
        cases = [(S3, 7, 12)] + [
            (spec.group(), abelian_q(label)[0], ABELIAN_SANDWICH[label][0])
            for label, spec in sorted(abelian_suite().items())
        ]
        for N, q, R in cases:
            spec = TwistSpec(q=q, e=1, ctx=find_cyclic_complement(N, N))
            h2 = h2_desk_scale(N, N, spec, R)
            h3 = brute_force_h3(orbit_blocks(spec, restrict_minimal=False), q, R)
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(series, "h2_desk_scale", lambda G, N, spec, R: h2)
                got = prop_main_check(N, N, spec, R)
            assert got == oracle_sandwich(h3, h2, R)

    def test_s3_desk_scale(self):
        G = closure([parse_cycles("(1 2)", 3), parse_cycles("(1 2 3)", 3)], 3)
        ctx = find_cyclic_complement(G, G)
        spec = TwistSpec(q=7, e=1, ctx=ctx)
        rep = prop_main_check(G, G, spec, R=10)
        assert not rep.violated
        assert 0 <= rep.m <= 10
        assert rep.c1 >= 1

    def test_abelian_c3(self):
        C3 = closure([parse_cycles("(1 2 3)", 3)], 3)
        ctx = find_cyclic_complement(C3, C3)
        spec = TwistSpec(q=7, e=1, ctx=ctx)
        rep = prop_main_check(C3, C3, spec, R=10)
        assert not rep.violated


class TestCaps:
    # S3 at q = 7: h2 = {4: 2744, 6: 136857, 8: 6722800, 10: 329534849} to
    # R = 10.  Vectors with no tuples (every odd weight) are counted, not
    # searched; every other one has one orbit, whose least tuple a k-entry
    # vector's first-hit search finds in k - 1 prefix states.  The block
    # combinations of one weight run by length, so with 6 prefix states the
    # last weight-8 combination, eight transpositions, hits the cap
    def s3_spec(self):
        G = closure([parse_cycles("(1 2)", 3), parse_cycles("(1 2 3)", 3)], 3)
        return G, TwistSpec(q=7, e=1, ctx=find_cyclic_complement(G, G))

    def test_h2_partial_is_the_table_so_far(self, monkeypatch):
        G, spec = self.s3_spec()
        full = h2_desk_scale(G, G, spec, R=10)
        monkeypatch.setattr(braid, "NODE_CAP", 6)
        with pytest.raises(EnumerationCapExceeded) as info:
            h2_desk_scale(G, G, spec, R=10)
        assert info.value.partial == {4: 2744, 6: 136857}
        assert info.value.partial == {r: full[r] for r in (4, 6)}
        assert isinstance(info.value.__cause__, EnumerationCapExceeded)

    def test_h2_partial_drops_the_weight_that_hit_the_cap(self, monkeypatch):
        # with 4 prefix states the last weight-6 combination, six
        # transpositions, hits the cap after the other two were summed:
        # weight 6 is incomplete
        G, spec = self.s3_spec()
        monkeypatch.setattr(braid, "NODE_CAP", 4)
        with pytest.raises(EnumerationCapExceeded) as info:
            h2_desk_scale(G, G, spec, R=10)
        assert info.value.partial == {4: 2744}

    def test_prop_main_lets_the_cap_error_through(self, monkeypatch):
        G, spec = self.s3_spec()
        monkeypatch.setattr(braid, "NODE_CAP", 6)
        with pytest.raises(EnumerationCapExceeded) as info:
            prop_main_check(G, G, spec, R=10)
        assert info.value.partial == {4: 2744, 6: 136857}
