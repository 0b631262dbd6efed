"""Twisted class orbits, b-constants, and the cyclotomic variant."""

from dataclasses import replace
from fractions import Fraction
from functools import lru_cache
from itertools import product as iproduct
from math import gcd, lcm

import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from library_sources import clear_library_memos, library_module, library_modules
from malle_lab import groups
from malle_lab import invariants
from malle_lab.braid import braid_orbits, class_vector_of
from malle_lab.errors import (
    BadModulus,
    FieldSizeOutOfRange,
    InvariantViolation,
    NotAHomomorphism,
    NotAPrimePower,
    NotSplit,
)
from malle_lab.groups import (
    FiniteGroup,
    a_invariant,
    closure,
    find_cyclic_complement,
    group_index,
    normal_subgroups_with_abelian_quotient,
    normal_subgroups_with_cyclic_quotient,
    subgroup_generated,
)
from malle_lab.invariants import (
    FunctionField,
    OrbitBlock,
    RationalNumberField,
    TwistSpec,
    _check_phi,
    _phi_orbit_count,
    _surjective_phis,
    _units,
    b_constant,
    b_e,
    b_phi,
    b_report,
    b_table,
    minimal_index_classes,
    orbit_blocks,
    render_growth,
    require_prime_power,
    revised_b,
    twist_class,
)
from malle_lab.perms import Permutation, parse_cycles
from malle_lab.presets import abelian_suite, get_preset, preset_names
from malle_lab.series import h2_desk_scale
from test_groups import permutations_of


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

    @settings(max_examples=40, deadline=None)
    @given(degree=st.sampled_from((4, 5, 6)), data=st.data())
    def test_minimum_is_the_group_index(self, degree, data):
        # m comes from the classes; group_index scans every element
        G = closure(data.draw(st.lists(permutations_of(degree), min_size=1, max_size=3)), degree)
        assume(G.order > 1)
        m = group_index(G)
        assert minimal_index_classes(G) == [
            c for c in G.conjugacy_classes() if not c.is_trivial and c.representative.index() == m
        ]


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
        with pytest.raises(ValueError, match="not admissible"):
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

    def test_an_orbit_mixing_indices_is_a_typed_error(self, monkeypatch):
        # a twist that swaps a minimal class with a larger-index one is a
        # permutation of the pool, so only the index check can catch it
        import malle_lab.invariants as inv

        N = klueners()
        G1 = klueners_g1(N)
        spec = TwistSpec(q=5, e=1, ctx=find_cyclic_complement(N, G1))
        m = minimal_index_classes(G1)[0]
        x = next(c for c in G1.conjugacy_classes() if c.index > m.index)
        swap = {m.class_id: x, x.class_id: m}
        monkeypatch.setattr(inv, "twist_class", lambda c, spec: swap.get(c.class_id, c))
        with pytest.raises(InvariantViolation, match="mixes class indices"):
            orbit_blocks(spec, restrict_minimal=False)

    def test_q_not_coprime_rejected(self):
        N = klueners()
        G1 = klueners_g1(N)
        ctx = find_cyclic_complement(N, G1)
        with pytest.raises(ValueError):
            TwistSpec(q=3, e=1, ctx=ctx)

    def test_q_not_a_prime_power_rejected(self):
        # F_35 does not exist, though 35 is prime to |N| = 18
        N = klueners()
        ctx = find_cyclic_complement(N, klueners_g1(N))
        for q in (35, 1, 0, -5):
            with pytest.raises(NotAPrimePower):
                TwistSpec(q=q, e=1, ctx=ctx)
            with pytest.raises(NotAPrimePower):
                revised_b(N, FunctionField(q))
        assert TwistSpec(q=25, e=1, ctx=ctx).q == 25
        assert revised_b(N, FunctionField(25)).value == 2

    def test_prime_powers_are_the_integers_with_one_prime_divisor(self):
        from test_acceptance import is_prime_power

        for q in range(-3, 400):
            if is_prime_power(q):
                require_prime_power(q)
            else:
                with pytest.raises(NotAPrimePower, match=f"q = {q} is not a prime power"):
                    require_prime_power(q)


def smallest_prime_factors(n: int) -> list[int]:
    """spf[m] for 0 <= m < n, the least prime dividing m, by a sieve; 0 for m < 2."""
    spf = [0] * n
    for p in range(2, n):
        if spf[p] == 0:
            for m in range(p, n, p):
                if spf[m] == 0:
                    spf[m] = p
    return spf


# 2^89 - 1, a Mersenne prime above MILLER_RABIN_LIMIT
M89 = 2**89 - 1


class TestPrimePower:
    """require_prime_power: trial division below 2^16, then Miller-Rabin on
    the least integer root of q."""

    def test_every_q_below_1e5_against_a_sieve(self):
        spf = smallest_prime_factors(10**5)
        wrong = []
        for q in range(-3, 10**5):
            rest = q
            while q >= 2 and rest % spf[q] == 0:
                rest //= spf[q]
            try:
                require_prime_power(q)
                accepted = True
            except NotAPrimePower:
                accepted = False
            if accepted != (q >= 2 and rest == 1):
                wrong.append(q)
        assert wrong == []

    def test_miller_rabin_against_a_sieve(self):
        spf = smallest_prime_factors(10**5)
        wrong = [n for n in range(43, 10**5, 2) if invariants._passes_miller_rabin(n) != (spf[n] == n)]
        assert wrong == []

    def test_the_limit_is_a_strong_pseudoprime_to_every_base(self):
        # 3317044064679887385961981 = 1287836182261 * 2575672364521
        assert invariants.MILLER_RABIN_LIMIT == 1287836182261 * 2575672364521
        assert invariants._passes_miller_rabin(invariants.MILLER_RABIN_LIMIT)

    def test_integer_root(self):
        cases = [(n, k) for n in range(1, 3000) for k in range(1, 13)]
        cases += [(r**k + d, k) for r in (2**40, 3**50, M89) for k in (1, 2, 3, 7) for d in (-1, 0, 1)]
        for n, k in cases:
            r = invariants._integer_root(n, k)
            assert r**k <= n < (r + 1) ** k, (n, k)

    @pytest.mark.parametrize("q", [
        10**14 + 31,  # prime; trial division up to sqrt(q) takes about 1 s
        4294967291,  # the largest prime below 2^32, by trial division
        4294967311,  # the least prime above 2^32, by Miller-Rabin
        65537**2, 65537**3, 65539**5,  # p^k for primes just above 2^16
        2**61 - 1, (2**61 - 1) ** 2, (2**31 - 1) ** 3,
        2**100, 3**60,
    ])
    def test_prime_powers_above_2_32(self, q):
        require_prime_power(q)

    @pytest.mark.parametrize("q", [
        561, 1105, 1729,  # Carmichael numbers with factors below 2^16
        65851 * 131701 * 197551,  # a Carmichael number with none
        65537 * 65539, 65537**2 * 65539, (2**61 - 1) * (2**31 - 1),
        # strong pseudoprime to the first 12 prime bases; the 13th, 41, finds it
        318665857834031151167461,
        3 * 2**100, 2**100 + 1,
        M89 * (2**61 - 1),  # composite above the limit: a witness proves it
    ])
    def test_not_prime_powers_above_2_32(self, q):
        with pytest.raises(NotAPrimePower, match=f"q = {q} is not a prime power"):
            require_prime_power(q)

    @pytest.mark.parametrize("q", [M89, M89**2, invariants.MILLER_RABIN_LIMIT])
    def test_a_base_at_or_above_the_limit_is_refused(self, q):
        with pytest.raises(FieldSizeOutOfRange, match="primality test is no longer exact"):
            require_prime_power(q)


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


class TestNumberField:
    def test_b_phi_klueners_m3(self):
        # phi sending the unit 2 to the tau-coset acts on the four
        # minimal classes in two orbits
        N = klueners()
        G1 = klueners_g1(N)
        tau = parse_cycles("(14)(25)(36)", 6)
        assert b_phi(N, G1, 3, {1: tau**0, 2: tau}) == 2

    def test_b_phi_trivial_phi(self):
        # trivial phi: orbits of powering by units of (Z/3)*
        N = klueners()
        G1 = klueners_g1(N)
        e = parse_cycles("id", 6)
        # powering by 2 = inversion pairs each 3-cycle with its inverse
        assert b_phi(N, G1, 3, {1: e, 2: e}) == 2

    def test_b_phi_full_group(self):
        N = klueners()
        e = parse_cycles("id", 6)
        assert b_phi(N, N, 3, {1: e, 2: e}) == 1

    def test_non_homomorphism_rejected(self):
        N = klueners()
        G1 = klueners_g1(N)
        tau = parse_cycles("(14)(25)(36)", 6)
        e = parse_cycles("id", 6)
        # phi(1) must be the identity coset; mapping 1 to the tau-coset
        # cannot respect the unit-group multiplication
        with pytest.raises(NotAHomomorphism):
            b_phi(N, G1, 3, {1: tau, 2: e})

    def test_incomplete_table_rejected(self):
        # the table must name phi(u) for every unit u of (Z/3)* = {1, 2}
        N = klueners()
        G1 = klueners_g1(N)
        e = parse_cycles("id", 6)
        for table in ({}, {1: e}):
            with pytest.raises(NotAHomomorphism):
                b_phi(N, G1, 3, table)

    def test_bad_modulus(self):
        N = klueners()
        G1 = klueners_g1(N)
        e = parse_cycles("id", 6)
        with pytest.raises(BadModulus):
            b_phi(N, G1, 2, {1: e})

    def test_phi_action_leaving_the_minimal_classes_is_a_typed_error(self):
        # _phi_orbit_count trusts its table; 2 is no unit mod 2, so its
        # entry squares each transposition of S3 into the trivial class
        S3 = closure([parse_cycles("(1 2)", 3), parse_cycles("(1 2 3)", 3)], 3)
        table = {1: S3.identity, 2: S3.identity}
        with pytest.raises(InvariantViolation, match="left the class pool"):
            _phi_orbit_count(S3, 2, table)

    @pytest.mark.parametrize("M", [0, -3])
    def test_a_level_below_one_is_a_bad_modulus(self, M):
        # both paths reach _units, which used to read M = 0 as (Z/0)* = {1}
        # and fail later with a phi-table message
        S3 = closure([parse_cycles("(1 2)", 3), parse_cycles("(1 2 3)", 3)], 3)
        with pytest.raises(BadModulus, match="positive"):
            b_phi(S3, S3, M, {1: S3.identity})
        with pytest.raises(BadModulus, match="positive"):
            revised_b(S3, RationalNumberField(M=M))


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

    def test_noncyclic_quotients_are_skipped(self):
        # C2^3: the order-2 subgroups of index 1 have quotient C2 x C2
        N = closure([parse_cycles(s, 6) for s in ("(1 2)", "(3 4)", "(5 6)")], 6)
        rep = revised_b(N, FunctionField(3))
        statuses = [(r.G_order, r.status) for r in rep.rows]
        assert statuses.count((2, "skipped-noncyclic")) == 3
        assert statuses.count((2, "skipped-a")) == 4
        assert rep.value == 3

    @settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.filter_too_much])
    @given(degree=st.sampled_from((5, 6)), data=st.data())
    def test_the_g_equals_n_row_is_always_ok(self, degree, data):
        # revised_b's value is a max over the "ok" rows, never empty
        N = closure(data.draw(st.lists(permutations_of(degree), min_size=1, max_size=3)), degree)
        assume(1 < N.order <= 72)
        q = next(p for p in (2, 3, 5, 7, 11) if N.order % p)
        exponent = lcm(*(g.order() for g in N.elements))
        for fieldspec in (FunctionField(q), RationalNumberField(M=exponent)):
            rep = revised_b(N, fieldspec)
            assert [r.status for r in rep.rows if r.G_order == N.order] == ["ok"]
            assert rep.value == max(r.b for r in rep.rows if r.status == "ok")


class TestOneLatticePerN:
    """revised_b reads each group's abelian-quotient lattice, a-values and
    cyclic complements from one memo, so each field adds only its b."""

    @staticmethod
    def cases():
        """(N, field) for Klüners S6, wreath-s18 and the abelian suite at
        each q in {5, 7, 11, 13} prime to |N| and each M in {3, 9} that
        raises no BadModulus, interleaved: the groups vary fastest."""
        suite = abelian_suite()
        Ns = [get_preset(name).spec.group() for name in ("klueners-s6", "wreath-s18")]
        Ns += [suite[label].group() for label in sorted(suite)]
        fields = [FunctionField(q) for q in (5, 7, 11, 13)] + [RationalNumberField(M=M) for M in (3, 9)]
        out = []
        for fieldspec in fields:
            for N in Ns:
                if isinstance(fieldspec, FunctionField) and gcd(fieldspec.q, N.order) != 1:
                    continue
                try:
                    revised_b(N, fieldspec)
                except BadModulus:
                    continue
                out.append((N, fieldspec))
        return Ns, out

    def test_each_report_matches_a_fresh_call_and_each_n_builds_one_lattice(self, monkeypatch):
        Ns, cases = self.cases()
        assert {f.M for _, f in cases if isinstance(f, RationalNumberField)} == {3, 9}
        fresh = []
        for N, fieldspec in cases:
            clear_library_memos()
            fresh.append(revised_b(N, fieldspec))
        clear_library_memos()

        lattices = self.count_calls(monkeypatch, groups.normal_subgroups_with_abelian_quotient)
        # the lattice searches through the routine after the normality
        # proof, with the centralizer it chains (docs/decisions.md, "Shared
        # work across the lattice")
        complements = self.count_calls(monkeypatch, groups._cyclic_complement)
        for (N, fieldspec), report in zip(cases, fresh):
            assert revised_b(N, fieldspec) == report, (N, fieldspec)
        assert sorted(id(N) for N, in lattices) == sorted(map(id, Ns))
        # one complement search per (N, G), G over the lattice of N
        assert len(complements) == sum(len(normal_subgroups_with_abelian_quotient(N)) for N in Ns)
        assert len({(id(N), G.elements) for N, G, _ in complements}) == len(complements)

    def test_the_cyclic_quotients_are_a_read_of_the_lattice(self, monkeypatch):
        # after revised_b, the cyclic quotients are a read of N's lattice:
        # no subgroup, commutator closure or complement is built again
        spec = get_preset("klueners-s6").spec
        N = spec.group()
        revised_b(N, FunctionField(5))
        fns = (groups.closure, groups.derived_subgroup, groups._cyclic_complement)
        calls = [self.count_calls(monkeypatch, fn) for fn in fns]
        subs = normal_subgroups_with_cyclic_quotient(N)
        assert calls == [[], [], []]
        assert [id(G) for G in subs] == [id(ctx.G) for ctx in spec.cyclic_pairs()]

    def test_a_fresh_lattice_proves_no_normality_and_builds_no_centralizer(self, monkeypatch):
        # every member contains [N, N], and its centralizer is its parent's
        # filtered by one generator: neither is worked out per G
        N = get_preset("wreath-s18").spec.group()
        fns = (groups.centralizer, groups.find_cyclic_complement)
        calls = [self.count_calls(monkeypatch, fn) for fn in fns]
        proofs = []
        is_normal_in = FiniteGroup.is_normal_in

        def counted(G, other):
            proofs.append(G)
            return is_normal_in(G, other)

        monkeypatch.setattr(FiniteGroup, "is_normal_in", counted)
        assert len(groups._abelian_lattice(N)) == 12
        assert calls == [[], []]
        assert proofs == []

    @staticmethod
    def count_calls(monkeypatch, fn) -> list[tuple]:
        """The arguments of each call to fn, made through any library
        module that binds it, from now to the end of the test."""
        calls = []

        def counted(*args):
            calls.append(args)
            return fn(*args)

        for file_name in library_modules():
            module = library_module(file_name)
            for name, value in list(vars(module).items()):
                if value is fn:
                    monkeypatch.setattr(module, name, counted)
        return calls


# ---------------------------------------------------------------------------
# Oracles: the earlier surjective-phi search and union-find b_phi, kept verbatim


def oracle_phi_is_surjective(N, G, table):
    image = subgroup_generated(N, set(G.generators) | set(table.values()))
    return image.order == N.order


def oracle_surjective_phis(N, G, M):
    """Coset lifts as a min over G, a unit-order prefilter, and
    surjectivity as a subgroup closure."""
    units = _units(M)
    gens = []
    generated = {1 % M if M > 1 else 1}
    for u in units:
        if u in generated:
            continue
        gens.append(u)
        new = set(generated)
        frontier = list(generated)
        while frontier:
            x = frontier.pop()
            y = (x * u) % M if M > 1 else 1
            if y not in new:
                new.add(y)
                frontier.append(y)
        generated = new
    cosets = []
    seen = set()
    for x in N.elements:
        if x in seen:
            continue
        coset = sorted(x * g for g in G.elements)
        seen.update(coset)
        cosets.append(coset[0])

    def coset_rep(x):
        return min(x * g for g in G.elements)

    def unit_order(u):
        k, y = 1, u
        while y % M != 1 % M:
            y = (y * u) % M
            k += 1
        return k

    out = []
    for images in iproduct(cosets, repeat=len(gens)):
        ok = True
        for u, x in zip(gens, images):
            o = unit_order(u)
            if coset_rep(x**o) != coset_rep(N.identity):
                ok = False
                break
        if not ok:
            continue
        table = {1 % M if M > 1 else 1: N.identity}
        frontier = [1 % M if M > 1 else 1]
        consistent = True
        while frontier and consistent:
            next_frontier = []
            for u in frontier:
                for g, x in zip(gens, images):
                    v = (u * g) % M if M > 1 else 1
                    val = coset_rep(table[u] * x)
                    if v in table:
                        if coset_rep(table[v]) != val:
                            consistent = False
                            break
                    else:
                        table[v] = val
                        next_frontier.append(v)
                if not consistent:
                    break
            frontier = next_frontier
        if not consistent or len(table) != len(units):
            continue
        if oracle_phi_is_surjective(N, G, table):
            out.append(table)
    return out


def oracle_b_phi(N, G, M, table):
    """Union-find over the unit maps, without using that they form a group action."""
    ids = {c.class_id: c for c in minimal_index_classes(G)}
    parent = {cid: cid for cid in ids}

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for u, x in table.items():
        for cid, c in ids.items():
            image = G.class_of((c.representative**u).conjugate_by(x.inverse()))
            parent[find(cid)] = find(image.class_id)
    return len({find(cid) for cid in ids})


@lru_cache(maxsize=None)
def abelian_quotient_cases():
    groups = [("klueners", klueners())]
    groups += sorted((label, spec.group()) for label, spec in abelian_suite().items())
    groups.append(("wreath-s18", get_preset("wreath-s18").spec.group()))
    return tuple(
        (label, N, G)
        for label, N in groups
        for G in normal_subgroups_with_abelian_quotient(N)
    )


# (Z/M)* runs through the trivial group, C2, C4, C2 x C2, C6 and C2 x C4
ORACLE_LEVELS = (1, 2, 3, 4, 5, 6, 8, 12, 16)


class TestSurjectivePhiOracle:
    def test_same_tables_in_the_same_order(self):
        cases = 0
        for label, N, G in abelian_quotient_cases():
            for M in ORACLE_LEVELS:
                got = _surjective_phis(N, G, M)
                want = oracle_surjective_phis(N, G, M)
                assert [list(t.items()) for t in got] == [
                    list(t.items()) for t in want
                ], (label, G.order, M)
                cases += 1
        assert cases > 300

    def test_some_levels_admit_no_phi_and_some_several(self):
        # guards against an oracle comparison that only sees empty lists
        counts = {
            (label, G.order, M): len(_surjective_phis(N, G, M))
            for label, N, G in abelian_quotient_cases()[:12]
            for M in (1, 3, 12)
        }
        assert 0 in counts.values()
        assert max(counts.values()) >= 2

    def test_every_table_passes_the_homomorphism_check(self):
        # revised_b hands these tables to the orbit count without _check_phi
        for label, N, G in abelian_quotient_cases():
            for M in ORACLE_LEVELS:
                for t in _surjective_phis(N, G, M):
                    _check_phi(N, G, M, t)

    def test_b_phi_matches_union_find_oracle(self):
        checked = 0
        for label, N, G in abelian_quotient_cases():
            if G.order == 1 or label == "wreath-s18":
                continue
            for M in (3, 4, 12):
                try:
                    phis = _surjective_phis(N, G, M)
                    values = [b_phi(N, G, M, t) for t in phis]
                except BadModulus:
                    continue
                assert values == [oracle_b_phi(N, G, M, t) for t in phis], (label, M)
                checked += len(values)
        assert checked > 0


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.filter_too_much])
@given(degree=st.sampled_from((5, 6)), data=st.data())
def test_point_relabelling_changes_no_invariant(degree, data):
    N = closure(data.draw(st.lists(permutations_of(degree), min_size=1, max_size=3)), degree)
    assume(1 < N.order <= 72)
    sigma = Permutation(data.draw(st.permutations(range(1, degree + 1)), label="sigma"))
    M = closure([g.conjugate_by(sigma) for g in N.generators], degree)
    assert M.order == N.order
    # 7 divides no order of a subgroup of S6, so q = 7 is admissible
    b_N, b_M = (b_table(find_cyclic_complement(H, H), 7) for H in (N, M))
    assert a_invariant(M) == a_invariant(N)
    assert sorted(b_M.by_e.values()) == sorted(b_N.by_e.values())
    assert sorted(H.order for H in normal_subgroups_with_abelian_quotient(M)) == sorted(
        H.order for H in normal_subgroups_with_abelian_quotient(N)
    )
    # a product-one class vector of length 3-4: k-1 drawn entries and the
    # inverse of their product
    nontrivial = [g for g in N.elements if not g.is_identity]
    entries = data.draw(st.lists(st.sampled_from(nontrivial), min_size=2, max_size=3))
    last = N.identity
    for g in entries:
        last = last * g
    assume(not last.is_identity)
    entries.append(last.inverse())
    orbits_N = braid_orbits(N, N, class_vector_of(N, entries))
    orbits_M = braid_orbits(M, M, class_vector_of(M, [g.conjugate_by(sigma) for g in entries]))
    assert sorted(o.size for o in orbits_M) == sorted(o.size for o in orbits_N)
    # b_e counts orbits on C(G), and class sizes are orbit sizes of |G|
    assert b_N.value <= len(minimal_index_classes(N))
    assert all(N.order % c.size == 0 for c in N.conjugacy_classes())


TWISTED = (("(1 2 3 4 5)", "(2 3 5 4)"), ("(1 2 3)", "(1 2)(3 4)"))


@settings(max_examples=30, deadline=None, suppress_health_check=[HealthCheck.filter_too_much])
@given(degree=st.sampled_from((5, 6)), data=st.data())
def test_point_relabelling_keeps_the_twisted_tables(degree, data):
    # a proper normal G with cyclic quotient, so tau is not the identity;
    # C5 in F20 (d' = 4) and V4 in A4 (d' = 3) give b_table several e
    twisted = st.sampled_from(TWISTED).map(lambda cs: [parse_cycles(c, degree) for c in cs])
    drawn = st.lists(permutations_of(degree), min_size=1, max_size=3)
    N = closure(data.draw(st.one_of(twisted, drawn)), degree)
    assume(1 < N.order <= 72)
    proper = [G for G in normal_subgroups_with_cyclic_quotient(N) if 1 < G.order < N.order]
    assume(proper)
    G = data.draw(st.sampled_from(proper), label="G")
    sigma = Permutation(data.draw(st.permutations(range(1, degree + 1)), label="sigma"))
    M, H = (closure([g.conjugate_by(sigma) for g in K.generators], degree) for K in (N, G))
    ctx, image = find_cyclic_complement(N, G), find_cyclic_complement(M, H)
    assert not ctx.tau.is_identity
    assert (image.split, image.d_prime) == (ctx.split, ctx.d_prime)
    # each side picks its own tau; another generator of N/G only permutes e
    assert sorted(b_table(image, 7).by_e.values()) == sorted(b_table(ctx, 7).by_e.values())
    # h2 with tau carried along by sigma
    moved = replace(ctx, N=M, G=H, tau=ctx.tau.conjugate_by(sigma))
    assert h2_desk_scale(H, M, TwistSpec(q=7, e=1, ctx=moved), 8) == h2_desk_scale(
        G, N, TwistSpec(q=7, e=1, ctx=ctx), 8
    )


def twisted_pairs():
    """The proper pairs of the TWISTED groups in degree 5, among them C5 in
    F20 (d' = 4) and V4 in A4 (d' = 3)."""
    out = []
    for gens in TWISTED:
        N = closure([parse_cycles(c, 5) for c in gens], 5)
        proper = [G for G in normal_subgroups_with_cyclic_quotient(N) if 1 < G.order < N.order]
        out += [find_cyclic_complement(N, G) for G in proper]
    return out


def every_pair():
    """Each preset pair, each abelian-suite pair and the TWISTED pairs."""
    pairs = []
    for name in preset_names():
        spec = get_preset(name).spec
        pairs += [spec.pair(), *map(spec.pair, sorted(spec.named_subgroups))]
    for spec in abelian_suite().values():
        pairs += [ctx for ctx in spec.cyclic_pairs() if ctx.G.order > 1]
    return pairs + twisted_pairs()


class TestTwistRows:
    """twist_class and the phi action read G's class rows, one per (power, conjugator)."""

    def test_the_rows_agree_with_the_twist_of_every_member(self, monkeypatch):
        pairs = every_pair()
        assert {(ctx.G.order, ctx.d_prime) for ctx in twisted_pairs()} >= {(5, 4), (4, 3)}
        for ctx in pairs:
            G = ctx.G
            qs = [q for q in (5, 7, 11, 13, 17) if gcd(q, ctx.N.order) == 1]
            assert qs
            for q in qs:
                for e in ctx.admissible_e():
                    spec = TwistSpec(q=q, e=e, ctx=ctx)
                    # t_e(g) = tau^e g^q tau^{-e}, built here from tau
                    x = ctx.tau ** (-e)
                    for c in G.conjugacy_classes():
                        image = twist_class(c, spec)
                        for m in c.members:
                            assert G.class_of((m**q).conjugate_by(x)) is image
        # the phi action reads the same rows: _phi_orbit_count's step for
        # the unit u reads the row for (u, phi(u)^{-1}), which sends class c
        # to the class of phi(u) g^u phi(u)^{-1}
        import malle_lab.invariants as inv

        class_orbits, steps_seen = inv._class_orbits, []

        def recorded(pool, steps):
            steps_seen.append(steps)
            return class_orbits(pool, steps)

        monkeypatch.setattr(inv, "_class_orbits", recorded)
        checked = set()
        for ctx in pairs:
            G = ctx.G
            for M in (3, 4, 5, 6, 8, 9, 10, 12):
                for phi in _surjective_phis(ctx.N, G, M):
                    steps_seen.clear()
                    try:
                        _phi_orbit_count(G, M, phi)
                    except BadModulus:
                        break  # it depends on G and M alone
                    [steps] = steps_seen
                    for (u, x), step in zip(phi.items(), steps, strict=True):
                        for c in G.conjugacy_classes():
                            image = step(c.class_id)
                            for m in c.members:
                                assert G.class_of((m**u).conjugate_by(x.inverse())).class_id == image
                    checked.add((G.order, ctx.N.order, M))
        # C5 in F20 at M = 5: N/G = C4, where phi(u) and phi(u)^{-1} differ
        assert (5, 20, 5) in checked
        # a second b_phi on the same G reads the filled rows and takes no power;
        # the lattice of F20 kept the G whose rows the loops above filled, so
        # a fresh G comes after the memos are cleared
        clear_library_memos()
        ctx = next(ctx for ctx in twisted_pairs() if ctx.G.order == 5)
        phi = _surjective_phis(ctx.N, ctx.G, 5)[0]
        power, powers = Permutation.__pow__, []

        def counted(g, k):
            powers.append(g)
            return power(g, k)

        monkeypatch.setattr(Permutation, "__pow__", counted)
        b = b_phi(ctx.N, ctx.G, 5, phi)
        # one row per unit u != 1 (its lift lies outside G), one entry per
        # minimal class, and C5's 4 minimal classes are single elements
        assert len(powers) == 3 * 4
        powers.clear()
        assert b_phi(ctx.N, ctx.G, 5, phi) == b
        assert powers == []

    def test_a_second_spec_on_the_pair_takes_no_power(self, monkeypatch):
        ctx = get_preset("klueners-s6").spec.pair("G1")
        blocks = orbit_blocks(TwistSpec(q=5, e=1, ctx=ctx), restrict_minimal=False)
        power, powers = Permutation.__pow__, []

        def counted(g, k):
            powers.append(g)
            return power(g, k)

        monkeypatch.setattr(Permutation, "__pow__", counted)
        # 23 = 5 mod |G1| = 9, so it reads the same class row
        for q in (5, 23):
            assert orbit_blocks(TwistSpec(q=q, e=1, ctx=ctx), restrict_minimal=False) == blocks
        assert powers == []

    def test_each_twisted_class_is_filled_once(self, monkeypatch):
        fill, fills = FiniteGroup._image_class, []

        def counted(G, cid, move):
            fills.append(cid)
            return fill(G, cid, move)

        monkeypatch.setattr(FiniteGroup, "_image_class", counted)
        # G1 = C3 x C3 in Kluners' N: d' = 2, so e = 1 only, and the t_1
        # orbits run over G1's 4 minimal classes; one (q, tau^{-1}) row
        # holds the power and the conjugation, so each class is one fill
        ctx = get_preset("klueners-s6").spec.pair("G1")
        b_table(ctx, 5)
        assert sorted(fills) == [c.class_id for c in minimal_index_classes(ctx.G)]
        assert len(fills) == 4

    def test_a_replaced_context_twists_by_its_own_tau(self):
        # C5 in F20: tau has order 4
        ctx = next(ctx for ctx in twisted_pairs() if ctx.G.order == 5)
        b_table(ctx, 7)
        # tau^3 also generates N/G, and conjugates the other way round;
        # G's rows are keyed by the conjugator, so the old tau's rows do
        # not answer for the new one
        moved = replace(ctx, tau=ctx.tau**3)
        assert moved.conjugator(1) == ctx.conjugator(3)
        G = moved.G
        spec = TwistSpec(q=7, e=1, ctx=moved)
        x = moved.tau ** (-1)
        for c in G.conjugacy_classes():
            assert twist_class(c, spec) is G.class_of((c.representative**7).conjugate_by(x))

    def test_a_merged_class_is_caught_when_its_entry_is_filled(self):
        N = klueners()
        G1 = klueners_g1(N)
        ctx = find_cyclic_complement(N, G1)
        # G1 is abelian, so each class is one element; class 1 is made to
        # hold class 2's element too, and no row maps them together
        classes = G1.conjugacy_classes()
        classes[1] = replace(classes[1], members=classes[1].members + classes[2].members)
        with pytest.raises(InvariantViolation, match="not well defined on classes"):
            twist_class(classes[1], TwistSpec(q=5, e=1, ctx=ctx))
        with pytest.raises(InvariantViolation, match="not well defined on classes"):
            G1.class_image(1, 1, ctx.conjugator(1))
        # the rows stay unfilled: each read checks again
        with pytest.raises(InvariantViolation, match="not well defined on classes"):
            G1.class_image(1, 5, ctx.conjugator(1))
        with pytest.raises(InvariantViolation, match="not well defined on classes"):
            G1.class_image(1, 5, G1.identity)


def oracle_orbit_blocks(spec, restrict_minimal, twist):
    """orbit_blocks as a breadth-first search per orbit under `twist`,
    through _class_orbits, with no stored orbits."""
    G = spec.ctx.G
    classes = G.conjugacy_classes()
    pool = minimal_index_classes(G) if restrict_minimal else classes[1:]
    orbits = invariants._class_orbits(pool, [lambda cid: twist(classes[cid], spec).class_id])
    return [OrbitBlock(spec.e, frozenset(o), len(o), classes[min(o)].index) for o in orbits]


class TestStoredOrbits:
    """orbit_blocks walks each orbit set once and keeps it on G."""

    def test_stored_orbits_agree_with_the_search_and_are_read_again(self, monkeypatch):
        pairs = every_pair()
        names = {(ctx.N.order, ctx.G.order) for ctx in pairs}
        # Kluners' N, G1 and G2; wreath A-D; S3; C5 in F20
        kluners = {(18, 18), (18, 9), (18, 3)}
        wreath = {(162, 162), (162, 81), (162, 54), (162, 27)}
        assert kluners | wreath | {(6, 6), (20, 5)} <= names
        twist, calls = invariants.twist_class, []

        def counted(c, spec):
            calls.append(c.class_id)
            return twist(c, spec)

        monkeypatch.setattr(invariants, "twist_class", counted)
        # (G, q mod |G|, tau^{-e}, pool) of every set walked so far; the
        # pairs stay alive in `pairs`, so no id is reused
        walked = set()
        checked = 0
        for ctx in pairs:
            G = ctx.G
            qs = []
            for q in range(2, 60):
                try:
                    require_prime_power(q)
                except NotAPrimePower:
                    continue
                if gcd(q, ctx.N.order) == 1:
                    qs.append(q)
            assert qs
            for q in qs:
                for e in ctx.admissible_e():
                    spec = TwistSpec(q=q, e=e, ctx=ctx)
                    for restrict_minimal in (True, False):
                        key = (id(G), q % G.order, spec.conjugator.images, restrict_minimal)
                        calls.clear()
                        blocks = orbit_blocks(spec, restrict_minimal)
                        if key in walked:
                            # a q' = q mod |G| on the same row and pool walked them
                            assert calls == []
                        walked.add(key)
                        assert blocks == oracle_orbit_blocks(spec, restrict_minimal, twist)
                        calls.clear()
                        assert orbit_blocks(spec, restrict_minimal) == blocks
                        assert calls == []
                        checked += 1
        # some rows are read by a second q of the same residue
        assert checked > len(walked) > 0

    def test_a_second_context_on_the_row_reads_its_own_e(self):
        # tau^3 in F20 makes the conjugator of e = 1 the old tau^{-3}: the
        # stored orbits are shared, the blocks carry each spec's own e
        ctx = next(ctx for ctx in twisted_pairs() if ctx.G.order == 5)
        moved = replace(ctx, tau=ctx.tau**3)
        old = orbit_blocks(TwistSpec(q=7, e=3, ctx=ctx), restrict_minimal=False)
        new = orbit_blocks(TwistSpec(q=7, e=1, ctx=moved), restrict_minimal=False)
        assert [b.e for b in old] == [3] * len(old)
        assert new == [replace(b, e=1) for b in old]

    def test_a_twist_that_is_no_permutation_is_a_typed_error(self, monkeypatch):
        # a map that sends two classes to one would send the walk round a
        # cycle that never returns to its start
        N = klueners()
        G1 = klueners_g1(N)
        spec = TwistSpec(q=5, e=1, ctx=find_cyclic_complement(N, G1))
        first, second = minimal_index_classes(G1)[:2]
        monkeypatch.setattr(
            invariants, "twist_class", lambda c, spec: second if c is first else c
        )
        with pytest.raises(InvariantViolation, match="not a permutation"):
            orbit_blocks(spec, restrict_minimal=True)
        # nothing was stored: the next call walks again
        with pytest.raises(InvariantViolation, match="not a permutation"):
            orbit_blocks(spec, restrict_minimal=True)
