"""Group closure, conjugacy classes, normal-subgroup search, invariants."""

import gc
import weakref
from dataclasses import fields
from fractions import Fraction
from itertools import product as iproduct

import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from malle_lab import groups
from malle_lab.errors import (
    DegreeMismatch,
    NonCyclicQuotient,
    NotASubgroup,
    OrderCapExceeded,
    TrivialGroup,
)
from malle_lab.groups import (
    GNContext,
    _subgroups_between,
    a_invariant,
    centralizer,
    closure,
    derived_subgroup,
    find_cyclic_complement,
    group_index,
    normal_subgroups_with_abelian_quotient,
    normal_subgroups_with_cyclic_quotient,
    subgroup_generated,
)
from malle_lab.perms import Permutation, parse_cycles
from malle_lab.presets import abelian_suite, get_preset, preset_names


def s3():
    return closure([parse_cycles("(1 2)", 3), parse_cycles("(1 2 3)", 3)], 3)


def klueners():
    gens = [parse_cycles(s, 6) for s in ("(1 2 3)", "(4 5 6)", "(14)(25)(36)")]
    return closure(gens, 6)


class TestClosure:
    def test_s3_order(self):
        assert s3().order == 6

    def test_klueners_order(self):
        assert klueners().order == 18

    def test_brute_force_closure_oracle(self):
        # independent oracle: all products of generator words up to saturation
        gens = [parse_cycles(s, 4) for s in ("(1 2)", "(1 2 3 4)")]
        G = closure(gens, 4)
        elems = {Permutation.identity(4)}
        while True:
            new = {a * g for a in elems for g in gens} - elems
            if not new:
                break
            elems |= new
        assert set(G) == elems
        assert G.order == 24

    def test_degree_mismatch(self):
        with pytest.raises(DegreeMismatch):
            closure([parse_cycles("(1 2)", 3), parse_cycles("(1 2)", 4)], 3)

    def test_order_cap(self, monkeypatch):
        monkeypatch.setattr(groups, "ORDER_CAP", 100)
        gens = [parse_cycles("(1 2)", 8), parse_cycles("(1 2 3 4 5 6 7 8)", 8)]
        with pytest.raises(OrderCapExceeded):
            closure(gens, 8)


class TestConjugacyClasses:
    def test_s3_class_sizes(self):
        sizes = sorted(c.size for c in s3().conjugacy_classes())
        assert sizes == [1, 2, 3]

    def test_classes_partition_group(self):
        G = klueners()
        members = [p for c in G.conjugacy_classes() for p in c.members]
        assert sorted(members) == sorted(G)

    def test_class_closed_under_conjugation(self):
        G = s3()
        for c in G.conjugacy_classes():
            for g in c.members:
                for h in G:
                    assert g.conjugate_by(h) in c.members

    def test_class_of(self):
        G = s3()
        t = parse_cycles("(1 2)", 3)
        assert t in G.class_of(t).members

    def test_a_group_with_classes_is_freed_without_a_gc_pass(self):
        # no class refers back to its group, so the classes make no
        # reference cycle and the group dies with its last reference
        G = closure([parse_cycles("(1 2 3)", 4), parse_cycles("(2 3 4)", 4)], 4)
        assert G.order == 12 and len(G.conjugacy_classes()) == 4
        group = weakref.ref(G)
        gc.disable()
        try:
            del G
            assert group() is None
        finally:
            gc.enable()


class TestInvariants:
    def test_ind_examples(self):
        assert parse_cycles("(1 2)", 3).index() == 1
        assert parse_cycles("(1 2 3)", 6).index() == 2
        assert parse_cycles("(1 2 3)(4 5 6)", 6).index() == 4
        assert Permutation.identity(5).index() == 0

    def test_a_s3_natural(self):
        assert a_invariant(s3()) == Fraction(1)

    def test_a_klueners(self):
        assert a_invariant(klueners()) == Fraction(1, 2)

    def test_a_brute_force_oracle(self):
        G = klueners()
        m = min(g.index() for g in G if not g.is_identity)
        assert a_invariant(G) == Fraction(1, m)
        assert group_index(G) == m

    def test_trivial_group_rejected(self):
        T = closure([Permutation.identity(3)], 3)
        with pytest.raises(TrivialGroup):
            a_invariant(T)
        with pytest.raises(TrivialGroup):
            group_index(T)

    def test_group_index_is_the_element_scan(self):
        # group_index reads the index each class stores; the oracle scans
        # every element of G
        groups_checked = [
            s3(),
            closure([parse_cycles("(1 2)", 4), parse_cycles("(1 2 3 4)", 4)], 4),
            closure([parse_cycles("(1 2 3)", 5), parse_cycles("(1 2 3 4 5)", 5)], 5),
        ]
        assert [G.order for G in groups_checked] == [6, 24, 60]
        for name in preset_names():
            spec = get_preset(name).spec
            groups_checked += [spec.group(), *map(spec.subgroup, sorted(spec.named_subgroups))]
        groups_checked += [spec.group() for spec in abelian_suite().values()]
        for name in ("wreath-s18", "klueners-s6"):
            lattice = groups._abelian_lattice(get_preset(name).spec.group())
            groups_checked += [G for G, _, _ in lattice if G.order > 1]
        assert len(groups_checked) > 3 + len(preset_names()) + 12
        for G in groups_checked:
            assert group_index(G) == min(g.index() for g in G.elements if not g.is_identity)


class TestSubgroupSearch:
    def test_klueners_derived_subgroup_is_antidiagonal(self):
        N = klueners()
        D = derived_subgroup(N)
        assert D.order == 3
        assert parse_cycles("(1 2 3)(4 6 5)", 6) in D

    def test_klueners_cyclic_quotient_normals(self):
        # orders 18, 9, 6, 3: N itself, the base C3xC3, an S3-like
        # subgroup, and the antidiagonal C3
        N = klueners()
        subs = normal_subgroups_with_cyclic_quotient(N)
        assert [G.order for G in subs] == [18, 9, 6, 3]
        for G in subs:
            assert G.is_normal_in(N)

    def test_cyclic_quotient_brute_force_oracle(self):
        # independent oracle over all subsets closed as subgroups
        N = s3()
        subs = normal_subgroups_with_cyclic_quotient(N)
        orders = sorted(G.order for G in subs)
        # S3: trivial (quotient S3, not cyclic), C2 x3 (not normal),
        # A3 (quotient C2), S3 (trivial quotient)
        assert orders == [3, 6]

    def test_abelian_quotient_includes_trivial_for_abelian(self):
        C4 = closure([parse_cycles("(1 2 3 4)", 4)], 4)
        orders = sorted(G.order for G in normal_subgroups_with_abelian_quotient(C4))
        assert orders == [1, 2, 4]

    def test_centralizer(self):
        N = klueners()
        G1 = closure([parse_cycles("(1 2 3)", 6), parse_cycles("(4 5 6)", 6)], 6)
        C = centralizer(N, G1)
        # the centralizer of C3 x C3 in N is itself (tau inverts nothing:
        # it swaps the factors, so it does not centralize)
        assert C.order == 9


class TestGNContext:
    def test_klueners_g1_context(self):
        N = klueners()
        G1 = closure([parse_cycles("(1 2 3)", 6), parse_cycles("(4 5 6)", 6)], 6)
        ctx = find_cyclic_complement(N, G1)
        assert ctx.d == 2
        assert ctx.d_prime == 2
        assert ctx.split
        assert ctx.tau.order() == 2
        assert ctx.admissible_e() == [1]

    def test_g_equal_n_context(self):
        N = s3()
        ctx = find_cyclic_complement(N, N)
        assert ctx.d == 1 and ctx.d_prime == 1 and ctx.split

    def test_non_cyclic_quotient_rejected(self):
        # the diagonal <(123)(456)> has quotient isomorphic to S3
        N = klueners()
        G = closure([parse_cycles("(1 2 3)(4 5 6)", 6)], 6)
        assert G.is_normal_in(N)
        with pytest.raises(NonCyclicQuotient):
            find_cyclic_complement(N, G)

    def test_not_a_subgroup_rejected(self):
        N = s3()
        H = closure([parse_cycles("(1 2 3 4)", 4)], 4)
        with pytest.raises((NotASubgroup, DegreeMismatch)):
            find_cyclic_complement(N, H)

    def test_non_split_fallback(self):
        # C4 over its C2 subgroup: quotient C2 but no complement
        C4 = closure([parse_cycles("(1 2 3 4)", 4)], 4)
        C2 = closure([parse_cycles("(13)(24)", 4)], 4)
        ctx = find_cyclic_complement(C4, C2)
        assert not ctx.split
        assert ctx.d == 2

    def test_dprime_divides_d(self):
        N = klueners()
        for G in normal_subgroups_with_cyclic_quotient(N):
            if G.order == N.order:
                continue
            ctx = find_cyclic_complement(N, G)
            assert ctx.d % ctx.d_prime == 0


# ---------------------------------------------------------------------------
# the lattice step against the straightforward algorithms it replaced


def oracle_derived_subgroup(N):
    """[N, N] closed from all |N|^2 commutators."""
    comms = {a.commutator(b) for a in N.elements for b in N.elements}
    return subgroup_generated(N, comms)


def oracle_subgroups_between(N, D):
    """Every H between D and N, re-closing H's elements plus x for each x."""
    seen = {D._element_set: D}
    frontier = [D]
    while frontier:
        new = []
        for H in frontier:
            for x in N.elements:
                if x in H:
                    continue
                H2 = subgroup_generated(N, set(H.elements) | {x})
                if H2._element_set not in seen:
                    seen[H2._element_set] = H2
                    new.append(H2)
        frontier = new
    return list(seen.values())


def oracle_generates_quotient(N, H, x):
    """Whether the cosets x^k H, k = 0..[N:H]-1, cover N, from products
    and element sets alone; a coset met twice ends the walk."""
    covered, y = set(), N.identity
    for _ in range(N.order // H.order):
        if y in covered:
            return False
        covered |= {y * h for h in H.elements}
        y = y * x
    return covered == N._element_set


def check_lattice_against_oracles(N):
    D, oracle_D = derived_subgroup(N), oracle_derived_subgroup(N)
    assert D._element_set == oracle_D._element_set
    subs = _subgroups_between(N, D)
    oracle = oracle_subgroups_between(N, oracle_D)
    expected = {H._element_set for H in oracle}
    assert len(subs) == len(expected)
    assert {H._element_set for H in subs} == expected
    # later steps close from the generators, so they must generate
    for H in [D, *subs]:
        assert closure(H.generators, N.degree)._element_set == H._element_set
    # N/H is cyclic when one coset's powers cover N; this decides it
    # without the coset table that find_cyclic_complement reads
    cyclic = [H for H in oracle if any(oracle_generates_quotient(N, H, x) for x in N.elements)]
    cyclic.sort(key=lambda H: (-H.order, H.elements))
    assert [H._element_set for H in normal_subgroups_with_cyclic_quotient(N)] == [
        H._element_set for H in cyclic
    ]


# S4: the commutators of its two generators alone generate a C3, not A4.
# C4 = <g>: skipping every x inside <1, g> would lose <g^2>.
SMALL_GROUPS = {
    "S4": (4, ("(1 2)", "(1 2 3 4)")),
    "A4": (4, ("(1 2 3)", "(1 2)(3 4)")),
    "D4": (4, ("(1 2 3 4)", "(1 3)")),
    "C4": (4, ("(1 2 3 4)",)),
    "C2xC2": (4, ("(1 2)", "(3 4)")),
    "S3xC3": (6, ("(1 2)", "(1 2 3)", "(4 5 6)")),
}


PRESET_SPECS = {
    **{name: get_preset(name).spec for name in ("klueners-s6", "wreath-s18", "s3-clebsch")},
    **abelian_suite(),
}


class TestStoredFields:
    """Fields that the code sets once and reads in place of a recomputation."""

    @pytest.mark.parametrize("name", sorted(PRESET_SPECS))
    def test_class_index_and_triviality_match_their_definitions(self, name):
        spec = PRESET_SPECS[name]
        for G in [spec.group(), *map(spec.subgroup, spec.named_subgroups)]:
            classes = G.conjugacy_classes()
            for c in classes:
                assert {c.index} == {g.index() for g in c.members}
                assert c.is_trivial == c.representative.is_identity
            assert sum(c.is_trivial for c in classes) == 1

    @pytest.mark.parametrize("name", sorted(PRESET_SPECS))
    def test_identity_is_element_zero(self, name):
        N = PRESET_SPECS[name].group()
        D = derived_subgroup(N)
        built = [N, D, *_subgroups_between(N, D), *(centralizer(N, H) for H in (N, D))]
        assert all(H.elements[0].is_identity for H in built)


@st.composite
def permutations_of(draw, degree):
    """A random permutation of a random set of at least two points."""
    support = draw(st.lists(st.integers(1, degree), min_size=2, max_size=degree, unique=True))
    images = list(range(1, degree + 1))
    for a, b in zip(support, draw(st.permutations(support))):
        images[a - 1] = b
    return Permutation(images)


class TestLatticeOracles:
    @pytest.mark.parametrize("name", sorted(SMALL_GROUPS))
    def test_small_groups(self, name):
        degree, gens = SMALL_GROUPS[name]
        check_lattice_against_oracles(closure([parse_cycles(g, degree) for g in gens], degree))

    @pytest.mark.parametrize("name", sorted(PRESET_SPECS))
    def test_preset_groups(self, name):
        # wreath-s18 takes about 8 s: the oracle makes ~7M products
        check_lattice_against_oracles(PRESET_SPECS[name].group())

    @settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.filter_too_much])
    @given(degree=st.sampled_from((5, 6)), data=st.data())
    def test_random_subgroups_of_s5_s6(self, degree, data):
        N = closure(data.draw(st.lists(permutations_of(degree), min_size=1, max_size=3)), degree)
        # the oracle lattice costs up to |N|^3 products: 2 s at |N| = 120
        assume(N.order <= 72)
        check_lattice_against_oracles(N)


def check_lattice_rows(monkeypatch, N):
    """Each row of _abelian_lattice(N) against the public routines: the
    context against find_cyclic_complement field by field, a against
    a_invariant, and the centralizer the prefix chain handed to the
    complement search against centralizer(N, G)."""
    chained = {}
    search = groups._cyclic_complement

    def recorded(N, G, cen):
        chained[G.elements] = tuple(cen)
        return search(N, G, cen)

    monkeypatch.setattr(groups, "_cyclic_complement", recorded)
    groups._abelian_lattice.cache_clear()
    rows = groups._abelian_lattice(N)
    monkeypatch.undo()
    assert [G for G, _, _ in rows] == normal_subgroups_with_abelian_quotient(N)
    assert len(chained) == len(rows)
    for G, a, ctx in rows:
        assert chained[G.elements] == centralizer(N, G).elements
        assert a == (a_invariant(G) if G.order > 1 else None)
        try:
            expected = find_cyclic_complement(N, G)
        except NonCyclicQuotient:
            assert ctx is None
            continue
        for f in fields(GNContext):
            assert getattr(ctx, f.name) == getattr(expected, f.name), (G, f.name)


class TestLatticeRows:
    """The lattice shares its work across its G (docs/decisions.md,
    "Shared work across the lattice"); each row is what the public
    routines give for that G alone."""

    @pytest.mark.parametrize("name", sorted(PRESET_SPECS))
    def test_preset_groups(self, monkeypatch, name):
        check_lattice_rows(monkeypatch, PRESET_SPECS[name].group())

    def test_s3_and_s4(self, monkeypatch):
        degree, gens = SMALL_GROUPS["S4"]
        for N in (s3(), closure([parse_cycles(g, degree) for g in gens], degree)):
            check_lattice_rows(monkeypatch, N)

    @settings(
        max_examples=60, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
    )
    @given(data=st.data())
    def test_random_groups(self, monkeypatch, data):
        gens, degree = random_group(data, (1, 2, 3, 4, 5, 6))
        check_lattice_rows(monkeypatch, closure(gens, degree))


# ---------------------------------------------------------------------------
# the indexed core against the algorithms it replaced


def oracle_classes(G):
    """(class_id, representative, members): conjugates by every element."""
    remaining = set(G.elements)
    classes = []
    for g in G.elements:
        if g not in remaining:
            continue
        members = sorted({g.conjugate_by(x) for x in G.elements})
        remaining.difference_update(members)
        classes.append((members[0], tuple(members)))
    classes.sort(key=lambda pair: pair[0])
    return [(i, rep, members) for i, (rep, members) in enumerate(classes)]


def oracle_d_prime(N, G):
    """[N : G Cen_N(G)], closing G with every centralizer element."""
    gcen = subgroup_generated(N, set(G.generators) | set(centralizer(N, G).elements))
    return N.order // gcen.order


def check_core_against_oracles(N):
    pairs = normal_subgroups_with_cyclic_quotient(N)
    for G in {N, *pairs}:
        classes = G.conjugacy_classes()
        assert [(c.class_id, c.representative, c.members) for c in classes] == oracle_classes(G)
        for i, p in enumerate(G.elements):
            assert G.index[p] == i
            assert G.class_of(p).class_id == G.class_ids[G.index[p]]
            assert p in G.class_of(p).members
    for G in pairs:
        assert find_cyclic_complement(N, G).d_prime == oracle_d_prime(N, G)


class TestCoreOracles:
    @pytest.mark.parametrize("name", sorted(SMALL_GROUPS))
    def test_small_groups(self, name):
        degree, gens = SMALL_GROUPS[name]
        check_core_against_oracles(closure([parse_cycles(g, degree) for g in gens], degree))

    @pytest.mark.parametrize("name", sorted(PRESET_SPECS))
    def test_preset_groups(self, name):
        check_core_against_oracles(PRESET_SPECS[name].group())

    @settings(max_examples=60, deadline=None)
    @given(degree=st.sampled_from((5, 6)), data=st.data())
    def test_random_subgroups_of_s5_s6(self, degree, data):
        N = closure(data.draw(st.lists(permutations_of(degree), min_size=1, max_size=3)), degree)
        check_core_against_oracles(N)

    def test_class_of_a_non_member(self):
        G = closure([parse_cycles("(1 2 3)", 4)], 4)
        with pytest.raises(NotASubgroup):
            G.class_of(parse_cycles("(1 2)", 4))


# ---------------------------------------------------------------------------
# the image-tuple kernels and the coset table against their definitions in
# Permutation arithmetic, on random subgroups of S_n with n = 1 and 2 included


def permutations_in(degree):
    """Any permutation of 1..degree, the identity included."""
    return st.permutations(range(1, degree + 1)).map(Permutation)


def random_group(data, degrees):
    degree = data.draw(st.sampled_from(degrees))
    gens = data.draw(st.lists(permutations_in(degree), min_size=1, max_size=3))
    return gens, degree


def normal_closure(N, seed):
    """The subgroup of N generated by every N-conjugate of seed."""
    return subgroup_generated(N, {g.conjugate_by(x) for g in seed for x in N.elements})


def old_coset_order(G, x):
    """Order of xG: the least k with x^k in G, by repeated products."""
    k, y = 1, x
    while y not in G:
        y, k = y * x, k + 1
    return k


DEGREES = (1, 2, 3, 4, 5)


def oracle_closure(gens, degree):
    """Breadth-first closure over Permutation.__mul__, in sorted order."""
    elements = {Permutation.identity(degree)}
    frontier = list(elements)
    while frontier:
        frontier = [y for y in {x * g for x in frontier for g in gens} if y not in elements]
        elements.update(frontier)
    return tuple(sorted(elements))


class TestTupleKernels:
    @settings(max_examples=80, deadline=None)
    @given(data=st.data())
    def test_closure_matches_a_product_bfs(self, data):
        gens, degree = random_group(data, (1, 2, 3, 4, 5, 6, 7))
        G = closure(gens, degree)
        assert G.elements == oracle_closure(gens, degree)
        assert all(type(p) is Permutation for p in G.elements)

    @settings(max_examples=80, deadline=None)
    @given(data=st.data())
    def test_centralizer_is_the_commuting_filter(self, data):
        N = closure(*random_group(data, (1, 2, 3, 4, 5, 6)))
        seed = data.draw(st.lists(st.sampled_from(N.elements), min_size=1, max_size=2))
        G = subgroup_generated(N, seed)
        C = centralizer(N, G)
        assert C.elements == tuple(
            x for x in N.elements if all(x * g == g * x for g in G.elements)
        )


class TestGatherKernels:
    @settings(max_examples=80, deadline=None)
    @given(data=st.data())
    def test_classes_match_conjugate_by(self, data):
        G = closure(*random_group(data, DEGREES))
        classes = G.conjugacy_classes()
        assert [(c.class_id, c.representative, c.members) for c in classes] == oracle_classes(G)
        # members are G's own objects, not copies
        own = {id(p) for p in G.elements}
        assert all(id(p) in own for c in classes for p in c.members)

    @settings(max_examples=80, deadline=None)
    @given(data=st.data())
    def test_cosets_match_coset_order(self, data):
        N = closure(*random_group(data, DEGREES))
        seed = data.draw(st.lists(st.sampled_from(N.elements), min_size=1, max_size=2))
        G = normal_closure(N, seed)
        coset, reps, orders = groups._cosets(N, G)
        least = {}
        for x in N.elements:
            least.setdefault(frozenset(x * g for g in G.elements), x)
        assert reps == sorted(least.values())
        assert reps[0] == N.identity
        for x in N.elements:
            k = coset[x.images]
            assert least[frozenset(x * g for g in G.elements)] == reps[k]
            assert orders[k] == old_coset_order(G, x)
        assert len(coset) == N.order and len(reps) * G.order == N.order

    @settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.filter_too_much])
    @given(data=st.data())
    def test_subgroups_between_match_subgroup_generated(self, data):
        N = closure(*random_group(data, DEGREES))
        assume(N.order <= 72)
        D = derived_subgroup(N)
        subs = _subgroups_between(N, D)
        expected = {H._element_set for H in oracle_subgroups_between(N, D)}
        assert len(subs) == len(expected)
        assert {H._element_set for H in subs} == expected
        # every subgroup found above D holds N's own objects, and each one
        # closes from its generators
        own = {id(p) for p in N.elements}
        for H in subs:
            assert H is D or all(id(p) in own for p in H.elements)
            assert closure(H.generators, N.degree).elements == H.elements

    def test_degree_one(self):
        T = closure([Permutation.identity(1)], 1)
        assert T.elements == (Permutation.identity(1),)
        assert [c.members for c in T.conjugacy_classes()] == [T.elements]
        assert centralizer(T, T) == T
        assert groups._cosets(T, T) == ({(1,): 0}, [T.identity], [1])
        assert _subgroups_between(T, T) == [T]
        assert normal_subgroups_with_cyclic_quotient(T) == [T]
        assert find_cyclic_complement(T, T).split
