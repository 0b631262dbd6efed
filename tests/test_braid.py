"""Nielsen tuples, braid moves, orbit enumeration, stability model."""

from itertools import product as iproduct

import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from malle_lab import braid
from malle_lab.braid import (
    ClassVector,
    NielsenTuple,
    braid_generator,
    braid_generator_inverse,
    braid_orbits,
    class_vector_of,
    conway_parker_probe,
    enumerate_nielsen,
    frobenius_stable_orbits,
)
from malle_lab.errors import (
    IndexOutOfRange,
    InvariantViolation,
    TrivialClassPresent,
    UnknownSeed,
)
from malle_lab.groups import closure, derived_subgroup, find_cyclic_complement
from malle_lab.invariants import TwistSpec
from malle_lab.perms import Permutation, parse_cycles, product
from malle_lab.presets import get_preset
from test_groups import permutations_of


def s3():
    return closure([parse_cycles("(1 2)", 3), parse_cycles("(1 2 3)", 3)], 3)


def klueners():
    gens = [parse_cycles(s, 6) for s in ("(1 2 3)", "(4 5 6)", "(14)(25)(36)")]
    return closure(gens, 6)


def transposition_tuples(G, k):
    """Oracle: all generating product-one k-tuples of transpositions."""
    ts = [g for g in G if g.index() == 1]
    out = []
    for t in iproduct(ts, repeat=k):
        if not product(t, G.degree).is_identity:
            continue
        if closure(list(set(t)), G.degree).order == G.order:
            out.append(t)
    return out


class TestClassVector:
    def test_rejects_trivial_class(self):
        G = s3()
        with pytest.raises(TrivialClassPresent):
            class_vector_of(G, [Permutation.identity(3)])

    def test_weight_and_length(self):
        G = s3()
        t = parse_cycles("(1 2)", 3)
        cv = class_vector_of(G, [t, t, t, t])
        assert cv.length == 4
        assert cv.weight == 4  # four entries of index 1

    def test_addition_and_scaling(self):
        G = s3()
        t = parse_cycles("(1 2)", 3)
        c = parse_cycles("(1 2 3)", 3)
        cv = class_vector_of(G, [t, c])
        assert (cv + cv).counts == cv.scaled(2).counts
        assert (cv + cv).weight == 2 * cv.weight


class TestBraidMoves:
    def test_braid_move_formula(self):
        G = s3()
        a = parse_cycles("(1 2)", 3)
        b = parse_cycles("(1 3)", 3)
        t = NielsenTuple(G, (a, b, b, a))
        moved = braid_generator(t, 1)
        assert moved.entries[0] == a * b * a.inverse()
        assert moved.entries[1] == a
        assert moved.entries[2:] == t.entries[2:]

    def test_move_preserves_product_and_classes(self):
        G = s3()
        for t in map(lambda e: NielsenTuple(G, e), transposition_tuples(G, 4)):
            for i in (1, 2, 3):
                m = braid_generator(t, i)
                assert product(m.entries, 3).is_identity
                assert m.class_vector == t.class_vector

    def test_inverse_move(self):
        G = s3()
        for t in map(lambda e: NielsenTuple(G, e), transposition_tuples(G, 4)):
            for i in (1, 2, 3):
                assert braid_generator_inverse(braid_generator(t, i), i) == t
                assert braid_generator(braid_generator_inverse(t, i), i) == t

    def test_index_out_of_range(self):
        G = s3()
        a = parse_cycles("(1 2)", 3)
        t = NielsenTuple(G, (a, a))
        with pytest.raises(IndexOutOfRange):
            braid_generator(t, 0)
        with pytest.raises(IndexOutOfRange):
            braid_generator(t, 2)

    def test_changed_generated_subgroup_is_a_typed_error(self, monkeypatch):
        # raised, not asserted, so the check survives python -O
        G = s3()
        a, b = parse_cycles("(1 2)", 3), parse_cycles("(1 3)", 3)
        t = NielsenTuple(G, (a, b, b, a))
        orders = iter((G.order, closure([a], 3).order))
        monkeypatch.setattr(braid, "_closure_order", lambda G, entries: next(orders))
        with pytest.raises(InvariantViolation):
            braid_generator(t, 1)

    @pytest.mark.parametrize("k", [4, 5])
    def test_braid_relations_on_full_tuple_set(self, k):
        # commutation Q_i Q_j = Q_j Q_i for |i-j| >= 2 and the braid
        # relation Q_i Q_{i+1} Q_i = Q_{i+1} Q_i Q_{i+1}, checked as
        # exact identities on every k-tuple of transpositions (the raw
        # move needs no product-one constraint; 5 transpositions can
        # never multiply to the identity)
        G = s3()
        ts = [g for g in G if g.index() == 1]

        def q(t, i):
            g = list(t)
            a, b = g[i - 1], g[i]
            g[i - 1], g[i] = a * b * a.inverse(), a
            return tuple(g)

        tuples = list(iproduct(ts, repeat=k))
        assert len(tuples) == 3**k
        for t in tuples:
            for i in range(1, k):
                for j in range(i + 2, k):
                    assert q(q(t, i), j) == q(q(t, j), i)
            for i in range(1, k - 1):
                assert q(q(q(t, i), i + 1), i) == q(q(q(t, i + 1), i), i + 1)


class TestEnumeration:
    def test_s3_four_transpositions(self):
        # 27 product-one 4-tuples of the 3 transpositions, of which the
        # 3 constant tuples fail to generate: 24 Nielsen tuples
        G = s3()
        t = parse_cycles("(1 2)", 3)
        cv = class_vector_of(G, [t] * 4)
        tuples = enumerate_nielsen(G, cv)
        assert len(tuples) == 24
        assert len(tuples) == len(transposition_tuples(G, 4))

    def test_enumeration_matches_oracle_mixed_vector(self):
        G = s3()
        t = parse_cycles("(1 2)", 3)
        c = parse_cycles("(1 2 3)", 3)
        cv = class_vector_of(G, [t, t, c])
        got = {tt.entries for tt in enumerate_nielsen(G, cv)}
        ts = [g for g in G if g.index() == 1]
        cs = [g for g in G if g.index() == 2]
        expect = set()
        for entries in iproduct(*[list(G)] * 3):
            if sorted(e.index() for e in entries) != [1, 1, 2]:
                continue
            if not product(entries, 3).is_identity:
                continue
            if closure(list(set(entries)), 3).order != 6:
                continue
            expect.add(entries)
        assert got == expect

    def test_empty_when_product_cannot_close(self):
        # a single transposition can never have product one
        G = s3()
        t = parse_cycles("(1 2)", 3)
        cv = class_vector_of(G, [t])
        assert enumerate_nielsen(G, cv) == []


def union_find_orbits(G, N, tuples):
    """Independent oracle: union-find over raw tuples joined by braid
    moves and simultaneous N-conjugation."""
    idx = {t: i for i, t in enumerate(tuples)}
    parent = list(range(len(tuples)))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    def union(x, y):
        rx, ry = find(x), find(y)
        if rx != ry:
            parent[rx] = ry

    for t in tuples:
        nt = NielsenTuple(G, t)
        for i in range(1, len(t)):
            union(idx[t], idx[braid_generator(nt, i).entries])
        for h in N:
            conj = tuple(g.conjugate_by(h) for g in t)
            union(idx[t], idx[conj])
    return len({find(i) for i in range(len(tuples))})


class TestOrbits:
    def test_clebsch_connectivity(self):
        G = s3()
        t = parse_cycles("(1 2)", 3)
        cv = class_vector_of(G, [t] * 4)
        orbits = braid_orbits(G, G, cv)
        assert len(orbits) == 1

    def test_union_find_oracle_four_transpositions(self):
        G = s3()
        t = parse_cycles("(1 2)", 3)
        cv = class_vector_of(G, [t] * 4)
        tuples = [tt.entries for tt in enumerate_nielsen(G, cv)]
        assert union_find_orbits(G, G, tuples) == len(braid_orbits(G, G, cv))

    def test_union_find_oracle_mixed_vector(self):
        G = s3()
        t = parse_cycles("(1 2)", 3)
        c = parse_cycles("(1 2 3)", 3)
        cv = class_vector_of(G, [t, t, c])
        tuples = [tt.entries for tt in enumerate_nielsen(G, cv)]
        assert tuples
        assert union_find_orbits(G, G, tuples) == len(braid_orbits(G, G, cv))

    def test_orbit_sizes_sum_to_conjugation_class_count(self):
        # orbit sizes count tuples up to simultaneous N-conjugation
        G = s3()
        t = parse_cycles("(1 2)", 3)
        c = parse_cycles("(1 2 3)", 3)
        cv = class_vector_of(G, [t, t, c, c])
        orbits = braid_orbits(G, G, cv)
        total = sum(o.size for o in orbits)
        raw = [tt.entries for tt in enumerate_nielsen(G, cv)]
        classes = {
            min(tuple(g.conjugate_by(h) for g in e) for h in G) for e in raw
        }
        assert total == len(classes)

    def test_traversal_order_independence(self):
        G = s3()
        t = parse_cycles("(1 2)", 3)
        c = parse_cycles("(1 2 3)", 3)
        cv = class_vector_of(G, [t, t, c])
        canonical = sorted(m for o in braid_orbits(G, G, cv) for m in o.members)
        a = braid_orbits(G, G, cv, _seed_order=canonical)
        b = braid_orbits(G, G, cv, _seed_order=canonical[::-1])
        assert a and b
        assert [(o.canonical_rep, o.size, o.members) for o in a] == [
            (o.canonical_rep, o.size, o.members) for o in b
        ]

    # a string is a sequence of characters, none of them a tuple; an empty
    # seed list leaves every canonical tuple outside the partition
    @pytest.mark.parametrize("seeds,error", [("sorted", UnknownSeed), ([], InvariantViolation)])
    def test_seed_order_must_be_canonical_and_cover_every_tuple(self, seeds, error):
        G = s3()
        t = parse_cycles("(1 2)", 3)
        c = parse_cycles("(1 2 3)", 3)
        cv = class_vector_of(G, [t, t, c])
        with pytest.raises(error):
            braid_orbits(G, G, cv, _seed_order=seeds)

    def test_klueners_g1_orbit(self):
        N = klueners()
        G1 = closure([parse_cycles("(1 2 3)", 6), parse_cycles("(4 5 6)", 6)], 6)
        entries = [
            parse_cycles(s, 6) for s in ("(1 2 3)", "(1 3 2)", "(4 5 6)", "(4 6 5)")
        ]
        cv = class_vector_of(G1, entries)
        orbits = braid_orbits(G1, N, cv)
        raw = [tt.entries for tt in enumerate_nielsen(G1, cv)]
        classes = {
            min(tuple(g.conjugate_by(h) for g in e) for h in N) for e in raw
        }
        assert sum(o.size for o in orbits) == len(classes)


# ---------------------------------------------------------------------------
# the minimal-image canonical form and the forward-only orbit search against
# the all-rows minimum and the two-way search they replaced


def oracle_canonical(ctx, t):
    """The least image of t over every conjugation row of N."""
    return min(tuple(row[g] for g in t) for row in ctx.conj_rows)


def oracle_orbit_partition(ctx, canonical_tuples):
    """BFS partition under Q_i and Q_i^{-1}, canonicalising with the oracle."""
    mul, inv = ctx.G.mul, ctx.G.inv
    unseen = set(canonical_tuples)
    orbits = []
    for seed in sorted(unseen):
        if seed not in unseen:
            continue
        members = {seed}
        frontier = [seed]
        while frontier:
            new = []
            for t in frontier:
                for i in range(len(t) - 1):
                    a, b = t[i], t[i + 1]
                    for pair in ((mul[mul[a][b]][inv[a]], a), (b, mul[mul[inv[b]][a]][b])):
                        u = oracle_canonical(ctx, t[:i] + pair + t[i + 2 :])
                        if u not in members:
                            members.add(u)
                            new.append(u)
            frontier = new
        unseen.difference_update(members)
        orbits.append(sorted(members))
    return orbits


def check_orbits_against_oracles(G, N, cv):
    """Canonical forms, partition, sizes and members agree with the oracles."""
    ctx = braid._indexed(G, N)
    tuples = braid._enumerate_idx(ctx, cv, braid.DEFAULT_NODE_CAP)
    for t in tuples:
        assert ctx.canonical(t) == oracle_canonical(ctx, t)
    canonical = sorted({oracle_canonical(ctx, t) for t in tuples})
    expect = oracle_orbit_partition(ctx, canonical)
    assert braid._orbit_partition(ctx, canonical, braid.DEFAULT_VISITED_CAP) == expect
    orbits = braid_orbits(G, N, cv)
    assert [sorted(o.members) for o in orbits] == expect
    assert [o.size for o in orbits] == [len(members) for members in expect]
    assert [tuple(G.index[g] for g in o.canonical_rep.entries) for o in orbits] == [
        members[0] for members in expect
    ]
    return orbits


def klueners_g1():
    return closure([parse_cycles("(1 2 3)", 6), parse_cycles("(4 5 6)", 6)], 6)


class TestMinimalImageOracles:
    @pytest.mark.parametrize("length", range(1, 7))
    def test_s3_every_class_vector(self, length):
        G = s3()
        t = parse_cycles("(1 2)", 3)
        c = parse_cycles("(1 2 3)", 3)
        found = 0
        for n_t in range(length + 1):
            cv = class_vector_of(G, [t] * n_t + [c] * (length - n_t))
            found += len(check_orbits_against_oracles(G, G, cv))
        # a generating product-one tuple of S3 has at least three entries
        assert found or length <= 2

    @pytest.mark.parametrize(
        "entries",
        [
            # N swaps the blocks, so it does not fix this class vector
            ("(1 2 3)", "(1 2 3)", "(1 2 3)", "(4 5 6)", "(4 6 5)"),
            ("(1 2 3)", "(1 3 2)", "(4 5 6)", "(4 6 5)"),
            ("(1 2 3)", "(1 2 3)", "(4 5 6)", "(1 2 3)(4 5 6)", "(4 5 6)"),
            ("(1 2 3)(4 5 6)", "(1 2 3)(4 6 5)", "(1 2 3)", "(4 5 6)", "(4 5 6)", "(4 5 6)"),
        ],
    )
    def test_klueners_g1_in_n(self, entries):
        G1 = klueners_g1()
        assert check_orbits_against_oracles(G1, klueners(), class_vector_of(
            G1, [parse_cycles(e, 6) for e in entries]))

    def test_canonical_rep_may_carry_the_image_class_vector(self):
        # the least N-image of a tuple may start in a class N fuses with
        # another, so its class vector is an N-image of cv, not cv itself
        G1, N = klueners_g1(), klueners()
        cv = class_vector_of(G1, [parse_cycles(e, 6) for e in (
            "(1 2 3)", "(1 2 3)", "(1 2 3)", "(4 5 6)", "(4 6 5)")])
        image = class_vector_of(G1, [parse_cycles(e, 6) for e in (
            "(4 5 6)", "(4 5 6)", "(4 5 6)", "(1 2 3)", "(1 3 2)")])
        orbits = braid_orbits(G1, N, cv)
        assert [o.class_vector for o in orbits] == [cv]
        assert {class_vector_of(G1, o.canonical_rep.entries) for o in orbits} == {image}

    def test_wreath_d_in_n_length_6(self):
        spec = get_preset("wreath-s18").spec
        N, D = spec.group(), spec.subgroup("D")
        entries = (
            "(4 6 5)(7 9 8)(13 15 14)(16 18 17)",
            "(1 2 3)(4 5 6)(7 8 9)(10 11 12)(13 14 15)(16 17 18)",
            "(1 2 3)(4 5 6)(7 8 9)(10 11 12)(13 14 15)(16 17 18)",
            "(1 2 3)(4 5 6)(7 9 8)(10 11 12)(13 14 15)(16 18 17)",
            "(1 2 3)(4 6 5)(10 11 12)(13 15 14)",
            "(1 3 2)(4 6 5)(10 12 11)(13 15 14)",
        )
        cv = class_vector_of(D, [parse_cycles(e, 18) for e in entries])
        assert check_orbits_against_oracles(D, N, cv)


S4 = ("(1 2)", "(1 2 3 4)")


@st.composite
def group_pairs(draw):
    """(G, N): S4 or a random subgroup of S5/S6 as N, with G = N or [N, N]."""
    degree = draw(st.sampled_from((4, 5, 6)))
    if degree == 4:
        N = closure([parse_cycles(g, 4) for g in S4], 4)
    else:
        N = closure(draw(st.lists(permutations_of(degree), min_size=1, max_size=3)), degree)
    # the conjugation rows cost |N| |G| conjugations
    assume(N.order <= 120)
    G = draw(st.sampled_from((N, derived_subgroup(N))))
    assume(G.order > 1)
    return G, N


@settings(max_examples=80, deadline=None, suppress_health_check=[HealthCheck.filter_too_much])
@given(pair=group_pairs(), data=st.data())
def test_canonical_is_the_least_image_and_a_conjugation_invariant(pair, data):
    G, N = pair
    ctx = braid._IndexedPair(G, N)
    for _ in range(5):
        t = tuple(data.draw(st.lists(st.integers(0, G.order - 1), min_size=1, max_size=6)))
        assert ctx.canonical(t) == oracle_canonical(ctx, t)
        x = data.draw(st.sampled_from(N.elements))
        moved = tuple(G.index[G.elements[g].conjugate_by(x)] for g in t)
        assert ctx.canonical(moved) == ctx.canonical(t)


class TestStability:
    def test_stable_orbits_klueners(self):
        N = klueners()
        G1 = closure([parse_cycles("(1 2 3)", 6), parse_cycles("(4 5 6)", 6)], 6)
        ctx = find_cyclic_complement(N, G1)
        spec = TwistSpec(q=5, e=1, ctx=ctx)
        entries = [
            parse_cycles(s, 6) for s in ("(1 2 3)", "(1 3 2)", "(4 5 6)", "(4 6 5)")
        ]
        cv = class_vector_of(G1, entries)
        orbits = braid_orbits(G1, N, cv)
        stable = frobenius_stable_orbits(orbits, spec)
        assert set(stable) <= set(orbits)

    def test_stability_with_trivial_twist_keeps_all(self):
        # G = N, q = 7 = 1 mod 6: powering by q fixes every class of S3
        G = s3()
        ctx = find_cyclic_complement(G, G)
        spec = TwistSpec(q=7, e=1, ctx=ctx)
        t = parse_cycles("(1 2)", 3)
        cv = class_vector_of(G, [t] * 4)
        orbits = braid_orbits(G, G, cv)
        assert len(frobenius_stable_orbits(orbits, spec)) == len(orbits)


class TestConwayParker:
    def test_s3_probe_stays_connected(self):
        G = s3()
        t = parse_cycles("(1 2)", 3)
        c = parse_cycles("(1 2 3)", 3)
        base = class_vector_of(G, [t] * 4)
        # both nontrivial classes, with even total parity so padded
        # vectors still admit product-one tuples
        pad = class_vector_of(G, [t, t, c])
        probe = conway_parker_probe(G, G, base, pad, max_m=2)
        assert not probe.truncated
        assert [m for m, _ in probe.counts] == [0, 1, 2]
        assert all(v == 1 for _, v in probe.counts)


def test_caches_are_bounded():
    assert braid._indexed.cache_info().maxsize == braid.PAIR_CACHE_SIZE == 16
    assert braid._IndexedPair.generates.cache_info().maxsize == braid.GENERATES_CACHE_SIZE == 2**16
