"""Nielsen tuples, braid moves, orbit enumeration, stability model."""

import gc
import weakref
from collections import Counter
from functools import lru_cache, partial
from itertools import combinations, combinations_with_replacement, islice
from itertools import product as iproduct

import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from malle_lab import braid, series
from malle_lab.braid import (
    ClassVector,
    NielsenTuple,
    braid_orbits,
    class_vector_of,
    conway_parker_probe,
    frobenius_stable_orbits,
)
from malle_lab.errors import (
    EnumerationCapExceeded,
    InvariantViolation,
    NotASubgroup,
    TrivialClassPresent,
)
from malle_lab.groups import GROUP_CACHE_SIZE, closure, derived_subgroup, find_cyclic_complement
from malle_lab.invariants import TwistSpec
from malle_lab.perms import Permutation, parse_cycles, product
from malle_lab.presets import abelian_q, abelian_suite, get_preset
from test_acceptance import stable_generating_multisets
from test_groups import permutations_of


def s3():
    return closure([parse_cycles("(1 2)", 3), parse_cycles("(1 2 3)", 3)], 3)


def a3():
    return closure([parse_cycles("(1 2 3)", 3)], 3)


def klueners():
    gens = [parse_cycles(s, 6) for s in ("(1 2 3)", "(4 5 6)", "(14)(25)(36)")]
    return closure(gens, 6)


def s4():
    return closure([parse_cycles("(1 2)", 4), parse_cycles("(1 2 3 4)", 4)], 4)


def a4():
    return closure([parse_cycles("(1 2 3)", 4), parse_cycles("(2 3 4)", 4)], 4)


def a5():
    return closure([parse_cycles("(1 2 3)", 5), parse_cycles("(1 2 3 4 5)", 5)], 5)


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


def enumerate_idx(ctx, cv):
    """braid._enumerate_idx over the N-images of cv, drawn to the end."""
    return list(braid._enumerate_idx(ctx, braid._class_vector_images(ctx, cv)))


def enumerate_nielsen(G, cv):
    """All Nielsen tuples of G whose entry class multiset equals cv, sorted by element index.

    Each is a G-conjugate of one canonical form: every conjugation row of
    G applied to every canonical tuple.  The rows act freely on generating
    tuples (the braid module docstring), so no tuple comes out twice.
    """
    ctx = braid._indexed(G, G)
    tuples = sorted(
        tuple(map(row.__getitem__, t)) for t in enumerate_idx(ctx, cv) for row in ctx.conj_rows
    )
    return [NielsenTuple(G, tuple(G.elements[i] for i in t)) for t in tuples]


class TestClassVector:
    def test_rejects_trivial_class(self):
        G = s3()
        with pytest.raises(TrivialClassPresent):
            class_vector_of(G, [Permutation.identity(3)])

    def test_length(self):
        G = s3()
        t = parse_cycles("(1 2)", 3)
        cv = class_vector_of(G, [t, t, t, t])
        assert cv.length == 4

    def test_addition_and_scaling(self):
        G = s3()
        t = parse_cycles("(1 2)", 3)
        c = parse_cycles("(1 2 3)", 3)
        cv = class_vector_of(G, [t, c])
        assert (cv + cv).counts == cv.scaled(2).counts
        assert (cv + cv).length == 2 * cv.length

    def test_equality_tells_the_groups_apart(self):
        # class 1 of S3 is the transpositions, class 1 of A3 is {(1 2 3)}
        G, A3 = s3(), a3()
        t, c = parse_cycles("(1 2)", 3), parse_cycles("(1 2 3)", 3)
        assert class_vector_of(G, [t, t]) != class_vector_of(A3, [c, c])
        assert class_vector_of(G, [t, t]) == class_vector_of(s3(), [t, t])
        assert NielsenTuple(G, (c, c, c)) != NielsenTuple(A3, (c, c, c))

    def test_a_class_vector_of_another_group_is_refused(self):
        # the class ids of cv.group, read as classes of G, name other classes
        N, G1 = klueners(), klueners_g1()
        entries = [parse_cycles(s, 6) for s in ("(1 2 3)", "(1 3 2)", "(4 5 6)", "(4 6 5)")]
        assert [o.size for o in braid_orbits(G1, N, class_vector_of(G1, entries))] == [12]
        with pytest.raises(ValueError, match="another group"):
            braid_orbits(G1, N, class_vector_of(N, entries))
        G = s3()
        cv = class_vector_of(a3(), [parse_cycles("(1 2 3)", 3)] * 3)
        with pytest.raises(ValueError, match="another group"):
            braid_orbits(G, G, cv)
        with pytest.raises(ValueError, match="another group"):
            braid.nielsen_count(G, cv)


class TestNielsenTuple:
    def test_an_entry_outside_the_group_is_refused(self):
        # checked once, when the tuple is made, and not first by a move
        t = parse_cycles("(1 2)", 3)
        with pytest.raises(NotASubgroup):
            NielsenTuple(a3(), (t, t))
        assert len(NielsenTuple(s3(), (t, t)).entries) == 2


def braid_generator(t: tuple[Permutation, ...], i: int) -> tuple[Permutation, ...]:
    """Q_i: replace (g_i, g_{i+1}) by (g_i g_{i+1} g_i^{-1}, g_i); 1-based.

    The Permutation-level definition of the move that braid's orbit search
    applies on element indices; the oracles below are built on it.
    """
    g = list(t)
    a, b = g[i - 1], g[i]
    g[i - 1], g[i] = a * b * a.inverse(), a
    return tuple(g)


def braid_generator_inverse(t: tuple[Permutation, ...], i: int) -> tuple[Permutation, ...]:
    """Q_i^{-1}: replace (g_i, g_{i+1}) by (g_{i+1}, g_{i+1}^{-1} g_i g_{i+1})."""
    g = list(t)
    a, b = g[i - 1], g[i]
    g[i - 1], g[i] = b, b.inverse() * a * b
    return tuple(g)


class TestBraidMoves:
    def test_braid_move_formula(self):
        a = parse_cycles("(1 2)", 3)
        b = parse_cycles("(1 3)", 3)
        t = (a, b, b, a)
        moved = braid_generator(t, 1)
        assert moved[0] == a * b * a.inverse()
        assert moved[1] == a
        assert moved[2:] == t[2:]

    def test_move_preserves_product_and_classes(self):
        # and the subgroup the entries generate
        G = s3()
        for t in transposition_tuples(G, 4):
            for i in (1, 2, 3):
                m = braid_generator(t, i)
                assert product(m, 3).is_identity
                assert class_vector_of(G, m) == class_vector_of(G, t)
                assert closure(list(m), 3).order == closure(list(t), 3).order

    def test_inverse_move(self):
        G = s3()
        for t in transposition_tuples(G, 4):
            for i in (1, 2, 3):
                assert braid_generator_inverse(braid_generator(t, i), i) == t
                assert braid_generator(braid_generator_inverse(t, i), i) == t

    @pytest.mark.parametrize("k", [4, 5])
    def test_braid_relations_on_full_tuple_set(self, k):
        # commutation Q_i Q_j = Q_j Q_i for |i-j| >= 2 and the braid
        # relation Q_i Q_{i+1} Q_i = Q_{i+1} Q_i Q_{i+1}, checked as
        # exact identities on every k-tuple of transpositions (the raw
        # move needs no product-one constraint; 5 transpositions can
        # never multiply to the identity)
        G = s3()
        ts = [g for g in G if g.index() == 1]
        q = braid_generator
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
        for i in range(1, len(t)):
            union(idx[t], idx[braid_generator(t, i)])
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
        ctx = braid._indexed(G, G)
        seeds = enumerate_idx(ctx, cv)
        slice_ = slice_of(ctx, seeds)
        a = sorted((least, sorted(m)) for least, m in braid._orbit_partition(ctx, slice_, seeds))
        b = sorted((least, sorted(m)) for least, m in braid._orbit_partition(ctx, slice_, seeds[::-1]))
        assert a and a == b
        # braid_orbits is this partition, sorted by least member: its
        # membership splits the seeds, each part as large as the orbit
        orbits = braid_orbits(G, G, cv)
        parts = [sorted(filter(o._contains, seeds)) for o in orbits]
        assert sorted(t for part in parts for t in part) == sorted(seeds)
        assert [(part[0], len(part), o.size) for part, o in zip(parts, orbits)] == [
            (least, len(m) * slice_.arrangements, len(m) * slice_.arrangements) for least, m in a
        ]

    def test_orbit_sizes_must_cover_every_canonical_tuple(self, monkeypatch):
        # two orbits (12 and 36), so the count sends braid_orbits on to the
        # full enumeration and the partition; a vector of one orbit stops
        # before it
        G, _, cv = slice_case("S4", {2: 2, 4: 2})
        partition = braid._orbit_partition
        monkeypatch.setattr(braid, "_orbit_partition", lambda *args: partition(*args)[1:])
        with pytest.raises(InvariantViolation, match="orbit sizes sum to"):
            braid_orbits(G, G, cv)

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
# the orderly enumeration, the minimal-image canonical form and the
# forward-only orbit search against the plain enumerator, the all-rows
# minimum and the two-way search they replaced


def oracle_enumerate_idx(ctx, cv, node_cap=braid.NODE_CAP):
    """All product-one tuples with class multiset cv that generate G."""
    counts = cv.counts
    k = cv.length
    out = []
    if k == 0:
        return out
    G = ctx.G
    mul, inv, class_ids, index = G.mul, G.inv, G.class_ids, G.index
    identity = index[G.identity]
    members = {
        c.class_id: [index[m] for m in c.members]
        for c in G.conjugacy_classes()
        if c.class_id in counts
    }
    nodes = 0
    entries = []

    @lru_cache(maxsize=None)  # one call's entry sets, as in _enumerate_idx
    def generates(key):
        return len(subgroup_closure(G, key)) == G.order

    def dfs(pos, prefix):
        nonlocal nodes
        nodes += 1
        if nodes > node_cap:
            raise EnumerationCapExceeded(
                f"tuple enumeration exceeded {node_cap} prefix states",
                partial=list(out),
            )
        if pos == k - 1:
            last = inv[prefix]
            cid = class_ids[last]
            if counts.get(cid, 0) > 0 and last != identity:
                entries.append(last)
                if generates(frozenset(entries)):
                    out.append(tuple(entries))
                entries.pop()
            return
        for cid in sorted(counts):
            if counts[cid] == 0:
                continue
            counts[cid] -= 1
            row = mul[prefix]
            for g in members[cid]:
                entries.append(g)
                dfs(pos + 1, row[g])
                entries.pop()
            counts[cid] += 1

    dfs(0, identity)
    return out


def oracle_canonical(ctx, t):
    """The least image of t over every conjugation row of N."""
    return min(tuple(row[g] for g in t) for row in ctx.conj_rows)


def oracle_forms(ctx, tuples):
    """oracle_canonical of every tuple N-conjugate to one of tuples.

    The least image is found once per N-orbit of tuples: the rows' images
    of t are its whole orbit, and they share its least image.
    """
    forms = {}
    for t in tuples:
        if t not in forms:
            images = [tuple(map(row.__getitem__, t)) for row in ctx.conj_rows]
            forms.update(dict.fromkeys(images, min(images)))
    return forms


def oracle_orbit_partition(ctx, canonical_tuples, forms):
    """BFS partition under Q_i and Q_i^{-1}, canonicalising with oracle_forms."""
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
                        u = forms[t[:i] + pair + t[i + 2 :]]
                        if u not in members:
                            members.add(u)
                            new.append(u)
            frontier = new
        unseen.difference_update(members)
        orbits.append(sorted(members))
    return orbits


def oracle_fixed_prefix(ctx, t):
    """The least p such that only the identity row fixes t[:p] pointwise."""
    for p in range(len(t) + 1):
        if sum(all(row[g] == g for g in t[:p]) for row in ctx.conj_rows) == 1:
            return p
    return len(t)


def class_vector_images(G, N, cv):
    """The distinct x(cv), x in N, by conjugating class representatives."""
    classes = G.conjugacy_classes()
    return {
        ClassVector.from_counts(G, {
            G.class_of(classes[cid].representative.conjugate_by(x)).class_id: m
            for cid, m in cv.multiplicities
        })
        for x in N
    }


def check_orbits_against_oracles(G, N, cv):
    """Canonical forms, partition, sizes and membership agree with the oracles."""
    ctx = braid._indexed(G, N)
    tuples = oracle_enumerate_idx(ctx, cv)
    forms = oracle_forms(ctx, tuples)
    for t in tuples:
        assert ctx.canonical(t) == forms[t]
    canonical = sorted(set(forms.values()))
    expect = oracle_orbit_partition(ctx, canonical, forms)
    got = braid._orbit_partition(ctx, slice_of(ctx, canonical), canonical) if canonical else []
    # each orbit as its least member and its slice tuples, those whose
    # N-class keys are sorted
    assert sorted((least, sorted(m)) for least, m in got) == [
        (members[0], [t for t in members if in_slice(ctx, t)]) for members in expect
    ]
    orbits = braid_orbits(G, N, cv)
    assert [o.size for o in orbits] == [len(members) for members in expect]
    assert [tuple(G.index[g] for g in o.canonical_rep.entries) for o in orbits] == [
        members[0] for members in expect
    ]
    if orbits:
        other = another_class_vector(G, N, cv)
        check_membership(ctx, orbits, expect, enumerate_idx(ctx, other) if other else [])
    return orbits


def slice_of(ctx, seeds):
    """The slice of the class vector of the canonical tuples seeds."""
    return braid._Slice(ctx, sorted(ctx.nclass[g] for g in seeds[0]))


def in_slice(ctx, t):
    keys = [ctx.nclass[g] for g in t]
    return keys == sorted(keys)


def check_membership(ctx, orbits, parts, refused):
    """Each orbit's _contains against its oracle part.

    True on every tuple of the part and on its image under a conjugation
    row other than the identity (the rows take turns); false on every
    tuple of the other parts and on `refused`, tuples no orbit may hold.
    """
    rows = ctx.conj_rows[1:]
    for n, (orbit, part) in enumerate(zip(orbits, parts)):
        for i, t in enumerate(part):
            assert orbit._contains(t)
            if rows:
                assert orbit._contains(tuple(map(rows[i % len(rows)].__getitem__, t)))
        for t in [t for other in parts[:n] + parts[n + 1 :] for t in other] + refused:
            assert not orbit._contains(t)


def another_class_vector(G, N, cv):
    """The first class vector of cv's length with Nielsen tuples that is not
    an N-image of cv, in combinations_with_replacement order; None if none is."""
    ctx = braid._indexed(G, N)
    images = class_vector_images(G, N, cv)
    cids = [c.class_id for c in G.conjugacy_classes() if not c.is_trivial]
    for combo in combinations_with_replacement(cids, cv.length):
        other = ClassVector.from_counts(G, Counter(combo))
        if other not in images and enumerate_idx(ctx, other):
            return other
    return None


def check_orderly_enumeration(G, N, cv):
    """_enumerate_idx gives each canonical form of cv's tuples exactly once.

    The conjugation rows act freely on generating tuples (a row fixing one
    fixes G pointwise), so each canonical tuple stands for len(conj_rows)
    tuples, whose class vectors run over the N-images of cv, each image
    carrying as many tuples as cv.
    """
    ctx = braid._indexed(G, N)
    tuples = oracle_enumerate_idx(ctx, cv)
    got = enumerate_idx(ctx, cv)
    assert len(set(got)) == len(got)
    assert set(got) == {ctx.canonical(t) for t in tuples}
    assert len(got) * len(ctx.conj_rows) == len(tuples) * len(class_vector_images(G, N, cv))
    return got


def check_fixed_prefix(G, N, cv):
    """Past j(t) a move needs no canonicalisation, and j(t) is exact."""
    ctx = braid._indexed(G, N)
    mul, inv = G.mul, G.inv
    checked = 0
    for t in enumerate_idx(ctx, cv):
        u, j = ctx.least_image(t)
        assert u == t
        assert j == oracle_fixed_prefix(ctx, t)
        for i in range(j, len(t) - 1):
            a = t[i]
            moved = t[:i] + (mul[mul[a][t[i + 1]]][inv[a]], a) + t[i + 2 :]
            assert ctx.canonical(moved) == moved
            checked += 1
    return checked


def klueners_g1():
    return closure([parse_cycles("(1 2 3)", 6), parse_cycles("(4 5 6)", 6)], 6)


def s3_class_vectors(length):
    """Every class vector of S3 with `length` entries."""
    G = s3()
    t = parse_cycles("(1 2)", 3)
    c = parse_cycles("(1 2 3)", 3)
    return [class_vector_of(G, [t] * n_t + [c] * (length - n_t)) for n_t in range(length + 1)]


KLUENERS_G1_IN_N = [
    # N swaps the blocks, so it does not fix this class vector
    ("(1 2 3)", "(1 2 3)", "(1 2 3)", "(4 5 6)", "(4 6 5)"),
    ("(1 2 3)", "(1 3 2)", "(4 5 6)", "(4 6 5)"),
    ("(1 2 3)", "(1 2 3)", "(4 5 6)", "(1 2 3)(4 5 6)", "(4 5 6)"),
    ("(1 2 3)(4 5 6)", "(1 2 3)(4 6 5)", "(1 2 3)", "(4 5 6)", "(4 5 6)", "(4 5 6)"),
]
# a length-8 vector of the benchmark's braid CLI pool; N does not fix it
KLUENERS_G1_LENGTH_8 = (
    "(4 5 6)", "(1 2 3)", "(1 2 3)(4 5 6)", "(1 2 3)(4 6 5)",
    "(1 2 3)(4 6 5)", "(1 2 3)(4 6 5)", "(1 3 2)(4 6 5)", "(1 3 2)(4 6 5)",
)
WREATH_D_LENGTH_6 = (
    "(4 6 5)(7 9 8)(13 15 14)(16 18 17)",
    "(1 2 3)(4 5 6)(7 8 9)(10 11 12)(13 14 15)(16 17 18)",
    "(1 2 3)(4 5 6)(7 8 9)(10 11 12)(13 14 15)(16 17 18)",
    "(1 2 3)(4 5 6)(7 9 8)(10 11 12)(13 14 15)(16 18 17)",
    "(1 2 3)(4 6 5)(10 11 12)(13 15 14)",
    "(1 3 2)(4 6 5)(10 12 11)(13 15 14)",
)


def klueners_case(entries):
    G1 = klueners_g1()
    return G1, klueners(), class_vector_of(G1, [parse_cycles(e, 6) for e in entries])


def wreath_d_case(entries):
    spec = get_preset("wreath-s18").spec
    N, D = spec.group(), spec.subgroup("D")
    return D, N, class_vector_of(D, [parse_cycles(e, 18) for e in entries])


def orderly_cases(name):
    """(G, N, cv) triples: S3 vectors of one length, or one Klüners/wreath vector."""
    family, _, arg = name.partition("-")
    if family == "s3":
        G = s3()
        return [(G, G, cv) for cv in s3_class_vectors(int(arg))]
    if family == "klueners":
        entries = KLUENERS_G1_LENGTH_8 if arg == "pool8" else KLUENERS_G1_IN_N[int(arg)]
        return [klueners_case(entries)]
    return [wreath_d_case(WREATH_D_LENGTH_6)]


ORDERLY_CASES = (
    [f"s3-{length}" for length in range(1, 9)]
    + [f"klueners-{i}" for i in range(len(KLUENERS_G1_IN_N))]
    + ["klueners-pool8", "wreath-d6"]
)


# the abelian suite's groups as G = N, each with the longest class vectors
# its oracle checks take
ABELIAN_SUITE_LENGTHS = [("C2xC2", 8), ("C4", 8), ("C6", 7), ("C3xC3", 5)]


def abelian_group(label):
    return abelian_suite()[label].group()


class TestMinimalImageOracles:
    @pytest.mark.parametrize("length", range(1, 8))
    def test_s3_every_class_vector(self, length):
        G = s3()
        found = 0
        for cv in s3_class_vectors(length):
            found += len(check_orbits_against_oracles(G, G, cv))
        # a generating product-one tuple of S3 has at least three entries
        assert found or length <= 2

    @pytest.mark.parametrize("entries", KLUENERS_G1_IN_N)
    def test_klueners_g1_in_n(self, entries):
        assert check_orbits_against_oracles(*klueners_case(entries))

    def test_canonical_rep_may_carry_the_image_class_vector(self):
        # the least N-image of a tuple may start in a class N fuses with
        # another, so its class vector is an N-image of cv, not cv itself
        G1, N = klueners_g1(), klueners()
        cv = class_vector_of(G1, [parse_cycles(e, 6) for e in (
            "(1 2 3)", "(1 2 3)", "(1 2 3)", "(4 5 6)", "(4 6 5)")])
        image = class_vector_of(G1, [parse_cycles(e, 6) for e in (
            "(4 5 6)", "(4 5 6)", "(4 5 6)", "(1 2 3)", "(1 3 2)")])
        orbits = braid_orbits(G1, N, cv)
        assert {class_vector_of(G1, o.canonical_rep.entries) for o in orbits} == {image}

    def test_wreath_d_in_n_length_6(self):
        assert check_orbits_against_oracles(*wreath_d_case(WREATH_D_LENGTH_6))

    @pytest.mark.parametrize("label,max_length", ABELIAN_SUITE_LENGTHS)
    def test_abelian_g_equals_n_every_class_vector(self, label, max_length):
        # braid_orbits counts abelian G's one orbit; the BFS and the
        # counted answer are both checked against the oracle here
        G = abelian_group(label)
        found = 0
        for length in range(1, max_length + 1):
            for cv in class_vectors(G, length):
                orbits = check_orbits_against_oracles(G, G, cv)
                assert len(orbits) <= 1
                found += len(orbits)
        assert found


# (G, N) of the slice tests; S4 fuses the two classes of 3-cycles of A4
SLICE_PAIRS = {"S3": (s3, s3), "S4": (s4, s4), "A4-in-S4": (a4, s4), "A5": (a5, a5)}


PINNED_SLICE_VECTORS = [
    # three blocks: split with a pure braid for adjacent blocks only
    ("S4", {1: 2, 3: 1, 4: 2}, [360]),
    ("S4", {2: 2, 3: 1, 4: 2}, [720]),
    # two blocks: split with no pure braid across blocks
    ("S3", {1: 2, 2: 2}, [12]),
    # three blocks and two orbits
    ("A5", {1: 2, 3: 1, 4: 1}, [60, 144]),
    # two orbits: the seeds off the slice must be sorted into it
    ("S4", {2: 2, 4: 2}, [12, 36]),
    # one orbit each: rotations over blocks of 6 and 4, longer than any above
    ("S3", {1: 6, 2: 2}, [4536]),
    ("S3", {1: 4, 2: 3}, [1260]),
]


def slice_case(pair, counts):
    G, N = (make() for make in SLICE_PAIRS[pair])
    return G, N, ClassVector.from_counts(G, counts)


class TestSliceSearch:
    """The slice search against the all-tuples BFS of the oracle.

    Class ids as groups numbers them: S3 1 = (2 3), 2 = (1 2 3); S4 1 =
    (3 4), 2 = (2 3 4), 3 = (1 2)(3 4), 4 = (1 2 3 4); A5 1 = (3 4 5),
    3 = (1 2 3 4 5), 4 = (1 2 3 5 4).
    """

    @pytest.mark.parametrize("pair,max_length", [("S4", 5), ("A4-in-S4", 5), ("A5", 4)])
    def test_every_class_vector(self, pair, max_length):
        G, N = (make() for make in SLICE_PAIRS[pair])
        several = 0
        for length in range(1, max_length + 1):
            for cv in class_vectors(G, length):
                several += len(check_orbits_against_oracles(G, N, cv)) > 1
        assert several

    @pytest.mark.parametrize("pair,counts,sizes", PINNED_SLICE_VECTORS)
    def test_pinned_vector(self, pair, counts, sizes):
        orbits = check_orbits_against_oracles(*slice_case(pair, counts))
        assert [o.size for o in orbits] == sizes

    def test_an_orbit_holding_the_whole_slice_ends_the_pass(self, monkeypatch):
        # one orbit of 4536 canonical tuples, 4536 / (8!/(6! 2!)) = 162 in the
        # slice: the count says so, and the one search from the least
        # canonical tuple finds all 162, so no second tuple is drawn
        G, N, cv = slice_case("S3", {1: 6, 2: 2})
        ctx = braid._indexed(G, N)
        seeds = enumerate_idx(ctx, cv)
        searches = []
        search = braid._Slice.search

        def counting(self, seed):
            members = search(self, seed)
            searches.append((seed, len(members)))
            return members

        monkeypatch.setattr(braid._Slice, "search", counting)
        drawn = count_draws(monkeypatch)
        [orbit] = braid_orbits(G, N, cv)
        assert drawn == [min(seeds)]
        assert searches == [(min(seeds), 162)]
        assert (orbit.size, tuple(G.index[g] for g in orbit.canonical_rep.entries)) == (4536, min(seeds))
        assert all(map(orbit._contains, seeds))

    def test_a_seed_list_short_of_a_whole_fibre_is_refused(self, monkeypatch):
        # 12 canonical tuples over 4!/(2! 2!) = 6 key arrangements: a count
        # of 11 (66 tuples over S3's 6 rows) leaves a remainder
        G, N, cv = slice_case("S3", {1: 2, 2: 2})
        ctx = braid._indexed(G, N)
        assert len(enumerate_idx(ctx, cv)) == 12
        monkeypatch.setattr(braid, "nielsen_count", lambda G, cv: 66)
        with pytest.raises(InvariantViolation, match="11 canonical tuples do not split"):
            braid_orbits(G, N, cv)

    @pytest.mark.parametrize("pair,counts,size", [
        ("S3", {1: 6}, 40), ("S3", {1: 10}, 3280), ("S4", {1: 6}, 120),
        ("N", {7: 6}, 40),  # Klüners N: six conjugates of (1 4 2 5 3 6)
    ])
    def test_a_whole_tuple_rotation_is_a_cyclic_shift(self, pair, counts, size):
        # one block spans the whole tuple, and the search rotates it by the
        # cyclic shift; on each slice tuple that is the composite
        # Q_0 ... Q_{k-2}, rightmost first
        G, N = corpus_pair(pair)
        cv = ClassVector.from_counts(G, counts)
        ctx = braid._indexed(G, N)
        seeds = enumerate_idx(ctx, cv)
        k = cv.length
        slice_ = slice_of(ctx, seeds)
        assert slice_.rotations == [(0, k - 1)] and not slice_.cross
        assert all(map(partial(in_slice, ctx), seeds))
        for t in seeds:
            entries = tuple(G.elements[g] for g in t)
            composite = entries
            for i in range(k - 1, 0, -1):
                composite = braid_generator(composite, i)
            assert composite == entries[k - 1 :] + entries[: k - 1]
        assert len(seeds) == size

    def test_visited_cap_counts_every_member_of_one_orbit(self, monkeypatch):
        # one orbit of 45 canonical tuples, 9 of them in the slice
        G, N, cv = slice_case("S3", {1: 4, 2: 1})
        monkeypatch.setattr(braid, "VISITED_CAP", 45)
        assert [o.size for o in braid_orbits(G, N, cv)] == [45]
        monkeypatch.setattr(braid, "VISITED_CAP", 44)
        with pytest.raises(EnumerationCapExceeded, match="orbit grew past 44 canonical tuples"):
            braid_orbits(G, N, cv)


class TestAscendingSearch:
    """One lazy search per vector: ascending canonical tuples, drawn only as far as the orbits need."""

    @pytest.mark.parametrize("pair,max_length", [
        ("S3", 6), ("S4", 5), ("A5", 4), ("A4-in-S4", 5), ("N", 4),
    ])
    def test_the_canonical_forms_come_out_ascending(self, pair, max_length):
        # in A4 in S4, N fuses the two classes of 3-cycles, so a vector may
        # have two images, whose streams are merged
        G, N = corpus_pair(pair)
        ctx = braid._indexed(G, N)
        merged = 0
        for length in range(1, max_length + 1):
            for cv in class_vectors(G, length):
                got = enumerate_idx(ctx, cv)
                forms = oracle_forms(ctx, oracle_enumerate_idx(ctx, cv))
                assert got == sorted(set(forms.values())), cv
                assert all(a < b for a, b in zip(got, got[1:]))
                merged += len({tuple(sorted(G.class_ids[g] for g in t)) for t in got}) > 1
        assert merged or pair != "A4-in-S4"

    @pytest.mark.parametrize("pair,max_length", [("S4", 5), ("A4-in-S4", 5), ("A5", 4)])
    def test_each_orbit_is_searched_once_and_the_search_stops_early(self, pair, max_length, monkeypatch):
        # each orbit is searched once, from its least canonical tuple, and
        # no tuple is drawn past the least tuple of the last orbit met: a
        # vector of several orbits draws fewer tuples than T
        G, N = corpus_pair(pair)
        searches = []
        search = braid._Slice.search

        def counting(self, seed):
            searches.append(seed)
            return search(self, seed)

        monkeypatch.setattr(braid._Slice, "search", counting)
        drawn = count_draws(monkeypatch)
        vectors = [cv for length in range(2, max_length + 1) for cv in class_vectors(G, length)]
        vectors += [slice_case(p, counts)[2] for p, counts, _ in PINNED_SLICE_VECTORS if p == pair]
        several = 0
        for cv in vectors:
            searches.clear()
            drawn.clear()
            orbits = braid_orbits(G, N, cv)
            reps = [tuple(G.index[g] for g in o.canonical_rep.entries) for o in orbits]
            assert len(searches) == len(orbits), cv
            assert set(reps) <= set(drawn) and drawn[-1:] == reps[-1:]
            if len(orbits) > 1:
                several += 1
                assert len(drawn) < sum(o.size for o in orbits), cv
        assert several


class SearchRan(Exception):
    pass


class TestAbelianOneOrbit:
    @pytest.fixture
    def no_search(self, monkeypatch):
        # every orbit search, one-orbit or partition, runs _Slice.search
        def refuse(*args):
            raise SearchRan
        monkeypatch.setattr(braid, "_orbit_partition", refuse)
        monkeypatch.setattr(braid._Slice, "search", refuse)

    @pytest.mark.parametrize("case", ["wreath-d6", "klueners-pool8"])
    def test_abelian_g_needs_no_search(self, case, no_search):
        [(G, N, cv)] = orderly_cases(case)
        canonical = enumerate_idx(braid._indexed(G, N), cv)
        [orbit] = braid_orbits(G, N, cv)
        assert orbit.size == len(canonical)
        assert all(map(orbit._contains, canonical))

    def test_non_abelian_g_still_searches(self, no_search):
        G = s3()
        with pytest.raises(SearchRan):
            braid_orbits(G, G, class_vector_of(G, [parse_cycles("(1 2)", 3)] * 4))


def refuse_enumeration(*args):
    raise SearchRan


def count_draws(monkeypatch):
    """Record every tuple drawn from _enumerate_idx; returns the list they go into."""
    enumerate_ = braid._enumerate_idx
    drawn = []

    def counting(ctx, images):
        for t in enumerate_(ctx, images):
            drawn.append(t)
            yield t

    monkeypatch.setattr(braid, "_enumerate_idx", counting)
    return drawn


def stable_by_members(ctx, spec, orbit, members):
    """The searched orbits' rule: the twisted representative's canonical form is a member."""
    G = ctx.G
    image = [spec.image(g) for g in orbit.canonical_rep.entries]
    return (
        product(image, G.degree).is_identity
        and ctx.canonical(tuple(G.index[g] for g in image)) in members
    )


def check_stability_shortcut(G, N, qs, vectors):
    """frobenius_stable_orbits on abelian G agrees with the members rule.

    The members of the one orbit are every canonical tuple of cv.  Returns
    how many orbits each verdict (True, False) was reached on.
    """
    ctx = braid._indexed(G, N)
    specs = [TwistSpec(q=q, e=1, ctx=find_cyclic_complement(N, G)) for q in qs]
    verdicts = Counter()
    for cv in vectors:
        members = set(enumerate_idx(ctx, cv))
        for orbit in braid_orbits(G, N, cv):
            assert orbit.size == len(members)
            for spec in specs:
                expect = stable_by_members(ctx, spec, orbit, members)
                assert (frobenius_stable_orbits([orbit], spec) == [orbit]) == expect, (cv, spec.q)
                verdicts[expect] += 1
    return verdicts


class TestCountedOrbit:
    """Abelian G: the one orbit is counted, and membership needs no tuple built."""

    @pytest.mark.parametrize("case,q", [("wreath-d6", 7), ("wreath-d6", 11), ("klueners-pool8", 5), ("klueners-pool8", 7)])
    def test_orbit_and_stability_without_enumeration(self, case, q, monkeypatch):
        [(G, N, cv)] = orderly_cases(case)
        ctx = braid._indexed(G, N)
        spec = TwistSpec(q=q, e=1, ctx=find_cyclic_complement(N, G))
        canonical = enumerate_idx(ctx, cv)
        monkeypatch.setattr(braid, "_enumerate_idx", refuse_enumeration)
        [orbit] = braid_orbits(G, N, cv)
        stable = stable_by_members(ctx, spec, orbit, set(canonical))
        assert orbit.size == len(canonical)
        assert tuple(G.index[g] for g in orbit.canonical_rep.entries) == min(canonical)
        assert frobenius_stable_orbits([orbit], spec) == ([orbit] if stable else [])
        assert all(map(orbit._contains, canonical))

    @pytest.mark.parametrize("q", [5, 7, 11, 13])
    def test_h2_without_enumeration(self, q, monkeypatch):
        N, G1 = klueners(), klueners_g1()
        ctx = find_cyclic_complement(N, G1)
        monkeypatch.setattr(braid, "_enumerate_idx", refuse_enumeration)
        h2 = series.h2_desk_scale(G1, N, TwistSpec(q=q, e=1, ctx=ctx), 16)
        assert h2 and h2 == stable_generating_multisets(G1, q, 16, ctx.tau, 1)

    @pytest.mark.parametrize("label", ["C2xC2", "C4", "C6", "C3xC3"])
    def test_stability_shortcut_on_the_abelian_suite(self, label):
        G = abelian_suite()[label].group()
        lengths = range(1, 7 if label == "C3xC3" else 8)
        vectors = [cv for length in lengths for cv in class_vectors(G, length)]
        assert check_stability_shortcut(G, G, abelian_q(label), vectors)[True]

    def test_stability_shortcut_on_klueners_g1_in_n(self):
        G1, N = klueners_g1(), klueners()
        vectors = [cv for length in range(1, 7) for cv in class_vectors(G1, length)]
        verdicts = check_stability_shortcut(G1, N, (5, 7, 11, 13), vectors)
        assert verdicts[True] and verdicts[False]


class TestOrderlyEnumeration:
    @pytest.mark.parametrize("name", ORDERLY_CASES)
    def test_canonical_forms_of_the_oracle_tuples_once_each(self, name):
        found = 0
        for G, N, cv in orderly_cases(name):
            found += len(check_orderly_enumeration(G, N, cv))
        assert found or name in ("s3-1", "s3-2")

    @pytest.mark.parametrize("name", ORDERLY_CASES)
    def test_moves_past_the_fixed_prefix_stay_canonical(self, name):
        checked = sum(check_fixed_prefix(G, N, cv) for G, N, cv in orderly_cases(name))
        assert checked or name in ("s3-1", "s3-2", "s3-3")

    def test_fused_classes_seed_every_image(self):
        # N swaps the blocks of Klüners G1, so the vector has two images
        G, N, cv = klueners_case(KLUENERS_G1_LENGTH_8)
        assert len(class_vector_images(G, N, cv)) == 2
        assert len(enumerate_idx(braid._indexed(G, N), cv)) == 3360

    def test_every_row_on_every_canonical_form_gives_every_tuple(self):
        # enumerate_nielsen expands the canonical forms of (G, G)
        for G, _, cv in orderly_cases("klueners-0") + orderly_cases("s3-6"):
            ctx = braid._indexed(G, G)
            got = [tuple(map(G.index.__getitem__, t.entries)) for t in enumerate_nielsen(G, cv)]
            assert got == sorted(oracle_enumerate_idx(ctx, cv))
            assert len(got) == len(enumerate_idx(ctx, cv)) * len(ctx.conj_rows)


# ---------------------------------------------------------------------------
# a counting oracle for Nielsen tuples: no tuple is built


def subgroup_closure(G, gens):
    """The subgroup of G generated by the element indices gens.

    A plain index-level loop that shares no code with groups._orbit: the
    reference for braid._generated and the oracles' generation test.
    """
    mul = G.mul
    identity = G.index[G.identity]
    closed = {identity}
    frontier = [identity]
    while frontier:
        new = []
        for x in frontier:
            for g in gens:
                y = mul[x][g]
                if y not in closed:
                    closed.add(y)
                    new.append(y)
        frontier = new
    return frozenset(closed)


@pytest.mark.parametrize("make", [s4, klueners])
def test_generated_is_the_reference_closure(make):
    # every entry set of up to 3 elements, against the plain loop and groups.closure
    G = make()
    for size in range(4):
        for entries in combinations(range(G.order), size):
            expect = subgroup_closure(G, entries)
            assert braid._generated(G, entries) == expect
            assert closure([G.elements[i] for i in entries], G.degree).order == len(expect)


def subgroups_by_cyclic_joins(G):
    """Every subgroup of G: each is the join of the cyclic subgroups of its elements."""
    cyclic = {subgroup_closure(G, [g]) for g in range(G.order)}
    subgroups = set(cyclic)
    frontier = list(cyclic)
    while frontier:
        new = []
        for H in frontier:
            for C in cyclic:
                J = H if C <= H else subgroup_closure(G, H | C)
                if J not in subgroups:
                    subgroups.add(J)
                    new.append(J)
        frontier = new
    return subgroups


def count_product_one(G, cv, allowed):
    """Product-one tuples with class multiset cv and entries in `allowed`.

    Dynamic programming over (classes still to place, partial product).
    """
    mul = G.mul
    identity = G.index[G.identity]
    classes = G.conjugacy_classes()
    cids = sorted(cv.counts)
    members = [[G.index[m] for m in classes[cid].members if G.index[m] in allowed] for cid in cids]

    @lru_cache(maxsize=None)
    def ways(remaining, prefix):
        if not any(remaining):
            return int(prefix == identity)
        total = 0
        row = mul[prefix]
        for i, m in enumerate(remaining):
            if m:
                rest = remaining[:i] + (m - 1,) + remaining[i + 1 :]
                total += sum(ways(rest, row[g]) for g in members[i])
        return total

    return ways(tuple(cv.counts[cid] for cid in cids), identity)


def mobius_values(G, subgroups):
    """mu(H, G) for each subgroup H, from the top down."""
    mu = {}
    for H in sorted(subgroups, key=len, reverse=True):
        mu[H] = 1 if len(H) == G.order else -sum(m for K, m in mu.items() if H < K)
    return mu


def count_nielsen(G, cv, subgroups):
    """Generating product-one tuples with class multiset cv.

    Tuples with entries in H number the sum over K <= H of those that
    generate K, so by Möbius inversion over the subgroup lattice the
    generating ones number sum_H mu(H, G) N(H) (P. Hall, "The Eulerian
    functions of a group", Quart. J. Math. 7 (1936)).
    """
    mu = mobius_values(G, subgroups)
    return sum(m * count_product_one(G, cv, H) for H, m in mu.items() if m)


def class_vectors(G, length):
    """Every class vector of G with `length` entries."""
    cids = [c.class_id for c in G.conjugacy_classes() if not c.is_trivial]
    return [ClassVector.from_counts(G, Counter(combo))
            for combo in combinations_with_replacement(cids, length)]


class TestCountingOracle:
    def test_subgroup_lattices(self):
        # S3: 1, three of order 2, A3, S3; C3 x C3: 1, four of order 3, itself
        assert sorted(map(len, subgroups_by_cyclic_joins(s3()))) == [1, 2, 2, 2, 3, 6]
        assert sorted(map(len, subgroups_by_cyclic_joins(klueners_g1()))) == [1, 3, 3, 3, 3, 9]

    @pytest.mark.parametrize("length", range(1, 11))
    def test_s3_matches_the_plain_enumerator(self, length):
        G = s3()
        ctx = braid._indexed(G, G)
        subgroups = subgroups_by_cyclic_joins(G)
        counts = [count_nielsen(G, cv, subgroups) for cv in s3_class_vectors(length)]
        assert counts == [len(oracle_enumerate_idx(ctx, cv)) for cv in s3_class_vectors(length)]
        assert any(counts) or length <= 2

    @pytest.mark.parametrize("length", range(1, 9))
    def test_klueners_g1_matches_the_plain_enumerator(self, length):
        G = klueners_g1()
        ctx = braid._indexed(G, G)
        subgroups = subgroups_by_cyclic_joins(G)
        # every vector up to length 6; a fixed stride of the 1,716 and 6,435
        # vectors of lengths 7 and 8 (all of them take 45 s)
        vectors = class_vectors(G, length)[:: 1 if length <= 6 else 41]
        counts = [count_nielsen(G, cv, subgroups) for cv in vectors]
        assert counts == [len(oracle_enumerate_idx(ctx, cv)) for cv in vectors]
        assert any(counts) or length <= 2

    @pytest.mark.parametrize("family", ["s3", "klueners"])
    def test_orderly_count_on_every_short_vector(self, family):
        # every S3 vector up to length 10 and every Klüners G1 vector up to
        # length 5, with N = G and with N = Klüners' group
        if family == "s3":
            G = s3()
            pairs = [(G, G)]
            vectors = [cv for length in range(1, 11) for cv in s3_class_vectors(length)]
        else:
            G = klueners_g1()
            pairs = [(G, G), (G, klueners())]
            vectors = [cv for length in range(1, 6) for cv in class_vectors(G, length)]
        subgroups = subgroups_by_cyclic_joins(G)
        found = 0
        for cv in vectors:
            expect = count_nielsen(G, cv, subgroups)
            for G, N in pairs:
                ctx = braid._indexed(G, N)
                got = enumerate_idx(ctx, cv)
                assert len(got) * len(ctx.conj_rows) == expect * len(class_vector_images(G, N, cv))
                found += len(got)
        assert found

    @pytest.mark.parametrize("pair,q,R", [("s3", 7, 12), ("klueners-g1", 5, 16)])
    def test_orderly_count_on_every_h2_vector(self, pair, q, R, monkeypatch):
        # every class vector h2_desk_scale visits for S3 at R = 12 and for
        # Klüners G1 in N at R = 16; the orbit sizes must sum to the count
        G, N = (s3(), s3()) if pair == "s3" else (klueners_g1(), klueners())
        spec = TwistSpec(q=q, e=1, ctx=find_cyclic_complement(N, G))
        seen = []

        def recording(G, N, cv):
            orbits = braid_orbits(G, N, cv)
            seen.append((cv, sum(o.size for o in orbits)))
            return orbits

        monkeypatch.setattr(series, "braid_orbits", recording)
        series.h2_desk_scale(G, N, spec, R)
        subgroups = subgroups_by_cyclic_joins(G)
        rows = len(braid._indexed(G, N).conj_rows)
        for cv, covered in seen:
            expect = count_nielsen(G, cv, subgroups) * len(class_vector_images(G, N, cv))
            assert covered * rows == expect
        assert sum(covered for _, covered in seen) == (216_999 if pair == "s3" else 5_200)

    @pytest.mark.parametrize("name", ORDERLY_CASES)
    def test_orderly_enumeration_matches_the_count(self, name):
        # the rows act freely on generating tuples (check_orderly_enumeration)
        for G, N, cv in orderly_cases(name):
            ctx = braid._indexed(G, N)
            got = enumerate_idx(ctx, cv)
            expect = count_nielsen(G, cv, subgroups_by_cyclic_joins(G))
            assert len(got) * len(ctx.conj_rows) == expect * len(class_vector_images(G, N, cv))


# ---------------------------------------------------------------------------
# count before search: braid.nielsen_count against the counting oracle, and
# braid_orbits' use of it


def canonical_total(G, N, cv, subgroups):
    """T: the canonical tuples of cv, from the counting oracle (module docstring of braid)."""
    rows = len(braid._indexed(G, N).conj_rows)
    total, rest = divmod(count_nielsen(G, cv, subgroups) * len(class_vector_images(G, N, cv)), rows)
    assert rest == 0
    return total


class TestCountBeforeSearch:
    @pytest.mark.parametrize("make,size", [(s3, 6), (klueners_g1, 6), (klueners, 14), (s4, 30)])
    def test_mobius_tables(self, make, size):
        # every subgroup, with the oracle's mu: S3 and C3 x C3 have 6
        # subgroups, Klüners' N = C3 wr C2 has 14 and S4 has 30
        # each row keeps H's meet with every class, read by the count
        G = make()
        table = braid._mobius(G)
        assert len(table) == size
        assert {H: mu for H, mu, _ in table} == mobius_values(G, subgroups_by_cyclic_joins(G))
        for H, _, in_h in table:
            assert in_h == tuple(
                tuple(G.index[g] for g in c.members if G.index[g] in H)
                for c in G.conjugacy_classes()
            )

    @pytest.mark.parametrize("make,max_length", [
        (s3, 6), (klueners, 6), (klueners_g1, 6), (s4, 5), (a4, 5), (a5, 4),
    ] + [
        # abelian G: the count of one multiset's arrangements
        pytest.param(partial(abelian_group, label), n, id=f"{label}-{n}")
        for label, n in ABELIAN_SUITE_LENGTHS
    ])
    def test_count_is_the_oracle_count(self, make, max_length):
        G = make()
        subgroups = subgroups_by_cyclic_joins(G)
        nonzero = 0
        for length in range(1, max_length + 1):
            for cv in class_vectors(G, length):
                expect = count_nielsen(G, cv, subgroups)
                assert braid.nielsen_count(G, cv) == expect, cv
                nonzero += expect > 0
        assert nonzero

    @pytest.mark.parametrize("label,max_length", ABELIAN_SUITE_LENGTHS + [("G1-in-N", 6)])
    def test_the_counted_abelian_orbit_holds_t(self, label, max_length):
        # the abelian exit reads its one orbit off the count; T from the
        # counting oracle, which counts no arrangement, must agree with it
        if label == "G1-in-N":
            G, N = klueners_g1(), klueners()
        else:
            G = N = abelian_group(label)
        subgroups = subgroups_by_cyclic_joins(G)
        found = 0
        for length in range(1, max_length + 1):
            for cv in class_vectors(G, length):
                sizes = [o.size for o in braid_orbits(G, N, cv)]
                assert len(sizes) <= 1
                assert sum(sizes) == canonical_total(G, N, cv, subgroups), cv
                found += len(sizes)
        assert found

    @pytest.mark.parametrize("case", ["wreath-d6", "klueners-pool8"])
    def test_an_abelian_g_builds_no_lattice(self, case, monkeypatch):
        # with _mobius refusing, the abelian count, its orbit and h2 still
        # answer, each against its oracle
        [(G, N, cv)] = orderly_cases(case)
        subgroups = subgroups_by_cyclic_joins(G)
        ctx = find_cyclic_complement(N, G)
        q, R = (7, 24) if case == "wreath-d6" else (5, 16)
        expect_h2 = stable_generating_multisets(G, q, R, ctx.tau, 1)

        def refuse(G):
            raise SearchRan

        monkeypatch.setattr(braid, "_mobius", refuse)
        assert braid.nielsen_count(G, cv) == count_nielsen(G, cv, subgroups)
        assert [o.size for o in braid_orbits(G, N, cv)] == [canonical_total(G, N, cv, subgroups)]
        h2 = series.h2_desk_scale(G, N, TwistSpec(q=q, e=1, ctx=ctx), R)
        assert h2 and h2 == expect_h2

    def test_fewer_than_two_entries_make_no_orbit(self):
        # the trivial group's empty vector counts one tuple, the empty one,
        # and a product-one 1-tuple is the identity: neither makes an orbit
        T = closure([], 1)
        empty = ClassVector(T, ())
        assert braid.nielsen_count(T, empty) == 1
        assert braid_orbits(T, T, empty) == []
        for G, N in map(corpus_pair, ("S3", "C3xC3", "G1-in-N")):
            vectors = class_vectors(G, 1)
            assert vectors
            for cv in vectors:
                assert braid_orbits(G, N, cv) == []

    @pytest.mark.parametrize("pair,counts", [
        ("S3", {1: 3}),  # odd: no product one
        ("S3", {2: 3}),  # products one, but in A3 only
        ("S4", {3: 2}),  # products one, in a Klein four-group only
        ("S3", {1: 4, 2: 1}),  # one orbit of 45
        ("A5", {1: 2, 3: 1}),  # one orbit of 3
        ("A4-in-S4", {1: 3, 3: 1}),  # one orbit of 16; N fuses the 3-cycle classes
    ])
    def test_empty_and_one_orbit_vectors_are_not_enumerated(self, pair, counts, monkeypatch):
        G, N, cv = slice_case(pair, counts)
        ctx = braid._indexed(G, N)
        forms = oracle_forms(ctx, oracle_enumerate_idx(ctx, cv))
        parts = oracle_orbit_partition(ctx, sorted(set(forms.values())), forms)
        other = another_class_vector(G, N, cv)
        refused = enumerate_idx(ctx, other) if other else []
        drawn = count_draws(monkeypatch)
        if not parts:
            # an empty vector is not searched at all
            monkeypatch.setattr(braid, "_enumerate_idx", refuse_enumeration)
        orbits = braid_orbits(G, N, cv)
        # a one-orbit vector draws its least canonical tuple and no other
        assert drawn == [m[0] for m in parts]
        assert len(parts) <= 1
        assert [(o.size, o.canonical_rep.entries) for o in orbits] == [
            (len(m), tuple(G.elements[i] for i in m[0])) for m in parts
        ]
        # the slice rule on every member, and on their images under a row
        check_membership(ctx, orbits, parts, refused)
        assert refused or not orbits

    @pytest.mark.parametrize("extra,error", [
        # one canonical tuple more: 205 is no multiple of the 4!/2! = 12
        # key arrangements
        (1, "205 canonical tuples do not split into fibres"),
        # one slice tuple more: 216 canonical tuples, but the orbits, read
        # to the end of the search, hold 204
        (12, "orbit sizes sum to 204, not to the 216"),
    ])
    def test_a_vector_of_several_orbits_is_enumerated_and_checked(self, extra, error, monkeypatch):
        # the least tuple's orbit holds 60 of the 204 canonical tuples, so
        # the search goes on to the second orbit, and a count that the
        # orbits do not reach is refused
        G, N, cv = slice_case("A5", {1: 2, 3: 1, 4: 1})
        assert [o.size for o in braid_orbits(G, N, cv)] == [60, 144]
        count = braid.nielsen_count
        # each canonical tuple stands for len(G.elements) tuples of A5
        monkeypatch.setattr(braid, "nielsen_count", lambda G, cv: count(G, cv) + extra * len(G.elements))
        with pytest.raises(InvariantViolation, match=error):
            braid_orbits(G, N, cv)

    def test_a_count_with_no_tuple_behind_it_is_refused(self, monkeypatch):
        # three 3-cycles of S3 generate A3 at most: no tuple.  A count of 6
        # (one canonical tuple over S3's 6 rows) sends the search
        # looking for it
        G, N, cv = slice_case("S3", {2: 3})
        assert braid_orbits(G, N, cv) == []
        monkeypatch.setattr(braid, "nielsen_count", lambda G, cv: 6)
        with pytest.raises(InvariantViolation, match="1 canonical tuples counted, but none found"):
            braid_orbits(G, N, cv)

    def test_h2_of_klueners_n_in_n_to_r_20(self):
        # 2,319 class vectors, 2,092 of them empty and the rest of one orbit:
        # none is enumerated in full.  The table is the one that enumerating
        # every vector gives
        N = klueners()
        spec = TwistSpec(q=7, e=1, ctx=find_cyclic_complement(N, N))
        assert series.h2_desk_scale(N, N, spec, 20) == {
            10: 3087, 12: 43904, 14: 218834, 16: 2996448, 18: 29441062, 20: 172828782,
        }


class TestLatticeCap:
    """A subgroup lattice past LATTICE_CAP is not built, and its group is enumerated."""

    def test_the_s6_lattice_stops_at_the_cap(self, monkeypatch):
        # S6 has 1,455 subgroups, and building them all takes about a minute;
        # the joins stop once they have built LATTICE_CAP elements
        G = closure([parse_cycles("(1 2)", 6), parse_cycles("(1 2 3 4 5 6)", 6)], 6)
        orbit, built = braid._orbit, []
        monkeypatch.setattr(braid, "_orbit", lambda start, moves: built.append(orbit(start, moves)) or built[-1])
        braid._mobius.cache_clear()
        try:
            assert braid._mobius(G) is None
            cyclic = sum(len(b) for b in built[: G.order])
            # the last join may overshoot the cap by one subgroup, at most G
            assert braid.LATTICE_CAP < sum(len(b) for b in built[G.order :]) <= braid.LATTICE_CAP + G.order
            assert cyclic == sum(g.order() for g in G)
            cv = class_vector_of(G, [parse_cycles(c, 6) for c in ("(1 2)", "(1 2 3 4 5)", "(1 6 5 4 3 2)")])
            with pytest.raises(EnumerationCapExceeded, match="subgroup lattice"):
                braid.nielsen_count(G, cv)
        finally:
            braid._mobius.cache_clear()

    @pytest.mark.parametrize("pair,counts,sizes,cap", [
        # the joins build 81 elements for S3 and 6,126 for S4
        ("S4", {3: 2}, [], 6000),
        ("S3", {1: 4, 2: 1}, [45], 80),
        ("S4", {2: 2, 4: 2}, [12, 36], 6000),
    ])
    def test_a_group_past_the_cap_is_enumerated(self, pair, counts, sizes, cap, monkeypatch):
        # under a cap just below its lattice, a group's orbits come from the
        # full enumeration, and equal the counted ones
        G, N, cv = slice_case(pair, counts)
        ctx = braid._indexed(G, N)
        counted = braid_orbits(G, N, cv)
        assert [o.size for o in counted] == sizes
        monkeypatch.setattr(braid, "LATTICE_CAP", cap)
        braid._mobius.cache_clear()
        try:
            enumerated = braid_orbits(G, N, cv)
            assert braid._mobius(G) is None
        finally:
            braid._mobius.cache_clear()
        assert [(o.size, o.canonical_rep) for o in enumerated] == [(o.size, o.canonical_rep) for o in counted]
        for t in enumerate_idx(ctx, cv):
            assert [o._contains(t) for o in enumerated] == [o._contains(t) for o in counted]


@pytest.mark.parametrize("pair", ["s4", "a4-in-s4", "a5-in-s5", "klueners-g1", "wreath-d", "c3"])
def test_conjugation_rows_are_those_of_every_element(pair):
    # the closure of the generators' rows against conjugating by all of N;
    # C3 is abelian, so its one row is the identity
    if pair == "klueners-g1":
        G, N = klueners_g1(), klueners()
    elif pair == "c3":
        G = N = a3()
    elif pair == "wreath-d":
        G, N, _ = wreath_d_case(WREATH_D_LENGTH_6)
    else:
        degree = int(pair[-1])
        N = closure([parse_cycles("(1 2)", degree), parse_cycles(
            "(" + " ".join(map(str, range(1, degree + 1))) + ")", degree)], degree)
        G = N if pair == "s4" else derived_subgroup(N)
    ctx = braid._IndexedPair(G, N)
    index = G.index
    rows = sorted({tuple(index[g.conjugate_by(x)] for g in G.elements) for x in N.elements})
    assert ctx.conj_rows == rows
    assert ctx.identity_row == tuple(range(G.order))
    for g in range(G.order):
        least = min(row[g] for row in rows)
        assert ctx.min_rows[g] == [row for row in rows if row[g] == least]
        assert all(any(row is r for r in ctx.conj_rows) for row in ctx.min_rows[g])


S4 = ("(1 2)", "(1 2 3 4)")


@st.composite
def group_pairs(draw):
    """(G, N): S4 or a random subgroup of S5/S6 as N, with G = N or [N, N]."""
    degree = draw(st.sampled_from((4, 5, 6)))
    if degree == 4:
        N = closure([parse_cycles(g, 4) for g in S4], 4)
    else:
        N = closure(draw(st.lists(permutations_of(degree), min_size=1, max_size=3)), degree)
    G = draw(st.sampled_from((N, derived_subgroup(N))))
    assume(G.order > 1)
    return G, N


@settings(max_examples=80, deadline=None, suppress_health_check=[HealthCheck.filter_too_much])
@given(pair=group_pairs(), data=st.data())
def test_canonical_is_the_least_image_and_a_conjugation_invariant(pair, data):
    G, N = pair
    ctx = braid._IndexedPair(G, N)
    for _ in range(5):
        drawn = tuple(data.draw(st.lists(st.integers(0, G.order - 1), min_size=1, max_size=6)))
        # as drawn, its first entry alone, and with the first entry doubled
        for t in (drawn, drawn[:1], drawn[:1] + drawn):
            assert ctx.canonical(t) == oracle_canonical(ctx, t)
            # the pair memo is filled on first use, and only where
            # min_rows[t[0]] holds more than one row and t goes on
            memoised = len(t) > 1 and len(ctx.min_rows[t[0]]) > 1
            u, j = ctx.least_image(t)
            assert (t[:2] in ctx.pair_rows) == memoised
            assert j == oracle_fixed_prefix(ctx, u)
            assert ctx.least_image(t) == (u, j)
        x = data.draw(st.sampled_from(N.elements))
        moved = tuple(G.index[G.elements[g].conjugate_by(x)] for g in drawn)
        assert ctx.canonical(moved) == ctx.canonical(drawn)


def check_stability_against_the_model(G, N, vectors):
    """frobenius_stable_orbits against the model's definition, on the oracle partition.

    An orbit is stable iff its twisted representative is product-one and
    the least image of that tuple over every conjugation row lies in the
    orbit's part of oracle_orbit_partition.  Runs at each q in (5, 7, 11,
    13) prime to |N|; returns how many orbits each verdict was reached on.
    """
    ctx = braid._indexed(G, N)
    specs = [
        TwistSpec(q=q, e=1, ctx=find_cyclic_complement(N, G)) for q in (5, 7, 11, 13) if N.order % q
    ]
    verdicts = Counter()
    for cv in vectors:
        forms = oracle_forms(ctx, oracle_enumerate_idx(ctx, cv))
        parts = [set(part) for part in oracle_orbit_partition(ctx, sorted(set(forms.values())), forms)]
        orbits = braid_orbits(G, N, cv)
        assert [o.size for o in orbits] == list(map(len, parts))
        for spec in specs:
            expect = []
            for orbit, part in zip(orbits, parts):
                image = [spec.image(g) for g in orbit.canonical_rep.entries]
                stable = (
                    product(image, G.degree).is_identity
                    and oracle_canonical(ctx, tuple(G.index[g] for g in image)) in part
                )
                expect += [orbit] * stable
                verdicts[stable] += 1
            assert frobenius_stable_orbits(orbits, spec) == expect, (cv, spec.q)
    return verdicts


def corpus_pair(name):
    """(G, N) of an oracle corpus: a slice pair, Klüners N or G1 in N, or an abelian-suite group."""
    if name in SLICE_PAIRS:
        return tuple(make() for make in SLICE_PAIRS[name])
    if name == "N":
        return klueners(), klueners()
    if name == "G1-in-N":
        return klueners_g1(), klueners()
    return abelian_group(name), abelian_group(name)


@pytest.mark.parametrize("name,max_length", [
    ("S3", 6), ("S4", 4), ("A4-in-S4", 4), ("A5", 3), ("N", 4), ("G1-in-N", 5),
] + ABELIAN_SUITE_LENGTHS)
def test_membership_refuses_a_tuple_off_product_one(name, max_length):
    # frobenius_stable_orbits asks an orbit about a twisted tuple that may
    # have lost product one.  Swap the last entry of every member of every
    # oracle orbit for another element of its class (any other non-identity
    # element where the class is one element): the other entries fix the
    # last, so the product is no longer one, and no orbit may hold the tuple
    G, N = corpus_pair(name)
    ctx = braid._indexed(G, N)

    def others(g):
        members = G.conjugacy_classes()[G.class_ids[g]].members
        pool = range(1, G.order) if len(members) == 1 else [G.index[m] for m in members]
        return [x for x in pool if x != g]

    tried = 0
    for length in range(1, max_length + 1):
        for cv in class_vectors(G, length):
            forms = oracle_forms(ctx, oracle_enumerate_idx(ctx, cv))
            parts = oracle_orbit_partition(ctx, sorted(set(forms.values())), forms)
            orbits = braid_orbits(G, N, cv)
            assert [o.size for o in orbits] == list(map(len, parts))
            for orbit, part in zip(orbits, parts):
                for t in part:
                    for x in others(t[-1]):
                        assert not orbit._contains(t[:-1] + (x,)), (cv, t, x)
                        tried += 1
    assert tried


class TestStability:
    def test_stable_orbits_klueners(self):
        # Klüners G1 in N: counted orbits, every vector up to length 4 and
        # the longer vectors of the minimal-image tests
        G1, N = klueners_g1(), klueners()
        vectors = [cv for length in range(1, 5) for cv in class_vectors(G1, length)]
        vectors += [klueners_case(entries)[2] for entries in KLUENERS_G1_IN_N]
        verdicts = check_stability_against_the_model(G1, N, vectors)
        assert verdicts[True] and verdicts[False]

    @pytest.mark.parametrize("pair,max_length", [("S3", 6), ("S4", 4), ("A4-in-S4", 4), ("A5", 3)])
    def test_stable_orbits_on_the_slice_pairs(self, pair, max_length):
        # searched orbits: every short vector and the pinned vectors of the
        # slice search, two of them with two orbits
        G, N = (make() for make in SLICE_PAIRS[pair])
        vectors = [cv for length in range(1, max_length + 1) for cv in class_vectors(G, length)]
        vectors += [slice_case(p, counts)[2] for p, counts, _ in PINNED_SLICE_VECTORS if p == pair]
        verdicts = check_stability_against_the_model(G, N, vectors)
        assert verdicts[True] and verdicts[False]

    def test_stability_with_trivial_twist_keeps_all(self):
        # G = N, q = 7 = 1 mod 6: powering by q fixes every class of S3
        G = s3()
        ctx = find_cyclic_complement(G, G)
        spec = TwistSpec(q=7, e=1, ctx=ctx)
        t = parse_cycles("(1 2)", 3)
        cv = class_vector_of(G, [t] * 4)
        orbits = braid_orbits(G, G, cv)
        assert len(frobenius_stable_orbits(orbits, spec)) == len(orbits)

    def test_orbits_of_several_class_vectors_are_decided_one_by_one(self):
        # each orbit is tested on its own: over three class vectors of
        # Klüners G1 in N at q = 5 (stable counts 1, 1, 0) the result is
        # the per-vector results, concatenated
        N, G1 = klueners(), klueners_g1()
        spec = TwistSpec(q=5, e=1, ctx=find_cyclic_complement(N, G1))
        by_vector = [
            braid_orbits(G1, N, class_vector_of(G1, [parse_cycles(s, 6) for s in entries]))
            for entries in (
                ("(1 2 3)", "(1 3 2)", "(4 5 6)", "(4 6 5)"),
                ("(4 5 6)", "(1 2 3)(4 6 5)", "(1 3 2)"),
                ("(1 2 3)", "(1 2 3)", "(1 2 3)", "(4 5 6)", "(4 6 5)"),
            )
        ]
        per_vector = [frobenius_stable_orbits(orbits, spec) for orbits in by_vector]
        assert [len(stable) for stable in per_vector] == [1, 1, 0]
        together = frobenius_stable_orbits([o for orbits in by_vector for o in orbits], spec)
        assert together == [o for stable in per_vector for o in stable]

    def test_orbits_of_another_pair_are_refused(self):
        # G and N come from spec.ctx, and every orbit must belong to them
        N, G1 = klueners(), klueners_g1()
        entries = ("(1 2 3)", "(1 3 2)", "(4 5 6)", "(4 6 5)")
        orbits = braid_orbits(G1, N, class_vector_of(G1, [parse_cycles(s, 6) for s in entries]))
        assert orbits
        for ctx in (find_cyclic_complement(N, N), find_cyclic_complement(G1, G1)):
            with pytest.raises(ValueError, match="spec.ctx"):
                frobenius_stable_orbits(orbits, TwistSpec(q=5, e=1, ctx=ctx))

    def test_an_orbit_equals_only_itself(self):
        G = s3()
        cv = class_vector_of(G, [parse_cycles("(1 2)", 3)] * 4)
        (first,), (second,) = braid_orbits(G, G, cv), braid_orbits(G, G, cv)
        assert first == first and first != second
        assert (first.size, first.canonical_rep) == (second.size, second.canonical_rep)
        seeds = enumerate_idx(braid._indexed(G, G), cv)
        assert all(first._contains(t) and second._contains(t) for t in seeds)


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

    def test_a_negative_max_m_is_refused(self):
        # it used to return an empty, untruncated result
        G, base, pad = s3_probe_input()
        with pytest.raises(ValueError, match="max_m"):
            conway_parker_probe(G, G, base, pad, max_m=-1)


def s3_probe_input():
    G = s3()
    t = parse_cycles("(1 2)", 3)
    c = parse_cycles("(1 2 3)", 3)
    return G, class_vector_of(G, [t] * 4), class_vector_of(G, [t, t, c])


def a5_probe_input():
    # base (3 4 5)^2 (1 2 3 4 5): one orbit of 3, found in 2 prefix states;
    # base + pad: two orbits (1500 and 1125), found in 6 prefix states, and
    # 8 for base + 2 pad.  Enumerating every tuple of base + pad takes 395
    G = a5()
    c, f = parse_cycles("(3 4 5)", 5), parse_cycles("(1 2 3 4 5)", 5)
    return G, class_vector_of(G, [c, c, f]), class_vector_of(G, [c, c])


class TestCaps:
    def test_node_cap_raises_with_canonical_partial(self, monkeypatch):
        # with no subgroup lattice there is no count, so every tuple is
        # enumerated first: 395 prefix states, past a cap of 100
        G, base, pad = a5_probe_input()
        cv = base + pad
        ctx = braid._indexed(G, G)
        full = enumerate_idx(ctx, cv)
        sizes = [o.size for o in braid_orbits(G, G, cv)]
        monkeypatch.setattr(braid, "_mobius", lambda G: None)
        assert [o.size for o in braid_orbits(G, G, cv)] == sizes == [1500, 1125]
        monkeypatch.setattr(braid, "NODE_CAP", 100)
        with pytest.raises(EnumerationCapExceeded) as info:
            braid_orbits(G, G, cv)
        partial = info.value.partial
        # G = N: one image, so the tuples found so far are the least ones
        assert isinstance(partial, list) and 0 < len(partial) < len(full)
        assert partial == full[: len(partial)]

    def test_visited_cap_bounds_one_orbit(self, monkeypatch):
        # the 4-transposition vector of S3 has one orbit of 4 canonical tuples
        G = s3()
        cv = class_vector_of(G, [parse_cycles("(1 2)", 3)] * 4)
        monkeypatch.setattr(braid, "VISITED_CAP", 4)
        assert [o.size for o in braid_orbits(G, G, cv)] == [4]
        monkeypatch.setattr(braid, "VISITED_CAP", 3)
        with pytest.raises(EnumerationCapExceeded):
            braid_orbits(G, G, cv)

    def test_visited_cap_bounds_the_abelian_orbit(self, monkeypatch):
        # Klüners G1 is abelian: its one orbit of 12 is not searched, but capped
        G, N, cv = klueners_case(KLUENERS_G1_IN_N[1])
        monkeypatch.setattr(braid, "VISITED_CAP", 12)
        assert [o.size for o in braid_orbits(G, N, cv)] == [12]
        monkeypatch.setattr(braid, "VISITED_CAP", 11)
        with pytest.raises(EnumerationCapExceeded, match="orbit grew past 11 canonical tuples"):
            braid_orbits(G, N, cv)

    @pytest.mark.parametrize("node_cap", [2, 5, 6, 8])
    def test_probe_truncates_at_the_node_cap(self, node_cap, monkeypatch):
        # m = 0, 1, 2 need 2, 6 and 8 prefix states: the probe keeps the
        # counts of the m values whose search fits under the cap, all
        # three at a cap of 8
        G, base, pad = a5_probe_input()
        monkeypatch.setattr(braid, "NODE_CAP", node_cap)
        finished = sum(need <= node_cap for need in (2, 6, 8))
        probe = conway_parker_probe(G, G, base, pad, max_m=2)
        assert probe.truncated == (finished < 3)
        assert probe.counts == ((0, 1), (1, 2), (2, 2))[:finished]

    def test_probe_truncates_at_the_visited_cap(self, monkeypatch):
        G, base, pad = s3_probe_input()
        monkeypatch.setattr(braid, "VISITED_CAP", 4)
        probe = conway_parker_probe(G, G, base, pad, max_m=2)
        assert probe.truncated
        assert probe.counts == ((0, 1),)


def test_caches_are_bounded():
    assert braid._indexed.cache_info().maxsize == GROUP_CACHE_SIZE == 32


def test_evicted_pairs_are_freed():
    # a cache that held a pair past its eviction from _indexed (one keyed on
    # the pair, say) would keep its conjugation tables alive
    braid._indexed.cache_clear()
    G = s3()
    braid_orbits(G, G, class_vector_of(G, [parse_cycles("(1 2)", 3)] * 4))
    pair = weakref.ref(braid._indexed(G, G))
    # distinct <(a b c)> in S7, one per 3-subset of the points
    for a, b, c in islice(combinations(range(1, 8), 3), GROUP_CACHE_SIZE):
        H = closure([parse_cycles(f"({a} {b} {c})", 7)], 7)
        braid._indexed(H, H)
    gc.collect()
    assert pair() is None
