"""Exact arithmetic for small permutation groups.

Everything is fully enumerated: groups are closed element lists in a
canonical (sorted) order, so all derived data — conjugacy classes, normal
subgroups, complements — is deterministic across runs.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property, lru_cache
from fractions import Fraction
from math import gcd
from operator import itemgetter
from typing import Callable, Hashable, Iterable, Sequence

from .errors import (
    DegreeMismatch,
    InvariantViolation,
    NonCyclicQuotient,
    NotASubgroup,
    OrderCapExceeded,
    TrivialGroup,
)
from .perms import Permutation

# _orbit, so closure and braid's generation test, raises OrderCapExceeded
# past this many points
ORDER_CAP = 10**6

# Memo bound: each memo keyed by a group, a pair of groups (braid), or
# the strings of a group spec (presets), holds at most this many entries,
# least recently used first out.  A sweep of CLI jobs over the presets and
# two relabelled group files touches 14 groups and 11 (N, G) pairs.
GROUP_CACHE_SIZE = 32

Images = tuple[int, ...]  # Permutation.images: images[i - 1] is the image of i


def _left(g: Images) -> Callable[[Images], Images]:
    """x -> (g * x).images, for image tuples: a gather of x, done in C.

    itemgetter of one index returns a bare item, not a 1-tuple; in degree
    1 the only g is the identity, and g * x = x.
    """
    if len(g) == 1:
        return tuple
    return itemgetter(*[i - 1 for i in g])


class FiniteGroup:
    """A fully enumerated permutation group on points 1..degree, generated by `generators`."""

    def __init__(self, degree: int, generators: Sequence[Permutation], elements: Iterable[Permutation]):
        self.degree = degree
        self.generators = tuple(generators)
        self.elements = tuple(sorted(elements))
        self.order = len(self.elements)
        self._element_set = frozenset(self.elements)
        self._classes: list[ConjugacyClass] | None = None
        # class rows of class_image, keyed by (k mod |G|, x.images): row[cid]
        # is the class id of x^{-1} g^k x for g in class cid, or -1 until asked
        self._class_rows: dict[tuple[int, Images], list[int]] = {}
        # twist orbits of invariants.orbit_blocks, keyed by a row's key and
        # the pool (True: the minimal-index classes, False: every nontrivial
        # class): each orbit's class ids and their shared index
        self._twist_orbits: dict[tuple[int, Images, bool], list[tuple[frozenset[int], int]]] = {}

    # Integer tables over `elements`, built on first use.  `mul` holds |G|^2
    # products, so only the small groups braid.py works on build it.

    @cached_property
    def index(self) -> dict[Permutation, int]:
        return {p: i for i, p in enumerate(self.elements)}

    @cached_property
    def mul(self) -> list[list[int]]:
        index = self.index
        return [[index[a * b] for b in self.elements] for a in self.elements]

    @cached_property
    def inv(self) -> list[int]:
        return [self.index[a.inverse()] for a in self.elements]

    @property
    def identity(self) -> Permutation:
        return Permutation.identity(self.degree)

    def __contains__(self, p: Permutation) -> bool:
        return p in self._element_set

    def __iter__(self):
        return iter(self.elements)

    def __len__(self) -> int:
        return self.order

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, FiniteGroup)
            and self.degree == other.degree
            and self._element_set == other._element_set
        )

    def __hash__(self) -> int:
        return hash((self.degree, self._element_set))

    def __repr__(self) -> str:
        return f"FiniteGroup(degree={self.degree}, order={self.order})"

    def is_subgroup_of(self, other: "FiniteGroup") -> bool:
        return self.degree == other.degree and self._element_set <= other._element_set

    def is_normal_in(self, other: "FiniteGroup") -> bool:
        if not self.is_subgroup_of(other):
            return False
        return all(
            g.conjugate_by(x) in self._element_set
            for x in other.generators or other.elements
            for g in self.generators or self.elements
        )

    def conjugacy_classes(self) -> list["ConjugacyClass"]:
        if self._classes is None:
            self._classes, self._class_ids = _compute_classes(self)
        return self._classes

    @property
    def class_ids(self) -> list[int]:
        """class_ids[i] is the class_id of elements[i]."""
        self.conjugacy_classes()
        return self._class_ids

    def class_of(self, p: Permutation) -> "ConjugacyClass":
        i = self.index.get(p)
        if i is None:
            raise NotASubgroup(f"{p!r} is not an element of this group")
        return self.conjugacy_classes()[self.class_ids[i]]

    def class_image(self, cid: int, k: int, x: Permutation) -> int:
        """The class id of x^{-1} g^k x, for g in class cid.

        x is any permutation that normalises G, in G or not.  g**|G| = 1,
        so one row per residue k mod |G| and conjugator serves every k.
        Each entry is filled the first time a class asks for it.  g**1 = g,
        and an x in G moves no class, so a fill skips the power when
        k = 1 mod |G| and the conjugation when x is in G; the row where
        both hold is the identity from the start.
        """
        k %= self.order
        key = (k, x.images)
        row = self._class_rows.get(key)
        if row is None:
            n = len(self.conjugacy_classes())
            row = self._class_rows[key] = list(range(n)) if k == 1 and x in self else [-1] * n
        if row[cid] < 0:
            power = (lambda g: g) if k == 1 else (lambda g: g**k)
            move = power if x in self else (lambda g: power(g).conjugate_by(x))
            row[cid] = self._image_class(cid, move)
        return row[cid]

    def _image_class(self, cid: int, move: Callable[[Permutation], Permutation]) -> int:
        """The class id of move(g) for g in class cid.

        move must send a class into one class; the representative and the
        last member are checked to land together.
        """
        c = self.conjugacy_classes()[cid]
        image = self.class_of(move(c.representative)).class_id
        if len(c.members) > 1 and self.class_of(move(c.members[-1])).class_id != image:
            raise InvariantViolation("the twist is not well defined on classes")
        return image


@dataclass(frozen=True)
class ConjugacyClass:
    """A conjugacy class of a group, with a stable class_id and the index
    ind(g) that all its members share, set once when the class is built."""

    representative: Permutation
    members: tuple[Permutation, ...]
    class_id: int
    index: int

    @property
    def size(self) -> int:
        return len(self.members)

    @property
    def is_trivial(self) -> bool:
        # classes are numbered by least member, and the identity is least
        return self.class_id == 0

    def __repr__(self) -> str:
        return f"ConjugacyClass(id={self.class_id}, size={self.size}, rep={self.representative!r})"


def _orbit(start: Hashable, steps: Sequence[Callable]) -> set:
    """The set that the step maps reach from `start`, breadth first.

    With start the identity and one step per generator, multiplying by
    it, this is the group they generate: a finite group is closed under
    products alone.  Past ORDER_CAP points it raises OrderCapExceeded.
    """
    order_cap = ORDER_CAP
    reached = {start}
    frontier = [start]
    while frontier:
        new = []
        for step in steps:
            for y in map(step, frontier):
                if y not in reached:
                    reached.add(y)
                    new.append(y)
                    if len(reached) > order_cap:
                        raise OrderCapExceeded(
                            f"closure exceeded the order cap of {order_cap}"
                        )
        frontier = new
    return reached


def closure(generators: Sequence[Permutation], degree: int) -> FiniteGroup:
    """Enumerate the group generated by `generators` inside S_degree.

    The search runs on image tuples, multiplying on the left by each
    generator; each element is wrapped once, in the sorted order.
    """
    for g in generators:
        if g.degree != degree:
            raise DegreeMismatch(f"generator degree {g.degree} != {degree}")
    elements = _orbit(tuple(range(1, degree + 1)), [_left(g.images) for g in generators])
    return FiniteGroup(degree, generators, map(Permutation._unchecked, sorted(elements)))


def _compute_classes(G: FiniteGroup) -> tuple[list[ConjugacyClass], list[int]]:
    """The classes of G, numbered by least member, and each element's class id.

    A class is the orbit of its least member under conjugation by the
    generators of G.
    """
    elements = G.elements
    position = {p.images: i for i, p in enumerate(elements)}
    # x^{-1} y x is the gather _left(x^{-1}) of y, then x's images read at
    # its entries (padded, as points are 1-based).  The identity moves no
    # class, and leaving it out keeps a one-index itemgetter out of degree 1.
    conjugators = [
        (_left(x.inverse().images), (0,) + x.images)
        for x in G.generators or elements
        if not x.is_identity
    ]
    class_ids = [-1] * G.order
    classes = []
    # G.elements is sorted, so each new class starts at its least member.
    # Members are G's own objects, so a class holds no copies.
    for i, g in enumerate(elements):
        if class_ids[i] >= 0:
            continue
        class_ids[i] = cid = len(classes)
        orbit = [i]
        for j in orbit:
            y = elements[j].images
            for left, pad in conjugators:
                k = position[itemgetter(*left(y))(pad)]
                if class_ids[k] < 0:
                    class_ids[k] = cid
                    orbit.append(k)
        classes.append(ConjugacyClass(g, tuple([elements[j] for j in sorted(orbit)]), cid, g.index()))
    return classes, class_ids


def centralizer(N: FiniteGroup, G: FiniteGroup) -> FiniteGroup:
    """Cen_N(G) = {x in N : xg = gx for all g in G}."""
    if not G.is_subgroup_of(N):
        raise NotASubgroup("G is not a subgroup of N")
    members = N.elements
    for g in G.generators or G.elements:
        members = _commuting(members, g)
    return FiniteGroup(N.degree, tuple(members), members)


def _commuting(members: Sequence[Permutation], g: Permutation) -> list[Permutation]:
    """The x of members with xg = gx.

    (g * x).images is the gather _left(g) of x, and (x * g).images the
    gather of g, padded as points are 1-based, at x's images.  The
    identity commutes with all, and skipping it keeps a one-index
    itemgetter out of degree 1.
    """
    if g.is_identity:
        return list(members)
    g_left, g_pad = _left(g.images), (0,) + g.images
    return [x for x in members if itemgetter(*x.images)(g_pad) == g_left(x.images)]


def subgroup_generated(N: FiniteGroup, seed: Iterable[Permutation]) -> FiniteGroup:
    """Subgroup of N generated by `seed` (finite, so products suffice)."""
    return closure(sorted(set(seed)), N.degree)


def derived_subgroup(N: FiniteGroup) -> FiniteGroup:
    """[N, N], as the normal closure K of the generators' commutators.

    K <= [N, N], and the generators commute modulo K, so N/K is abelian
    and [N, N] <= K.  A subgroup is normal in N once the conjugates of its
    generators by those of N lie in it; the loop adds them until none is new.
    """
    gens = N.generators or N.elements
    seed = {a.commutator(b) for a in gens for b in gens}
    while True:
        D = subgroup_generated(N, seed)
        new = {g.conjugate_by(x) for g in D.generators for x in gens} - D._element_set
        if not new:
            return D
        seed |= new


def _cosets(
    N: FiniteGroup, G: FiniteGroup
) -> tuple[dict[Images, int], list[Permutation], list[int]]:
    """N/G for G normal in N, numbered by least member (G is coset 0).

    Returns the coset number of each element's image tuple, each coset's
    least member x, and its order in N/G: the least k with x^k in G,
    found by stepping x^k = x * x^(k-1).
    """
    g_images = [g.images for g in G.elements]
    coset: dict[Images, int] = {}
    reps: list[Permutation] = []
    for x in N.elements:
        if x.images not in coset:
            coset.update(dict.fromkeys(map(_left(x.images), g_images), len(reps)))
            reps.append(x)
    orders = []
    for x in reps:
        step, y, k = _left(x.images), x.images, 1
        while coset[y]:
            y, k = step(y), k + 1
        orders.append(k)
    return coset, reps, orders


def _subgroups_between(N: FiniteGroup, D: FiniteGroup) -> list[FiniteGroup]:
    """All subgroups H with D <= H <= N, for D normal with abelian quotient.

    Each such H contains [N, N], so it is normal in N and <H, x> = H<x> is
    the union of the cosets x^k H: |<H, x>| products from the powers of x.
    <H, x> depends only on the coset xH, so one x per coset of H is tried;
    skipping every x inside some <H, x'> would lose subgroups (in C4 = <g>,
    <g> covers g^2).  Every H > D is <H', x> for some H' in the interval
    below it, so the breadth-first search from D reaches it.  The search
    runs on image tuples; each subgroup holds N's own elements.
    """
    own = {p.images: p for p in N.elements}
    seen = {frozenset(p.images for p in D.elements): D}
    frontier = [D]
    while frontier:
        new = []
        for H in frontier:
            h_images = [h.images for h in H.elements]
            in_h = set(h_images)
            covered = set(in_h)
            for x in N.elements:
                a = x.images
                if a in covered:
                    continue
                images = list(h_images)
                step = _left(a)
                y = a
                while y not in in_h:
                    images.extend(map(_left(y), h_images))
                    y = step(y)
                covered.update(images[H.order : 2 * H.order])  # the coset xH
                key = frozenset(images)
                if key not in seen:
                    H2 = FiniteGroup(N.degree, H.generators + (x,), map(own.__getitem__, images))
                    seen[key] = H2
                    new.append(H2)
        frontier = new
    return list(seen.values())


def normal_subgroups_with_abelian_quotient(N: FiniteGroup) -> list[FiniteGroup]:
    """All normal G <= N with N/G abelian, including G = N.

    N/G abelian forces G to contain the derived subgroup [N, N]; conversely
    every subgroup between [N, N] and N is normal with abelian quotient, so
    it suffices to enumerate the interval above [N, N].
    """
    D = derived_subgroup(N)
    subs = _subgroups_between(N, D)
    subs.sort(key=lambda H: (-H.order, H.elements))
    return subs


def normal_subgroups_with_cyclic_quotient(N: FiniteGroup) -> list[FiniteGroup]:
    """All normal G <= N with N/G cyclic, including G = N.

    Canonical order: descending group order, then element list.  These
    are the lattice's own G, the ones revised_b and cyclic_pairs read.
    """
    return [G for G, _, ctx in _abelian_lattice(N) if ctx is not None]


@dataclass(frozen=True)
class GNContext:
    """The pair G normal in N with cyclic quotient, plus complement data.

    When split is True, tau generates a cyclic complement of G in N.  When
    split is False, tau is still a canonically chosen element whose coset
    generates N/G (needed to define the twisted class action), but no
    complement exists; downstream results carry a warning in that case.
    """

    N: FiniteGroup
    G: FiniteGroup
    d: int
    tau: Permutation
    d_prime: int
    split: bool
    # e -> tau^{-e} for each admissible e, made with the context, so
    # dataclasses.replace makes them anew from the new tau and d'
    _conjugators: dict[int, Permutation] = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        object.__setattr__(self, "_conjugators", {e: self.tau ** (-e) for e in self.admissible_e()})

    def admissible_e(self) -> list[int]:
        return [e for e in range(1, self.d_prime + 1) if gcd(e, self.d_prime) == 1]

    def conjugator(self, e: int) -> Permutation:
        """tau^{-e}, the element t_e conjugates by."""
        x = self._conjugators.get(e)
        if x is None:
            raise ValueError(f"e = {e} not admissible for d' = {self.d_prime}")
        return x


def find_cyclic_complement(N: FiniteGroup, G: FiniteGroup) -> GNContext:
    """Search for a cyclic complement of G in N; always compute d'.

    tau is the least element (in the canonical element order) of order d
    generating a complement; if none exists, split=False and tau is the
    least element whose coset generates N/G.
    """
    if not G.is_normal_in(N):
        raise NotASubgroup("G is not a normal subgroup of N")
    return _cyclic_complement(N, G, centralizer(N, G).elements)


def _cyclic_complement(N: FiniteGroup, G: FiniteGroup, cen: Sequence[Permutation]) -> GNContext:
    """find_cyclic_complement(N, G) for G normal in N, given the elements
    of Cen_N(G): the caller has proved normality and built the centralizer."""
    d = N.order // G.order
    coset, _, orders = _cosets(N, G)
    coset_gens = [x for x in N.elements if orders[coset[x.images]] == d]
    if not coset_gens:
        raise NonCyclicQuotient(f"N/G of order {d} is not cyclic")

    # x has coset order d: <x> meets G trivially iff x^d = 1
    tau = next((x for x in coset_gens if x.order() == d), None)
    split = tau is not None
    if not split:
        tau = coset_gens[0]

    # G is normal in N, so G C is a subgroup of order |G||C| / |G ∩ C|
    meet = sum(1 for x in cen if x in G)
    d_prime = N.order * meet // (G.order * len(cen))
    return GNContext(N=N, G=G, d=d, tau=tau, d_prime=d_prime, split=split)


@lru_cache(maxsize=GROUP_CACHE_SIZE)
def _abelian_lattice(
    N: FiniteGroup,
) -> tuple[tuple[FiniteGroup, Fraction | None, GNContext | None], ...]:
    """(G, a(G), find_cyclic_complement(N, G)) for each G of
    normal_subgroups_with_abelian_quotient(N), in its order (G = N first).

    a(G) is None for the trivial G, and the context None when N/G is not
    cyclic: the one test of cyclicity.  All of it depends on N alone, so
    every field that revised_b is asked about, GroupSpecFile.cyclic_pairs
    and normal_subgroups_with_cyclic_quotient read the same G objects,
    whose class rows are filled once.  The key is N itself: a hit
    on the same object is an identity check (docs/decisions.md, "A
    group's abelian-quotient lattice is built once").

    The G share their work.  Each contains [N, N], so each is normal
    and the complement search skips that proof.  Cen_N(g_1, ..., g_m) is
    Cen_N(g_1, ..., g_{m-1}) filtered by g_m, so the centralizers are
    kept by generator prefix: a G built as <H, x>, generators
    H.generators + (x,), filters only H's centralizer.  ind(x) is read
    once per element of N, and a(G) is 1 / min of it over G - {1}: the
    identity is the one element of index 0.
    """
    chain: dict[tuple[Permutation, ...], Sequence[Permutation]] = {(): N.elements}
    ind = {x.images: x.index() for x in N.elements}
    rows = []
    for G in normal_subgroups_with_abelian_quotient(N):
        gens = G.generators
        k = len(gens)
        while gens[:k] not in chain:
            k -= 1
        for m in range(k, len(gens)):
            chain[gens[: m + 1]] = _commuting(chain[gens[:m]], gens[m])
        try:
            ctx = _cyclic_complement(N, G, chain[gens])
        except NonCyclicQuotient:
            ctx = None
        a = None
        if G.order > 1:
            a = Fraction(1, min(filter(None, (ind[g.images] for g in G.elements))))
        rows.append((G, a, ctx))
    return tuple(rows)


def a_invariant(G: FiniteGroup) -> Fraction:
    """1 / min{ind(g) : g in G, g != 1}, exact."""
    return Fraction(1, group_index(G))


def group_index(G: FiniteGroup) -> int:
    """min{ind(g) : g in G, g != 1}."""
    if G.order == 1:
        raise TrivialGroup("index undefined for the trivial group")
    # each class holds its members' index; class 0 is the identity's
    return min(c.index for c in G.conjugacy_classes()[1:])
