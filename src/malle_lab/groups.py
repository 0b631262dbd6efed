"""Exact arithmetic for small permutation groups.

Everything is fully enumerated: groups are closed element lists in a
canonical (sorted) order, so all derived data — conjugacy classes, normal
subgroups, complements — is deterministic across runs.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from fractions import Fraction
from math import gcd
from typing import Iterable, Sequence

from .errors import (
    DegreeMismatch,
    NonCyclicQuotient,
    NotASubgroup,
    OrderCapExceeded,
    TrivialGroup,
)
from .perms import Permutation

# closure raises OrderCapExceeded past this many elements
ORDER_CAP = 10**6


class FiniteGroup:
    """A fully enumerated permutation group on points 1..degree, generated by `generators`."""

    def __init__(self, degree: int, generators: Sequence[Permutation], elements: Iterable[Permutation]):
        self.degree = degree
        self.generators = tuple(generators)
        self.elements = tuple(sorted(elements))
        self.order = len(self.elements)
        self._element_set = frozenset(self.elements)
        self._classes: list[ConjugacyClass] | None = None

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


@dataclass(frozen=True)
class ConjugacyClass:
    """A conjugacy class of a group, with a stable class_id."""

    representative: Permutation
    members: tuple[Permutation, ...]
    class_id: int

    @property
    def size(self) -> int:
        return len(self.members)

    @property
    def is_trivial(self) -> bool:
        return self.representative.is_identity

    @property
    def index(self) -> int:
        return self.representative.index()

    def __repr__(self) -> str:
        return f"ConjugacyClass(id={self.class_id}, size={self.size}, rep={self.representative!r})"


def closure(generators: Sequence[Permutation], degree: int) -> FiniteGroup:
    """Enumerate the group generated by `generators` inside S_degree.

    The search runs on image tuples; each element is wrapped once, in the
    sorted order.
    """
    order_cap = ORDER_CAP
    for g in generators:
        if g.degree != degree:
            raise DegreeMismatch(f"generator degree {g.degree} != {degree}")
    gens = [g.images for g in generators]
    identity = tuple(range(1, degree + 1))
    elements = {identity}
    frontier = [identity]
    while frontier:
        new = []
        for x in frontier:
            for g in gens:
                y = tuple([g[i - 1] for i in x])
                if y not in elements:
                    elements.add(y)
                    new.append(y)
                    if len(elements) > order_cap:
                        raise OrderCapExceeded(
                            f"closure exceeded the order cap of {order_cap}"
                        )
        frontier = new
    return FiniteGroup(degree, generators, map(Permutation._unchecked, sorted(elements)))


def _compute_classes(G: FiniteGroup) -> tuple[list[ConjugacyClass], list[int]]:
    """The classes of G, numbered by least member, and each element's class id.

    A class is the orbit of its least member under conjugation by the
    generators of G.
    """
    conjugators = G.generators or G.elements
    elements, index = G.elements, G.index
    class_ids = [-1] * G.order
    classes = []
    # G.elements is sorted, so each new class starts at its least member.
    # Members are G's own objects, so a class holds no copies.
    for i, g in enumerate(elements):
        if class_ids[i] >= 0:
            continue
        class_ids[i] = cid = len(classes)
        orbit = [g]
        for y in orbit:
            for x in conjugators:
                j = index[y.conjugate_by(x)]
                if class_ids[j] < 0:
                    class_ids[j] = cid
                    orbit.append(elements[j])
        classes.append(ConjugacyClass(g, tuple(sorted(orbit)), cid))
    return classes, class_ids


def centralizer(N: FiniteGroup, G: FiniteGroup) -> FiniteGroup:
    """Cen_N(G) = {x in N : xg = gx for all g in G}."""
    if not G.is_subgroup_of(N):
        raise NotASubgroup("G is not a subgroup of N")
    # xg = gx iff g(x(p)) = x(g(p)) for every point p
    gens = [g.images for g in G.generators or G.elements]
    members = []
    for x in N.elements:
        a = x.images
        if all([g[i - 1] for i in a] == [a[i - 1] for i in g] for g in gens):
            members.append(x)
    return FiniteGroup(N.degree, tuple(members), members)


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


def coset_order(G: FiniteGroup, x: Permutation) -> int:
    """Order of xG in N/G."""
    k = 1
    y = x
    while y not in G:
        y = y * x
        k += 1
    return k


def quotient_is_cyclic(N: FiniteGroup, G: FiniteGroup) -> bool:
    d = N.order // G.order
    return any(coset_order(G, x) == d for x in N.elements)


def _subgroups_between(N: FiniteGroup, D: FiniteGroup) -> list[FiniteGroup]:
    """All subgroups H with D <= H <= N, for D normal with abelian quotient.

    Each such H contains [N, N], so it is normal in N and <H, x> = H<x> is
    the union of the cosets H x^k: |<H, x>| products from the powers of x.
    <H, x> depends only on the coset Hx, so one x per coset of H is tried;
    skipping every x inside some <H, x'> would lose subgroups (in C4 = <g>,
    <g> covers g^2).  Every H > D is <H', x> for some H' in the interval
    below it, so the breadth-first search from D reaches it.
    """
    seen = {D._element_set: D}
    frontier = [D]
    while frontier:
        new = []
        for H in frontier:
            covered = set(H._element_set)
            for x in N.elements:
                if x in covered:
                    continue
                elements = list(H.elements)
                y = x
                while y not in H:
                    elements.extend(h * y for h in H.elements)
                    y = y * x
                covered.update(elements[H.order : 2 * H.order])  # the coset Hx
                key = frozenset(elements)
                if key not in seen:
                    H2 = FiniteGroup(N.degree, H.generators + (x,), elements)
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

    Canonical order: descending group order, then element list.
    """
    return [
        H
        for H in normal_subgroups_with_abelian_quotient(N)
        if quotient_is_cyclic(N, H)
    ]


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

    def admissible_e(self) -> list[int]:
        return [e for e in range(1, self.d_prime + 1) if gcd(e, self.d_prime) == 1]


def find_cyclic_complement(N: FiniteGroup, G: FiniteGroup) -> GNContext:
    """Search for a cyclic complement of G in N; always compute d'.

    tau is the least element (in the canonical element order) of order d
    generating a complement; if none exists, split=False and tau is the
    least element whose coset generates N/G.
    """
    if not G.is_normal_in(N):
        raise NotASubgroup("G is not a normal subgroup of N")
    d = N.order // G.order
    coset_gens = [x for x in N.elements if coset_order(G, x) == d]
    if not coset_gens:
        raise NonCyclicQuotient(f"N/G of order {d} is not cyclic")

    # x has coset order d: <x> meets G trivially iff x^d = 1
    tau = next((x for x in coset_gens if x.order() == d), None)
    split = tau is not None
    if not split:
        tau = coset_gens[0]

    cen = centralizer(N, G)
    # G is normal in N, so G C is a subgroup of order |G||C| / |G ∩ C|
    meet = sum(1 for x in cen.elements if x in G)
    d_prime = N.order * meet // (G.order * cen.order)
    return GNContext(N=N, G=G, d=d, tau=tau, d_prime=d_prime, split=split)


def a_invariant(G: FiniteGroup) -> Fraction:
    """1 / min{ind(g) : g in G, g != 1}, exact."""
    return Fraction(1, group_index(G))


def group_index(G: FiniteGroup) -> int:
    """min{ind(g) : g in G, g != 1}."""
    if G.order == 1:
        raise TrivialGroup("index undefined for the trivial group")
    return min(g.index() for g in G.elements if not g.is_identity)
