"""Permutations on points 1..n, with cycle-notation parsing and printing.

Composition convention, used everywhere in this package: ``f * g`` means
"apply f first, then g", so a product of tuple entries g1 * g2 * ... * gk
is evaluated left to right.  Conjugation ``g.conjugate_by(h)`` is
h^{-1} g h in this convention, i.e. the permutation obtained from g by
relabelling every point p as h(p); the conjugate of the cycle (1 2 3) by h
is the cycle (h(1) h(2) h(3)).

Speed rule: loops that run once per group element or per product (the
closure, classes, centralizers, cosets and subgroup lattice in
``groups``) compose image tuples with one C-level gather: ``g * x`` has
images ``itemgetter(*[i - 1 for i in g])(x)`` (``groups._left(g)``),
hashed and compared in C; ``x * g`` is the gather of g, padded with a
0 as points are 1-based, at x's images: ``itemgetter(*x)((0,) + g)``.
In degree 1 ``itemgetter`` of one index returns a bare item, not a
1-tuple; there the only g is the identity, and ``_left`` returns x
itself.  A ``Permutation`` object wraps only a
result that is kept.  A power ``g ** k``, k < 0 too, rotates each cycle
of g by k steps.
"""

from __future__ import annotations

import re
from functools import reduce
from math import lcm
from typing import Iterable, Sequence

from .errors import DegreeMismatch, ParseError, PointOutOfRange


class Permutation:
    """An element of S_n.  `images[i-1]` is the image of point i (1-based)."""

    __slots__ = ("images",)

    def __init__(self, images: Sequence[int]):
        images = tuple(images)
        n = len(images)
        if sorted(images) != list(range(1, n + 1)):
            raise ValueError(f"not a bijection on 1..{n}: {images}")
        self.images = images

    @classmethod
    def _unchecked(cls, images: tuple[int, ...]) -> "Permutation":
        # products, inverses and the identity are bijections by construction
        p = object.__new__(cls)
        p.images = images
        return p

    @classmethod
    def identity(cls, degree: int) -> "Permutation":
        return cls._unchecked(tuple(range(1, degree + 1)))

    @classmethod
    def from_cycles(cls, cycles: Iterable[Sequence[int]], degree: int) -> "Permutation":
        """Build a permutation from cycles of 1-based points.

        Cycles need not be disjoint; they are composed left to right into
        one image list, checked once at the end: maps of a finite set to
        itself compose to a bijection only if each of them is one.
        """
        images = list(range(1, degree + 1))
        for cycle in cycles:
            step = {}
            for i, point in enumerate(cycle):
                if not 1 <= point <= degree:
                    raise PointOutOfRange(f"point {point} outside 1..{degree}")
                step[point] = cycle[(i + 1) % len(cycle)]
            images = [step.get(v, v) for v in images]
        return cls(images)

    @property
    def degree(self) -> int:
        return len(self.images)

    def __call__(self, point: int) -> int:
        return self.images[point - 1]

    def __mul__(self, other: "Permutation") -> "Permutation":
        # apply self first, then other
        a, o = self.images, other.images
        if len(a) != len(o):
            raise DegreeMismatch(f"degree {len(a)} vs {len(o)}")
        return Permutation._unchecked(tuple([o[i - 1] for i in a]))

    def inverse(self) -> "Permutation":
        images = [0] * self.degree
        for i, v in enumerate(self.images):
            images[v - 1] = i + 1
        return Permutation._unchecked(tuple(images))

    def __pow__(self, k: int) -> "Permutation":
        # for any integer k, each point moves k steps along its cycle
        images = [0] * self.degree
        for cycle in self.cycles(include_fixed=True):
            n = len(cycle)
            for i, p in enumerate(cycle):
                images[p - 1] = cycle[(i + k) % n]
        return Permutation._unchecked(tuple(images))

    def conjugate_by(self, h: "Permutation") -> "Permutation":
        """h^{-1} * self * h: relabel points of self through h.

        One pass: the conjugate maps h(p) to h(self(p)).
        """
        g, k = self.images, h.images
        if len(g) != len(k):
            raise DegreeMismatch(f"degree {len(g)} vs {len(k)}")
        images = [0] * len(g)
        for hp, gp in zip(k, g):
            images[hp - 1] = k[gp - 1]
        return Permutation._unchecked(tuple(images))

    def commutator(self, other: "Permutation") -> "Permutation":
        return self.inverse() * other.inverse() * self * other

    def cycles(self, include_fixed: bool = False) -> list[tuple[int, ...]]:
        """Disjoint cycles, each rotated to start at its least point."""
        seen = [False] * self.degree
        out = []
        for start in range(1, self.degree + 1):
            if seen[start - 1]:
                continue
            cycle = []
            p = start
            while not seen[p - 1]:
                seen[p - 1] = True
                cycle.append(p)
                p = self.images[p - 1]
            if len(cycle) > 1 or include_fixed:
                out.append(tuple(cycle))
        return out

    @property
    def is_identity(self) -> bool:
        return self.images == tuple(range(1, len(self.images) + 1))

    def order(self) -> int:
        return lcm(*map(len, self.cycles()))

    def index(self) -> int:
        """Degree minus the number of orbits on points (fixed points count)."""
        images = self.images
        seen = [False] * len(images)
        orbits = 0
        for start in range(len(images)):
            if not seen[start]:
                orbits += 1
                p = start
                while not seen[p]:
                    seen[p] = True
                    p = images[p] - 1
        return len(images) - orbits

    def __eq__(self, other) -> bool:
        return isinstance(other, Permutation) and self.images == other.images

    def __lt__(self, other: "Permutation") -> bool:
        return self.images < other.images

    def __hash__(self) -> int:
        return hash(self.images)

    def __repr__(self) -> str:
        return f"Permutation({format_cycles(self)!r}, degree={self.degree})"


def format_cycles(p: Permutation) -> str:
    """Canonical cycle string; the identity prints as 'id'."""
    cycles = p.cycles()
    if not cycles:
        return "id"
    return "".join("(" + " ".join(str(pt) for pt in c) + ")" for c in cycles)


def parse_cycles(text: str, degree: int) -> Permutation:
    r"""Parse cycle notation like "(1 2 3)(4 5 6)" into a Permutation.

    The grammar is one regex: the whole text must match
    ``(?:\s*(?:id|\([\d\s]*\)))*\s*`` and must not be blank, or
    ParseError names the offset where the match stops.  It is checked
    before any point is read.  Each parenthesised group is then one
    cycle; at degree <= 9 its points are read digit by digit, so
    "(123)(456)" works, and above that they are whitespace-separated.
    "id" and "()" denote the identity.  Cycles need not be disjoint and
    compose left to right.  A point outside 1..degree raises
    PointOutOfRange, and a point repeated within a cycle raises
    ParseError at the cycle's offset.  These are the only checks: the
    cycles are composed in place, without from_cycles' second range check
    and bijection test.
    """
    end = re.match(r"(?:\s*(?:id|\([\d\s]*\)))*\s*", text).end()
    if end < len(text) or not text.strip():
        raise ParseError(f"expected 'id' or a cycle, got {text[end:end + 1]!r}", end)
    images = list(range(1, degree + 1))  # images[p - 1]: the image of p so far
    source = list(range(degree + 1))  # source[v]: the point whose image is v so far
    for m in re.finditer(r"\(([\d\s]*)\)", text):
        body = m.group(1)
        cycle = [int(t) for t in ("".join(body.split()) if degree <= 9 else body.split())]
        for i, point in enumerate(cycle):
            if not 1 <= point <= degree:
                raise PointOutOfRange(f"point {point} outside 1..{degree}")
            if point in cycle[:i]:
                raise ParseError(f"point {point} repeated in cycle", m.start())
        # apply the cycle after the ones before it: the point whose image
        # is a now goes to the cycle's successor of a.  A cycle that
        # repeats no point is a bijection, so the product is one
        points = [source[a] for a in cycle]
        for p, b in zip(points, cycle[1:] + cycle[:1]):
            images[p - 1] = b
            source[b] = p
    return Permutation._unchecked(tuple(images))


def product(perms: Sequence[Permutation], degree: int | None = None) -> Permutation:
    """Left-to-right product; the empty product needs an explicit degree."""
    if not perms:
        if degree is None:
            raise ValueError("empty product needs a degree")
        return Permutation.identity(degree)
    return reduce(lambda a, b: a * b, perms)
