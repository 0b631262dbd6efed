"""Nielsen tuples, the braid-move action and its orbit decomposition.

Tuples live in G; orbits are computed on N-conjugation classes of tuples
(simultaneous conjugation), under the moves

    Q_i(g_1, ..., g_k) = (g_1, ..., g_i g_{i+1} g_i^{-1}, g_i, ..., g_k).

All heavy loops run on integer element indices, over the group's own
index, multiplication and inversion tables plus the conjugation rows of
N; the public API speaks Permutations.

The orbit search applies the forward moves Q_i only.  N-conjugation
commutes with every Q_i, so each Q_i permutes the finite set of canonical
tuples, and a permutation of a finite set has finite order: Q_i^{-1} is a
positive power of Q_i.  The forward closure of a seed is therefore already
its whole orbit.

The canonical form of a tuple is its least image under simultaneous
N-conjugation, found as a minimal image (Jefferson, Jonauskyte, Pfeiffer,
Waldecker, "Minimal and canonical images", J. Algebra 521 (2019)).  The
least image starts with the least N-conjugate of t[0], so only the rows in
min_rows[t[0]] can produce it; at each later position the rows that miss
the least entry there drop out, and once one row is left (or the tuple
ends) that row gives the image.  Generating tuples usually leave one row
after the first or second entry, instead of the full scan of conj_rows.

Frobenius stability of an orbit is a *model*: the entrywise map
g -> (g^q) conjugated by tau^{-e}, followed by reduction modulo braid
moves and N-conjugation.  Reports built on it carry a warning.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from typing import Collection, Mapping, Sequence

from .errors import (
    EnumerationCapExceeded,
    IndexOutOfRange,
    InvariantViolation,
    NotASubgroup,
    TrivialClassPresent,
    UnknownSeed,
)
from .groups import FiniteGroup
from .invariants import TwistSpec
from .perms import Permutation, product

DEFAULT_NODE_CAP = 10**8
DEFAULT_VISITED_CAP = 10**7
# Cache bounds: more (G, N) pairs and generation tests than one braid
# session touches, so a bound costs no recomputation in practice.
PAIR_CACHE_SIZE = 16
GENERATES_CACHE_SIZE = 2**16

FROBENIUS_MODEL_WARNING = (
    "orbit-level Frobenius stability uses the entrywise twisted-power "
    "model; it is a stand-in for the unspecified arithmetic action on "
    "components"
)


@dataclass(frozen=True)
class ClassVector:
    """A multiset of nontrivial conjugacy classes of `group`.

    multiplicities is stored sorted by class_id; equality is multiset
    equality, so two vectors differing by reordering are equal.
    """

    group: FiniteGroup = field(compare=False)
    multiplicities: tuple[tuple[int, int], ...]

    def __post_init__(self):
        classes = {c.class_id: c for c in self.group.conjugacy_classes()}
        seen = set()
        for cid, mult in self.multiplicities:
            if cid not in classes:
                raise ValueError(f"unknown class id {cid}")
            if classes[cid].is_trivial:
                raise TrivialClassPresent(
                    "class vectors may not contain the trivial class"
                )
            if mult <= 0:
                raise ValueError(f"multiplicity of class {cid} must be positive")
            if cid in seen:
                raise ValueError(f"class id {cid} repeated")
            seen.add(cid)
        object.__setattr__(
            self, "multiplicities", tuple(sorted(self.multiplicities))
        )

    @classmethod
    def from_counts(cls, group: FiniteGroup, counts: Mapping[int, int]) -> "ClassVector":
        return cls(group, tuple((cid, m) for cid, m in counts.items() if m))

    @property
    def counts(self) -> dict[int, int]:
        return dict(self.multiplicities)

    @property
    def length(self) -> int:
        return sum(m for _, m in self.multiplicities)

    @property
    def weight(self) -> int:
        classes = {c.class_id: c for c in self.group.conjugacy_classes()}
        return sum(m * classes[cid].index for cid, m in self.multiplicities)

    def __add__(self, other: "ClassVector") -> "ClassVector":
        if other.group != self.group:
            raise ValueError("class vectors of different groups")
        counts = self.counts
        for cid, m in other.multiplicities:
            counts[cid] = counts.get(cid, 0) + m
        return ClassVector.from_counts(self.group, counts)

    def scaled(self, m: int) -> "ClassVector":
        if m < 0:
            raise ValueError("negative multiple")
        return ClassVector.from_counts(
            self.group, {cid: mult * m for cid, mult in self.multiplicities}
        )

    def __repr__(self) -> str:
        inner = ", ".join(f"{cid}:{m}" for cid, m in self.multiplicities)
        return f"ClassVector({{{inner}}})"


def class_vector_of(group: FiniteGroup, entries: Sequence[Permutation]) -> ClassVector:
    counts: dict[int, int] = {}
    for g in entries:
        cid = group.class_of(g).class_id
        counts[cid] = counts.get(cid, 0) + 1
    return ClassVector.from_counts(group, counts)


@dataclass(frozen=True)
class NielsenTuple:
    """A product-one generating tuple of nontrivial elements of a group."""

    group: FiniteGroup = field(compare=False)
    entries: tuple[Permutation, ...]

    def __post_init__(self):
        if any(g.is_identity for g in self.entries):
            raise ValueError("Nielsen tuples contain no identity entries")
        if not product(self.entries, self.group.degree).is_identity:
            raise ValueError("entries do not multiply to the identity")

    @property
    def length(self) -> int:
        return len(self.entries)

    @property
    def class_vector(self) -> ClassVector:
        return class_vector_of(self.group, self.entries)


def braid_generator(t: NielsenTuple, i: int) -> NielsenTuple:
    """Q_i: replace (g_i, g_{i+1}) by (g_i g_{i+1} g_i^{-1}, g_i); 1-based."""
    k = t.length
    if not 1 <= i <= k - 1:
        raise IndexOutOfRange(f"braid index {i} outside 1..{k - 1}")
    g = list(t.entries)
    a, b = g[i - 1], g[i]
    g[i - 1], g[i] = a * b * a.inverse(), a
    out = NielsenTuple(t.group, tuple(g))
    if _closure_order(t.group, _indices(t)) != _closure_order(t.group, _indices(out)):
        raise InvariantViolation("a braid move changed the subgroup the entries generate")
    return out


def _indices(t: NielsenTuple) -> set[int]:
    index = t.group.index
    if any(g not in index for g in t.entries):
        raise NotASubgroup("a tuple entry is not an element of its group")
    return {index[g] for g in t.entries}


def braid_generator_inverse(t: NielsenTuple, i: int) -> NielsenTuple:
    """Q_i^{-1}: replace (g_i, g_{i+1}) by (g_{i+1}, g_{i+1}^{-1} g_i g_{i+1})."""
    k = t.length
    if not 1 <= i <= k - 1:
        raise IndexOutOfRange(f"braid index {i} outside 1..{k - 1}")
    g = list(t.entries)
    a, b = g[i - 1], g[i]
    g[i - 1], g[i] = b, b.inverse() * a * b
    return NielsenTuple(t.group, tuple(g))


# ---------------------------------------------------------------------------
# integer-index machinery


class _IndexedPair:
    """N acting on G by conjugation, over the index tables of G."""

    def __init__(self, G: FiniteGroup, N: FiniteGroup):
        if not G.is_normal_in(N):
            raise NotASubgroup("braid orbits need G normal in N")
        self.G = G
        self.N = N
        index = G.index
        # distinct conjugation rows of N on G (the action factors through
        # N / Cen_N(G), so duplicates are common and worth dropping)
        rows = {
            tuple(index[g.conjugate_by(x)] for g in G.elements)
            for x in N.elements
        }
        self.conj_rows = sorted(rows)
        # min_rows[g]: the rows sending g to its least N-conjugate (shared
        # references into conj_rows, in conj_rows order)
        self.min_rows = []
        for g in range(G.order):
            least = min(row[g] for row in self.conj_rows)
            self.min_rows.append([row for row in self.conj_rows if row[g] == least])

    def canonical(self, t: tuple[int, ...]) -> tuple[int, ...]:
        """The least image of t under the conjugation rows (a minimal image)."""
        rows = self.min_rows[t[0]]
        pos = 1
        while len(rows) > 1 and pos < len(t):
            g = t[pos]
            least = min(row[g] for row in rows)
            rows = [row for row in rows if row[g] == least]
            pos += 1
        row = rows[0]
        return tuple(row[g] for g in t)

    @lru_cache(maxsize=GENERATES_CACHE_SIZE)
    def generates(self, entries: frozenset[int]) -> bool:
        return _closure_order(self.G, entries) == self.G.order


def _closure_order(G: FiniteGroup, entries: Collection[int]) -> int:
    """Order of the subgroup of G generated by the elements indexed by entries."""
    mul = G.mul
    identity = G.index[G.identity]
    closed = {identity}
    frontier = [identity]
    while frontier:
        new = []
        for x in frontier:
            row = mul[x]
            for g in entries:
                y = row[g]
                if y not in closed:
                    closed.add(y)
                    new.append(y)
        frontier = new
    return len(closed)


@lru_cache(maxsize=PAIR_CACHE_SIZE)
def _indexed(G: FiniteGroup, N: FiniteGroup) -> _IndexedPair:
    return _IndexedPair(G, N)


def _enumerate_idx(
    ctx: _IndexedPair, cv: ClassVector, node_cap: int
) -> list[tuple[int, ...]]:
    """All product-one tuples with class multiset cv that generate G."""
    counts = cv.counts
    k = cv.length
    out: list[tuple[int, ...]] = []
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
    entries: list[int] = []

    def dfs(pos: int, prefix: int):
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
                if ctx.generates(frozenset(entries)):
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


def enumerate_nielsen(
    G: FiniteGroup, cv: ClassVector, node_cap: int = DEFAULT_NODE_CAP
) -> list[NielsenTuple]:
    """All Nielsen tuples of G whose entry class multiset equals cv."""
    ctx = _indexed(G, G)
    tuples = _enumerate_idx(ctx, cv, node_cap)
    return [
        NielsenTuple(G, tuple(G.elements[i] for i in t)) for t in tuples
    ]


@dataclass(frozen=True)
class BraidOrbit:
    """One orbit of the braid moves on N-conjugation classes of tuples."""

    group: FiniteGroup = field(compare=False)
    ambient: FiniteGroup = field(compare=False)
    canonical_rep: NielsenTuple = field(compare=False)
    size: int
    class_vector: ClassVector
    members: frozenset = field(compare=False, repr=False)

    def __repr__(self) -> str:
        return f"BraidOrbit(size={self.size}, rep={self.canonical_rep.entries!r})"


def _orbit_partition(
    ctx: _IndexedPair,
    canonical_tuples: Sequence[tuple[int, ...]],
    visited_cap: int,
    seeds_order: Sequence[tuple[int, ...]] | None = None,
) -> list[list[tuple[int, ...]]]:
    """BFS partition of canonical tuples under the forward braid moves; deterministic."""
    mul, inv = ctx.G.mul, ctx.G.inv
    unseen = set(canonical_tuples)
    orbits = []
    seeds = seeds_order if seeds_order is not None else sorted(unseen)
    for seed in seeds:
        if seed not in unseen:
            continue
        unseen.discard(seed)
        members = {seed}
        frontier = [seed]
        while frontier:
            new = []
            for t in frontier:
                k = len(t)
                for i in range(k - 1):
                    # Q_i only: its inverse is a power of it (module docstring)
                    a = t[i]
                    u = ctx.canonical(t[:i] + (mul[mul[a][t[i + 1]]][inv[a]], a) + t[i + 2 :])
                    if u not in members:
                        members.add(u)
                        new.append(u)
                        if len(members) > visited_cap:
                            raise EnumerationCapExceeded(
                                f"orbit grew past {visited_cap} canonical tuples"
                            )
            frontier = new
        unseen.difference_update(members)
        orbits.append(sorted(members))
    return orbits


def braid_orbits(
    G: FiniteGroup,
    N: FiniteGroup,
    cv: ClassVector,
    node_cap: int = DEFAULT_NODE_CAP,
    visited_cap: int = DEFAULT_VISITED_CAP,
    _seed_order: Sequence[tuple[int, ...]] | None = None,
) -> list[BraidOrbit]:
    """Partition Ni(cv) modulo N-conjugation into braid orbits.

    The result is canonically ordered (orbits sorted by their least
    canonical representative) and independent of traversal order;
    _seed_order, a sequence of canonical tuples (the `members` of the
    orbits) to start searches from, exists to let tests check exactly that.
    """
    ctx = _indexed(G, N)
    tuples = _enumerate_idx(ctx, cv, node_cap)
    canonical = sorted({ctx.canonical(t) for t in tuples})
    if _seed_order is not None and not set(_seed_order) <= set(canonical):
        raise UnknownSeed("every seed must be one of the canonical tuples")
    parts = _orbit_partition(ctx, canonical, visited_cap, _seed_order)
    covered = sum(len(members) for members in parts)
    if covered != len(canonical):
        raise InvariantViolation(
            f"orbit sizes sum to {covered}, not to the {len(canonical)} canonical tuples"
        )
    orbits = []
    for members in parts:
        rep = members[0]
        orbits.append(
            BraidOrbit(
                group=G,
                ambient=N,
                canonical_rep=NielsenTuple(G, tuple(G.elements[i] for i in rep)),
                size=len(members),
                class_vector=cv,
                members=frozenset(members),
            )
        )
    orbits.sort(key=lambda o: o.members and min(o.members))
    return orbits


def frobenius_stable_orbits(
    orbits: Sequence[BraidOrbit], spec: TwistSpec
) -> list[BraidOrbit]:
    """Orbits sent to themselves by the entrywise twisted-power model.

    The model maps each entry g to (g^q) conjugated by tau^{-e}.  If the
    image tuple is no longer product-one (powering is not a homomorphism),
    the orbit is reported unstable.
    """
    if not orbits:
        return []
    G = orbits[0].group
    N = orbits[0].ambient
    cv = orbits[0].class_vector
    if any(o.class_vector != cv for o in orbits):
        raise ValueError("orbits must share one class vector")
    ctx = _indexed(G, N)
    index = G.index
    twist = [index[(g**spec.q).conjugate_by(spec.conjugator)] for g in G.elements]
    identity = index[G.identity]
    stable = []
    for orbit in orbits:
        rep = tuple(index[g] for g in orbit.canonical_rep.entries)
        image = tuple(twist[g] for g in rep)
        # product-one must survive for the image to be a tuple at all
        prod = identity
        for g in image:
            prod = G.mul[prod][g]
        if prod != identity:
            continue
        if ctx.canonical(image) in orbit.members:
            stable.append(orbit)
    return stable


@dataclass(frozen=True)
class ProbeResult:
    """Orbit counts of base + m*pad for m = 0..; truncated marks a cap hit."""

    counts: tuple[tuple[int, int], ...]
    truncated: bool


def conway_parker_probe(
    G: FiniteGroup,
    N: FiniteGroup,
    base: ClassVector,
    pad: ClassVector,
    max_m: int,
    node_cap: int = DEFAULT_NODE_CAP,
    visited_cap: int = DEFAULT_VISITED_CAP,
) -> ProbeResult:
    """Orbit counts as padding grows; observes stabilisation at desk scale."""
    counts = []
    for m in range(max_m + 1):
        cv = base + pad.scaled(m) if m else base
        try:
            orbits = braid_orbits(G, N, cv, node_cap, visited_cap)
        except EnumerationCapExceeded:
            return ProbeResult(counts=tuple(counts), truncated=True)
        counts.append((m, len(orbits)))
    return ProbeResult(counts=tuple(counts), truncated=False)
