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

Only canonical tuples are generated (orderly generation: McKay,
"Isomorph-free exhaustive generation", J. Algorithms 26 (1998)).  A tuple
t is its own least image exactly when, for every position p, t[p] is the
least image of t[p] under the rows that fix t[:p] pointwise: a row that
moves t has a first position where it changes t, it fixes the prefix
before it, and there it must make the entry larger.  So the enumeration
carries the rows fixing its prefix and drops every entry that one of
them lowers.  The canonical forms of the tuples with class multiset cv
have class multiset x(cv) for some x in N, not always cv (N may fuse
classes of G), and each canonical tuple of class multiset x(cv) is the
canonical form of its x^{-1}-image; so the enumeration runs once for
each distinct N-image of cv, and the union is exactly the set of
canonical forms of cv's tuples.

The orbit search canonicalises only where it has to.  For a canonical t
let j(t) be the least prefix length after which only the identity row
fixes t[:j] pointwise.  A move Q_i at positions i, i+1 >= j leaves t[:j]
unchanged, and its image u is already canonical: a row that moves t[:j]
first changes it at a position where, t being canonical, it makes the
entry larger, and u agrees with t there; every other row is the
identity.  u[:j] = t[:j] also gives j(u) = j(t).

An abelian G needs no orbit search: the canonical tuples of cv form one
orbit, or none if there are none.  In abelian G, Q_i maps (..., a, b, ...)
to (..., b, a, ...), since a b a^{-1} = b, and adjacent swaps generate
S_k, so any two arrangements of one multiset of elements lie in one braid
orbit.  Each class of an abelian G is one element, so every tuple with
class multiset cv is an arrangement of the same multiset; product one
and generation depend only on that multiset, so either every
arrangement qualifies or none does.  N-conjugation commutes with every
move, so the canonical forms of those tuples also form one orbit, and
_enumerate_idx returns exactly those canonical forms.

Frobenius stability of an orbit is a *model*: the entrywise map
g -> (g^q) conjugated by tau^{-e}, followed by reduction modulo braid
moves and N-conjugation.  Reports built on it carry a warning.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import Collection, Mapping, Sequence

from .errors import (
    EnumerationCapExceeded,
    IndexOutOfRange,
    InvariantViolation,
    NotASubgroup,
    TrivialClassPresent,
)
from .groups import FiniteGroup, closure
from .invariants import TwistSpec
from .perms import Permutation, product

# Search caps: prefix states of one tuple enumeration, canonical tuples of
# one orbit.  Each search reads its cap once per call.
NODE_CAP = 10**8
VISITED_CAP = 10**7
# Pair cache bound: h2_desk_scale calls braid_orbits once per class vector
# on the same (G, N), so the tables of recent pairs are reused.
PAIR_CACHE_SIZE = 16

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

    group: FiniteGroup
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
    """A product-one tuple of nontrivial elements of a group.

    Every entry must lie in group.  Generation is not checked here (a
    check would slow every enumerated tuple); the enumerators build only
    generating tuples.
    """

    group: FiniteGroup
    entries: tuple[Permutation, ...]

    def __post_init__(self):
        if any(g not in self.group for g in self.entries):
            raise NotASubgroup("a tuple entry is not an element of its group")
        if any(g.is_identity for g in self.entries):
            raise ValueError("Nielsen tuples contain no identity entries")
        if not product(self.entries, self.group.degree).is_identity:
            raise ValueError("entries do not multiply to the identity")

    @property
    def length(self) -> int:
        return len(self.entries)


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
        index = G.index
        # distinct conjugation rows of N on G (the action factors through
        # N / Cen_N(G), so duplicates are common and worth dropping): the
        # group the generators' rows generate, as permutations of 1..|G|;
        # closure sorts by images, so the 0-based rows come out sorted
        gen_rows = [
            Permutation([index[g.conjugate_by(x)] + 1 for g in G.elements])
            for x in N.generators or N.elements
        ]
        rows = closure(gen_rows, G.order)
        self.conj_rows = [tuple(i - 1 for i in p.images) for p in rows.elements]
        # the identity row is the least permutation of range(|G|)
        self.identity_row = self.conj_rows[0]
        # min_rows[g]: the rows sending g to its least N-conjugate (shared
        # references into conj_rows, in conj_rows order)
        self.min_rows = []
        for g in range(G.order):
            least = min(row[g] for row in self.conj_rows)
            self.min_rows.append([row for row in self.conj_rows if row[g] == least])

    @cached_property
    def conj(self) -> list[list[int]]:
        """conj[a][b] = a b a^{-1}, over the index tables of G."""
        mul, inv = self.G.mul, self.G.inv
        return [[mul[ab][inv[a]] for ab in mul[a]] for a in range(self.G.order)]

    def least_image(self, t: tuple[int, ...]) -> tuple[tuple[int, ...], int]:
        """The least image u of t under the conjugation rows, and j(u).

        j(u) is the least prefix length after which only the identity row
        fixes u[:j] pointwise, or len(t) if other rows fix all of u; t
        itself is returned when the identity row gives the image.
        """
        if len(self.conj_rows) == 1:
            return t, 0
        rows = self.min_rows[t[0]]
        pos = 1
        while len(rows) > 1 and pos < len(t):
            g = t[pos]
            least = min(row[g] for row in rows)
            rows = [row for row in rows if row[g] == least]
            pos += 1
        # the rows left are the ones sending t[:pos] onto u[:pos], a coset
        # of the stabiliser of u[:pos], so they number as many as it does
        row = rows[0]
        if row is self.identity_row:
            return t, pos
        return tuple(map(row.__getitem__, t)), pos

    def canonical(self, t: tuple[int, ...]) -> tuple[int, ...]:
        """The least image of t under the conjugation rows (a minimal image)."""
        return self.least_image(t)[0]


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
    ctx: _IndexedPair,
    cv: ClassVector,
    canonical_only: bool = True,
) -> list[tuple[int, ...]]:
    """Product-one tuples that generate G, unsorted.

    With canonical_only, exactly the canonical forms of the tuples with
    class multiset cv (module docstring); otherwise every such tuple, by
    the same search with the identity row as its only row.
    """
    if canonical_only:
        rows, first = ctx.conj_rows, ctx.min_rows
    else:
        rows = [ctx.identity_row]
        first = [rows] * ctx.G.order
    k = cv.length
    out: list[tuple[int, ...]] = []
    if k < 2:
        return out  # a product-one 1-tuple is the identity, in no class of cv
    G = ctx.G
    mul, inv, class_ids, index = G.mul, G.inv, G.class_ids, G.index
    identity = index[G.identity]
    # entry set -> does it generate G; lives for this call only
    generates: dict[frozenset[int], bool] = {}
    classes = G.conjugacy_classes()
    members = [[index[m] for m in c.members] for c in classes]
    # N permutes the classes of G: each row sends the class of a
    # representative to the class of its image
    reps = {cid: index[classes[cid].representative] for cid in cv.counts}
    images = sorted({
        tuple(sorted((class_ids[row[reps[cid]]], m) for cid, m in cv.multiplicities))
        for row in rows
    })
    nodes, node_cap = 0, NODE_CAP
    entries: list[int] = []

    def dfs(pos: int, prefix: int, fixing: list[tuple[int, ...]]):
        # fixing: the rows that fix entries[:pos] pointwise; counts and
        # order: the classes left of the image being searched.  The entry at
        # pos is placed here, and at pos = k - 2 the product fixes the last
        nonlocal nodes
        nodes += 1
        if nodes > node_cap:
            raise EnumerationCapExceeded(
                f"tuple enumeration exceeded {node_cap} prefix states",
                partial=list(out),
            )
        row = mul[prefix]
        leaf = pos == k - 2
        for cid in order:
            if counts[cid] == 0:
                continue
            counts[cid] -= 1
            for g in members[cid]:
                if pos == 0:
                    stabiliser = first[g]
                    if stabiliser[0][g] != g:
                        continue
                elif len(fixing) > 1:
                    if any(r[g] < g for r in fixing):
                        continue
                    stabiliser = [r for r in fixing if r[g] == g]
                else:
                    stabiliser = fixing
                entries.append(g)
                if not leaf:
                    dfs(pos + 1, row[g], stabiliser)
                else:
                    last = inv[row[g]]
                    if (
                        counts.get(class_ids[last], 0) > 0
                        and last != identity
                        and (len(stabiliser) == 1 or all(r[last] >= last for r in stabiliser))
                    ):
                        entries.append(last)
                        key = frozenset(entries)
                        if key not in generates:
                            generates[key] = _closure_order(G, key) == G.order
                        if generates[key]:
                            out.append(tuple(entries))
                        entries.pop()
                entries.pop()
            counts[cid] += 1

    for image in images:
        counts = dict(image)
        order = sorted(counts)
        dfs(0, identity, rows)
    return out


def _check_group(G: FiniteGroup, cv: ClassVector) -> None:
    # class ids number the classes of cv.group; read in G they name others
    if cv.group is not G and cv.group != G:
        raise ValueError("the class vector is one of another group than G")


def enumerate_nielsen(G: FiniteGroup, cv: ClassVector) -> list[NielsenTuple]:
    """All Nielsen tuples of G whose entry class multiset equals cv."""
    _check_group(G, cv)
    ctx = _indexed(G, G)
    tuples = _enumerate_idx(ctx, cv, canonical_only=False)
    return [
        NielsenTuple(G, tuple(G.elements[i] for i in t)) for t in tuples
    ]


@dataclass(frozen=True, eq=False)
class BraidOrbit:
    """One orbit of the braid moves on N-conjugation classes of tuples.

    The tuples lie in canonical_rep.group (G) and ambient is N.  An orbit
    equals only itself.
    """

    ambient: FiniteGroup
    canonical_rep: NielsenTuple
    size: int
    members: frozenset

    def __repr__(self) -> str:
        return f"BraidOrbit(size={self.size}, rep={self.canonical_rep.entries!r})"


def _orbit_partition(
    ctx: _IndexedPair, seeds: Sequence[tuple[int, ...]]
) -> list[set[tuple[int, ...]]]:
    """BFS partition of the canonical seeds under the forward braid moves, in seed order."""
    conj = ctx.conj
    least_image = ctx.least_image
    visited_cap = VISITED_CAP
    unseen = set(seeds)
    orbits = []
    for seed in seeds:
        if seed not in unseen:
            continue
        unseen.discard(seed)
        members = {seed}
        frontier = [least_image(seed)]
        while frontier:
            new = []
            for t, j in frontier:
                k = len(t)
                for i in range(k - 1):
                    # Q_i only: its inverse is a power of it; a move past
                    # the fixed prefix t[:j] keeps u canonical and j(u) = j
                    # (module docstring)
                    a, b = t[i], t[i + 1]
                    if a == b:
                        continue  # Q_i fixes t
                    u = t[:i] + (conj[a][b], a) + t[i + 2 :]
                    uj = j
                    if i < j:
                        u, uj = least_image(u)
                    if u not in members:
                        members.add(u)
                        new.append((u, uj))
                        if len(members) > visited_cap:
                            raise EnumerationCapExceeded(
                                f"orbit grew past {visited_cap} canonical tuples"
                            )
            frontier = new
        unseen.difference_update(members)
        orbits.append(members)
    return orbits


def braid_orbits(G: FiniteGroup, N: FiniteGroup, cv: ClassVector) -> list[BraidOrbit]:
    """Partition Ni(cv) modulo N-conjugation into braid orbits.

    The result is canonically ordered (orbits sorted by their least
    canonical representative) and so independent of traversal order.
    cv must be a class vector of G.
    """
    _check_group(G, cv)
    ctx = _indexed(G, N)
    canonical = _enumerate_idx(ctx, cv)
    if len(G.conjugacy_classes()) == G.order:
        # abelian G: one orbit of every canonical tuple (module docstring)
        visited_cap = VISITED_CAP
        if len(canonical) > visited_cap:
            raise EnumerationCapExceeded(f"orbit grew past {visited_cap} canonical tuples")
        parts = [set(canonical)] if canonical else []
    else:
        parts = _orbit_partition(ctx, canonical)
    covered = sum(len(members) for members in parts)
    if covered != len(canonical):
        raise InvariantViolation(
            f"orbit sizes sum to {covered}, not to the {len(canonical)} canonical tuples"
        )
    orbits = []
    for rep, members in sorted((min(members), members) for members in parts):
        orbits.append(
            BraidOrbit(
                ambient=N,
                canonical_rep=NielsenTuple(G, tuple(G.elements[i] for i in rep)),
                size=len(members),
                members=frozenset(members),
            )
        )
    return orbits


def frobenius_stable_orbits(
    orbits: Sequence[BraidOrbit], spec: TwistSpec
) -> list[BraidOrbit]:
    """Orbits sent to themselves by the entrywise twisted-power model.

    The model maps each entry g to spec.image(g) = t_e(g).  If the
    image tuple is no longer product-one (powering is not a homomorphism),
    the orbit is reported unstable.  Each orbit is decided on its own, so
    the orbits may come from several class vectors; they must all be
    orbits of the pair (spec.ctx.G, spec.ctx.N).
    """
    if not orbits:
        return []
    G, N = spec.ctx.G, spec.ctx.N
    if any((o.canonical_rep.group, o.ambient) != (G, N) for o in orbits):
        raise ValueError("an orbit of another (G, N) than spec.ctx")
    ctx = _indexed(G, N)
    index = G.index
    twist = [index[spec.image(g)] for g in G.elements]
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
) -> ProbeResult:
    """Orbit counts as padding grows; observes stabilisation at desk scale.

    A search that exceeds NODE_CAP or VISITED_CAP ends the probe: the
    result then holds the counts of the m values that finished, with
    truncated=True.
    """
    if max_m < 0:
        raise ValueError("max_m must be nonnegative")
    counts = []
    for m in range(max_m + 1):
        cv = base + pad.scaled(m) if m else base
        try:
            orbits = braid_orbits(G, N, cv)
        except EnumerationCapExceeded:
            return ProbeResult(counts=tuple(counts), truncated=True)
        counts.append((m, len(orbits)))
    return ProbeResult(counts=tuple(counts), truncated=False)
