"""Nielsen tuples, the braid-move action and its orbit decomposition.

Tuples live in G; orbits are computed on N-conjugation classes of tuples
(simultaneous conjugation), under the moves

    Q_i(g_1, ..., g_k) = (g_1, ..., g_i g_{i+1} g_i^{-1}, g_i, ..., g_k).

All heavy loops run on integer element indices, over the group's own
index, multiplication and inversion tables plus the conjugation rows of
N; the public API speaks Permutations.

The orbit search runs on the slice (Magaard, Shpectorov, Völklein,
Experiment. Math. 12 (2003)).  Key each element by its N-class, not its
G-class: N may fuse classes of G, and only the N-class sequence is
defined on N-conjugation classes of tuples.  Q_i swaps the keys at
positions i and i+1, so B_k acts on key sequences through S_k,
transitively on the arrangements of the key multiset.  So every orbit
meets the slice, the tuples whose key sequence is sorted, and the orbits
correspond one to one to the orbits on the slice of H, the preimage in
B_k of the Young subgroup fixing the sorted sequence.  An orbit O has
k!/prod(k_b!) times as many members as it has in the slice, k_b being
the key multiplicities.  H is generated by two moves per block of equal
keys and one pure braid per pair of blocks (docs/decisions.md, "Braid
orbits on the slice").  A block's moves are its last Q_i and its rotation

    (x_s, ..., x_e) -> (P x_e P^{-1}, x_s, ..., x_{e-1}),   P = x_s ... x_{e-1},

the composite Q_s ... Q_{e-1}, rightmost first; a block of length 2
needs only its Q.  They generate the block's braid group B_m, since
B_m = <sigma_{m-1}, delta> for delta = sigma_1 ... sigma_{m-1}, which
conjugates sigma_i to sigma_{i+1} (Kassel, Turaev, "Braid Groups",
GTM 247, 1.1).  A block that spans the whole tuple rotates it by a
cyclic shift, (x_1, ..., x_k) -> (x_k, x_1, ..., x_{k-1}): a slice tuple
has product one, so P = x_k^{-1} and P x_k P^{-1} = x_k.  The pure braid
of blocks a < b is

    A_ij = Q_{j-1} ... Q_{i+1} Q_i^2 Q_{i+1}^{-1} ... Q_{j-1}^{-1},

with i the last position of a and j the first of b.  Composed from the
moves, rightmost first, A_ij conjugates x_i and x_j by c = x_i x_j and
each entry between them by d = x_i x_j x_i^{-1} x_j^{-1}.

The search applies these moves forward only.  N-conjugation commutes with
every move, so each move permutes the finite set of canonical tuples, and
a permutation of a finite set has finite order: its inverse is a positive
power of it.  The forward closure of a slice seed is therefore already its
whole orbit on the slice.  The canonical tuples are placed as they are
drawn: each is sorted into the slice by Q_i moves, canonicalised once at
the end if a move was made (the moves commute with N-conjugation; a seed
already in the slice is canonical), and looked up; a slice tuple not yet
seen seeds the search of a new orbit.

The canonical form of a tuple is its least image under simultaneous
N-conjugation, found as a minimal image (Jefferson, Jonauskyte, Pfeiffer,
Waldecker, "Minimal and canonical images", J. Algebra 521 (2019)).  The
least image starts with the least N-conjugate of t[0], so only the rows in
min_rows[t[0]] can produce it; at each later position the rows that miss
the least entry there drop out, and once one row is left (or the tuple
ends) that row gives the image.  Generating tuples usually leave one row
after the first or second entry, instead of the full scan of conj_rows.
The rows left after the second entry depend only on the pair (t[0],
t[1]), so where min_rows[t[0]] holds more than one row they are kept in
a memo on the pair of groups, keyed by that pair: filled as pairs come
up, never ahead (S6 has 518,400 pairs), at most |G|^2 keys, and freed
with the pair when _indexed drops it.

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
canonical forms of cv's tuples.  Each image's search tries the entries
of every position in ascending order, so its tuples come out ascending,
and merging the images' streams gives all of them in ascending order.

The orbit search canonicalises only where it has to.  For a canonical t
let j(t) be the least prefix length after which only the identity row
fixes t[:j] pointwise.  A move whose lowest changed position (i, for Q_i
and for A_ij) is >= j leaves t[:j] unchanged, and its image u is already
canonical: a row that moves t[:j] first changes it at a position where,
t being canonical, it makes the entry larger, and u agrees with t there;
every other row is the identity.  u[:j] = t[:j] also gives j(u) = j(t).

The rows act freely on generating tuples.  The conjugation rows are
distinct automorphisms of G, and a row that fixes every entry of a
generating tuple fixes G pointwise, so it is the identity row.  Each
canonical tuple thus stands for len(conj_rows) distinct tuples.

So the orbits are counted before they are searched (docs/decisions.md,
"Count before search").  nielsen_count gives the tuples of cv; each
N-image of cv has as many, so the canonical tuples number T =
nielsen_count * |images| / len(conj_rows), and a remainder raises
InvariantViolation.  T = 0 means no orbit, and no tuple is searched
for.  An abelian G's one orbit is read off T (below).  Otherwise one
lazy search draws the canonical tuples in ascending order, and each
whose slice form is unseen seeds the search of a new orbit
(docs/decisions.md, "One ascending search").  The slice holds
T prod(k_b!)/k! canonical tuples, and no tuple is drawn once the orbits
hold that many, so a vector of one orbit draws one tuple; orbits that
miss that number, the search read to its end, raise InvariantViolation.
The first tuple drawn from an orbit O is its least canonical member m:
the tuples drawn before m are smaller, so none lies in O, O is not yet
searched, and m seeds it.  Every orbit is kept as its slice tuples: its
size is their number times k!/prod(k_b!), its representative its least
canonical tuple, and a tuple is a member iff, sorted into the slice and
canonicalised (even when no move was made: the tuple need not be
canonical), it is one of them.  NODE_CAP bounds the one search of a
vector.  A non-abelian G is counted by P. Hall's Möbius inversion over
its subgroup lattice, built under LATTICE_CAP; a group whose lattice
passes it has its search read to the end first, and T is the number of
tuples found.

An abelian G needs neither the search nor the enumeration: its one orbit
is counted.  In abelian G, Q_i maps (..., a, b, ...) to (..., b, a, ...),
since a b a^{-1} = b, and adjacent swaps generate S_k, so any two
arrangements of one multiset of elements lie in one braid orbit.  Each
class of an abelian G is one element, and classes are numbered by their
least member, so a class id is its element's index: cv names one
multiset M of k elements, with multiplicities m_c, and its N-images,
as sorted class ids, are the distinct sorted row images of M.

- The count.  Every tuple of cv is an arrangement of M, and product one
  and generation depend only on the multiset, so nielsen_count is the
  k!/prod(m_c!) arrangements if M has product one and generates G, and
  0 otherwise.  No subgroup lattice is built.
- What the orbit is.  Let U be the set of arrangements of the row images
  of M.  The rows commute with the moves, so U is one braid orbit modulo
  N-conjugation, or empty.  The orbit's members are the canonical tuples
  in U: each image has k!/prod(m_c!) arrangements, and the rows permute
  U freely with one canonical tuple per row orbit, so they number T.
- The representative.  U is closed under the rows, so its least element,
  images[0], is its own least image: the least canonical tuple in U.
- Membership.  A k-tuple t is N-conjugate to a member of the orbit iff
  it lies in U, that is iff the least sorted row image of its entries is
  images[0]: the rows form a group, so the sorted row images of t and
  of M are one set exactly when t's multiset is a row image of M.

Frobenius stability of an orbit is a *model*: the entrywise map
g -> (g^q) conjugated by tau^{-e}, followed by reduction modulo braid
moves and N-conjugation.  Reports built on it carry a warning.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache, partial
from heapq import merge
from itertools import groupby
from math import factorial
from typing import Callable, Collection, Iterable, Iterator, Mapping, Sequence

from .errors import (
    EnumerationCapExceeded,
    InvariantViolation,
    NotASubgroup,
    TrivialClassPresent,
)
from .groups import GROUP_CACHE_SIZE, FiniteGroup, _orbit, closure
from .invariants import TwistSpec
from .perms import Permutation, product

# Search caps: prefix states of one tuple enumeration, canonical tuples of
# one orbit, elements that the joins building one subgroup lattice visit.
# Each search reads its cap once per call.
NODE_CAP = 10**8
VISITED_CAP = 10**7
LATTICE_CAP = 10**6
# The identity's position in G.elements: they are sorted, and the
# identity is the least permutation.
_IDENTITY = 0

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
        # references into conj_rows, in conj_rows order); nclass[g]: the
        # N-class of g, named by the G-class of that least N-conjugate
        self.min_rows = []
        self.nclass = []
        class_ids = G.class_ids
        for g in range(G.order):
            least = min(row[g] for row in self.conj_rows)
            self.min_rows.append([row for row in self.conj_rows if row[g] == least])
            self.nclass.append(class_ids[least])
        # (a, b) -> the rows of min_rows[a] that send b to its least image
        # under them, filled by least_image as pairs come up: at most |G|^2
        # keys, freed with the pair
        self.pair_rows: dict[tuple[int, ...], list[tuple[int, ...]]] = {}

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
        if len(rows) > 1 and len(t) > 1:
            pair = t[:2]
            memo = self.pair_rows.get(pair)
            if memo is None:
                g = t[1]
                least = min(row[g] for row in rows)
                memo = self.pair_rows[pair] = [row for row in rows if row[g] == least]
            rows, pos = memo, 2
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


def _generated(G: FiniteGroup, entries: Iterable[int]) -> frozenset[int]:
    """The subgroup of G generated by the elements indexed by entries, as element indices."""
    return frozenset(_orbit(_IDENTITY, [G.mul[g].__getitem__ for g in entries]))


def _arrangements(multiplicities: Sequence[int]) -> int:
    """k!/prod(m!), k = sum(multiplicities): the arrangements of a multiset with these multiplicities."""
    count = factorial(sum(multiplicities))
    for m in multiplicities:
        count //= factorial(m)
    return count


@lru_cache(maxsize=GROUP_CACHE_SIZE)
def _indexed(G: FiniteGroup, N: FiniteGroup) -> _IndexedPair:
    return _IndexedPair(G, N)


def _class_vector_images(ctx: _IndexedPair, cv: ClassVector) -> list[tuple[int, ...]]:
    """The distinct N-images of cv, each as its sorted class ids, one per entry, in ascending order.

    N permutes the classes of G: each row sends the class of a
    representative to the class of its image.  In an abelian G a class id
    is its element's index, so an image is a sorted row image of cv's
    elements.
    """
    G = ctx.G
    index, classes, class_id = G.index, G.conjugacy_classes(), G.class_ids.__getitem__
    entries = [g for cid, m in cv.multiplicities for g in [index[classes[cid].representative]] * m]
    return sorted({
        tuple(sorted(map(class_id, map(row.__getitem__, entries)))) for row in ctx.conj_rows
    })


def _enumerate_idx(
    ctx: _IndexedPair, images: Sequence[tuple[int, ...]]
) -> Iterator[tuple[int, ...]]:
    """The canonical forms of the generating product-one tuples of a class vector cv, ascending.

    images are the N-images of cv, as _class_vector_images gives them.
    The canonical forms are exactly the canonical tuples whose class
    multiset is one of them (module docstring).  Each image is searched
    with the entries of every position in ascending order, so its tuples
    come out ascending, and heapq.merge interleaves the images (no tuple
    has two class multisets).  The search is lazy: it runs as far as the
    tuples drawn from it, and NODE_CAP bounds its prefix states over all
    images, partial holding the tuples found so far.
    """
    k = len(images[0])
    found: list[tuple[int, ...]] = []
    G = ctx.G
    mul, inv, class_ids, index = G.mul, G.inv, G.class_ids, G.index
    # entry set -> does it generate G; lives as long as the search
    generates: dict[frozenset[int], bool] = {}
    classes = G.conjugacy_classes()
    members = [[index[m] for m in c.members] for c in classes]
    nodes, node_cap = 0, NODE_CAP

    def search(image: tuple[int, ...]) -> Iterator[tuple[int, ...]]:
        # counts: the entries left of each class of the image, by class id
        # (the trivial class has none, so the last entry is never the
        # identity); runs: the image's elements ascending, as (class id,
        # elements) runs, each run of one class in one piece
        counts = [0] * len(classes)
        for cid in image:
            counts[cid] += 1
        pool = sorted(g for cid in dict.fromkeys(image) for g in members[cid])
        runs = [(cid, list(run)) for cid, run in groupby(pool, class_ids.__getitem__)]
        entries: list[int] = []

        def dfs(pos: int, prefix: int, fixing: list[tuple[int, ...]]) -> Iterator[tuple[int, ...]]:
            # fixing: the rows that fix entries[:pos] pointwise.  The entry
            # at pos is placed here, and at pos = k - 2 the product fixes
            # the last
            nonlocal nodes
            nodes += 1
            if nodes > node_cap:
                raise EnumerationCapExceeded(
                    f"tuple enumeration exceeded {node_cap} prefix states",
                    partial=list(found),
                )
            row = mul[prefix]
            leaf = pos == k - 2
            for cid, run in runs:
                if not counts[cid]:
                    continue
                counts[cid] -= 1
                for g in run:
                    if pos == 0:
                        stabiliser = ctx.min_rows[g]
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
                        yield from dfs(pos + 1, row[g], stabiliser)
                    else:
                        last = inv[row[g]]
                        if counts[class_ids[last]] and (
                            len(stabiliser) == 1 or all(r[last] >= last for r in stabiliser)
                        ):
                            entries.append(last)
                            key = frozenset(entries)
                            if key not in generates:
                                generates[key] = len(_generated(G, key)) == G.order
                            if generates[key]:
                                found.append(tuple(entries))
                                yield found[-1]
                            entries.pop()
                    entries.pop()
                counts[cid] += 1

        return dfs(0, _IDENTITY, ctx.conj_rows)

    return merge(*map(search, images))


@lru_cache(maxsize=GROUP_CACHE_SIZE)
def _mobius(
    G: FiniteGroup,
) -> tuple[tuple[frozenset[int], int, tuple[tuple[int, ...], ...]], ...] | None:
    """(H, mu(H, G), in_h) for every subgroup H of G, H as a set of element
    indices and in_h[cid] the indices of G's class cid that lie in H,
    ascending: a count reads each class's part in H without a filter.

    Every subgroup is the join of the cyclic subgroups of its elements, so
    joining cyclic subgroups onto the subgroups found so far, from the
    cyclic ones up, reaches them all.  mu(G, G) = 1 and mu(H, G) is minus
    the sum of mu(K, G) over the K > H, so the table runs largest first.
    None once the joins have built more than LATTICE_CAP elements in all:
    G then has no count, and that answer is kept like a table.
    """
    built, lattice_cap = 0, LATTICE_CAP
    cyclic = {_generated(G, (g,)): g for g in range(G.order)}
    gens = {C: (g,) for C, g in cyclic.items()}  # subgroup -> generators
    frontier = list(gens)
    while frontier:
        new = []
        for H in frontier:
            for C, g in cyclic.items():
                if not C <= H:
                    J = _generated(G, gens[H] + (g,))
                    built += len(J)
                    if built > lattice_cap:
                        return None
                    if J not in gens:
                        gens[J] = gens[H] + (g,)
                        new.append(J)
        frontier = new
    class_ids = G.class_ids
    table: list[tuple[frozenset[int], int, tuple[tuple[int, ...], ...]]] = []
    for H in sorted(gens, key=len, reverse=True):
        mu = 1 if len(H) == G.order else -sum(m for K, m, _ in table if m and H < K)
        in_h: list[list[int]] = [[] for _ in G.conjugacy_classes()]
        for g in sorted(H):
            in_h[class_ids[g]].append(g)
        table.append((H, mu, tuple(map(tuple, in_h))))
    return tuple(table)


def nielsen_count(G: FiniteGroup, cv: ClassVector) -> int:
    """The number of generating product-one tuples of G with class multiset cv.

    By P. Hall's Möbius inversion ("The Eulerian functions of a group",
    Quart. J. Math. 7 (1936)) it is the sum over the subgroups H of
    mu(H, G) P_H, P_H the product-one tuples with every entry in H.  P_H
    is the same for every order of the classes (docs/decisions.md, "Count
    before search"), so it is the number of arrangements of cv times one
    pass over partial products in H, in class-id order.  No tuple is built.
    A non-abelian group whose subgroup lattice passes LATTICE_CAP has no
    count: EnumerationCapExceeded.  An abelian G builds no lattice: its
    tuples of cv are the arrangements of one multiset of elements, the
    class ids of cv, or none (module docstring).
    """
    _check_group(G, cv)
    mul = G.mul
    # total: the generating product-one tuples of one arrangement of cv
    if len(G.conjugacy_classes()) == G.order:
        prod = _IDENTITY
        for cid, m in cv.multiplicities:
            for _ in range(m):
                prod = mul[prod][cid]
        total = int(prod == _IDENTITY and len(_generated(G, cv.counts)) == G.order)
    else:
        table = _mobius(G)
        if table is None:
            raise EnumerationCapExceeded(
                f"the subgroup lattice of a group of order {G.order} passed {LATTICE_CAP} elements"
            )
        total = 0
        for _, mu, in_h in table:
            if not mu:
                continue
            parts = [(in_h[cid], m) for cid, m in cv.multiplicities]
            if not all(entries for entries, _ in parts):
                continue  # a class of cv that misses H leaves no tuple in H
            ways = {_IDENTITY: 1}  # partial product -> number of prefixes
            for entries, m in parts:
                for _ in range(m):
                    step: dict[int, int] = {}
                    for x, w in ways.items():
                        row = mul[x]
                        for g in entries:
                            y = row[g]
                            step[y] = step.get(y, 0) + w
                    ways = step
            total += mu * ways.get(_IDENTITY, 0)
    return _arrangements([m for _, m in cv.multiplicities]) * total if total else 0


def _check_group(G: FiniteGroup, cv: ClassVector) -> None:
    # class ids number the classes of cv.group; read in G they name others
    if cv.group is not G and cv.group != G:
        raise ValueError("the class vector is one of another group than G")


@dataclass(frozen=True, eq=False)
class BraidOrbit:
    """One orbit of the braid moves on N-conjugation classes of tuples.

    The tuples lie in canonical_rep.group (G) and ambient is N.  An orbit
    equals only itself.  _contains(t) says whether a tuple t of element
    indices of G is N-conjugate to a member: the slice rule in an orbit of
    a non-abelian G, the row-image rule in a counted one (module
    docstring).
    """

    ambient: FiniteGroup
    canonical_rep: NielsenTuple
    size: int
    _contains: Callable[[tuple[int, ...]], bool]

    def __repr__(self) -> str:
        return f"BraidOrbit(size={self.size}, rep={self.canonical_rep.entries!r})"


class _Slice:
    """The slice of one sorted key sequence: the moves that generate H on it, their search, membership.

    keys are the N-class keys of a class vector's entries, sorted.
    """

    def __init__(self, ctx: _IndexedPair, keys: Sequence[int]):
        self.ctx = ctx
        k = len(keys)
        starts = [0] + [i for i in range(1, k) if keys[i - 1] != keys[i]]
        # (s, e): the first and last position of each block of equal keys
        blocks = list(zip(starts, [s - 1 for s in starts[1:]] + [k - 1]))
        # each block's last Q_i, and its rotation where that is not the same move
        self.last = [e - 1 for s, e in blocks if e > s]
        self.rotations = [(s, e) for s, e in blocks if e > s + 1]
        # (e(a), s(b)) for each pair of blocks a < b
        self.cross = [(e, s) for a, (_, e) in enumerate(blocks) for s, _ in blocks[a + 1 :]]
        # each orbit has k!/prod(k_b!) times as many members as slice tuples
        self.arrangements = _arrangements([e - s + 1 for s, e in blocks])

    def place(self, t: tuple[int, ...]) -> tuple[int, ...]:
        """t moved into the slice by Q_i moves, which swap the keys; not canonicalised."""
        conj, key = self.ctx.conj, self.ctx.nclass
        t = list(t)
        swapped = True
        while swapped:
            swapped = False
            for i in range(len(t) - 1):
                a, b = t[i], t[i + 1]
                if key[a] > key[b]:
                    t[i], t[i + 1] = conj[a][b], a
                    swapped = True
        return tuple(t)

    def holds(self, members: Collection[tuple[int, ...]], t: tuple[int, ...]) -> bool:
        """Is t in the orbit with these slice tuples?  t is sorted into the
        slice and canonicalised, even when no move was made: it need not be
        canonical."""
        return self.ctx.canonical(self.place(t)) in members

    def search(self, seed: tuple[int, ...]) -> set[tuple[int, ...]]:
        """The forward closure of a canonical slice tuple: its orbit on the slice."""
        ctx = self.ctx
        conj, mul, inv = ctx.conj, ctx.G.mul, ctx.G.inv
        least_image, last, rotations, cross = ctx.least_image, self.last, self.rotations, self.cross
        visited_cap = VISITED_CAP
        k = len(seed)
        members = {seed}
        frontier = [least_image(seed)]

        def visit(u: tuple[int, ...], i: int, j: int) -> None:
            # u: the image of a frontier tuple t under a move whose lowest
            # changed position is i; past the fixed prefix t[:j] it is
            # canonical already, and j(u) = j
            if i < j:
                u, j = least_image(u)
            if u not in members:
                members.add(u)
                new.append((u, j))
                if len(members) > visited_cap:
                    raise EnumerationCapExceeded(f"orbit grew past {visited_cap} canonical tuples")

        while frontier:
            new: list[tuple[tuple[int, ...], int]] = []
            for t, j in frontier:
                for i in last:
                    a, b = t[i], t[i + 1]
                    if a != b:  # Q_i fixes t if a == b
                        visit(t[:i] + (conj[a][b], a) + t[i + 2 :], i, j)
                for s, e in rotations:
                    if e - s == k - 1:
                        # the whole tuple has product one: P x_e = 1, so
                        # P x_e P^-1 = x_e and the rotation is a cyclic shift
                        visit(t[e:] + t[:e], s, j)
                        continue
                    p = t[s]
                    for g in t[s + 1 : e]:
                        p = mul[p][g]
                    visit(t[:s] + (conj[p][t[e]],) + t[s:e] + t[e + 1 :], s, j)
                for i, l in cross:
                    a, b = t[i], t[l]
                    c = mul[a][b]
                    if c == mul[b][a]:
                        continue  # A_il fixes t if a and b commute
                    d = mul[conj[a][b]][inv[b]]  # the commutator a b a^-1 b^-1
                    visit(
                        t[:i] + (conj[c][a],) + tuple(map(conj[d].__getitem__, t[i + 1 : l]))
                        + (conj[c][b],) + t[l + 1 :],
                        i,
                        j,
                    )
            frontier = new
        return members


def _orbit_partition(
    ctx: _IndexedPair,
    slice_: _Slice,
    seeds: Iterable[tuple[int, ...]],
    target: int | None = None,
) -> list[tuple[tuple[int, ...], set[tuple[int, ...]]]]:
    """[(least seed, slice members)] of the braid orbits that the seeds meet.

    The seeds are canonical tuples of one class vector.  Each is sorted
    into the slice by Q_i moves and looked up; an unseen slice tuple seeds
    the search of a new orbit, under the moves of the module docstring.
    With target, no seed is drawn once the orbits hold target slice
    tuples.
    """
    orbit_of: dict[tuple[int, ...], int] = {}
    least: list[tuple[int, ...]] = []
    found: list[set[tuple[int, ...]]] = []
    for seed in seeds:
        u = slice_.place(seed)
        if u != seed:
            # the moves commute with N-conjugation: canonicalise once, sorted
            u = ctx.canonical(u)
        n = orbit_of.get(u)
        if n is None:
            members = slice_.search(u)
            orbit_of.update(dict.fromkeys(members, len(found)))
            least.append(seed)
            found.append(members)
            if len(orbit_of) == target:
                break
        elif seed < least[n]:
            least[n] = seed
    return list(zip(least, found))


def braid_orbits(G: FiniteGroup, N: FiniteGroup, cv: ClassVector) -> list[BraidOrbit]:
    """Partition Ni(cv) modulo N-conjugation into braid orbits.

    The result is canonically ordered (orbits sorted by their least
    canonical representative) and so independent of traversal order.
    cv must be a class vector of G.
    """
    _check_group(G, cv)
    parts = _orbits_of(_indexed(G, N), cv)
    # the slice search caps its own work; every orbit, searched or counted, is capped here
    visited_cap = VISITED_CAP
    if any(size > visited_cap for _, size, _ in parts):
        raise EnumerationCapExceeded(f"orbit grew past {visited_cap} canonical tuples")
    return [
        BraidOrbit(
            ambient=N,
            canonical_rep=NielsenTuple(G, tuple(G.elements[i] for i in rep)),
            size=size,
            _contains=contains,
        )
        for rep, size, contains in parts
    ]


def _orbits_of(
    ctx: _IndexedPair, cv: ClassVector
) -> list[tuple[tuple[int, ...], int, Callable[[tuple[int, ...]], bool]]]:
    """[(least member, size, membership)] of each orbit of cv, counted before searched.

    The count gives T, the number of canonical tuples (module docstring).
    T = 0: no orbit.  An abelian G's one orbit holds T, its least member
    the least image of cv.  Else the canonical tuples are drawn in
    ascending order and partitioned on the slice until the orbits hold
    T / arrangements slice tuples.  A group whose subgroup lattice passes
    LATTICE_CAP has no count, so its tuples are enumerated first and T is
    their number.
    """
    if cv.length < 2:
        # a product-one 1-tuple is the identity, in no class of cv, and the
        # empty vector has no orbit, not even in the trivial group
        return []
    G, rows = ctx.G, ctx.conj_rows
    abelian = len(G.conjugacy_classes()) == G.order
    if abelian or _mobius(G) is not None:
        count = nielsen_count(G, cv)
        if not count:
            return []  # before the images, which most vectors of a sweep do not need
        images = _class_vector_images(ctx, cv)
        count *= len(images)
        total, rest = divmod(count, len(rows))
        if rest:
            raise InvariantViolation(
                f"{count} tuples over the N-images of the class vector do not "
                f"split into orbits of the {len(rows)} conjugation rows"
            )
        if abelian:
            # one orbit, counted (module docstring); no remainder leaves total > 0
            return [(images[0], total, partial(_in_counted_orbit, rows, images[0]))]
        tuples = _enumerate_idx(ctx, images)
    else:
        images = _class_vector_images(ctx, cv)
        tuples = list(_enumerate_idx(ctx, images))
        total = len(tuples)
        if not total:
            return []
    # every N-image of cv has cv's N-class keys
    index, classes = G.index, G.conjugacy_classes()
    slice_ = _Slice(ctx, sorted(ctx.nclass[index[classes[cid].representative]] for cid in images[0]))
    target, rest = divmod(total, slice_.arrangements)
    if rest:
        raise InvariantViolation(
            f"{total} canonical tuples do not split into fibres over the "
            f"{slice_.arrangements} arrangements of the keys"
        )
    found = _orbit_partition(ctx, slice_, tuples, target)
    if not found:
        raise InvariantViolation(f"{total} canonical tuples counted, but none found")
    covered = sum(len(members) for _, members in found) * slice_.arrangements
    if covered != total:
        raise InvariantViolation(
            f"orbit sizes sum to {covered}, not to the {total} canonical tuples"
        )
    return [
        (least, len(members) * slice_.arrangements, partial(slice_.holds, members))
        for least, members in sorted(found)
    ]


def _in_counted_orbit(
    rows: Sequence[tuple[int, ...]], rep: tuple[int, ...], t: tuple[int, ...]
) -> bool:
    """Is t in the counted orbit with least member rep (module docstring)?"""
    return min(tuple(sorted(map(row.__getitem__, t))) for row in rows) == rep


def frobenius_stable_orbits(
    orbits: Sequence[BraidOrbit], spec: TwistSpec
) -> list[BraidOrbit]:
    """Orbits sent to themselves by the entrywise twisted-power model.

    The model maps each entry g to spec.image(g) = t_e(g), and the orbit's
    own membership test decides.  So the orbits may come from several
    class vectors; they must all be orbits of the pair (spec.ctx.G,
    spec.ctx.N).
    """
    if not orbits:
        return []
    G, N = spec.ctx.G, spec.ctx.N
    if any((o.canonical_rep.group, o.ambient) != (G, N) for o in orbits):
        raise ValueError("an orbit of another (G, N) than spec.ctx")
    index = G.index
    twist = spec.image_indices
    # Powering is not a homomorphism, so the image may not have product
    # one; both membership rules refuse it then.  The slice rule moves a
    # tuple by Q_i and conjugates it, and both keep the product, while
    # every slice tuple has product one.  A counted member's multiset is a
    # row image of the representative's, and in an abelian G a row image
    # of a product-one multiset has product one.
    return [
        orbit
        for orbit in orbits
        if orbit._contains(tuple(twist[index[g]] for g in orbit.canonical_rep.entries))
    ]


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
