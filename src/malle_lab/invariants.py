"""Minimal-index class sets, twisted class actions and the b-constants.

The central object is the twist t_e acting on G-conjugacy classes: raise a
representative to the q-th power, then conjugate by tau^{-e}.  Orbits of
this action on the minimal-index classes give b_e; the maximum over
admissible e gives b(G, N, F_q).  A parallel cyclotomic action at a finite
level M gives the number-field constant b_phi.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from itertools import product
from math import gcd
from typing import Callable, Mapping

from .errors import (
    BadModulus,
    FieldSizeOutOfRange,
    InvariantViolation,
    NotAHomomorphism,
    NotAPrimePower,
    NotSplit,
    TrivialGroup,
)
from .groups import (
    ConjugacyClass,
    FiniteGroup,
    GNContext,
    _abelian_lattice,
    _cosets,
    _orbit,
    a_invariant,
)
from .perms import Permutation

NON_SPLIT_WARNING = (
    "G does not split in N: the growth theorem is only proven in the split "
    "case; b-values below use a coset representative in place of tau"
)


def minimal_index_classes(G: FiniteGroup) -> list[ConjugacyClass]:
    """The G-classes of minimal-index elements (trivial class excluded)."""
    if G.order == 1:
        raise TrivialGroup("no nontrivial classes in the trivial group")
    indexed = [(c.index, c) for c in G.conjugacy_classes() if not c.is_trivial]
    m = min(i for i, _ in indexed)
    return [c for i, c in indexed if i == m]


# The first 13 primes as Miller-Rabin bases decide primality exactly below
# MILLER_RABIN_LIMIT (Sorenson, Webster, "Strong pseudoprimes to twelve
# prime bases", Math. Comp. 86 (2017)).
MILLER_RABIN_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
MILLER_RABIN_LIMIT = 3317044064679887385961981


def require_prime_power(q: int) -> None:
    """Raise NotAPrimePower unless q = p^k for a prime p and k >= 1, the
    size of a finite field F_q.

    By trial division below 2^16: the least divisor p > 1 of q is prime,
    and q is a power of p iff dividing out p leaves 1; a q < 2^32 with no
    divisor up to sqrt(q) is prime.  A larger q with no divisor below 2^16
    can only be p^k for a prime p above it, so k <= log2(q) / 16.  Then p
    is the least exact integer root of q, and q is a prime power iff that
    root is prime, which Miller-Rabin decides.  A root that passes at or
    above MILLER_RABIN_LIMIT raises FieldSizeOutOfRange.
    """
    if q >= 2:
        limit = q if q < 1 << 32 else 1 << 32
        p = 2
        while q % p and p * p < limit:
            p += 1
        if q % p:
            if p * p >= q:  # no divisor up to sqrt(q): q is prime
                return
            # the least integer root of q: the exact k-th root for the largest k
            # (k = 1 always is one); every other exact root is a power of it
            for k in range((q.bit_length() - 1) // 16, 0, -1):
                root = _integer_root(q, k)
                if root**k == q:
                    break
            if _passes_miller_rabin(root):
                if root >= MILLER_RABIN_LIMIT:
                    raise FieldSizeOutOfRange(
                        f"q = {q} is a power of {root}, at or above {MILLER_RABIN_LIMIT}, "
                        "where the primality test is no longer exact"
                    )
                return
        else:
            rest = q
            while rest % p == 0:
                rest //= p
            if rest == 1:
                return
    raise NotAPrimePower(f"q = {q} is not a prime power, so F_q does not exist")


def _integer_root(n: int, k: int) -> int:
    """The largest r with r**k <= n, for n >= 1: Newton's method from above."""
    r = 1 << -(-n.bit_length() // k)
    while True:
        s = ((k - 1) * r + n // r ** (k - 1)) // k
        if s >= r:
            return r
        r = s


def _passes_miller_rabin(n: int) -> bool:
    """Is the odd n > 41 a strong probable prime to every base of
    MILLER_RABIN_BASES?  Exactly when n is prime, for n < MILLER_RABIN_LIMIT;
    a False is a proof that n is composite at any size."""
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in MILLER_RABIN_BASES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


@dataclass(frozen=True)
class TwistSpec:
    """The data (q, e) for the twisted class action on ctx.G."""

    q: int
    e: int
    ctx: GNContext
    # tau^{-e}, the element t_e conjugates by, read from ctx when the spec is made
    conjugator: Permutation = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        require_prime_power(self.q)
        if gcd(self.q, self.ctx.N.order) != 1:
            raise ValueError(f"q = {self.q} is not coprime to |N| = {self.ctx.N.order}")
        # raises ValueError unless e is admissible
        object.__setattr__(self, "conjugator", self.ctx.conjugator(self.e))

    def image(self, g: Permutation) -> Permutation:
        """t_e on elements: g^q conjugated by tau^{-e}."""
        return (g**self.q).conjugate_by(self.conjugator)

    @cached_property
    def image_indices(self) -> list[int]:
        """t_e on positions in G.elements: entry i is the position of
        t_e(G.elements[i]).  Built once per spec, so an h2 call twists
        each element once, not once per class vector.
        """
        G = self.ctx.G
        return [G.index[self.image(g)] for g in G.elements]


def twist_class(c: ConjugacyClass, spec: TwistSpec) -> ConjugacyClass:
    """The class of t_e(g), for g in c: one read of G's class row for
    (q, tau^{-e}).  Each entry is filled, and checked to be well defined
    on classes, the first time it is read.
    """
    G = spec.ctx.G
    return G.conjugacy_classes()[G.class_image(c.class_id, spec.q, spec.conjugator)]


@dataclass(frozen=True)
class OrbitBlock:
    """A single t_e-orbit of G-conjugacy classes."""

    e: int
    classes: frozenset[int]
    size: int
    index: int

    @property
    def weight(self) -> int:
        return self.size * self.index

    def __repr__(self) -> str:
        return (
            f"OrbitBlock(e={self.e}, classes={sorted(self.classes)}, "
            f"size={self.size}, index={self.index})"
        )


def _class_orbits(pool: list[ConjugacyClass], steps: list[Callable[[int], int]]) -> list[set[int]]:
    """The orbits on pool, as class id sets by least id, of the group whose
    generators send class id i to step(i) for each step.  Raises
    InvariantViolation if an orbit leaves pool or mixes class indices.
    """
    index = {c.class_id: c.index for c in pool}
    seen, orbits = set(), []
    for cid in sorted(index):
        if cid in seen:
            continue
        orbit = _orbit(cid, steps)
        indices = set(map(index.get, orbit))
        if None in indices:
            raise InvariantViolation("the action left the class pool")
        if len(indices) > 1:
            raise InvariantViolation("an orbit mixes class indices")
        seen |= orbit
        orbits.append(orbit)
    return orbits


def orbit_blocks(spec: TwistSpec, restrict_minimal: bool) -> list[OrbitBlock]:
    """t_e-orbits of the nontrivial G-classes (or of C(G) only).

    The orbits depend only on G, q mod |G|, tau^{-e} and the pool, so G
    keeps each walk beside its class rows, keyed by the row's key and the
    pool: every later spec on that row and pool reads them.
    """
    G = spec.ctx.G
    key = (spec.q % G.order, spec.conjugator.images, restrict_minimal)
    orbits = G._twist_orbits.get(key)
    if orbits is None:
        orbits = G._twist_orbits[key] = _twist_orbits(spec, restrict_minimal)
    return [OrbitBlock(spec.e, classes, len(classes), index) for classes, index in orbits]


def _twist_orbits(spec: TwistSpec, restrict_minimal: bool) -> list[tuple[frozenset[int], int]]:
    """The t_e-orbits on the pool, by least class id, each as its class
    ids and the index they share.

    t_e is one permutation of G's classes, so the orbit of a class is its
    cycle, walked until it returns.  Raises InvariantViolation if a step
    leaves the pool, lands on another index, or reaches a class walked
    before, which no permutation does.
    """
    G = spec.ctx.G
    classes = G.conjugacy_classes()
    pool = minimal_index_classes(G) if restrict_minimal else classes[1:]
    index = {c.class_id: c.index for c in pool}
    seen: set[int] = set()
    orbits = []
    for c in pool:
        start = c.class_id
        if start in seen:
            continue
        seen.add(start)
        orbit = [start]
        # twist_class is looked up at call time, so a wrapper around it sees every call
        image = twist_class(c, spec)
        while image.class_id != start:
            cid = image.class_id
            i = index.get(cid)
            if i is None:
                raise InvariantViolation("the action left the class pool")
            if i != c.index:
                raise InvariantViolation("an orbit mixes class indices")
            if cid in seen:
                raise InvariantViolation("the twist is not a permutation of the classes")
            seen.add(cid)
            orbit.append(cid)
            image = twist_class(image, spec)
        orbits.append((frozenset(orbit), c.index))
    return orbits


def b_e(spec: TwistSpec) -> int:
    """Number of t_e-orbits on the minimal-index classes."""
    return len(orbit_blocks(spec, restrict_minimal=True))


@dataclass(frozen=True)
class BReport:
    """b(G, N, F_q) together with the per-e table and the argmax set."""

    value: int
    by_e: Mapping[int, int]
    argmax: tuple[int, ...]


def b_table(ctx: GNContext, q: int) -> BReport:
    """b_e for every admissible e, with its maximum and argmax.

    When G does not split, ctx.tau is only a coset representative and the
    caller owes NON_SPLIT_WARNING; b_report refuses that case instead.
    """
    by_e = {e: b_e(TwistSpec(q=q, e=e, ctx=ctx)) for e in ctx.admissible_e()}
    value = max(by_e.values())
    argmax = tuple(e for e, v in by_e.items() if v == value)
    return BReport(value=value, by_e=by_e, argmax=argmax)


def b_report(ctx: GNContext, q: int) -> BReport:
    if not ctx.split:
        raise NotSplit(NON_SPLIT_WARNING)
    return b_table(ctx, q)


def b_constant(ctx: GNContext, q: int) -> int:
    """max of b_e over admissible e (split case only)."""
    return b_report(ctx, q).value


def render_growth(a: Fraction, b: int) -> str:
    a_str = f"X^{{{a}}}" if a.denominator > 1 else f"X^{a}"
    if b == 1:
        return a_str
    if b == 2:
        return f"{a_str} log X"
    return f"{a_str} (log X)^{b - 1}"


# ---------------------------------------------------------------------------
# field specifications and the cyclotomic (number-field) action


@dataclass(frozen=True)
class FunctionField:
    """k = F_q(t)."""

    q: int

    def __post_init__(self):
        require_prime_power(self.q)


@dataclass(frozen=True)
class RationalNumberField:
    """k = Q, with the cyclotomic action truncated at level M."""

    M: int


FieldSpec = FunctionField | RationalNumberField


def _units(M: int) -> list[int]:
    if M < 1:
        raise BadModulus(f"level M = {M} is not a positive integer")
    if M == 1:
        return [1]
    return [u for u in range(1, M) if gcd(u, M) == 1]


def _check_phi(N: FiniteGroup, G: FiniteGroup, M: int, phi: Mapping[int, Permutation]) -> None:
    units = _units(M)
    if sorted(phi) != sorted(units):
        raise NotAHomomorphism(f"phi table keys {sorted(phi)} != units of (Z/{M})*")
    for u, x in phi.items():
        if x not in N:
            raise NotAHomomorphism(f"phi({u}) is not an element of N")
    for u in units:
        for v in units:
            w = (u * v) % M if M > 1 else 1
            if phi[u] * phi[v] * phi[w].inverse() not in G:
                raise NotAHomomorphism(f"phi({u})*phi({v}) != phi({u}*{v}) mod G")


def b_phi(N: FiniteGroup, G: FiniteGroup, M: int, phi: Mapping[int, Permutation]) -> int:
    """Orbit count of C(G) under the phi-twisted cyclotomic action at level M.

    phi maps each unit u of (Z/M)* to an element of N representing the
    coset phi(u)G in N/G; it must be a homomorphism into N/G.  Each unit u
    acts by c -> class of (g^u) conjugated by phi(u)^{-1}.  Conjugating a
    G-class by a coset of N/G is well defined through any lift, which is
    what the table stores.
    """
    _check_phi(N, G, M, phi)
    return _phi_orbit_count(G, M, phi)


def _phi_orbit_count(G: FiniteGroup, M: int, phi: Mapping[int, Permutation]) -> int:
    """b_phi for a table already known to be a homomorphism into N/G."""
    minimal = minimal_index_classes(G)
    for c in minimal:
        if M % c.representative.order() != 0:
            raise BadModulus(
                f"level M = {M} not divisible by the order "
                f"{c.representative.order()} of a minimal-index element"
            )
    # phi is a homomorphism, so (Z/M)* acts on the classes through its
    # lifts: u powers by u, then conjugates by phi(u)^{-1}, one row read
    steps = [lambda cid, u=u, y=x.inverse(): G.class_image(cid, u, y) for u, x in phi.items()]
    return len(_class_orbits(minimal, steps))


def _surjective_phis(N: FiniteGroup, G: FiniteGroup, M: int) -> list[dict[int, Permutation]]:
    """All surjective homomorphisms (Z/M)* -> N/G, as lift tables.

    Cosets of G are numbered by their least member (groups._cosets), the
    lift a table stores.  A table that satisfies phi(u g) = phi(u) phi(g)
    along every unit generator g is a homomorphism, so its image is a
    subgroup and phi is onto exactly when it takes every coset as a value.
    """
    units = _units(M)
    gens: list[int] = []
    generated = {1}
    for u in units:
        if u not in generated:
            gens.append(u)
            generated = {x * pow(u, k, M) % M for x in generated for k in range(len(units))}
    coset, reps, _ = _cosets(N, G)
    qmul = [[coset[(a * b).images] for b in reps] for a in reps]

    def phi(images: tuple[int, ...]) -> dict[int, int] | None:
        # coset ids breadth-first from phi(1) = G along the generators;
        # None if phi(u g) != phi(u) phi(g) for some unit u and generator g
        table, queue = {1: 0}, [1]
        for u in queue:
            for g, c in zip(gens, images):
                v, w = u * g % M, qmul[table[u]][c]
                if v not in table:
                    table[v] = w
                    queue.append(v)
                elif table[v] != w:
                    return None
        return table

    tables = (phi(images) for images in product(range(len(reps)), repeat=len(gens)))
    return [
        {u: reps[c] for u, c in t.items()}
        for t in tables
        if t is not None and len(set(t.values())) == len(reps)
    ]


@dataclass(frozen=True)
class RevisedBRow:
    G_order: int
    a: Fraction
    quotient_order: int
    status: str  # "ok", "skipped-a", "skipped-noncyclic", "skipped-nonsplit", "no-surjective-phi"
    b: int | None


@dataclass(frozen=True)
class RevisedBReport:
    value: int
    rows: tuple[RevisedBRow, ...]
    warnings: tuple[str, ...]


def revised_b(N: FiniteGroup, fieldspec: FieldSpec) -> RevisedBReport:
    """The revised conjecture constant: max of b(G, N, k) over normal G
    with abelian quotient and a(G) = a(N).

    Function fields: b(G, N, F_q) from the twisted action, split G with
    cyclic quotient only (the others are reported and skipped).  Number
    fields: max of b_phi over surjective phi at the configured cyclotomic
    level.
    """
    lattice = _abelian_lattice(N)
    # G = N comes first; its a is None only for the trivial N, where
    # a_invariant raises TrivialGroup
    a_N = lattice[0][1] or a_invariant(N)
    rows: list[RevisedBRow] = []
    warnings: list[str] = []
    for G, a_G, ctx in lattice:
        quotient_order = N.order // G.order
        if a_G != a_N:
            rows.append(
                RevisedBRow(G.order, a_G or Fraction(0), quotient_order, "skipped-a", None)
            )
            continue
        if isinstance(fieldspec, FunctionField):
            if ctx is None:
                rows.append(RevisedBRow(G.order, a_G, quotient_order, "skipped-noncyclic", None))
                continue
            if not ctx.split:
                rows.append(RevisedBRow(G.order, a_G, quotient_order, "skipped-nonsplit", None))
                warnings.append(NON_SPLIT_WARNING)
                continue
            b = b_constant(ctx, fieldspec.q)
        else:
            phis = _surjective_phis(N, G, fieldspec.M)
            if not phis:
                rows.append(RevisedBRow(G.order, a_G, quotient_order, "no-surjective-phi", None))
                continue
            # _surjective_phis builds homomorphisms, so no re-check
            b = max(_phi_orbit_count(G, fieldspec.M, t) for t in phis)
        rows.append(RevisedBRow(G.order, a_G, quotient_order, "ok", b))
    # never empty: the G = N row is "ok" (N/N is cyclic and split, and the
    # one phi table onto N/N is surjective)
    value = max(r.b for r in rows if r.status == "ok")
    return RevisedBReport(value=value, rows=tuple(rows), warnings=tuple(sorted(set(warnings))))
