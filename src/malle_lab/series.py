"""Euler products over twist-orbit blocks and their exact expansion.

The generating function of the weighted count h3 factors as

    prod over blocks O of 1 / (1 - q^{|O|} u^{r(O)}),   u = q^{-s},

with r(O) = |O| * ind(O).  Coefficients are exact big integers.  The
dominant-pole data (a, b) is read off the factored form: a is the maximum
of |O|/r(O) = 1/ind(O), and b the number of factors attaining it.

Pole analysis is restricted to the positive real axis: each factor also
has complex roots of the same modulus, which the underlying Tauberian
lemma does not address; every PoleReport carries that caveat and
tauberian_fit provides the empirical confirmation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate
from typing import ClassVar, Mapping, Sequence

from .braid import ClassVector, braid_orbits, frobenius_stable_orbits
from .errors import (
    EnumerationCapExceeded,
    InsufficientRange,
    TrivialClassPresent,
)
from .groups import FiniteGroup
from .invariants import OrbitBlock, TwistSpec, orbit_blocks

# tauberian_fit flags failure when max_ratio / min_ratio exceeds this
FIT_WINDOW = 10.0

EQUAL_MODULUS_CAVEAT = (
    "pole analysis restricted to the positive real axis; each Euler factor "
    "has further roots of equal modulus"
)


@dataclass(frozen=True)
class RationalGF:
    """prod 1/(1 - q^c * u^r) over factors (c, r), in the variable u = q^{-s}."""

    q: int
    factors: tuple[tuple[int, int], ...]

    def __post_init__(self):
        for c, r in self.factors:
            if c <= 0 or r <= 0:
                raise ValueError(f"factor exponents must be positive, got {(c, r)}")


@dataclass(frozen=True)
class CoefficientTable:
    """values[r] = h3(q, r, e) for r <= R, exact."""

    q: int
    values: Mapping[int, int]

    @property
    def R(self) -> int:
        return max(self.values)


@dataclass(frozen=True)
class PoleReport:
    a: Fraction
    b: int
    caveat: ClassVar[str] = EQUAL_MODULUS_CAVEAT


def euler_product(blocks: Sequence[OrbitBlock], q: int) -> RationalGF:
    """One factor (|O|, |O|*ind(O)) per block."""
    if not blocks:
        raise ValueError("no blocks given")
    if any(b.index == 0 for b in blocks):
        raise TrivialClassPresent("a block of index 0 (trivial class) was passed")
    es = {b.e for b in blocks}
    if len(es) > 1:
        raise ValueError(f"blocks for several twist types: {sorted(es)}")
    return RationalGF(q=q, factors=tuple((b.size, b.weight) for b in blocks))


def expand(gf: RationalGF, R: int) -> CoefficientTable:
    """Exact coefficients of u^r for r <= R, dividing by each factor in place.

    Dividing a series by (1 - q^c u^r) is the recurrence
    coeffs[k] += q^c * coeffs[k - r] for k ascending from r: coeffs[k - r]
    already holds the quotient, so each factor costs one pass of R - r + 1
    steps.
    """
    if R < 0:
        raise ValueError("R must be nonnegative")
    coeffs = [1] + [0] * R
    for c, r in gf.factors:
        qc = gf.q**c
        for k in range(r, R + 1):
            coeffs[k] += qc * coeffs[k - r]
    return CoefficientTable(q=gf.q, values=dict(enumerate(coeffs)))


def brute_force_h3(blocks: Sequence[OrbitBlock], q: int, R: int) -> CoefficientTable:
    """Independent oracle: count the block multisets of weight <= R.

    Every rational class vector of the given type is a unique nonnegative
    combination sum a_O * O of blocks; it contributes q^(number of classes)
    at r = weighted size.  rows[r] maps a size to the number of multisets
    of weight r with that many classes.  The factors (c, w) are taken in
    turn; for r ascending from w, each multiset counted in rows[r - w]
    gives one more of weight r with c more classes by taking the block
    once more.  Ascending r lets a block repeat any number of times, and
    w >= 1 keeps the row read apart from the row written.  expand runs
    the same ascending recurrence but not on the same state: here each
    (weight, size) cell holds a plain integer count, weighted by q^size
    only at the end, while expand keeps one q-weighted coefficient per
    weight.
    """
    if R < 0:
        raise ValueError("R must be nonnegative")
    gf = euler_product(blocks, q)  # validates block set
    rows: list[dict[int, int]] = [{} for _ in range(R + 1)]
    rows[0][0] = 1
    for c, w in gf.factors:
        for r in range(w, R + 1):
            row = rows[r]
            for size, n in rows[r - w].items():
                row[size + c] = row.get(size + c, 0) + n
    values = {r: sum(n * q**size for size, n in row.items()) for r, row in enumerate(rows)}
    return CoefficientTable(q=q, values=values)


def dominant_pole(gf: RationalGF) -> PoleReport:
    """a = max |O|/r(O) over factors; b = number of factors attaining it."""
    if not gf.factors:
        raise ValueError("empty generating function")
    a = max(Fraction(c, r) for c, r in gf.factors)
    b = sum(1 for c, r in gf.factors if Fraction(c, r) == a)
    return PoleReport(a=a, b=b)


@dataclass(frozen=True)
class FitSummary:
    """Boundedness check of S(X) / (X^a (log X)^{b-1}) at X = q^j."""

    min_ratio: float
    max_ratio: float
    spread: float
    window: float
    ok: bool


def tauberian_fit(table: CoefficientTable, report: PoleReport) -> FitSummary:
    """Ratios at support-aligned checkpoints X = q^{r+1}.

    S(X) = sum of coefficients at q^r < X.  A checkpoint is placed just
    above each nonzero term; sampling between terms of a lacunary series
    would oscillate by a factor q^{a * gap} regardless of the true
    growth.  Reports the ratios over the upper half of the checkpoints
    and flags failure when max_ratio / min_ratio exceeds FIT_WINDOW.
    """
    R = table.R
    if R < 40:
        raise InsufficientRange(f"need R >= 40 coefficients, got {R}")
    q = table.q
    a = float(report.a)
    b = report.b
    support = sorted(r for r, v in table.values.items() if r >= 1 and v > 0)
    if len(support) < 2:
        raise InsufficientRange("fewer than two nonzero coefficients")
    ratios = []
    running = 0
    half = len(support) // 2
    log_q = math.log(q)
    for n, r in enumerate(support):
        running += table.values[r]
        if n < half:
            continue
        # in logs: q^(r+1) and the exact int `running` may pass the float range
        log_X = (r + 1) * log_q
        ratios.append(math.exp(math.log(running) - a * log_X - (b - 1) * math.log(log_X)))
    lo, hi = min(ratios), max(ratios)
    spread = hi / lo
    return FitSummary(
        min_ratio=lo,
        max_ratio=hi,
        spread=spread,
        window=FIT_WINDOW,
        ok=spread <= FIT_WINDOW,
    )


def h2_desk_scale(
    G: FiniteGroup,
    N: FiniteGroup,
    spec: TwistSpec,
    R: int,
) -> dict[int, int]:
    """Desk-scale h2: stable-orbit counts weighted by q^(vector length).

    For every rational type-e class vector of weight <= R (a block
    combination), count Frobenius-stable braid orbits (model) and
    accumulate count * q^length at r = weight.  A search that exceeds
    braid.NODE_CAP or braid.VISITED_CAP raises EnumerationCapExceeded; its
    partial is the table of the weights below the one whose search hit
    the cap, each summed over all of its block combinations.  (G, N) must
    be the pair of spec.ctx.
    """
    if (G, N) != (spec.ctx.G, spec.ctx.N):
        raise ValueError("(G, N) is not the pair of spec.ctx")
    if R < 0:
        raise ValueError("R must be nonnegative")
    blocks = orbit_blocks(spec, restrict_minimal=False)
    q = spec.q
    table: dict[int, int] = {}
    combos: list[tuple[int, int, tuple[int, ...]]] = []  # (weight, length, mults)

    def descend(i: int, r: int, size: int, sofar: tuple[int, ...]):
        if i == len(blocks):
            if r > 0:
                combos.append((r, size, sofar))
            return
        blk = blocks[i]
        m = 0
        while r + m * blk.weight <= R:
            descend(i + 1, r + m * blk.weight, size + m * blk.size, sofar + (m,))
            m += 1

    descend(0, 0, 0, ())
    combos.sort()
    for r, size, mults in combos:
        counts: dict[int, int] = {}
        for blk, m in zip(blocks, mults):
            if m:
                for cid in blk.classes:
                    counts[cid] = counts.get(cid, 0) + m
        cv = ClassVector.from_counts(G, counts)
        try:
            orbits = braid_orbits(G, N, cv)
        except EnumerationCapExceeded as err:
            raise EnumerationCapExceeded(
                f"h2 enumeration capped at weight {r}",
                partial={k: v for k, v in table.items() if k < r},
            ) from err
        stable = frobenius_stable_orbits(orbits, spec)
        if stable:
            table[r] = table.get(r, 0) + len(stable) * q**size
    return table


@dataclass(frozen=True)
class SandwichReport:
    """Smallest shift m and constant c1 validating the partial-sum sandwich.

    For every checkpoint R' = 1 .. R+1:
        sum_{1 <= r < R'-m} h3 <= sum_{1 <= r < R'} h2 <= c1 * sum_{1 <= r < R'} h3.

    c1 is the least such rational, floored at 1.  m is the least shift
    for the given R only and can grow with R (C3xC3 at q = 2: 0, 1, 5,
    12 at R = 8, 12, 16, 24).  An h2 with no nonzero term up to R gives
    violated=False and a vacuous sandwich: the middle is 0 and m only
    records where h3 starts.
    """

    m: int
    c1: Fraction
    R: int
    violated: bool
    detail: str = ""


def prop_main_check(
    G: FiniteGroup,
    N: FiniteGroup,
    spec: TwistSpec,
    R: int,
) -> SandwichReport:
    """Empirical sandwich between h2 and h3 partial sums at desk scale.

    Returns the least m and the least c1 >= 1 for this R (see
    SandwichReport); neither is a limit in R.  If h2 has no nonzero term
    up to R the report is not violated, but the sandwich is vacuous.
    h2_desk_scale raises ValueError unless (G, N) is the pair of spec.ctx.
    """
    blocks = orbit_blocks(spec, restrict_minimal=False)
    h3 = brute_force_h3(blocks, spec.q, R)
    h2 = h2_desk_scale(G, N, spec, R)
    # s3[k], s2[k]: the sums over 1 <= r < k (r = 0 excluded), k = 0 .. R+1
    s3 = list(accumulate([0, 0] + [h3.values[r] for r in range(1, R + 1)]))
    s2 = list(accumulate([0, 0] + [h2.get(r, 0) for r in range(1, R + 1)]))

    # right side: smallest rational c1 with h2 partial sums <= c1 * h3 sums
    c1 = Fraction(1)
    for Rp in range(1, R + 2):
        if s3[Rp] == 0:
            if s2[Rp] > 0:
                return SandwichReport(
                    m=0,
                    c1=Fraction(0),
                    R=R,
                    violated=True,
                    detail=f"h2 positive but h3 zero below R'={Rp}",
                )
            continue
        c1 = max(c1, Fraction(s2[Rp], s3[Rp]))
    # left side: smallest m such that the shifted h3 sum never exceeds h2;
    # m = R always qualifies: each index Rp - m is then <= 1, where s3 is 0 <= s2
    m = next(
        m
        for m in range(R + 1)
        if all(s3[max(Rp - m, 0)] <= s2[Rp] for Rp in range(1, R + 2))
    )
    return SandwichReport(m=m, c1=c1, R=R, violated=False)
