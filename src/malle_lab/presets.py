"""Named example scenarios shipped with the package.

Each preset is a group-spec record (degree, generators, named subgroups)
plus expected golden values for `verify`.  Groups are stored as
cycle-notation strings so the same data round-trips through group-spec
files on disk.  The group those strings close to and the (N, G) context
of a named subgroup are built once per process and kept in two bounded
memos keyed by the strings (docs/decisions.md, "Groups from one spec are
built once"); the contexts of every normal subgroup with cyclic quotient
come from the group's abelian-quotient lattice, kept by groups, which
normal_subgroups_with_cyclic_quotient reads too, so both hand out the
same G objects.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from typing import Mapping

from .errors import UnknownPreset, UnknownSubgroup
from .groups import (
    GROUP_CACHE_SIZE,
    FiniteGroup,
    GNContext,
    _abelian_lattice,
    closure,
    find_cyclic_complement,
)
from .perms import parse_cycles


@lru_cache(maxsize=GROUP_CACHE_SIZE)
def _closed(degree: int, generators: tuple[str, ...]) -> FiniteGroup:
    """The group that the cycle strings generate in S_degree."""
    return closure([parse_cycles(s, degree) for s in generators], degree)


@lru_cache(maxsize=GROUP_CACHE_SIZE)
def _paired(degree: int, generators: tuple[str, ...], sub_generators: tuple[str, ...]) -> GNContext:
    """find_cyclic_complement(N, G) for the groups the two string tuples generate."""
    return find_cyclic_complement(_closed(degree, generators), _closed(degree, sub_generators))


@dataclass(frozen=True)
class GroupSpecFile:
    """Parsed group-spec record: degree, main generators, named subgroups."""

    degree: int
    generators: tuple[str, ...]
    named_subgroups: Mapping[str, tuple[str, ...]] = field(default_factory=dict)

    def group(self) -> FiniteGroup:
        return _closed(self.degree, tuple(self.generators))

    def subgroup(self, name: str) -> FiniteGroup:
        return _closed(self.degree, self._named(name))

    def pair(self, name: str | None = None) -> GNContext:
        """The (N, G) context of the named subgroup G in the main group N;
        name None gives the pair (N, N)."""
        generators = tuple(self.generators)
        sub = generators if name is None else self._named(name)
        return _paired(self.degree, generators, sub)

    def cyclic_pairs(self) -> tuple[GNContext, ...]:
        """The (N, G) context of every normal G with cyclic quotient in the
        main group N, G = N and G = 1 included when they qualify, in the
        order of normal_subgroups_with_cyclic_quotient."""
        return tuple(ctx for _, _, ctx in _abelian_lattice(self.group()) if ctx is not None)

    def _named(self, name: str) -> tuple[str, ...]:
        if name not in self.named_subgroups:
            raise UnknownSubgroup(f"no named subgroup {name!r}")
        return tuple(self.named_subgroups[name])


@dataclass(frozen=True)
class Preset:
    name: str
    spec: GroupSpecFile
    q_values: tuple[int, ...]
    expected: Mapping[str, object]
    description: str = ""


# Klüners' example: N = (<(123)> + <(456)>) : <(14)(25)(36)> inside S6.
# G1 is the index-2 diagonal-free part <(123),(456)>; G2 is the
# antidiagonal cyclic subgroup <(123)(465)>, the unique order-3 normal
# subgroup with cyclic quotient (the quotient is C6).
_KLUENERS = GroupSpecFile(
    degree=6,
    generators=("(1 2 3)", "(4 5 6)", "(14)(25)(36)"),
    named_subgroups={
        "G1": ("(1 2 3)", "(4 5 6)"),
        "G2": ("(1 2 3)(4 6 5)",),
    },
)

# (C3 wr C3) x C2 acting on 18 points: two copies of C3^3 : C3 on
# {1..9} and {10..18}, swapped by y.  The four normal subgroups with
# cyclic quotient and the same a-invariant 1/4 as N are named A..D by
# decreasing order (162, 81, 54, 27).
_WREATH = GroupSpecFile(
    degree=18,
    generators=(
        "(1 2 3)(10 11 12)",
        "(4 5 6)(13 14 15)",
        "(7 8 9)(16 17 18)",
        "(1 4 7)(2 5 8)(3 6 9)(10 13 16)(11 14 17)(12 15 18)",
        "(1 10)(2 11)(3 12)(4 13)(5 14)(6 15)(7 16)(8 17)(9 18)",
    ),
    named_subgroups={
        # the four normal subgroups with cyclic quotient and a = 1/4,
        # by decreasing order: N itself (162), base + x (81),
        # base + y (54), the base C3^3 (27)
        "A": (
            "(1 2 3)(10 11 12)",
            "(4 5 6)(13 14 15)",
            "(7 8 9)(16 17 18)",
            "(1 4 7)(2 5 8)(3 6 9)(10 13 16)(11 14 17)(12 15 18)",
            "(1 10)(2 11)(3 12)(4 13)(5 14)(6 15)(7 16)(8 17)(9 18)",
        ),
        "B": (
            "(1 2 3)(10 11 12)",
            "(4 5 6)(13 14 15)",
            "(7 8 9)(16 17 18)",
            "(1 4 7)(2 5 8)(3 6 9)(10 13 16)(11 14 17)(12 15 18)",
        ),
        "C": (
            "(1 2 3)(10 11 12)",
            "(4 5 6)(13 14 15)",
            "(7 8 9)(16 17 18)",
            "(1 10)(2 11)(3 12)(4 13)(5 14)(6 15)(7 16)(8 17)(9 18)",
        ),
        "D": (
            "(1 2 3)(10 11 12)",
            "(4 5 6)(13 14 15)",
            "(7 8 9)(16 17 18)",
        ),
    },
)

_S3 = GroupSpecFile(degree=3, generators=("(1 2)", "(1 2 3)"))


# The abelian suite, each group in its regular representation: the points
# are the group's elements in mixed-radix order, one generator per cyclic
# factor.
_ABELIAN = {
    "C2xC2": GroupSpecFile(degree=4, generators=("(1 3)(2 4)", "(1 2)(3 4)")),
    "C4": GroupSpecFile(degree=4, generators=("(1 2 3 4)",)),
    "C6": GroupSpecFile(degree=6, generators=("(1 2 3 4 5 6)",)),
    "C3xC3": GroupSpecFile(
        degree=9, generators=("(1 4 7)(2 5 8)(3 6 9)", "(1 2 3)(4 5 6)(7 8 9)")
    ),
}

# Admissible q per abelian group: gcd(q, |G|) = 1 among small primes.
_ABELIAN_Q = {
    "C2xC2": (3, 5),
    "C4": (3, 5),
    "C6": (5,),
    "C3xC3": (2, 5),
}


def _build_presets() -> dict[str, Preset]:
    presets = {}
    presets["klueners-s6"] = Preset(
        name="klueners-s6",
        spec=_KLUENERS,
        q_values=(5, 11),
        expected={
            "a": Fraction(1, 2),
            "b": 2,
            "asymptotic": "X^{1/2} log X",
            "subgroup": "G1",
        },
        description=(
            "order-18 group in S6 with the index-2 subgroup G1 giving "
            "a = 1/2, b = 2; q runs over residues 2 mod 3 coprime to 18"
        ),
    )
    presets["wreath-s18"] = Preset(
        name="wreath-s18",
        spec=_WREATH,
        q_values=(5, 11),
        expected={
            "a": Fraction(1, 4),
            "b": 1,
            "subgroups": ("A", "B", "C", "D"),
        },
        description=(
            "(C3 wr C3) x C2 on 18 points; all four normal subgroups with "
            "cyclic quotient and a = 1/4 give b = 1"
        ),
    )
    presets["abelian-suite"] = Preset(
        name="abelian-suite",
        spec=_ABELIAN["C2xC2"],
        q_values=_ABELIAN_Q["C2xC2"],
        expected={},
        description="C2xC2, C4, C6, C3xC3 in regular representation",
    )
    presets["s3-clebsch"] = Preset(
        name="s3-clebsch",
        spec=_S3,
        q_values=(5,),
        # 27 product-one 4-tuples of transpositions, 24 of which generate
        # (verified by exhaustive loop; see the braid-connectivity demo)
        expected={"transposition_tuples_k4": 24, "braid_connected": True},
        description="S3 braid connectivity on transposition tuples",
    )
    presets["klueners-q"] = Preset(
        name="klueners-q",
        spec=_KLUENERS,
        q_values=(),
        expected={"M": 3, "b_phi_max": 2},
        description="number-field variant of klueners-s6 at modulus M = 3",
    )
    return presets


_PRESETS = _build_presets()


def preset_names() -> tuple[str, ...]:
    return tuple(sorted(_PRESETS))


def get_preset(name: str) -> Preset:
    if name not in _PRESETS:
        raise UnknownPreset(
            f"unknown preset {name!r}; available: {', '.join(preset_names())}"
        )
    return _PRESETS[name]


def abelian_suite() -> dict[str, GroupSpecFile]:
    """The four abelian group specs of the abelian-suite preset."""
    return dict(_ABELIAN)


def abelian_q(label: str) -> tuple[int, ...]:
    return _ABELIAN_Q[label]
