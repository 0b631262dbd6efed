"""The spec memos and the lattice memo: one group and one (N, G) context per
spec strings, one abelian-quotient lattice per group, all bounded, and
conftest.py empties every library memo before each test."""

import contextlib
import gc
import io
import weakref
from math import lcm

import pytest

from library_sources import clear_library_memos, library_memos
from malle_lab import cli, groups, presets
from malle_lab.errors import OrderCapExceeded
from malle_lab.groups import GROUP_CACHE_SIZE, normal_subgroups_with_cyclic_quotient
from malle_lab.invariants import FunctionField, b_table, revised_b
from malle_lab.perms import format_cycles, parse_cycles
from malle_lab.presets import GroupSpecFile, abelian_suite, get_preset


def relabelled(spec: GroupSpecFile, sigma: str) -> GroupSpecFile:
    """The spec with its points renamed by the permutation sigma."""
    s = parse_cycles(sigma, spec.degree)

    def move(strings):
        return tuple(format_cycles(parse_cycles(g, spec.degree).conjugate_by(s)) for g in strings)

    return GroupSpecFile(
        degree=spec.degree,
        generators=move(spec.generators),
        named_subgroups={name: move(gens) for name, gens in spec.named_subgroups.items()},
    )


def cyclic_spec(n: int) -> GroupSpecFile:
    return GroupSpecFile(degree=n, generators=(f"({' '.join(map(str, range(1, n + 1)))})",))


class TestOneObjectPerSpec:
    def test_group_subgroup_and_pair_share_the_objects(self):
        spec = get_preset("wreath-s18").spec
        N = spec.group()
        assert spec.group() is N
        # A is named by the main group's own generators
        assert spec.subgroup("A") is N
        ctx = spec.pair()
        assert ctx.N is N and ctx.G is N
        assert spec.pair("A") is ctx
        D = spec.pair("D")
        assert D.N is N and D.G is spec.subgroup("D")
        assert spec.pair("D") is D

    def test_the_cyclic_pairs_are_built_once(self):
        spec = abelian_suite()["C6"]
        N = spec.group()
        pairs = spec.cyclic_pairs()
        assert all(again is ctx for again, ctx in zip(spec.cyclic_pairs(), pairs, strict=True))
        assert [ctx.G for ctx in pairs] == normal_subgroups_with_cyclic_quotient(N)
        assert all(ctx.N is N for ctx in pairs)
        # C6 is cyclic: G = N first, the trivial group last
        assert [ctx.G.order for ctx in pairs] == [6, 3, 2, 1]

    def test_a_copy_of_the_strings_shares_the_objects(self):
        spec = get_preset("klueners-s6").spec
        copy = GroupSpecFile(
            degree=spec.degree,
            generators=list(spec.generators),
            named_subgroups={name: list(gens) for name, gens in spec.named_subgroups.items()},
        )
        assert copy.group() is spec.group()
        assert copy.pair("G1") is spec.pair("G1")

    def test_a_relabelled_spec_gets_its_own_objects(self):
        spec = get_preset("klueners-s6").spec
        moved = relabelled(spec, "(1 4)(2 6)")
        assert moved.generators != spec.generators
        assert moved.group() is not spec.group()
        assert moved.group() != spec.group()
        assert moved.group().order == spec.group().order
        ctx, moved_ctx = spec.pair("G1"), moved.pair("G1")
        assert moved_ctx is not ctx
        assert moved_ctx.G == moved.subgroup("G1") != ctx.G
        assert (moved_ctx.d, moved_ctx.d_prime, moved_ctx.split) == (ctx.d, ctx.d_prime, ctx.split)

    def test_an_unknown_name_is_a_key_error(self):
        spec = get_preset("klueners-s6").spec
        for lookup in (spec.subgroup, spec.pair):
            with pytest.raises(KeyError, match="G9"):
                lookup("G9")


class TestBounded:
    def test_dropped_entries_are_freed_without_a_gc_pass(self):
        first = cyclic_spec(2)
        group, ctx = weakref.ref(first.group()), weakref.ref(first.pair())
        pairs = [weakref.ref(c) for c in first.cyclic_pairs()]
        lattice = [weakref.ref(G) for G, _, _ in groups._abelian_lattice(first.group())]
        assert len(lattice) == 2
        # fill the power row on the group and a conjugation row on each
        # pair but the last, whose G is trivial
        b_table(first.pair(), 3)
        for c in first.cyclic_pairs()[:-1]:
            b_table(c, 3)
        del c  # the loop name would keep the last context alive
        gc.disable()
        try:
            for n in range(3, GROUP_CACHE_SIZE + 3):
                spec = cyclic_spec(n)
                assert spec.group() is spec.pair().N is spec.cyclic_pairs()[0].N
            for memo in (presets._closed, presets._paired, groups._abelian_lattice):
                assert memo.cache_info().currsize == GROUP_CACHE_SIZE
            assert ctx() is None
            assert [p() for p in pairs] == [None, None]
            assert [G() for G in lattice] == [None, None]
            assert group() is None
        finally:
            gc.enable()

    def test_a_recent_entry_is_kept(self):
        first = cyclic_spec(2)
        group = first.group()
        for n in range(3, GROUP_CACHE_SIZE + 1):
            cyclic_spec(n).group()
        assert first.group() is group


class TestEachTestStartsEmpty:
    """conftest.py empties the memos before each test; these run in order."""

    def test_a_preset_group_is_built(self):
        assert get_preset("wreath-s18").spec.group().order == 162

    def test_a_lowered_cap_sees_a_fresh_closure(self, monkeypatch):
        monkeypatch.setattr(groups, "ORDER_CAP", 100)
        with pytest.raises(OrderCapExceeded):
            get_preset("wreath-s18").spec.group()

    def test_a_preset_lattice_is_built(self):
        assert revised_b(get_preset("wreath-s18").spec.group(), FunctionField(5)).value == 1

    def test_a_lowered_cap_sees_a_fresh_lattice(self, monkeypatch):
        # a group equal to the last test's N would hit a lattice kept from
        # it; [N, N] has order 9, so its closure passes no cap below that
        N = get_preset("wreath-s18").spec.group()
        monkeypatch.setattr(groups, "ORDER_CAP", 8)
        with pytest.raises(OrderCapExceeded):
            revised_b(N, FunctionField(5))


class TestEveryMemoIsFound:
    """conftest.py empties every memo library_memos finds; these run in order."""

    def test_the_memos_conftest_clears(self):
        assert sorted(library_memos()) == [
            "braid._indexed",
            "braid._mobius",
            "cli.build_parser",
            "groups._abelian_lattice",
            "presets._closed",
            "presets._paired",
        ]

    def test_a_braid_run_and_revised_b_fill_each_memo(self):
        argv = ("braid", "--preset", "s3-clebsch", "--classes", "(1 2),(1 2),(1 2),(1 2)")
        TestRepeatedCliRuns.stdout(argv)
        revised_b(get_preset("s3-clebsch").spec.group(), FunctionField(5))
        assert all(memo.cache_info().currsize for memo in library_memos().values())

    def test_each_starts_empty(self):
        sizes = {name: memo.cache_info().currsize for name, memo in library_memos().items()}
        assert set(sizes.values()) == {0}, sizes


class TestRepeatedCliRuns:
    ARGVS = (
        ("invariants", "--preset", "klueners-s6", "--normal", "G1", "--q", "5"),
        ("invariants", "--preset", "klueners-s6", "--normal", "G2", "--q", "11"),
        ("invariants", "--preset", "wreath-s18", "--normal", "C", "--q", "5"),
        ("invariants", "--preset", "wreath-s18", "--q", "11"),
        ("series", "--preset", "klueners-s6", "--normal", "G2", "--q", "5", "--terms", "12"),
        ("series", "--preset", "wreath-s18", "--normal", "D", "--q", "5", "--e", "2", "--terms", "8"),
        ("verify", "--preset", "klueners-s6"),
        ("verify", "--preset", "wreath-s18"),
        ("verify", "--preset", "abelian-suite"),
        ("conjecture", "--preset", "klueners-s6", "--q", "5"),
        ("conjecture", "--preset", "klueners-s6", "--q", "7"),
        ("conjecture", "--preset", "klueners-s6", "--q", "11"),
        ("verify", "--preset", "klueners-q"),
    )

    @staticmethod
    def stdout(argv) -> str:
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            assert cli.main(list(argv)) == 0
        return out.getvalue()

    def test_memo_hits_print_what_a_fresh_run_prints(self):
        fresh = {}
        for argv in self.ARGVS:
            clear_library_memos()
            fresh[argv] = self.stdout(argv)
        clear_library_memos()
        for argv in [*self.ARGVS, *reversed(self.ARGVS), *self.ARGVS]:
            assert self.stdout(argv) == fresh[argv], argv


class TestAbelianSuite:
    def test_each_group_is_regular_and_abelian_with_the_exponent_its_label_names(self):
        # label -> (order, exponent)
        named = {"C2xC2": (4, 2), "C4": (4, 4), "C6": (6, 6), "C3xC3": (9, 3)}
        suite = abelian_suite()
        assert sorted(suite) == sorted(named)
        for label, spec in suite.items():
            G = spec.group()
            # regular: transitive, with as many elements as points
            assert {g.images[0] for g in G} == set(range(1, spec.degree + 1)), label
            assert G.order == spec.degree == named[label][0], label
            assert all(a * b == b * a for a in G.generators for b in G.generators), label
            assert lcm(*(g.order() for g in G)) == named[label][1], label
