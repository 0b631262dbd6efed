"""CLI dispatch, exit codes, report determinism."""

import argparse
import json
import os
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

from malle_lab import cli
from malle_lab import series as ser
from malle_lab.cli import build_parser, main
from malle_lab.errors import MalleLabError
from malle_lab.presets import preset_names
from malle_lab.report import dump_report

ROOT = Path(__file__).resolve().parent.parent
README = ROOT / "README.md"


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture
def klueners_file(tmp_path):
    path = tmp_path / "klueners.json"
    path.write_text(
        json.dumps(
            {
                "degree": 6,
                "generators": ["(1 2 3)", "(4 5 6)", "(14)(25)(36)"],
                "named_subgroups": {"G1": ["(1 2 3)", "(4 5 6)"]},
            }
        )
    )
    return str(path)


class TestInvariantsCommand:
    def test_from_file(self, capsys, klueners_file):
        code, out, _ = run(
            capsys, "invariants", "--group", klueners_file, "--normal", "G1", "--q", "5"
        )
        assert code == 0
        report = json.loads(out)
        assert report["outputs"]["a"] == "1/2"
        assert report["outputs"]["b"] == 2
        assert report["outputs"]["asymptotic"] == "X^{1/2} log X"

    def test_from_preset(self, capsys):
        code, out, _ = run(
            capsys, "invariants", "--preset", "klueners-s6", "--normal", "G1", "--q", "11"
        )
        assert code == 0
        assert json.loads(out)["outputs"]["b"] == 2

    def test_deterministic_output(self, capsys):
        _, out1, _ = run(
            capsys, "invariants", "--preset", "klueners-s6", "--normal", "G1", "--q", "5"
        )
        _, out2, _ = run(
            capsys, "invariants", "--preset", "klueners-s6", "--normal", "G1", "--q", "5"
        )
        assert out1 == out2

    def test_out_file(self, capsys, tmp_path):
        dest = tmp_path / "report.json"
        code, out, _ = run(
            capsys,
            "invariants",
            "--preset",
            "klueners-s6",
            "--normal",
            "G1",
            "--q",
            "5",
            "--out",
            str(dest),
        )
        assert code == 0 and out == ""
        assert json.loads(dest.read_text())["outputs"]["b"] == 2

    @pytest.mark.parametrize("kind", ["FileNotFoundError", "IsADirectoryError"])
    def test_out_path_that_cannot_be_written(self, capsys, tmp_path, kind):
        # a usage error: one JSON line on stderr, exit 2, nothing on stdout
        dest = tmp_path / "missing" / "x.json" if kind == "FileNotFoundError" else tmp_path
        code, out, err = run(capsys, "presets", "--out", str(dest))
        assert (code, out) == (2, "")
        with pytest.raises(OSError) as expected:
            open(dest, "w")
        assert type(expected.value).__name__ == kind
        assert json.loads(err) == {"error": str(expected.value), "code": kind}


class TestValidationErrors:
    def test_missing_group_and_preset(self, capsys):
        code, _, err = run(capsys, "invariants", "--q", "5")
        assert code == 2
        assert "required" in err

    def test_unknown_preset(self, capsys):
        code, _, err = run(capsys, "invariants", "--preset", "nope", "--q", "5")
        assert code == 2
        assert "UnknownPreset" in err

    def test_unknown_subgroup_name(self, capsys):
        code, out, err = run(
            capsys, "invariants", "--preset", "klueners-s6", "--normal", "G9", "--q", "5"
        )
        assert (code, out) == (2, "")
        # the message once, not the quoted repr that str() of a KeyError gives
        assert json.loads(err) == {"error": "no named subgroup 'G9'", "code": "UnknownSubgroup"}

    def test_q_not_coprime(self, capsys):
        # TwistSpec refuses it; conjecture makes one on its G = N row
        for command in ("invariants", "conjecture", "braid", "series"):
            pair = ["--preset", "klueners-s6"] + ([] if command == "conjecture" else ["--normal", "G1"])
            classes = ["--classes", "(1 2 3),(1 3 2)"] if command == "braid" else []
            code, out, err = run(capsys, command, *pair, *classes, "--q", "3")
            assert (code, out) == (2, ""), command
            assert json.loads(err) == {
                "error": "q = 3 is not coprime to |N| = 18",
                "code": "ValueError",
            }, command

    @pytest.mark.parametrize("command", ["invariants", "conjecture", "braid", "series"])
    @pytest.mark.parametrize("q", ["35", "10", "1"])
    def test_q_not_a_prime_power(self, capsys, command, q):
        # F_35, F_10 and F_1 do not exist; 35 and 1 are prime to |N| = 18, and
        # 10 is refused as no field before its factor 2 of 18 is looked at
        pair = ["--preset", "klueners-s6"] + ([] if command == "conjecture" else ["--normal", "G1"])
        classes = ["--classes", "(1 2 3),(1 3 2)"] if command == "braid" else []
        code, out, err = run(capsys, command, *pair, *classes, "--q", q)
        assert (code, out) == (2, "")
        assert json.loads(err) == {
            "error": f"q = {q} is not a prime power, so F_q does not exist",
            "code": "NotAPrimePower",
        }

    def test_q_above_the_primality_limit(self, capsys):
        # 2^89 - 1 is prime, but above the limit where the test is exact
        q = str(2**89 - 1)
        code, out, err = run(
            capsys, "invariants", "--preset", "klueners-s6", "--normal", "G1", "--q", q
        )
        assert (code, out) == (2, "")
        assert json.loads(err)["code"] == "FieldSizeOutOfRange"

    def test_prime_power_q_is_accepted(self, capsys):
        code, out, _ = run(
            capsys, "invariants", "--preset", "klueners-s6", "--normal", "G1", "--q", "25"
        )
        assert code == 0
        assert json.loads(out)["inputs"]["q"] == 25

    @pytest.mark.parametrize("command", ["invariants", "braid", "series"])
    def test_named_subgroup_that_is_not_normal(self, capsys, tmp_path, command):
        # <(1 2)> is a subgroup of S3 but not a normal one
        path = tmp_path / "s3.json"
        path.write_text(
            json.dumps(
                {"degree": 3, "generators": ["(1 2 3)", "(1 2)"], "named_subgroups": {"H": ["(1 2)"]}}
            )
        )
        args = {"invariants": ["--q", "5"], "braid": ["--classes", "(1 2)"], "series": ["--q", "5"]}
        code, out, err = run(capsys, command, "--group", str(path), "--normal", "H", *args[command])
        assert (code, out) == (2, "")
        assert json.loads(err)["code"] == "NotASubgroup"

    def test_bad_group_file(self, capsys, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{notjson")
        code, _, err = run(capsys, "invariants", "--group", str(path), "--q", "5")
        assert code == 2

    def test_bad_cycle_notation(self, capsys, klueners_file):
        code, _, err = run(
            capsys,
            "braid",
            "--group",
            klueners_file,
            "--normal",
            "G1",
            "--classes",
            "(1 2",
        )
        assert code == 2

    def test_unknown_command(self, capsys):
        code, _, _ = run(capsys, "frobnicate")
        assert code == 2

    def test_group_and_preset_together(self, capsys, klueners_file):
        code, out, err = run(
            capsys, "conjecture", "--group", klueners_file, "--preset", "klueners-s6", "--q", "5"
        )
        assert (code, out) == (2, "")
        assert "not allowed with" in err

    def test_normal_subgroup_with_non_cyclic_quotient(self, capsys, tmp_path):
        # V4 is normal in S4 with S4/V4 = S3: the input fails the same
        # precondition as a subgroup that is not normal, which exits 2
        path = tmp_path / "s4.json"
        path.write_text(
            json.dumps(
                {
                    "degree": 4,
                    "generators": ["(1 2 3 4)", "(1 2)"],
                    "named_subgroups": {"V": ["(1 2)(3 4)", "(1 3)(2 4)"]},
                }
            )
        )
        code, out, err = run(capsys, "invariants", "--group", str(path), "--normal", "V", "--q", "5")
        assert (code, out) == (2, "")
        assert json.loads(err)["code"] == "NonCyclicQuotient"

    @pytest.mark.parametrize(
        "data",
        [
            [6, ["(1 2 3)"]],
            {"degree": 6, "generators": "(1 2 3)"},
            {"degree": 6, "generators": ["(1 2 3)"], "named_subgroups": []},
            {"degree": 6, "generators": ["(1 2 3)"], "named_subgroups": {"H": "(1 2 3)"}},
            {"degree": 6, "generators": ["(1 2 3)"], "named_subgroups": {"H": [123]}},
        ],
    )
    def test_malformed_group_file(self, capsys, tmp_path, data):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(data))
        code, out, err = run(
            capsys, "invariants", "--group", str(path), "--normal", "H", "--q", "5"
        )
        assert (code, out) == (2, "")
        assert json.loads(err)["code"] == "ParseError"
        assert "list of cycle-notation strings" in err or "JSON objects" in err

    @pytest.mark.parametrize("degree", [6.7, True, "x", "6", 0, -3, None])
    def test_degree_must_be_a_json_integer_of_at_least_one(self, capsys, tmp_path, degree):
        # 6.7 and true used to pass as degrees 6 and 1; "x" exited as a
        # ValueError, and 0 or -3 failed later with unrelated messages
        path = tmp_path / "bad.json"
        data = {"degree": degree, "generators": ["(1 2 3)"], "named_subgroups": {"H": ["(1 2 3)"]}}
        path.write_text(json.dumps(data))
        code, out, err = run(
            capsys, "invariants", "--group", str(path), "--normal", "H", "--q", "5"
        )
        assert (code, out) == (2, "")
        assert json.loads(err)["code"] == "ParseError"
        assert "degree must be a JSON integer >= 1" in err


# The only flags each command takes; every other (command, flag) pair exits 2.
COMMAND_FLAGS = {
    "invariants": ["--group", "--preset", "--normal", "--q", "--out"],
    "conjecture": ["--group", "--preset", "--q", "--out"],
    "braid": ["--group", "--preset", "--normal", "--classes", "--q", "--e", "--out"],
    "series": ["--group", "--preset", "--normal", "--q", "--e", "--terms", "--out"],
    "verify": ["--preset", "--out"],
    "presets": ["--out"],
}
ALL_FLAGS = ["--group", "--preset", "--normal", "--q", "--e", "--classes", "--terms", "--out"]
VALID = {
    "invariants": ["--preset", "klueners-s6", "--normal", "G1", "--q", "5"],
    "conjecture": ["--preset", "klueners-s6", "--q", "5"],
    "braid": ["--preset", "klueners-s6", "--normal", "G1", "--classes", "(1 2 3),(1 3 2)"],
    "series": ["--preset", "klueners-s6", "--normal", "G1", "--q", "5", "--terms", "12"],
    "verify": ["--preset", "s3-clebsch"],
    "presets": [],
}
UNREAD = [(c, f) for c in COMMAND_FLAGS for f in ALL_FLAGS if f not in COMMAND_FLAGS[c]]


class TestFlagsPerCommand:
    def test_pair_counts(self):
        assert sum(map(len, COMMAND_FLAGS.values())) == 26
        assert len(UNREAD) == 48 - 26

    @pytest.mark.parametrize("command", sorted(COMMAND_FLAGS))
    def test_each_command_declares_exactly_its_flags(self, command):
        args = build_parser().parse_args([command, *VALID[command]])
        declared = {f"--{dest}" for dest in vars(args)} - {"--command"}
        assert declared == set(COMMAND_FLAGS[command])

    @pytest.mark.parametrize("command, flag", UNREAD)
    def test_unread_flag_exits_2(self, capsys, command, flag):
        code, out, err = run(capsys, command, *VALID[command], flag, "1")
        assert (code, out) == (2, "")
        assert f"unrecognized arguments: {flag} 1" in err

    def test_flags_must_follow_the_command(self, capsys):
        code, out, err = run(capsys, "--q", "5", "conjecture", "--preset", "klueners-s6")
        assert (code, out) == (2, "")
        assert err.startswith("usage: malle-lab")

    def test_parser_is_built_once_and_not_at_import(self):
        assert build_parser() is build_parser()
        probe = "import malle_lab.cli as c; print(c.build_parser.cache_info().currsize)"
        env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
        built = subprocess.run(
            [sys.executable, "-c", probe], capture_output=True, text=True, check=True, env=env
        )
        assert built.stdout.strip() == "0"

    def test_readme_examples_parse(self):
        block = README.read_text().split("## CLI", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
        lines = block.replace("\\\n", " ").splitlines()
        examples = [shlex.split(line)[1:] for line in lines if line.startswith("malle-lab ")]
        assert len(examples) >= len(COMMAND_FLAGS)
        for argv in examples:
            build_parser().parse_args(argv)


def two_level_route(argv):
    """main with the top parser's parse_args in front of every argv, then
    the handler: the route main takes for an argv that names no command
    first."""
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code else 0
    try:
        report = cli.COMMANDS[args.command](args)
    except (*cli.VALIDATION_ERRORS, MalleLabError) as exc:
        return cli.report_error(exc, 2 if isinstance(exc, cli.VALIDATION_ERRORS) else 1)
    exit_code = report.pop("exit_hint", 0)
    sys.stdout.write(dump_report(report))
    return exit_code


ROUTES = (
    [[c, *VALID[c]] for c in VALID]
    + [[c, "--help"] for c in VALID]
    + [[c, *VALID[c], "--help"] for c in VALID]
    + [[c, *VALID[c], f, "1"] for c, f in UNREAD]
    + [[], ["--help"], ["-h"], ["frobnicate"], ["frobnicate", "--q", "5"]]
    # flags before the command
    + [["--q", "5", "conjecture", "--preset", "klueners-s6"], ["--help", "presets"], ["--", "presets"]]
    # a missing --q, --group with --preset, a value argparse refuses
    + [
        ["invariants", "--preset", "klueners-s6", "--normal", "G1"],
        ["conjecture", "--group", "klueners.json", "--preset", "klueners-s6", "--q", "5"],
        ["invariants", "--preset", "klueners-s6", "--normal", "G1", "--q", "five"],
    ]
    # a bare command, a stray positional, an abbreviated flag, a handler error
    + [
        ["invariants"],
        ["presets", "extra"],
        ["conjecture", "--pre", "klueners-s6", "--q", "5"],
        ["verify", "--preset", "nope"],
    ]
)


class TestOneParserPass:
    def test_route_count(self):
        assert len(ROUTES) == 3 * len(VALID) + len(UNREAD) + 15

    @pytest.mark.parametrize("argv", ROUTES, ids=[" ".join(a) or "(none)" for a in ROUTES])
    def test_main_matches_the_two_level_route(self, capsys, argv):
        code = main(list(argv))
        out, err = capsys.readouterr()
        expected = two_level_route(list(argv))
        assert (code, out, err) == (expected, *capsys.readouterr())

    def test_an_argv_that_starts_with_a_command_is_parsed_once(self, capsys, monkeypatch):
        parse, parsers = argparse.ArgumentParser.parse_known_args, []

        def counted(parser, *args, **kwargs):
            parsers.append(parser.prog)
            return parse(parser, *args, **kwargs)

        monkeypatch.setattr(argparse.ArgumentParser, "parse_known_args", counted)
        assert main(["conjecture", *VALID["conjecture"]]) == 0
        assert parsers == ["malle-lab conjecture"]
        parsers.clear()
        assert main(["--q", "5", "conjecture", *VALID["conjecture"]]) == 2
        assert parsers == ["malle-lab"]
        capsys.readouterr()


class TestBraidCommand:
    def test_orbit_report(self, capsys):
        code, out, _ = run(
            capsys,
            "braid",
            "--preset",
            "klueners-s6",
            "--normal",
            "G1",
            "--classes",
            "(1 2 3),(1 3 2),(4 5 6),(4 6 5)",
        )
        assert code == 0
        report = json.loads(out)
        assert report["outputs"]["orbit_count"] >= 1
        assert sum(report["outputs"]["orbit_sizes"]) == report["outputs"]["tuple_count"]

    def test_stability_warning_present(self, capsys):
        code, out, _ = run(
            capsys,
            "braid",
            "--preset",
            "klueners-s6",
            "--normal",
            "G1",
            "--classes",
            "(1 2 3),(1 3 2),(4 5 6),(4 6 5)",
            "--q",
            "5",
        )
        assert code == 0
        report = json.loads(out)
        assert "stable_orbit_count" in report["outputs"]
        assert any("model" in w for w in report["warnings"])

    def test_inadmissible_e_without_q_is_a_usage_error(self, capsys):
        # --e is checked against d' even when no --q asks for Frobenius data
        code, out, err = run(
            capsys, "braid", "--preset", "klueners-s6", "--normal", "G1",
            "--classes", "(1 2 3),(1 3 2)", "--e", "7",
        )
        assert code == 2
        assert out == ""
        assert "e = 7 not admissible for d' = 2" in err


class TestSeriesCommand:
    def test_series_report(self, capsys):
        code, out, _ = run(
            capsys,
            "series",
            "--preset",
            "klueners-s6",
            "--normal",
            "G1",
            "--q",
            "5",
            "--terms",
            "44",
        )
        assert code == 0
        report = json.loads(out)
        assert report["outputs"]["a"] == "1/2"
        assert report["outputs"]["b"] == 2
        assert report["outputs"]["oracle_match"] is True
        assert report["outputs"]["fit"]["ok"] is True
        assert any("equal modulus" in w for w in report["warnings"])

    def test_fit_past_the_float_range(self, capsys):
        # q^(r+1) passes the float range at r = 364 for q = 7
        code, out, _ = run(
            capsys, "series", "--preset", "klueners-s6", "--normal", "G1", "--q", "7",
            "--terms", "400",
        )
        assert code == 0
        outputs = json.loads(out)["outputs"]
        assert outputs["oracle_match"] is True
        fit = outputs["fit"]
        assert fit["ok"] is True and 1 <= fit["spread"] <= fit["window"]

    def test_oracle_does_not_route_through_expand(self, capsys, monkeypatch):
        # an expand that is off by one in one coefficient must be caught: an
        # oracle that called expand would agree with it
        real = ser.expand

        def off_by_one(gf, R):
            table = real(gf, R)
            return ser.CoefficientTable(q=table.q, values={**table.values, R: table.values[R] + 1})

        monkeypatch.setattr(ser, "expand", off_by_one)
        code, out, _ = run(
            capsys, "series", "--preset", "klueners-s6", "--normal", "G1", "--q", "5",
            "--terms", "44",
        )
        assert code == 0
        assert json.loads(out)["outputs"]["oracle_match"] is False

    def test_short_series_skips_fit(self, capsys):
        code, out, _ = run(
            capsys,
            "series",
            "--preset",
            "klueners-s6",
            "--normal",
            "G1",
            "--q",
            "5",
            "--terms",
            "12",
        )
        assert code == 0
        report = json.loads(out)
        assert "fit" not in report["outputs"]
        assert any("skipped" in w for w in report["warnings"])


class TestDefaults:
    SERIES = ("series", "--preset", "klueners-s6", "--normal", "G1", "--q", "5")
    BRAID_NO_Q = ("braid", "--preset", "klueners-s6", "--normal", "G1",
                  "--classes", "(1 2 3),(1 3 2),(4 5 6),(4 6 5)")
    BRAID = (*BRAID_NO_Q, "--q", "5")

    @pytest.mark.parametrize(
        "argv, option",
        [(SERIES, ("--terms", "40")), (SERIES, ("--e", "1")), (BRAID, ("--e", "1")),
         (BRAID_NO_Q, ("--e", "1"))],
    )
    def test_omitted_option_reads_its_default(self, capsys, argv, option):
        code, implicit, _ = run(capsys, *argv)
        assert code == 0
        assert run(capsys, *argv, *option) == (0, implicit, "")


class TestConjectureCommand:
    def test_klueners(self, capsys):
        code, out, _ = run(capsys, "conjecture", "--preset", "klueners-s6", "--q", "5")
        assert code == 0
        report = json.loads(out)
        assert report["outputs"]["b"] == 2
        assert report["outputs"]["asymptotic"] == "X^{1/2} log X"


class TestVerifyCommand:
    @pytest.mark.parametrize(
        "preset", ["klueners-s6", "abelian-suite", "s3-clebsch", "klueners-q"]
    )
    def test_presets_verify_clean(self, capsys, preset):
        code, out, _ = run(capsys, "verify", "--preset", preset)
        assert code == 0
        assert json.loads(out)["outputs"]["all_ok"] is True

    def test_wreath_verifies_clean(self, capsys):
        code, out, _ = run(capsys, "verify", "--preset", "wreath-s18")
        assert code == 0
        assert json.loads(out)["outputs"]["all_ok"] is True

    def test_golden_mismatch_exits_3(self, capsys, monkeypatch):
        import malle_lab.cli as cli
        from malle_lab.presets import get_preset

        real = get_preset("s3-clebsch")
        broken = type(real)(
            name=real.name,
            spec=real.spec,
            q_values=real.q_values,
            expected={**real.expected, "transposition_tuples_k4": 999},
            description=real.description,
        )
        monkeypatch.setattr(cli, "get_preset", lambda name: broken)
        code, out, _ = run(capsys, "verify", "--preset", "s3-clebsch")
        assert code == 3
        assert json.loads(out)["outputs"]["all_ok"] is False

    def test_klueners_asymptotic_follows_the_computed_b(self, capsys, monkeypatch):
        import malle_lab.cli as cli

        monkeypatch.setattr(cli.inv, "b_constant", lambda ctx, q: 3 if q == 11 else 2)
        code, out, _ = run(capsys, "verify", "--preset", "klueners-s6")
        asymptotic = json.loads(out)["outputs"]["checks"]["asymptotic"]
        assert code == 3
        assert asymptotic["got"] == "X^{1/2} log X; X^{1/2} (log X)^2"
        assert asymptotic["ok"] is False

    def test_klueners_checks_the_expected_subgroup(self, capsys, monkeypatch):
        import malle_lab.cli as cli
        from malle_lab.presets import get_preset

        real = get_preset("klueners-s6")
        # G2 = <(1 2 3)(4 6 5)> has a = 1/4, not the expected 1/2
        moved = type(real)(
            name=real.name,
            spec=real.spec,
            q_values=real.q_values,
            expected={**real.expected, "subgroup": "G2"},
            description=real.description,
        )
        monkeypatch.setattr(cli, "get_preset", lambda name: moved)
        code, out, _ = run(capsys, "verify", "--preset", "klueners-s6")
        assert code == 3
        assert json.loads(out)["outputs"]["checks"]["a"] == {"expected": "1/2", "got": "1/4", "ok": False}


class TestPresetsCommand:
    def test_lists_all(self, capsys):
        code, out, _ = run(capsys, "presets")
        assert code == 0
        report = json.loads(out)
        assert set(report["outputs"]) == set(preset_names())
