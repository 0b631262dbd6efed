"""CLI dispatch, exit codes, report determinism."""

import json

import pytest

from malle_lab.cli import main
from malle_lab.presets import preset_names


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


class TestValidationErrors:
    def test_missing_group_and_preset(self, capsys):
        code, _, err = run(capsys, "invariants", "--q", "5")
        assert code == 2
        assert "required" in err

    def test_unknown_preset(self, capsys):
        code, _, err = run(capsys, "invariants", "--preset", "nope", "--q", "5")
        assert code == 2
        assert "UnknownPreset" in err

    def test_q_not_coprime(self, capsys):
        code, _, err = run(
            capsys, "invariants", "--preset", "klueners-s6", "--normal", "G1", "--q", "3"
        )
        assert code == 2
        assert "coprime" in err

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
    BRAID = ("braid", "--preset", "klueners-s6", "--normal", "G1", "--q", "5",
             "--classes", "(1 2 3),(1 3 2),(4 5 6),(4 6 5)")

    @pytest.mark.parametrize(
        "argv, option",
        [(SERIES, ("--terms", "40")), (SERIES, ("--e", "1")), (BRAID, ("--e", "1"))],
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
