"""CLI reports must stay byte-identical to the snapshots in tests/golden/.

Each snapshot is named after the command that produced it:
`conjecture_<preset>_q<q>.json` is `conjecture --preset <preset> --q <q>`
and `verify_<preset>.json` is `verify --preset <preset>`.  The snapshots
cover `conjecture` on every preset at each of its q values and `verify`
on every preset.
"""

from pathlib import Path

import pytest

from malle_lab.cli import main
from malle_lab.presets import get_preset, preset_names

GOLDEN = Path(__file__).parent / "golden"


def golden_runs():
    runs = []
    for name in preset_names():
        for q in get_preset(name).q_values:
            runs.append((f"conjecture_{name}_q{q}", ["conjecture", "--preset", name, "--q", str(q)]))
        runs.append((f"verify_{name}", ["verify", "--preset", name]))
    return runs


def test_every_snapshot_is_exercised():
    assert sorted(p.stem for p in GOLDEN.glob("*.json")) == sorted(s for s, _ in golden_runs())


@pytest.mark.parametrize("stem,argv", golden_runs(), ids=[s for s, _ in golden_runs()])
def test_report_matches_snapshot(capsys, stem, argv):
    code = main(argv)
    out = capsys.readouterr().out
    assert code == 0
    assert out == (GOLDEN / f"{stem}.json").read_text()
