"""CLI reports must stay byte-identical to the snapshots in tests/golden/.

Each snapshot is named after the command that produced it:
`conjecture_<preset>_q<q>.json` is `conjecture --preset <preset> --q <q>`,
`verify_<preset>.json` is `verify --preset <preset>`, and
`<command>_<preset>_<subgroup>_q<q>.json` is that command with
`--normal <subgroup>`.  The snapshots cover `conjecture` on every preset at
each of its q values, `verify` on every preset, `invariants` on every named
subgroup of klueners-s6 and wreath-s18, `series --terms 40` on the Klüners
subgroups, one `braid` class vector, and one non-split pair read from the
group file `c4.json`.
"""

from pathlib import Path

import pytest

from malle_lab.cli import main
from malle_lab.presets import get_preset, preset_names

GOLDEN = Path(__file__).parent / "golden"
GROUP_FILES = ("c4",)  # inputs, not snapshots
BRAID_CLASSES = "(1 2 3),(1 2 3),(4 5 6),(1 2 3)(4 5 6),(4 5 6)"


def golden_runs():
    runs = []
    for name in preset_names():
        for q in get_preset(name).q_values:
            runs.append((f"conjecture_{name}_q{q}", ["conjecture", "--preset", name, "--q", str(q)]))
        runs.append((f"verify_{name}", ["verify", "--preset", name]))
    for name in ("klueners-s6", "wreath-s18"):
        preset = get_preset(name)
        for sub in sorted(preset.spec.named_subgroups):
            for q in preset.q_values:
                args = ["--preset", name, "--normal", sub, "--q", str(q)]
                runs.append((f"invariants_{name}_{sub}_q{q}", ["invariants", *args]))
                if name == "klueners-s6":
                    runs.append((f"series_{name}_{sub}_q{q}", ["series", *args, "--terms", "40"]))
    runs.append((
        "braid_klueners-s6_G1_q5",
        ["braid", "--preset", "klueners-s6", "--normal", "G1", "--classes", BRAID_CLASSES, "--q", "5"],
    ))
    runs.append((
        "invariants_c4_C2_q3",
        ["invariants", "--group", str(GOLDEN / "c4.json"), "--normal", "C2", "--q", "3"],
    ))
    return runs


def test_every_snapshot_is_exercised():
    stems = sorted(p.stem for p in GOLDEN.glob("*.json") if p.stem not in GROUP_FILES)
    assert stems == sorted(s for s, _ in golden_runs())


@pytest.mark.parametrize("stem,argv", golden_runs(), ids=[s for s, _ in golden_runs()])
def test_report_matches_snapshot(capsys, stem, argv):
    code = main(argv)
    out = capsys.readouterr().out
    assert code == 0
    assert out == (GOLDEN / f"{stem}.json").read_text()
