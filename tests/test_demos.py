"""Each demo prints exactly the output pinned in demos/expected/<stem>.txt."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def test_every_demo_has_expected_output():
    assert DEMOS
    assert sorted(p.stem for p in (ROOT / "demos" / "expected").glob("*.txt")) == [
        p.stem for p in DEMOS
    ]


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.stem)
def test_demo_output_is_unchanged(demo):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    run = subprocess.run(
        [sys.executable, str(demo)], cwd=ROOT, env=env, capture_output=True, timeout=120
    )
    assert run.returncode == 0, run.stderr.decode()
    assert run.stdout == (ROOT / "demos" / "expected" / f"{demo.stem}.txt").read_bytes()
