"""bench/tracing.py names the functions it wraps by string.

A name the program no longer has is skipped at run time and its metrics
read 0 (`--trace 1` would report `braid.enumerate_s = 0` if
`braid._enumerate_idx` were renamed), so every name must resolve here.
"""

import importlib
import importlib.util
from pathlib import Path

TRACING = Path(__file__).parent.parent / "bench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_name_resolves_in_malle_lab():
    tracing = load_tracing()
    names = [(module, attr) for module, attr, *_ in tracing.SPANS + tracing.COUNTERS]
    assert names
    missing = []
    for module, attr in names:
        assert module.startswith("malle_lab.")
        owner = importlib.import_module(module)
        for part in attr.split("."):
            owner = getattr(owner, part, None)
        if not callable(owner):
            missing.append(f"{module}.{attr}")
    assert missing == []
