"""Regenerate expected.json: input pools and the expected value of every
job template, computed by the current program on unrelabelled inputs.

    python3 bench/make_expected.py

Run it only on the commit whose outputs define correctness (the commit
that added the benchmark); a later commit must reproduce these values,
not rewrite them.  Where a shipped preset states a golden value (a and b
for Klüners G1 and the wreath subgroups, b_phi for klueners-q, the verify
scenarios), the computed value is checked against it first.

Pools hold only inputs the program answers without error, and class
vectors of one tuple count per length, so every seed draws about the
same amount of work.
"""

from __future__ import annotations

import itertools
import json
import math
import os
import random
import shutil
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import inputs as inp  # noqa: E402
import jobs  # noqa: E402
from malle_lab.groups import closure, subgroup_generated  # noqa: E402
from malle_lab.perms import format_cycles, parse_cycles, product  # noqa: E402

# Class vectors of the braid CLI jobs, by length: one count of
# arrangements of the multiset per length, so that every vector of a
# length costs the same (0.25-0.45 s at the seed commit).
BRAID_CLI_ARRANGEMENTS = {8: 3360, 9: 3780, 10: 5040}
BRAID_CLI_PER_LENGTH = 6
# Length-6 vectors in wreath D with one repeated entry: 360 arrangements.
WREATH_ORBITS_ARRANGEMENTS = 360
WREATH_ORBITS_POOL = 40
# (transpositions, 3-cycles) in the S3 probe's base and pad vectors; these
# three cost 0.05-0.08 s each at max_m = 1.
PROBE_SHAPES = [((4, 0), (2, 1)), ((2, 1), (2, 1)), ((2, 2), (2, 0))]


def arrangements(mults) -> int:
    out = math.factorial(sum(mults))
    for m in mults:
        out //= math.factorial(m)
    return out


def elements(group: str, sub: str | None) -> list:
    base = inp.BASE_GROUPS[group]
    n = base["degree"]
    gens = base["named_subgroups"][sub] if sub else base["generators"]
    return [g for g in closure([parse_cycles(s, n) for s in gens], n).elements if not g.is_identity]


def vectors(group: str, sub: str, length: int):
    """Multisets of nontrivial elements with product one that generate."""
    els = elements(group, sub)
    n = inp.BASE_GROUPS[group]["degree"]
    order = len(els) + 1
    ambient = closure(els, n)
    for combo in itertools.combinations_with_replacement(range(len(els)), length):
        entries = [els[i] for i in combo]
        if not product(entries, n).is_identity:
            continue
        if subgroup_generated(ambient, entries).order != order:
            continue
        mults = [combo.count(i) for i in sorted(set(combo))]
        yield [format_cycles(g) for g in entries], arrangements(mults)


def build_pools(rng: random.Random) -> dict:
    pools: dict = {"braid_cli": [], "wreath_orbits": [], "probe": []}
    for length, count in BRAID_CLI_ARRANGEMENTS.items():
        cands = [e for e, a in vectors("klueners", "G1", length) if a == count]
        for entries in rng.sample(cands, min(BRAID_CLI_PER_LENGTH, len(cands))):
            pools["braid_cli"].append({"length": length, "entries": entries})
    cands = [e for e, a in vectors("wreath", "D", 6) if a == WREATH_ORBITS_ARRANGEMENTS]
    pools["wreath_orbits"] = rng.sample(cands, WREATH_ORBITS_POOL)
    t, c = "(1 2)", "(1 2 3)"
    for (bt, bc), (pt, pc) in PROBE_SHAPES:
        pools["probe"].append({"base": [t] * bt + [c] * bc, "pad": [t] * pt + [c] * pc,
                               "max_m": 1})
    return pools


def golden(expected: dict) -> list[str]:
    """Check computed values against the presets' golden values."""
    checks = []
    for q in (5, 11):
        checks.append((f"invariants|klueners.G1|q{q}", {"a": "1/2", "b": 2}))
        for s in "ABCD":
            checks.append((f"invariants|wreath.{s}|q{q}", {"a": "1/4", "b": 1}))
        checks.append((f"revised_b_ff|wreath|q{q}", {"value": 1}))
    checks.append(("revised_b_q|klueners|M3", {"value": 2}))
    for preset in inp.LIGHT_PRESETS:
        checks.append((f"verify|{preset}", {"rc": 0, "all_ok": True}))
    for key, want in checks:
        got = {k: expected[key][k] for k in want}
        if got != want:
            raise SystemExit(f"{key}: computed {got} contradicts the preset golden {want}")
    return [key for key, _ in checks]


def main() -> None:
    t0 = time.perf_counter()
    rng = random.Random(0)
    pools = build_pools(rng)
    work = os.path.join(ROOT, ".bench_work", f"expected-{os.getpid()}")
    os.makedirs(work, exist_ok=True)
    paths = {}
    for name in ("klueners", "wreath"):
        paths[name] = os.path.join(work, f"{name}.json")
        with open(paths[name], "w") as fh:
            json.dump(inp.BASE_GROUPS[name], fh)
    ctx = jobs.JobContext(inp.BASE_GROUPS, paths)
    ctx.build(sorted({g for names in jobs.NEEDED_GROUPS.values() for g in names}))
    expected: dict = {}

    def record(job: dict) -> dict:
        got = jobs.summary(job, jobs.run(job, ctx))
        expected[job["key"]] = got
        return got

    def cli(key: str, argv: list[str]) -> dict:
        return record({"kind": "cli", "key": key, "argv": argv})

    for group, qs in inp.Q_VALUES.items():
        if group == "s3":
            continue
        record({"kind": "nsc", "group": group, "key": f"nsc|{group}"})
        for q in qs:
            record({"kind": "revised_b_ff", "group": group, "q": q,
                    "key": f"revised_b_ff|{group}|q{q}"})
        print(f"lattice {group} done ({time.perf_counter() - t0:.0f}s)", flush=True)
    for M in inp.CYCLOTOMIC_M:
        record({"kind": "revised_b_q", "group": "klueners", "M": M,
                "key": f"revised_b_q|klueners|M{M}"})
    for q in inp.Q_VALUES["s3"]:
        R = inp.PROP_MAIN_R
        record({"kind": "prop_main", "q": q, "R": R, "key": f"prop_main|s3|q{q}|R{R}"})
    for i, entry in enumerate(pools["probe"]):
        record({"kind": "probe", **entry, "key": f"probe|{i}"})
    for q in inp.Q_VALUES["klueners"]:
        for R in range(inp.H2_R[0], inp.H2_R[1] + 1):
            record({"kind": "h2", "q": q, "R": R, "key": f"h2|klueners.G1|q{q}|R{R}"})
        for i, entry in enumerate(pools["braid_cli"]):
            cli(f"braid_cli|{i}|q{q}", ["braid", "--group", "@klueners", "--normal", "G1",
                                        "--classes", ",".join(entry["entries"]), "--q", str(q)])
    for i, entries in enumerate(pools["wreath_orbits"]):
        record({"kind": "orbits", "group": "wreath", "sub": "D", "entries": entries,
                "key": f"orbits|wreath.D|{i}"})
    print(f"braid done ({time.perf_counter() - t0:.0f}s)", flush=True)

    pools["series_R"], pools["series_e"] = {}, {}
    for group, sub in inp.NAMED:
        for q in inp.Q_VALUES[group]:
            d_prime = cli(f"invariants|{group}.{sub}|q{q}",
                          ["invariants", "--group", f"@{group}", "--normal", sub,
                           "--q", str(q)])["inputs"]["d_prime"]
            es = [e for e in range(1, d_prime + 1) if math.gcd(e, d_prime) == 1]
            pools["series_e"][f"{group}.{sub}"] = es
            for e in es:
                key = f"series|{group}.{sub}|q{q}|e{e}"
                fit_ok, ok_R = {}, []
                for R in range(inp.SERIES_R[0], inp.SERIES_R[1] + 1):
                    got = cli(key, ["series", "--group", f"@{group}", "--normal", sub,
                                    "--q", str(q), "--e", str(e), "--terms", str(R)])
                    if got["rc"] == 0:
                        ok_R.append(R)
                        fit_ok[str(R)] = got["fit_ok"]
                # the R = 120 report carries every coefficient a shorter run prints
                expected[key] = dict(got, fit_ok_by_R=fit_ok)
                del expected[key]["fit_ok"]
                pools["series_R"][key] = ok_R
    for preset in inp.LIGHT_PRESETS:
        cli(f"verify|{preset}", ["verify", "--preset", preset])
    for q in inp.Q_VALUES["klueners"]:
        cli(f"conjecture|klueners|q{q}", ["conjecture", "--group", "@klueners", "--q", str(q)])
    print(f"sweep done ({time.perf_counter() - t0:.0f}s)", flush=True)

    failing = sorted(k for k, v in expected.items() if v.get("rc", 0) != 0)
    if failing:
        raise SystemExit(f"templates the program does not answer with exit 0: {failing}")
    doc = {
        "note": "values computed by the seed commit on unrelabelled inputs; "
                "golden_checked keys also match the presets' golden values",
        "golden_checked": golden(expected),
        "pools": pools,
        "expected": expected,
    }
    with open(inp.EXPECTED_PATH, "w") as fh:
        json.dump(doc, fh, indent=1, sort_keys=True)
        fh.write("\n")
    shutil.rmtree(work)
    print(f"wrote {inp.EXPECTED_PATH} ({len(expected)} templates, "
          f"{time.perf_counter() - t0:.0f}s)")


if __name__ == "__main__":
    main()
