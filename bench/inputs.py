"""Seeded inputs for the benchmark: base groups, relabelling and job lists.

Nothing here imports malle_lab.  The program receives only what this
module generates: group-spec JSON files for the CLI, cycle strings for
library calls, and the parameters (q, the twist type e, R, M, class
vectors) of each job.  A seed picks one random relabelling of the points per base group
and applies it to the generators, the named subgroups and every class
vector entry; it also draws the job parameters.

Every job carries the key of its unrelabelled template.  `expected.json`
holds the values the seed commit computes for each template on the
unrelabelled inputs, so a run can check every job's output on fields a
relabelling cannot change.  Parameters are drawn only from inputs the
seed commit answers without error (see make_expected.py).
"""

from __future__ import annotations

import json
import os
import random
import re

HERE = os.path.dirname(os.path.abspath(__file__))
EXPECTED_PATH = os.path.join(HERE, "expected.json")

# Base groups, in the labelling of the shipped presets.  Copied here so
# that a later change to the presets cannot change the benchmark's inputs.
BASE_GROUPS = {
    "klueners": {
        "degree": 6,
        "generators": ["(1 2 3)", "(4 5 6)", "(1 4)(2 5)(3 6)"],
        "named_subgroups": {"G1": ["(1 2 3)", "(4 5 6)"], "G2": ["(1 2 3)(4 6 5)"]},
    },
    "wreath": {
        "degree": 18,
        "generators": [
            "(1 2 3)(10 11 12)",
            "(4 5 6)(13 14 15)",
            "(7 8 9)(16 17 18)",
            "(1 4 7)(2 5 8)(3 6 9)(10 13 16)(11 14 17)(12 15 18)",
            "(1 10)(2 11)(3 12)(4 13)(5 14)(6 15)(7 16)(8 17)(9 18)",
        ],
        "named_subgroups": {
            "A": [
                "(1 2 3)(10 11 12)",
                "(4 5 6)(13 14 15)",
                "(7 8 9)(16 17 18)",
                "(1 4 7)(2 5 8)(3 6 9)(10 13 16)(11 14 17)(12 15 18)",
                "(1 10)(2 11)(3 12)(4 13)(5 14)(6 15)(7 16)(8 17)(9 18)",
            ],
            "B": [
                "(1 2 3)(10 11 12)",
                "(4 5 6)(13 14 15)",
                "(7 8 9)(16 17 18)",
                "(1 4 7)(2 5 8)(3 6 9)(10 13 16)(11 14 17)(12 15 18)",
            ],
            "C": [
                "(1 2 3)(10 11 12)",
                "(4 5 6)(13 14 15)",
                "(7 8 9)(16 17 18)",
                "(1 10)(2 11)(3 12)(4 13)(5 14)(6 15)(7 16)(8 17)(9 18)",
            ],
            "D": ["(1 2 3)(10 11 12)", "(4 5 6)(13 14 15)", "(7 8 9)(16 17 18)"],
        },
    },
    "s3": {"degree": 3, "generators": ["(1 2)", "(1 2 3)"], "named_subgroups": {}},
    "C2xC2": {"degree": 4, "generators": ["(1 3)(2 4)", "(1 2)(3 4)"], "named_subgroups": {}},
    "C4": {"degree": 4, "generators": ["(1 2 3 4)"], "named_subgroups": {}},
    "C6": {"degree": 6, "generators": ["(1 2 3 4 5 6)"], "named_subgroups": {}},
    "C3xC3": {
        "degree": 9,
        "generators": ["(1 4 7)(2 5 8)(3 6 9)", "(1 2 3)(4 5 6)(7 8 9)"],
        "named_subgroups": {},
    },
}

ABELIAN = ("C2xC2", "C4", "C6", "C3xC3")

# Field sizes coprime to each group order.  Wreath keeps the presets'
# q = 5, 11: at q = 1 mod 3 its twist splits the classes into many more
# blocks and the series oracle runs for minutes.
Q_VALUES = {
    "klueners": (5, 7, 11, 13),
    "wreath": (5, 11),
    "s3": (5, 7, 11, 13),
    "C2xC2": (3, 5, 7, 11, 13),
    "C4": (3, 5, 7, 11, 13),
    "C6": (5, 7, 11, 13),
    "C3xC3": (2, 5, 7, 11, 13),
}

NAMED = (("klueners", "G1"), ("klueners", "G2")) + tuple(
    ("wreath", s) for s in "ABCD"
)

LIGHT_PRESETS = ("abelian-suite", "klueners-q", "klueners-s6", "s3-clebsch")

SERIES_R = (40, 120)
H2_R = (8, 16)
PROP_MAIN_R = 10
CYCLOTOMIC_M = (3, 9)

# Job mix per round.  Counts are fixed so that every seed does about the
# same work; the seed picks parameters, relabelling and the order of the
# jobs of each kind.
# Lattice counts put job_p50_s in the middle of the block of C3xC3
# revised_b jobs (as many jobs below it as above) and job_p90_s inside the
# block of Klüners revised_b jobs, away from the gaps between job families
# where a quantile would jump from run to run.
LATTICE_MIX = {
    "wreath_conjecture": 1,
    "klueners_conjecture": 24,
    "klueners_nsc": 10,
    "abelian_conjecture": {"C2xC2": 5, "C4": 5, "C6": 5, "C3xC3": 40},
    "abelian_nsc": 5,  # per abelian group
}
# 10 probes sit just above the block of wreath orbit jobs, so job_p90_s
# lands inside them rather than in the tail of the orbit jobs.
BRAID_MIX = {"prop_main": 1, "probe": 10, "braid_cli": 3, "wreath_orbits": 100, "h2": 3}
# Sweep counts place job_p50_s inside the tight block of Klüners G1
# invariants jobs and job_p90_s among the wreath C and mid-R series jobs,
# away from the gaps between job families where a quantile would jump.
SWEEP_MIX = {
    "invariants": {"G1": 60, "G2": 20, "A": 5, "B": 5, "C": 5, "D": 5},
    "series": {"G1": 20, "G2": 35, "A": 4, "B": 4, "C": 4, "D": 4},
    "verify": {"abelian-suite": 10, "klueners-q": 10, "klueners-s6": 15, "s3-clebsch": 15},
    "conjecture": 15,
    "revised_b_q": 15,
}

WORKLOADS = ("lattice", "braid", "sweep")

_CYCLE = re.compile(r"\(([^()]*)\)")


def parse_points(text: str, degree: int) -> list[list[int]]:
    """Cycles of a cycle string; runs of digits split when degree <= 9."""
    cycles = []
    for body in _CYCLE.findall(text):
        points: list[int] = []
        for token in body.split():
            if degree <= 9 and len(token) > 1:
                points.extend(int(ch) for ch in token)
            else:
                points.append(int(token))
        cycles.append(points)
    return cycles


def relabel(text: str, degree: int, sigma: list[int]) -> str:
    """Rename every point p of a cycle string as sigma[p - 1]."""
    cycles = parse_points(text, degree)
    if not cycles:
        return text
    return "".join(
        "(" + " ".join(str(sigma[p - 1]) for p in c) + ")" for c in cycles
    )


def load_expected() -> dict:
    with open(EXPECTED_PATH) as fh:
        return json.load(fh)


class Inputs:
    """Relabelled groups and a job list for one workload and seed."""

    def __init__(self, workload: str, seed: int, expected: dict):
        if workload not in WORKLOADS:
            raise ValueError(f"unknown workload {workload!r}")
        self.rng = random.Random(f"{workload}:{seed}")
        self.pools = expected["pools"]
        self.sigma = {}
        for name in sorted(BASE_GROUPS):
            n = BASE_GROUPS[name]["degree"]
            perm = list(range(1, n + 1))
            self.rng.shuffle(perm)
            self.sigma[name] = perm
        self.groups = {name: self._relabel_group(name) for name in BASE_GROUPS}
        self.jobs = getattr(self, "_" + workload)()

    def _relabel_group(self, name: str) -> dict:
        base = BASE_GROUPS[name]
        n, sigma = base["degree"], self.sigma[name]
        return {
            "degree": n,
            "generators": [relabel(s, n, sigma) for s in base["generators"]],
            "named_subgroups": {
                k: [relabel(s, n, sigma) for s in v]
                for k, v in base["named_subgroups"].items()
            },
        }

    def entries(self, group: str, base_entries: list[str]) -> list[str]:
        """Relabelled class-vector entries in a seeded order."""
        n = BASE_GROUPS[group]["degree"]
        out = [relabel(s, n, self.sigma[group]) for s in base_entries]
        self.rng.shuffle(out)
        return out

    def write_group_files(self, directory: str) -> dict[str, str]:
        paths = {}
        for name in ("klueners", "wreath"):
            path = os.path.join(directory, f"{name}.json")
            with open(path, "w") as fh:
                json.dump(self.groups[name], fh)
            paths[name] = path
        return paths

    def balanced(self, values, n: int) -> list:
        """n seeded draws that cover `values` evenly: every value equally
        often (the remainder at random) when n >= len(values), else one
        value from each of n equal slices of the sorted values.  Every
        seed then does about the same work."""
        values = sorted(values)
        if n >= len(values):
            out = values * (n // len(values)) + self.rng.sample(values, n % len(values))
        else:
            k = len(values)
            out = [self.rng.choice(values[k * i // n: k * (i + 1) // n]) for i in range(n)]
        self.rng.shuffle(out)
        return out

    # -- workloads: jobs grouped by kind, in a fixed order of kinds --------

    def _lattice(self) -> list[dict]:
        mix = LATTICE_MIX
        jobs = []

        def conjecture(group: str, n: int) -> None:
            for q in self.balanced(Q_VALUES[group], n):
                jobs.append({"kind": "revised_b_ff", "group": group, "q": q,
                             "key": f"revised_b_ff|{group}|q{q}"})

        def nsc(group: str, n: int) -> None:
            jobs.extend({"kind": "nsc", "group": group, "key": f"nsc|{group}"} for _ in range(n))

        conjecture("wreath", mix["wreath_conjecture"])
        conjecture("klueners", mix["klueners_conjecture"])
        nsc("klueners", mix["klueners_nsc"])
        for label in ABELIAN:
            conjecture(label, mix["abelian_conjecture"][label])
            nsc(label, mix["abelian_nsc"])
        return jobs

    def _braid(self) -> list[dict]:
        mix = BRAID_MIX
        jobs = []
        for q in self.balanced(Q_VALUES["s3"], mix["prop_main"]):
            jobs.append({"kind": "prop_main", "q": q, "R": PROP_MAIN_R,
                         "key": f"prop_main|s3|q{q}|R{PROP_MAIN_R}"})
        pool = self.pools["probe"]
        for i in self.balanced(range(len(pool)), mix["probe"]):
            jobs.append({"kind": "probe", "base": self.entries("s3", pool[i]["base"]),
                         "pad": self.entries("s3", pool[i]["pad"]),
                         "max_m": pool[i]["max_m"], "key": f"probe|{i}"})
        pool = self.pools["braid_cli"]
        lengths = sorted({e["length"] for e in pool})
        qs = self.balanced(Q_VALUES["klueners"], mix["braid_cli"])
        for j, q in enumerate(qs):
            length = lengths[j % len(lengths)]
            i = self.rng.choice([i for i, e in enumerate(pool) if e["length"] == length])
            classes = ",".join(self.entries("klueners", pool[i]["entries"]))
            jobs.append({"kind": "cli", "key": f"braid_cli|{i}|q{q}",
                         "argv": ["braid", "--group", "@klueners", "--normal", "G1",
                                  "--classes", classes, "--q", str(q)]})
        pool = self.pools["wreath_orbits"]
        for i in self.balanced(range(len(pool)), mix["wreath_orbits"]):
            jobs.append({"kind": "orbits", "group": "wreath", "sub": "D",
                         "entries": self.entries("wreath", pool[i]),
                         "key": f"orbits|wreath.D|{i}"})
        # R = 16 costs 30 times more than R < 16: one job at 16, the rest below
        Rs = [H2_R[1]] + self.balanced(range(H2_R[0], H2_R[1]), mix["h2"] - 1)
        for q, R in zip(self.balanced(Q_VALUES["klueners"], mix["h2"]), Rs):
            jobs.append({"kind": "h2", "q": q, "R": R, "key": f"h2|klueners.G1|q{q}|R{R}"})
        return jobs

    def _sweep(self) -> list[dict]:
        mix = SWEEP_MIX
        jobs = []
        for group, sub in NAMED:
            for q in self.balanced(Q_VALUES[group], mix["invariants"][sub]):
                jobs.append({"kind": "cli", "key": f"invariants|{group}.{sub}|q{q}",
                             "argv": ["invariants", "--group", f"@{group}",
                                      "--normal", sub, "--q", str(q)]})
        for group, sub in NAMED:
            n = mix["series"][sub]
            es = self.pools["series_e"][f"{group}.{sub}"]  # admissible twist types
            keys = [f"series|{group}.{sub}|q{q}|e{e}" for q in Q_VALUES[group] for e in es]
            ok_R = set.intersection(*(set(self.pools["series_R"][k]) for k in keys))
            draws = zip(self.balanced(Q_VALUES[group], n), self.balanced(es, n),
                        self.balanced(ok_R, n))
            for q, e, R in draws:
                jobs.append({"kind": "cli", "key": f"series|{group}.{sub}|q{q}|e{e}", "R": R,
                             "argv": ["series", "--group", f"@{group}", "--normal", sub,
                                      "--q", str(q), "--e", str(e), "--terms", str(R)]})
        for preset in LIGHT_PRESETS:
            jobs.extend({"kind": "cli", "key": f"verify|{preset}",
                         "argv": ["verify", "--preset", preset]}
                        for _ in range(mix["verify"][preset]))
        for q in self.balanced(Q_VALUES["klueners"], mix["conjecture"]):
            jobs.append({"kind": "cli", "key": f"conjecture|klueners|q{q}",
                         "argv": ["conjecture", "--group", "@klueners", "--q", str(q)]})
        for M in self.balanced(CYCLOTOMIC_M, mix["revised_b_q"]):
            jobs.append({"kind": "revised_b_q", "group": "klueners", "M": M,
                         "key": f"revised_b_q|klueners|M{M}"})
        return jobs
