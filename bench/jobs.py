"""Running one job against malle_lab and reducing its output to the
fields a relabelling of the points cannot change.

A job is a library call or an in-process ``malle_lab.cli.main(argv)``
call.  `summary` keeps only relabelling-invariant fields: a, b, the
multiset of b_by_e values, orbit counts and sizes, coefficients, m and
c1, and the like.  `check` compares a summary with the committed
expected value for the job's unrelabelled template.
"""

from __future__ import annotations

import contextlib
import io
import json
from fractions import Fraction

from malle_lab import braid as braid_mod
from malle_lab import cli
from malle_lab import groups as groups_mod
from malle_lab import invariants as inv
from malle_lab import series as ser
from malle_lab.perms import parse_cycles
from malle_lab.presets import GroupSpecFile

# Groups each workload's library jobs use; built once per run, in set-up.
NEEDED_GROUPS = {
    "lattice": ("wreath", "klueners", "C2xC2", "C4", "C6", "C3xC3"),
    "braid": ("s3", "klueners", "klueners.G1", "wreath", "wreath.D"),
    "sweep": ("klueners",),
}


def _canon(value):
    if isinstance(value, Fraction):
        return f"{value.numerator}/{value.denominator}"
    return value


def _multiset(rows) -> list:
    return sorted(rows, key=json.dumps)


class JobContext:
    """Group files for the CLI and group objects for library calls."""

    def __init__(self, group_specs: dict, group_paths: dict):
        self.paths = group_paths
        self.specs = {
            name: GroupSpecFile(
                degree=g["degree"],
                generators=tuple(g["generators"]),
                named_subgroups={k: tuple(v) for k, v in g["named_subgroups"].items()},
            )
            for name, g in group_specs.items()
        }
        self.groups: dict = {}

    def build(self, names) -> None:
        for name in names:
            base, _, sub = name.partition(".")
            spec = self.specs[base]
            self.groups[name] = spec.subgroup(sub) if sub else spec.group()

    def argv(self, job: dict) -> list[str]:
        return [self.paths[a[1:]] if a.startswith("@") else a for a in job["argv"]]


def run(job: dict, ctx: JobContext):
    """Execute one job; returns its raw output.  Exceptions propagate."""
    kind = job["kind"]
    G = ctx.groups
    if kind == "cli":
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            rc = cli.main(ctx.argv(job))
        return rc, out.getvalue()
    if kind == "revised_b_ff":
        return inv.revised_b(G[job["group"]], inv.FunctionField(job["q"]))
    if kind == "revised_b_q":
        return inv.revised_b(G[job["group"]], inv.RationalNumberField(M=job["M"]))
    if kind == "nsc":
        return groups_mod.normal_subgroups_with_cyclic_quotient(G[job["group"]])
    if kind == "prop_main":
        S3 = G["s3"]
        spec = inv.TwistSpec(q=job["q"], e=1, ctx=groups_mod.find_cyclic_complement(S3, S3))
        return ser.prop_main_check(S3, S3, spec, R=job["R"])
    if kind == "probe":
        S3 = G["s3"]
        base = braid_mod.class_vector_of(S3, [parse_cycles(s, 3) for s in job["base"]])
        pad = braid_mod.class_vector_of(S3, [parse_cycles(s, 3) for s in job["pad"]])
        return braid_mod.conway_parker_probe(S3, S3, base, pad, max_m=job["max_m"])
    if kind == "orbits":
        N, D = G[job["group"]], G[f"{job['group']}.{job['sub']}"]
        cv = braid_mod.class_vector_of(D, [parse_cycles(s, N.degree) for s in job["entries"]])
        return braid_mod.braid_orbits(D, N, cv)
    if kind == "h2":
        N, G1 = G["klueners"], G["klueners.G1"]
        spec = inv.TwistSpec(q=job["q"], e=1, ctx=groups_mod.find_cyclic_complement(N, G1))
        return ser.h2_desk_scale(G1, N, spec, job["R"])
    raise ValueError(f"unknown job kind {kind!r}")


def _cli_summary(argv0: str, rc: int, text: str) -> dict:
    if rc != 0:
        return {"rc": rc}
    report = json.loads(text)
    out = report["outputs"]
    if argv0 == "invariants":
        return {
            "rc": rc,
            "a": out["a"],
            "b": out["b"],
            "b_by_e": sorted(out["b_by_e"].values()),
            "asymptotic": out["asymptotic"],
            "minimal_index": out["minimal_index"],
            "minimal_class_count": len(out["minimal_classes"]),
            "inputs": report["inputs"],
        }
    if argv0 == "series":
        return {
            "rc": rc,
            "a": out["a"],
            "b": out["b"],
            "factors": sorted(out["factors"]),
            "oracle_match": out["oracle_match"],
            "coefficients": [out["coefficients"][str(r)] for r in range(len(out["coefficients"]))],
            "fit_ok": out.get("fit", {}).get("ok"),
        }
    if argv0 == "conjecture":
        return {
            "rc": rc,
            "a": out["a"],
            "b": out["b"],
            "asymptotic": out["asymptotic"],
            "rows": _multiset(out["rows"]),
            "warnings": report["warnings"],
        }
    if argv0 == "verify":
        return {"rc": rc, "all_ok": out["all_ok"], "checks": out["checks"]}
    if argv0 == "braid":
        return {
            "rc": rc,
            "orbit_count": out["orbit_count"],
            "orbit_sizes": sorted(out["orbit_sizes"]),
            "tuple_count": out["tuple_count"],
            "stable_orbit_count": out.get("stable_orbit_count"),
        }
    raise ValueError(f"no summary for CLI command {argv0!r}")


def summary(job: dict, raw) -> dict:
    """The relabelling-invariant fields of a job's output."""
    kind = job["kind"]
    if kind == "cli":
        rc, text = raw
        return _cli_summary(job["argv"][0], rc, text)
    if kind in ("revised_b_ff", "revised_b_q"):
        rows = [[r.G_order, _canon(r.a), r.quotient_order, r.status, r.b] for r in raw.rows]
        return {"value": raw.value, "rows": _multiset(rows), "warnings": list(raw.warnings)}
    if kind == "nsc":
        return {"orders": sorted(H.order for H in raw)}
    if kind == "prop_main":
        return {"m": raw.m, "c1": _canon(raw.c1), "violated": raw.violated}
    if kind == "probe":
        return {"counts": [list(c) for c in raw.counts], "truncated": raw.truncated}
    if kind == "orbits":
        return {"orbit_sizes": sorted(o.size for o in raw)}
    if kind == "h2":
        return {"table": {str(r): v for r, v in sorted(raw.items())}}
    raise ValueError(f"unknown job kind {kind!r}")


def check(job: dict, got: dict, expected: dict) -> str | None:
    """None if `got` matches the expected value, else a short reason."""
    want = expected.get(job["key"])
    if want is None:
        return f"no expected value for {job['key']}"
    if job["key"].startswith("series|"):
        R = job["R"]
        want = dict(want)
        want["coefficients"] = want["coefficients"][: R + 1]
        want["fit_ok"] = want.pop("fit_ok_by_R")[str(R)]
    if got != want:
        diff = sorted(k for k in set(got) | set(want) if got.get(k) != want.get(k))
        return f"{job['key']}: mismatch in {diff}"
    return None
