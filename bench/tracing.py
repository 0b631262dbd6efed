"""Spans and counts around the public functions of each malle_lab module.

The traced run replaces each listed function with a wrapper that records
a span (job id, name, parent span, start, end, and one count taken from
the result) in an in-memory list.  Hot permutation methods get a bare
counter instead, because a timer around ``Permutation.__mul__`` would
swamp it.  After the round the spans are written out and reduced to
per-layer metrics; a layer's time is the self time of its spans, that
is, each span's duration minus the durations of its child spans.

Layers are the malle_lab modules.  `braid._enumerate_idx` is the one
private boundary: tuple enumeration has no public entry point inside
`braid_orbits`.  A listed name that a later version of the program no
longer has is skipped and reported, and its metrics read 0.
"""

from __future__ import annotations

import importlib
import json
import sys
import time

perf = time.perf_counter

LATTICE = "groups.lattice"

# (module, attribute, span name, count taken from the result or None)
SPANS = (
    ("malle_lab.groups", "closure", "groups.closure", None),
    ("malle_lab.groups", "subgroup_generated", "groups.subgroup_generated", None),
    ("malle_lab.groups", "normal_subgroups_with_abelian_quotient", LATTICE, len),
    ("malle_lab.groups", "normal_subgroups_with_cyclic_quotient", LATTICE, len),
    ("malle_lab.groups", "derived_subgroup", "groups.derived", None),
    ("malle_lab.groups", "FiniteGroup.conjugacy_classes", "groups.classes", None),
    ("malle_lab.groups", "FiniteGroup.class_of", "groups.class_of", None),
    ("malle_lab.groups", "find_cyclic_complement", "groups.complement", None),
    ("malle_lab.invariants", "orbit_blocks", "invariants.orbit_blocks", None),
    ("malle_lab.invariants", "b_report", "invariants.b_report", None),
    ("malle_lab.invariants", "b_phi", "invariants.b_phi", None),
    ("malle_lab.invariants", "revised_b", "invariants.revised_b", None),
    ("malle_lab.braid", "braid_orbits", "braid.orbits", lambda r: sum(o.size for o in r)),
    ("malle_lab.braid", "_enumerate_idx", "braid.enumerate", None),
    ("malle_lab.braid", "frobenius_stable_orbits", "braid.stable", None),
    ("malle_lab.braid", "conway_parker_probe", "braid.probe", None),
    ("malle_lab.series", "brute_force_h3", "series.brute_force", None),
    ("malle_lab.series", "expand", "series.expand", None),
    ("malle_lab.series", "tauberian_fit", "series.tauberian", None),
    ("malle_lab.series", "h2_desk_scale", "series.h2", None),
    ("malle_lab.series", "prop_main_check", "series.prop_main", None),
    ("malle_lab.cli", "main", "cli.main", None),
    ("malle_lab.report", "dump_report", "report.dump", len),
    ("malle_lab.presets", "GroupSpecFile.group", "presets.group", None),
    ("malle_lab.presets", "GroupSpecFile.subgroup", "presets.group", None),
)

# (module, attribute, counter name): call counts only, no span
COUNTERS = (
    ("malle_lab.perms", "Permutation.__mul__", "perms.mul"),
    ("malle_lab.perms", "Permutation.inverse", "perms.inverse"),
    ("malle_lab.perms", "Permutation.__pow__", "perms.pow"),
    ("malle_lab.invariants", "twist_class", "invariants.twist_class"),
)


def _self(span):
    return lambda a: a["self"].get(span, 0.0)


def _calls(span):
    return lambda a: a["calls"].get(span, 0)


def _count(span):
    return lambda a: a["count"].get(span, 0)


def _counter(name):
    return lambda a: a["counters"].get(name, 0)


# Per-layer metrics: (name, unit, value from the aggregate).  Every `_s`
# metric is self time.  trace.overhead_frac is added by the coordinator.
LAYER_METRICS = (
    ("perms.mul_calls", "count", _counter("perms.mul")),
    ("perms.inverse_calls", "count", _counter("perms.inverse")),
    ("perms.pow_calls", "count", _counter("perms.pow")),
    ("groups.subgroup_generated_s", "s", _self("groups.subgroup_generated")),
    ("groups.subgroup_generated_calls", "count", _calls("groups.subgroup_generated")),
    ("groups.lattice_s", "s", _self(LATTICE)),
    ("groups.lattice_found", "count", lambda a: a["lattice_found"]),
    ("groups.lattice_yield", "ratio",
     lambda a: a["lattice_found"] / max(1, a["lattice_attempts"])),
    ("groups.closure_s", "s", _self("groups.closure")),
    ("groups.closure_calls", "count", _calls("groups.closure")),
    ("groups.derived_s", "s", _self("groups.derived")),
    ("groups.classes_s", "s", _self("groups.classes")),
    ("groups.class_of_calls", "count", _calls("groups.class_of")),
    ("groups.class_of_s", "s", _self("groups.class_of")),
    ("groups.complement_s", "s", _self("groups.complement")),
    ("invariants.twist_class_calls", "count", _counter("invariants.twist_class")),
    ("invariants.orbit_blocks_s", "s", _self("invariants.orbit_blocks")),
    ("invariants.b_report_s", "s", _self("invariants.b_report")),
    ("invariants.b_phi_s", "s", _self("invariants.b_phi")),
    ("invariants.revised_b_self_s", "s", _self("invariants.revised_b")),
    ("braid.orbits_s", "s", _self("braid.orbits")),
    ("braid.orbits_calls", "count", _calls("braid.orbits")),
    ("braid.canonical_tuples", "count", _count("braid.orbits")),
    ("braid.enumerate_s", "s", _self("braid.enumerate")),
    ("braid.stable_s", "s", _self("braid.stable")),
    ("braid.probe_s", "s", _self("braid.probe")),
    ("series.brute_force_s", "s", _self("series.brute_force")),
    ("series.expand_s", "s", _self("series.expand")),
    ("series.tauberian_s", "s", _self("series.tauberian")),
    ("series.h2_self_s", "s", _self("series.h2")),
    ("series.prop_main_self_s", "s", _self("series.prop_main")),
    ("cli.self_s", "s", _self("cli.main")),
    ("report.dump_s", "s", _self("report.dump")),
    ("report.bytes", "bytes", _count("report.dump")),
    ("presets.group_s", "s", _self("presets.group")),
)


class Tracer:
    """Records spans and counts while installed; one instance per round."""

    def __init__(self):
        # span: [job, name, parent index, start, end, count]
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.counters = {name: [0] for _, _, name in COUNTERS}
        self.job = "setup"
        self.missing: list[str] = []
        self._restore: list = []

    # -- installation ----------------------------------------------------

    def install(self) -> None:
        for module, attr, name, count in SPANS:
            self._patch(module, attr, lambda fn, n=name, c=count: self._span_wrapper(fn, n, c))
        for module, attr, name in COUNTERS:
            self._patch(module, attr, lambda fn, n=name: self._count_wrapper(fn, n))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    def _patch(self, module: str, attr: str, make) -> None:
        mod = importlib.import_module(module)
        cls_name, _, meth = attr.rpartition(".")
        owner = getattr(mod, cls_name, None) if cls_name else mod
        original = getattr(owner, meth, None) if owner is not None else None
        if original is None:
            self.missing.append(f"{module}.{attr}")
            return
        wrapper = make(original)
        if cls_name:
            self._restore.append((owner, meth, original))
            setattr(owner, meth, wrapper)
            return
        # functions are imported by name into other modules: patch every
        # binding of the same object
        for name, m in list(sys.modules.items()):
            if not (name == "malle_lab" or name.startswith("malle_lab.") or name == "jobs"):
                continue
            for key, value in list(vars(m).items()):
                if value is original:
                    self._restore.append((m, key, original))
                    setattr(m, key, wrapper)

    def _span_wrapper(self, fn, name, count):
        spans, stack = self.spans, self.stack

        def wrapper(*args, **kwargs):
            rec = [self.job, name, stack[-1] if stack else -1, perf(), 0.0, 0]
            stack.append(len(spans))
            spans.append(rec)
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[4] = perf()
                stack.pop()
            if count is not None:
                rec[5] = count(result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _count_wrapper(self, fn, name):
        cell = self.counters[name]

        # positional only: the counted functions take no keywords, and a
        # **kwargs dict per call would double the cost on __mul__
        def wrapper(*args):
            cell[0] += 1
            return fn(*args)

        wrapper.__wrapped__ = fn
        return wrapper

    # -- job boundaries --------------------------------------------------

    def begin(self, job) -> None:
        """Open the root span of a job; its spans share the job's id."""
        self.job = job
        self.stack.append(len(self.spans))
        self.spans.append([job, "job", -1, perf(), 0.0, 0])

    def end(self) -> None:
        self.spans[self.stack.pop()][4] = perf()

    # -- output ----------------------------------------------------------

    def write(self, path: str) -> None:
        with open(path, "w") as fh:
            json.dump({"fields": ["job", "name", "parent", "start", "end", "count"],
                       "spans": self.spans,
                       "counters": {k: v[0] for k, v in self.counters.items()}}, fh)

    def aggregate(self) -> dict:
        """Self time, calls and summed counts per span name; ratios' inputs."""
        spans = self.spans
        child = [0.0] * len(spans)
        for job, name, parent, start, end, count in spans:
            if parent >= 0:
                child[parent] += end - start
        agg = {"self": {}, "calls": {}, "count": {}, "lattice_found": 0, "lattice_attempts": 0,
               "counters": {k: v[0] for k, v in self.counters.items()}}
        under_lattice = [False] * len(spans)
        for i, (job, name, parent, start, end, count) in enumerate(spans):
            inside = parent >= 0 and under_lattice[parent]
            under_lattice[i] = inside or name == LATTICE
            if name == LATTICE and not inside:
                agg["lattice_found"] += count
            if name == "groups.subgroup_generated" and inside:
                agg["lattice_attempts"] += 1
            agg["self"][name] = agg["self"].get(name, 0.0) + (end - start) - child[i]
            agg["calls"][name] = agg["calls"].get(name, 0) + 1
            agg["count"][name] = agg["count"].get(name, 0) + count
        return agg

    def metrics(self) -> dict:
        agg = self.aggregate()
        return {name: fn(agg) for name, _, fn in LAYER_METRICS}
