"""Command-line entry point: malle-lab.

Commands; each takes only the flags its handler reads, after the command
name (`malle-lab COMMAND --help` lists them):
  invariants  a, d, d', per-e twist-orbit counts, b, growth formula
  conjecture  revised constant: max b over admissible normal subgroups
  braid       orbit decomposition of the braid action for a class vector
  series      Euler-product expansion, oracle check, pole report, fit
  verify      run a named golden scenario and diff against expected values
  presets     list shipped scenarios

Exit codes: 0 success, 1 computation error, 2 usage error (a flag argparse
refuses, with its usage line, or an --out path that cannot be written) or
parse/validation error, 3 golden mismatch.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import asdict
from functools import cache

from . import braid as braid_mod
from . import errors as err
from . import invariants as inv
from . import series as ser
from .groups import FiniteGroup, GNContext, a_invariant
from .perms import format_cycles, parse_cycles
from .presets import GroupSpecFile, abelian_q, abelian_suite, get_preset, preset_names
from .report import build_report, dump_report

VALIDATION_ERRORS = (
    err.ParseError,
    err.PointOutOfRange,
    err.DegreeMismatch,
    err.UnknownPreset,
    err.BadModulus,
    err.NotASubgroup,
    err.NonCyclicQuotient,
    err.TrivialClassPresent,
    err.UnknownSubgroup,
    err.NotAPrimePower,
    err.FieldSizeOutOfRange,
    ValueError,
)


def _cycle_strings(value, what: str) -> tuple[str, ...]:
    if not isinstance(value, list) or not all(isinstance(s, str) for s in value):
        raise err.ParseError(f"{what} must be a list of cycle-notation strings", position=0)
    return tuple(value)


def load_group_spec(path: str) -> GroupSpecFile:
    try:
        with open(path) as fh:
            data = json.load(fh)
    except OSError as exc:
        raise err.ParseError(f"cannot read group file: {exc}", position=0)
    except json.JSONDecodeError as exc:
        raise err.ParseError(f"invalid JSON in group file: {exc}", position=exc.pos)
    if not isinstance(data, dict) or not isinstance(data.get("named_subgroups", {}), dict):
        raise err.ParseError("group file and its named_subgroups must be JSON objects", position=0)
    degree = data.get("degree")
    if type(degree) is not int or degree < 1:
        raise err.ParseError(f"degree must be a JSON integer >= 1, got {degree!r}", position=0)
    named = {
        name: _cycle_strings(gens, f"named subgroup {name!r}")
        for name, gens in data.get("named_subgroups", {}).items()
    }
    generators = _cycle_strings(data.get("generators"), "generators")
    return GroupSpecFile(degree=degree, generators=generators, named_subgroups=named)


def resolve_spec(args) -> GroupSpecFile:
    # argparse admits exactly one of --group and --preset
    return get_preset(args.preset).spec if args.group is None else load_group_spec(args.group)


def resolve_pair(args) -> GNContext:
    # pair raises NotASubgroup if the named subgroup is not normal
    return resolve_spec(args).pair(args.normal)


def ctx_inputs(ctx: GNContext, q=None) -> dict:
    out = {
        "n": ctx.N.degree,
        "order_N": ctx.N.order,
        "order_G": ctx.G.order,
        "d": ctx.d,
        "d_prime": ctx.d_prime,
        "split": ctx.split,
    }
    if q is not None:
        out["q"] = q
    return out


def cmd_invariants(args) -> dict:
    ctx = resolve_pair(args)
    warnings = []
    if not ctx.split:
        warnings.append(inv.NON_SPLIT_WARNING)
    report = inv.b_table(ctx, args.q)
    a = a_invariant(ctx.G)
    outputs = {
        "a": a,
        "b": report.value,
        "b_by_e": report.by_e,
        "argmax_e": report.argmax,
        "asymptotic": inv.render_growth(a, report.value),
        "minimal_index": int(1 / a),
        "minimal_classes": sorted(
            format_cycles(c.representative) for c in inv.minimal_index_classes(ctx.G)
        ),
    }
    return build_report("invariants", ctx_inputs(ctx, args.q), outputs, warnings)


def cmd_conjecture(args) -> dict:
    spec = resolve_spec(args)
    N = spec.group()
    report = inv.revised_b(N, inv.FunctionField(args.q))
    a = a_invariant(N)
    rows = [
        {
            "order_G": r.G_order,
            "a": r.a,
            "quotient_order": r.quotient_order,
            "status": r.status,
            "b": r.b,
        }
        for r in report.rows
    ]
    outputs = {
        "b": report.value,
        "a": a,
        "asymptotic": inv.render_growth(a, report.value),
        "rows": rows,
    }
    inputs = {"n": N.degree, "order_N": N.order, "q": args.q}
    return build_report("conjecture", inputs, outputs, list(report.warnings))


def parse_class_vector(text: str, G: FiniteGroup) -> braid_mod.ClassVector:
    entries = []
    for part in text.split(","):
        part = part.strip()
        if not part:
            continue
        p = parse_cycles(part, G.degree)
        if p not in G:
            raise err.NotASubgroup(f"entry {part!r} is not in the subgroup")
        entries.append(p)
    if not entries:
        raise err.ParseError("empty class vector", position=0)
    return braid_mod.class_vector_of(G, entries)


def cmd_braid(args) -> dict:
    ctx = resolve_pair(args)
    ctx.conjugator(args.e)  # raises ValueError unless e is admissible
    cv = parse_class_vector(args.classes, ctx.G)
    orbits = braid_mod.braid_orbits(ctx.G, ctx.N, cv)
    warnings = []
    outputs: dict = {
        "class_vector": repr(cv),
        "orbit_count": len(orbits),
        "orbit_sizes": [o.size for o in orbits],
        "tuple_count": sum(o.size for o in orbits),
    }
    if args.q is not None:
        spec = inv.TwistSpec(q=args.q, e=args.e, ctx=ctx)
        stable = braid_mod.frobenius_stable_orbits(orbits, spec)
        outputs["stable_orbit_count"] = len(stable)
        warnings.append(braid_mod.FROBENIUS_MODEL_WARNING)
    return build_report("braid", ctx_inputs(ctx, args.q), outputs, warnings)


def cmd_series(args) -> dict:
    ctx = resolve_pair(args)
    q = args.q
    R = args.terms
    spec = inv.TwistSpec(q=q, e=args.e, ctx=ctx)
    warnings = []
    if not ctx.split:
        warnings.append(inv.NON_SPLIT_WARNING)
    blocks = inv.orbit_blocks(spec, restrict_minimal=False)
    gf = ser.euler_product(blocks, q)
    table = ser.expand(gf, R)
    oracle = ser.brute_force_h3(blocks, q, R)
    oracle_ok = table.values == oracle.values
    pole = ser.dominant_pole(gf)
    warnings.append(pole.caveat)
    outputs: dict = {
        "factors": [list(f) for f in gf.factors],
        "a": pole.a,
        "b": pole.b,
        "oracle_match": oracle_ok,
        "coefficients": table.values,
    }
    if R >= 40:
        outputs["fit"] = asdict(ser.tauberian_fit(table, pole))
    else:
        warnings.append("tauberian fit skipped: fewer than 40 terms")
    return build_report("series", ctx_inputs(ctx, q), outputs, warnings)


def cmd_presets(args) -> dict:
    outputs = {
        name: {
            "description": get_preset(name).description,
            "q_values": list(get_preset(name).q_values),
        }
        for name in preset_names()
    }
    return build_report("presets", {}, outputs, [])


# --------------------------------------------------------------------------
# verify: golden scenarios


def _check(expected, got, ok: bool | None = None) -> dict:
    """One verify check; `ok` defaults to got == expected."""
    return {"expected": expected, "got": got, "ok": got == expected if ok is None else ok}


def _verify_klueners_s6(preset) -> tuple[dict, list[str]]:
    exp = preset.expected
    ctx = preset.spec.pair(exp["subgroup"])
    checks = {}
    a = a_invariant(ctx.G)
    checks["a"] = _check(exp["a"], a)
    formulas = {}  # distinct growth formulas over q, in q order
    for q in preset.q_values:
        b = inv.b_constant(ctx, q)
        checks[f"b_q{q}"] = _check(exp["b"], b)
        formulas[inv.render_growth(a, b)] = None
    checks["asymptotic"] = _check(
        exp["asymptotic"], "; ".join(formulas), list(formulas) == [exp["asymptotic"]]
    )
    return checks, []


def _verify_wreath_s18(preset) -> tuple[dict, list[str]]:
    exp = preset.expected
    checks = {}
    for name in exp["subgroups"]:
        ctx = preset.spec.pair(name)
        a = a_invariant(ctx.G)
        checks[f"{name}_a"] = _check(exp["a"], a)
        for q in preset.q_values:
            b = inv.b_constant(ctx, q)
            checks[f"{name}_b_q{q}"] = _check(exp["b"], b)
    return checks, []


def _verify_abelian_suite(preset) -> tuple[dict, list[str]]:
    checks = {}
    warnings = []
    for label, spec in sorted(abelian_suite().items()):
        # none of the pairs depends on q
        ctx_N = spec.pair()
        pairs = [ctx for ctx in spec.cyclic_pairs() if ctx.G.order != 1]
        for ctx in pairs:
            if not ctx.split:
                warnings.append(f"{label}: non-split subgroup of order {ctx.G.order}")
        for q in abelian_q(label):
            b_N = inv.b_table(ctx_N, q).value
            for ctx in pairs:
                b_G = inv.b_table(ctx, q).value
                checks[f"{label}_q{q}_order{ctx.G.order}"] = _check(f"b <= {b_N}", b_G, b_G <= b_N)
    return checks, warnings


def _verify_s3_clebsch(preset) -> tuple[dict, list[str]]:
    spec = preset.spec
    N = spec.group()
    transposition = parse_cycles("(1 2)", 3)
    cv = braid_mod.class_vector_of(N, [transposition] * 4)
    orbits = braid_mod.braid_orbits(N, N, cv)
    exp = preset.expected
    checks = {
        "tuple_count": _check(exp["transposition_tuples_k4"], braid_mod.nielsen_count(N, cv)),
        "connected": _check(exp["braid_connected"], len(orbits) == 1),
    }
    return checks, []


def _verify_klueners_q(preset) -> tuple[dict, list[str]]:
    spec = preset.spec
    N = spec.group()
    exp = preset.expected
    report = inv.revised_b(N, inv.RationalNumberField(M=exp["M"]))
    checks = {"b_phi_max": _check(exp["b_phi_max"], report.value)}
    return checks, list(report.warnings)


_VERIFIERS = {
    "klueners-s6": _verify_klueners_s6,
    "wreath-s18": _verify_wreath_s18,
    "abelian-suite": _verify_abelian_suite,
    "s3-clebsch": _verify_s3_clebsch,
    "klueners-q": _verify_klueners_q,
}


def cmd_verify(args) -> dict:
    preset = get_preset(args.preset)
    checks, warnings = _VERIFIERS[preset.name](preset)
    ok = all(c["ok"] for c in checks.values())
    outputs = {"checks": checks, "all_ok": ok}
    report = build_report("verify", {"preset": preset.name}, outputs, warnings)
    report["exit_hint"] = 0 if ok else 3
    return report


COMMANDS = {
    "invariants": cmd_invariants,
    "conjecture": cmd_conjecture,
    "braid": cmd_braid,
    "series": cmd_series,
    "verify": cmd_verify,
    "presets": cmd_presets,
}


@cache
def build_parser() -> argparse.ArgumentParser:
    """One sub-parser per command, declaring only the flags its handler reads."""
    parser = argparse.ArgumentParser(
        prog="malle-lab",
        description="permutation-group counting constants and braid orbits",
    )
    commands = parser.add_subparsers(dest="command", required=True)
    sub = {name: commands.add_parser(name) for name in COMMANDS}
    for name in ("invariants", "conjecture", "braid", "series"):
        source = sub[name].add_mutually_exclusive_group(required=True)
        source.add_argument("--group", help="path to a JSON group-spec file")
        source.add_argument("--preset", help="named preset scenario")
        if name != "conjecture":
            sub[name].add_argument("--normal", help="name of a named subgroup to use as G")
        sub[name].add_argument(
            "--q", type=int, required=name != "braid", help="field size, a prime power coprime to |N|"
        )
    sub["braid"].add_argument(
        "--classes", required=True, help="comma-separated cycle-notation class-vector entries"
    )
    for name in ("braid", "series"):
        sub[name].add_argument("--e", type=int, default=1, help="twist type (default %(default)s)")
    sub["series"].add_argument("--terms", type=int, default=40, help="series order R (default %(default)s)")
    sub["verify"].add_argument("--preset", required=True, help="named preset scenario")
    for p in sub.values():
        p.add_argument("--out", help="write the JSON report to this file")
    # main parses an argv that starts with a command by its sub-parser alone
    parser.command_parsers = sub
    return parser


def report_error(exc: Exception, exit_code: int) -> int:
    """Write exc to stderr as one JSON line and return exit_code."""
    print(json.dumps({"error": str(exc), "code": type(exc).__name__}), file=sys.stderr)
    return exit_code


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    if argv is None:
        argv = sys.argv[1:]
    try:
        if argv and argv[0] in COMMANDS:
            # one pass: the sub-parser that the top parser would hand the
            # rest to, then the top parser's own error for what it leaves
            command = argv[0]
            args, extra = parser.command_parsers[command].parse_known_args(argv[1:])
            if extra:
                parser.error(f"unrecognized arguments: {' '.join(extra)}")
        else:
            args = parser.parse_args(argv)
            command = args.command
    except SystemExit as exc:
        return 2 if exc.code else 0
    try:
        report = COMMANDS[command](args)
    except (*VALIDATION_ERRORS, err.MalleLabError) as exc:
        return report_error(exc, 2 if isinstance(exc, VALIDATION_ERRORS) else 1)
    exit_code = report.pop("exit_hint", 0)
    text = dump_report(report)
    if not args.out:
        sys.stdout.write(text)
        return exit_code
    try:
        with open(args.out, "w") as fh:
            fh.write(text)
    except OSError as exc:  # an --out path that cannot be written is a usage error
        return report_error(exc, 2)
    return exit_code


if __name__ == "__main__":
    sys.exit(main())
