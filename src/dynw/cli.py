"""Command-line dispatch.

Subcommand groups: dynatomic, portrait, model, ff, classify, sweep,
reproduce.  Exit codes: 0 success, 1 domain error, 2 usage error.  For a
fixed argv and configuration, stdout is byte-identical across runs; wall
-clock timings (reproduce) go to stderr.

Portrait arguments accept either a literal "N:t1,...,tN" string or a path
to a file containing one.  Model files are the JSON documents emitted by
the `model` commands (schema_version 1).
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from fractions import Fraction
from pathlib import Path

from . import catalog as cat
from . import classify as cls
from . import dynatomic as dyn
from . import fflab
from . import models as mdl
from .config import from_env
from .errors import DynwError
from .ff import FFContext
from .portraits import (
    CycleStructure,
    Portrait,
    automorphism_group,
    cycle_structure,
    embeddings,
    enumerate_generic,
    minimal_extensions,
    validate_generic,
)
from .rational import format_rational, parse_rational

SCHEMA_VERSION = 1


def _emit(doc) -> None:
    sys.stdout.write(json.dumps(doc, sort_keys=True, indent=2) + "\n")


def _load_portrait(arg: str) -> Portrait:
    text = arg
    if ":" not in arg:
        path = Path(arg)
        if path.exists():
            text = path.read_text().strip()
    elif Path(arg).exists():
        text = Path(arg).read_text().strip()
    return Portrait.from_text(text)


def _fraction_str(q) -> str:
    return format_rational(Fraction(q))


# ------------------------------------------------------------------- dynatomic


def _cmd_dynatomic_poly(args, config) -> int:
    table = dyn.dynatomic(args.n, config)
    if args.json:
        _emit(
            {
                "schema_version": SCHEMA_VERSION,
                "n": table.n,
                "phi": str(table.phi),
                "degree_x": table.degree_x,
                "degree_c": table.degree_c,
            }
        )
    else:
        print(table.phi)
    return 0


def _cmd_dynatomic_degrees(args, config) -> int:
    r = dyn.degree_report(args.n)
    if args.json:
        _emit(
            {
                "schema_version": SCHEMA_VERSION,
                "n": r.n,
                "D1": r.D1,
                "D0": r.D0,
                "B": r.B,
                "genus_lb": _fraction_str(r.genus_lb),
            }
        )
    else:
        print(f"n={r.n} D1={r.D1} D0={r.D0} B={r.B} genus_lb={_fraction_str(r.genus_lb)}")
    return 0


def _cmd_dynatomic_check_bounds(args, config) -> int:
    rows = [dyn.check_degree_bounds(n) for n in range(1, args.max + 1)]
    bad = [r for r in rows if not r.ok]
    if args.json:
        _emit(
            {
                "schema_version": SCHEMA_VERSION,
                "max": args.max,
                "all_ok": not bad,
                "rows": [
                    {
                        "n": r.n,
                        "D1": r.D1,
                        "lower": r.lower,
                        "upper": r.upper,
                        "lower_strict": r.lower_strict,
                        "upper_strict": r.upper_strict,
                        "ok": r.ok,
                    }
                    for r in rows
                ],
            }
        )
    else:
        for r in rows:
            strictness = f"strict_low={int(r.lower_strict)} strict_high={int(r.upper_strict)}"
            print(f"n={r.n} {r.lower} <= D1={r.D1} <= {r.upper} {strictness} ok={int(r.ok)}")
    return 0 if not bad else 1


def _cmd_dynatomic_asymptotic(args, config) -> int:
    r = dyn.asymptotic_genus_check(args.n)
    if args.json:
        _emit(
            {
                "schema_version": SCHEMA_VERSION,
                "n": r.n,
                "chain_holds": r.chain_holds,
                "lhs": r.lhs,
                "rhs": r.rhs,
                "B": r.B,
                "six_D0": r.six_d0,
                "B_exceeds_six_D0": r.b_exceeds_six_d0,
            }
        )
    else:
        print(
            f"n={r.n} chain_holds={int(r.chain_holds)} lhs={r.lhs} rhs={r.rhs} "
            f"B={r.B} six_D0={r.six_d0} B_exceeds={int(r.b_exceeds_six_d0)}"
        )
    return 0


# -------------------------------------------------------------------- portrait


def _cmd_portrait_validate(args, config) -> int:
    P = _load_portrait(args.portrait)
    report = validate_generic(P)
    if args.json:
        _emit(
            {
                "schema_version": SCHEMA_VERSION,
                "portrait": P.to_text(),
                "cycle_structure": str(cycle_structure(P)),
                "generic": report.is_generic,
                "violations": [
                    {"rule": v.rule, "detail": v.detail} for v in report.violations
                ],
            }
        )
    else:
        print(f"portrait {P.to_text()} cycle_structure={cycle_structure(P)}")
        print(f"generic: {'yes' if report.is_generic else 'no'}")
        for v in report.violations:
            print(f"violation[{v.rule}]: {v.detail}")
    return 0


def _cmd_portrait_enumerate(args, config) -> int:
    sigma = CycleStructure.parse(args.cycles)
    classes = enumerate_generic(args.n, sigma)
    if args.json:
        _emit(
            {
                "schema_version": SCHEMA_VERSION,
                "n": args.n,
                "cycles": str(sigma),
                "count": len(classes),
                "classes": [P.to_text() for P in classes],
            }
        )
    else:
        for P in classes:
            print(P.to_text())
        print(f"count: {len(classes)}")
    return 0


def _cmd_portrait_autgroup(args, config) -> int:
    P = _load_portrait(args.portrait)
    auts = automorphism_group(P)
    if args.json:
        _emit(
            {
                "schema_version": SCHEMA_VERSION,
                "portrait": P.to_text(),
                "order": len(auts),
                "automorphisms": [list(a) for a in auts],
            }
        )
    else:
        print(f"order: {len(auts)}")
        for a in auts:
            print(",".join(str(v) for v in a))
    return 0


def _cmd_portrait_embeds(args, config) -> int:
    sub = _load_portrait(args.sub)
    sup = _load_portrait(args.super)
    maps = embeddings(sub, sup)
    if args.json:
        _emit(
            {
                "schema_version": SCHEMA_VERSION,
                "sub": sub.to_text(),
                "super": sup.to_text(),
                "count": len(maps),
                "embeddings": [list(m) for m in maps],
            }
        )
    else:
        print(f"count: {len(maps)}")
        for m in maps:
            print(",".join(str(v) for v in m))
    return 0


def _cmd_portrait_catalog(args, config) -> int:
    entries = cat.catalog()
    if args.json:
        _emit(
            {
                "schema_version": SCHEMA_VERSION,
                "entries": [
                    {
                        "label": e.label,
                        "portrait": e.portrait.to_text(),
                        "cycle_structure": str(e.cycle_structure),
                        "genus": e.genus,
                        "degenerate": e.degenerate,
                        "notes": e.notes,
                    }
                    for e in entries
                ],
            }
        )
    else:
        for e in entries:
            genus = "-" if e.genus is None else str(e.genus)
            flag = " degenerate" if e.degenerate else ""
            print(f"{e.label:12s} {e.portrait.to_text():32s} genus={genus}{flag}")
    return 0


def _cmd_portrait_extensions(args, config) -> int:
    P = _load_portrait(args.portrait)
    exts = minimal_extensions(P, args.b)
    if args.json:
        _emit(
            {
                "schema_version": SCHEMA_VERSION,
                "portrait": P.to_text(),
                "bound": args.b,
                "count": len(exts),
                "extensions": [
                    {
                        "portrait": Q.to_text(),
                        "label": (cat.match(Q).label if cat.match(Q) else None),
                    }
                    for Q in exts
                ],
            }
        )
    else:
        for Q in exts:
            entry = cat.match(Q)
            label = f"  [{entry.label}]" if entry else ""
            print(f"{Q.to_text()}{label}")
        print(f"count: {len(exts)}")
    return 0


# ----------------------------------------------------------------------- model


def _cmd_model_full(args, config) -> int:
    P = _load_portrait(args.portrait)
    sys.stdout.write(mdl.model_to_json(mdl.full_model(P)))
    return 0


def _cmd_model_reduced(args, config) -> int:
    P = _load_portrait(args.portrait)
    sys.stdout.write(mdl.model_to_json(mdl.reduced_model(P, config)))
    return 0


def _cmd_model_multilevel(args, config) -> int:
    levels = [int(t) for t in args.cycles.strip().strip("()").split(",") if t.strip()]
    sys.stdout.write(mdl.model_to_json(mdl.multi_level_model(levels, config)))
    return 0


def _cmd_model_trace_check(args, config) -> int:
    r = mdl.trace_relation_check(args.p, config)
    if args.json:
        _emit(
            {
                "schema_version": SCHEMA_VERSION,
                "p": r.p,
                "points": r.points,
                "violations": [list(v) for v in r.violations],
            }
        )
    else:
        print(f"p={r.p} points={r.points} violations={len(r.violations)}")
        for c0, x0 in r.violations:
            print(f"violation at (c,x)=({c0},{x0})")
    return 0 if not r.violations else 1


# -------------------------------------------------------------------------- ff


def _cmd_ff_count(args, config) -> int:
    """Count serially in this process; the enumeration cap is checked before
    the field's modulus is searched for."""
    model = mdl.model_from_json(Path(args.model).read_text())
    r = fflab.count_points(model, args.p, args.k, config)
    if args.json:
        _emit(
            {
                "schema_version": SCHEMA_VERSION,
                "model": r.model_id,
                "q": r.q,
                "affine_count": r.affine_count,
                "nonsingular_count": r.nonsingular_count,
                "cross_count": r.cross_count,
                "violations": r.violations,
            }
        )
    else:
        extra = ""
        if r.nonsingular_count is not None:
            extra = f" nonsingular={r.nonsingular_count}"
        print(f"model={r.model_id} q={r.q} affine={r.affine_count}{extra}")
        for v in r.violations:
            print(f"violation: {v}")
    return 0 if not r.violations else 1


def _cmd_ff_gonality_lb(args, config) -> int:
    print(fflab.gonality_lower_bound(args.count, args.q))
    return 0


def _cmd_ff_cs(args, config) -> int:
    r = fflab.cs_obstruction(
        fflab.CSQuery(g=args.g, g1=args.g1, g2=args.g2, d1=args.d1, d2=args.d2)
    )
    if args.json:
        _emit(
            {
                "schema_version": SCHEMA_VERSION,
                "g": args.g,
                "g1": args.g1,
                "g2": args.g2,
                "d1": args.d1,
                "d2": args.d2,
                "bound": r.bound,
                "inequality_holds": r.inequality_holds,
            }
        )
    else:
        verdict = "holds" if r.inequality_holds else "fails (common factor map forced)"
        print(f"bound={r.bound} inequality {verdict}")
    return 0


def _cmd_ff_max_period(args, config) -> int:
    fflab.check_enumeration_cap(args.p**args.k, 2, config)
    ctx = FFContext(args.p, args.k)
    r = fflab.max_period_mod(ctx, config)
    if args.json:
        _emit(
            {
                "schema_version": SCHEMA_VERSION,
                "p": r.p,
                "k": r.k,
                "q": r.q,
                "max_period": r.max_period,
                "witness_c": list(r.witness_c.coeffs),
            }
        )
    else:
        print(f"q={r.q} max_period={r.max_period} witness_c={list(r.witness_c.coeffs)}")
    return 0


# ------------------------------------------------------------ classify / sweep


def _cmd_classify(args, config) -> int:
    c = parse_rational(args.c)
    r = cls.classify(c)
    if args.json:
        _emit(
            {
                "schema_version": SCHEMA_VERSION,
                "c": _fraction_str(r.c),
                "portrait": r.portrait.to_text(),
                "label": r.label,
                "generic": r.generic,
                "point_count": r.point_count,
                "flags": r.flags,
                "points": [_fraction_str(x) for x in r.points],
            }
        )
    else:
        print(f"c={_fraction_str(r.c)} portrait={r.portrait.to_text()} label={r.label or '-'}")
        print(f"generic={'yes' if r.generic else 'no'} points={r.point_count} flags={','.join(r.flags) or '-'}")
        if r.points:
            print("preperiodic points: " + ", ".join(_fraction_str(x) for x in r.points))
    return 0


def _cmd_sweep(args, config) -> int:
    out_stream = None
    out_path = None
    if args.out:
        out_path = Path(args.out)
        out_stream = out_path.open("w")
    try:
        summary = cls.sweep(args.height, out_stream)
    finally:
        if out_stream:
            out_stream.close()
    print(f"height_bound={summary.height_bound} classified={len(summary.records)}")
    for label, count in summary.tally.items():
        print(f"{label:12s} {count}")
    print(f"anomalies: {len(summary.anomalies)}")
    for rec in summary.anomalies:
        print(f"anomaly: c={_fraction_str(rec.c)} portrait={rec.portrait.to_text()}")
    if out_path:
        print(f"records written to {out_path}", file=sys.stderr)
    return 0


# ------------------------------------------------------------------- reproduce


def _check(rows, name, expected, got) -> None:
    rows.append((name, str(expected), str(got), expected == got))


def _reproduce_figures(config) -> list:
    rows = []
    expected = [
        (8, (1, 1), 2), (10, (1, 1), 3), (8, (2,), 2), (10, (2,), 3),
        (8, (3,), 1), (10, (3,), 2), (10, (4,), 1), (10, (2, 1, 1), 2),
        (12, (2, 1, 1), 5), (12, (3, 1, 1), 2), (12, (3, 2), 2),
        (12, (3, 3), 1), (14, (3, 3), 1),
    ]
    for n, sig, want in expected:
        got = len(enumerate_generic(n, CycleStructure.of(sig)))
        _check(rows, f"classes n={n} cycles={sig}", want, got)
    return rows


def _reproduce_degrees(config) -> list:
    rows = []
    r3 = dyn.degree_report(3)
    _check(rows, "D1(3)", 6, r3.D1)
    _check(rows, "D0(3)", 2, r3.D0)
    _check(rows, "B(3)", 1, r3.B)
    _check(rows, "genus_lb(3)", "-1/2", _fraction_str(r3.genus_lb))
    r12 = dyn.degree_report(12)
    _check(rows, "D1(12)", 4020, r12.D1)
    _check(rows, "D0(12)", 335, r12.D0)
    _check(rows, "B(12)", 1959, r12.B)
    _check(rows, "genus_lb(12)", "1291/2", _fraction_str(r12.genus_lb))
    _check(rows, "n | D1(n) for n <= 64", True,
           all(dyn.degree_d1(n) % n == 0 for n in range(1, 65)))
    return rows


def _reproduce_trace(config) -> list:
    rows = []
    for p in (5, 7, 11, 13):
        r = mdl.trace_relation_check(p, config)
        _check(rows, f"trace violations p={p}", 0, len(r.violations))
    return rows


def _reproduce_sweep(config) -> list:
    rows = []
    r = cls.classify(Fraction(-3, 4))
    _check(rows, "classify(-3/4)", "4(1,1)", r.label)
    _check(rows, "classify(1)", "empty", cls.classify(Fraction(1)).label)
    _check(rows, "classify(-1) generic", False, cls.classify(Fraction(-1)).generic)
    summary = cls.sweep(20)
    _check(rows, "sweep(20) anomalies", 0, len(summary.anomalies))
    return rows


def _reproduce_bounds(config) -> list:
    rows = []
    _check(rows, "degree bounds ok for n <= 30", True,
           all(dyn.check_degree_bounds(n).ok for n in range(1, 31)))
    _check(rows, "asymptotic chain 25..200", True,
           all(dyn.asymptotic_genus_check(n).chain_holds for n in range(25, 201)))
    _check(rows, "asymptotic chain at 24 (reported)", False,
           dyn.asymptotic_genus_check(24).chain_holds)
    return rows


_REPORTS = {
    "figures": _reproduce_figures,
    "degrees": _reproduce_degrees,
    "trace": _reproduce_trace,
    "sweep": _reproduce_sweep,
    "bounds": _reproduce_bounds,
}


def _cmd_reproduce(args, config) -> int:
    if args.report not in _REPORTS:
        from .errors import UnknownReport

        raise UnknownReport(
            f"unknown report {args.report!r}; choose from {', '.join(sorted(_REPORTS))}"
        )
    t0 = time.monotonic()
    rows = _REPORTS[args.report](config)
    elapsed = time.monotonic() - t0
    width = max(len(r[0]) for r in rows)
    ok = True
    for name, expected, got, passed in rows:
        ok = ok and passed
        print(f"{name:<{width}}  expected={expected:<10} got={got:<10} {'PASS' if passed else 'FAIL'}")
    print(f"{args.report}: {'PASS' if ok else 'FAIL'} ({sum(1 for r in rows if r[3])}/{len(rows)})")
    print(f"[{args.report}] elapsed {elapsed:.2f}s", file=sys.stderr)
    return 0 if ok else 1


# ------------------------------------------------------------------ arg parsing


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dynw",
        description="Exact-arithmetic workbench for preperiodic portraits of x^2 + c.",
    )
    parser.add_argument("--enumeration-cap", type=int, default=None)
    parser.add_argument("--max-dynatomic-n", type=int, default=None)
    groups = parser.add_subparsers(dest="group", required=True)

    def with_json(p):
        p.add_argument("--json", action="store_true", help="emit JSON")
        return p

    g = groups.add_parser("dynatomic", help="dynatomic polynomials and degree arithmetic")
    sub = g.add_subparsers(dest="command", required=True)
    p = with_json(sub.add_parser("poly"))
    p.add_argument("--n", type=int, required=True)
    p.set_defaults(func=_cmd_dynatomic_poly)
    p = with_json(sub.add_parser("degrees"))
    p.add_argument("--n", type=int, required=True)
    p.set_defaults(func=_cmd_dynatomic_degrees)
    p = with_json(sub.add_parser("check-bounds"))
    p.add_argument("--max", type=int, required=True)
    p.set_defaults(func=_cmd_dynatomic_check_bounds)
    p = with_json(sub.add_parser("asymptotic"))
    p.add_argument("--n", type=int, required=True)
    p.set_defaults(func=_cmd_dynatomic_asymptotic)

    g = groups.add_parser("portrait", help="portrait validation and combinatorics")
    sub = g.add_subparsers(dest="command", required=True)
    p = with_json(sub.add_parser("validate"))
    p.add_argument("--portrait", required=True)
    p.set_defaults(func=_cmd_portrait_validate)
    p = with_json(sub.add_parser("enumerate"))
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--cycles", required=True)
    p.set_defaults(func=_cmd_portrait_enumerate)
    p = with_json(sub.add_parser("autgroup"))
    p.add_argument("--portrait", required=True)
    p.set_defaults(func=_cmd_portrait_autgroup)
    p = with_json(sub.add_parser("embeds"))
    p.add_argument("--sub", required=True)
    p.add_argument("--super", required=True)
    p.set_defaults(func=_cmd_portrait_embeds)
    p = with_json(sub.add_parser("catalog"))
    p.set_defaults(func=_cmd_portrait_catalog)
    p = with_json(sub.add_parser("extensions"))
    p.add_argument("--portrait", required=True)
    p.add_argument("--b", type=int, required=True)
    p.set_defaults(func=_cmd_portrait_extensions)

    g = groups.add_parser("model", help="curve models")
    sub = g.add_subparsers(dest="command", required=True)
    p = sub.add_parser("full")
    p.add_argument("--portrait", required=True)
    p.set_defaults(func=_cmd_model_full)
    p = sub.add_parser("reduced")
    p.add_argument("--portrait", required=True)
    p.set_defaults(func=_cmd_model_reduced)
    p = sub.add_parser("multilevel")
    p.add_argument("--cycles", required=True)
    p.set_defaults(func=_cmd_model_multilevel)
    p = with_json(sub.add_parser("trace-check"))
    p.add_argument("--p", type=int, required=True)
    p.set_defaults(func=_cmd_model_trace_check)

    g = groups.add_parser("ff", help="finite-field counting and bound checkers")
    sub = g.add_subparsers(dest="command", required=True)
    p = with_json(sub.add_parser("count"))
    p.add_argument("--model", required=True)
    p.add_argument("--p", type=int, required=True)
    p.add_argument("--k", type=int, default=1)
    p.set_defaults(func=_cmd_ff_count)
    p = sub.add_parser("gonality-lb")
    p.add_argument("--count", type=int, required=True)
    p.add_argument("--q", type=int, required=True)
    p.set_defaults(func=_cmd_ff_gonality_lb)
    p = with_json(sub.add_parser("cs"))
    p.add_argument("--g", type=int, required=True)
    p.add_argument("--d1", type=int, required=True)
    p.add_argument("--g1", type=int, required=True)
    p.add_argument("--d2", type=int, required=True)
    p.add_argument("--g2", type=int, required=True)
    p.set_defaults(func=_cmd_ff_cs)
    p = with_json(sub.add_parser("max-period"))
    p.add_argument("--p", type=int, required=True)
    p.add_argument("--k", type=int, default=1)
    p.set_defaults(func=_cmd_ff_max_period)

    p = with_json(groups.add_parser("classify", help="rational preperiodic portrait of one c"))
    p.add_argument("--c", required=True)
    p.set_defaults(func=_cmd_classify)

    p = groups.add_parser("sweep", help="classify all c up to a height bound")
    p.add_argument("--height", type=int, required=True)
    p.add_argument("--out", default=None, help="CSV output path")
    p.set_defaults(func=_cmd_sweep)

    p = groups.add_parser("reproduce", help="run a verification bundle")
    p.add_argument("report", help="figures | degrees | trace | sweep | bounds")
    p.set_defaults(func=_cmd_reproduce)

    return parser


def _merge_value_flags(argv: list[str]) -> list[str]:
    """Join `--c -3/4` into `--c=-3/4` so argparse does not read the value
    as an option string."""
    out = []
    i = 0
    while i < len(argv):
        tok = argv[i]
        if tok == "--c" and i + 1 < len(argv):
            out.append(f"--c={argv[i + 1]}")
            i += 2
        else:
            out.append(tok)
            i += 1
    return out


def dispatch(argv: list[str]) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(_merge_value_flags(argv))
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        config = from_env(
            enumeration_cap=args.enumeration_cap,
            max_dynatomic_n=args.max_dynatomic_n,
        )
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if config.output_format == "json" and hasattr(args, "json"):
        args.json = True
    try:
        return args.func(args, config)
    except DynwError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (ValueError, KeyError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(dispatch(sys.argv[1:]))


if __name__ == "__main__":
    main()
