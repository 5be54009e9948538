"""Command-line dispatch.

Subcommand groups: dynatomic, portrait, model, ff, classify, sweep,
reproduce.  Exit codes: 0 success, 1 domain error, 2 usage error.  For a
fixed argv, stdout is byte-identical across runs; wall-clock timings
(reproduce) go to stderr.

Settings come from argv alone; no environment variable is read (neither
DYNW_ENUMERATION_CAP nor DYNW_OUTPUT_FORMAT).  The one run setting is
`--enumeration-cap`, default ff.ENUMERATION_CAP.  Each `_cmd_*` handler
takes the parsed args alone and returns its report as (doc, lines, code):
the JSON document without `schema_version` (None for a text-only command),
the text lines and the exit code.  `dispatch` alone decides the output
format.  It prints the document, with `schema_version` added, when the
command has one and `--json` asks for it; otherwise it prints the lines.

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
from .errors import DynwError, UnknownReport
from .ff import ENUMERATION_CAP, FFContext
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
from .rational import format_rational, int_str_digits, parse_rational

SCHEMA_VERSION = 1


def _load_portrait(arg: str) -> Portrait:
    """The portrait in the file arg names, or written in arg itself."""
    path = Path(arg)
    return Portrait.from_text(path.read_text().strip() if path.is_file() else arg)


# ------------------------------------------------------------------- dynatomic


def _cmd_dynatomic_poly(args):
    table = dyn.dynatomic(args.n)
    phi = str(table.phi)
    doc = {"n": table.n, "phi": phi, "degree_x": table.degree_x, "degree_c": table.degree_c}
    return doc, [phi], 0


def _cmd_dynatomic_degrees(args):
    r = dyn.degree_report(args.n)
    genus_lb = format_rational(r.genus_lb)
    doc = {"n": r.n, "D1": r.D1, "D0": r.D0, "B": r.B, "genus_lb": genus_lb}
    return doc, [f"n={r.n} D1={r.D1} D0={r.D0} B={r.B} genus_lb={genus_lb}"], 0


def _check_printable(flag: str, n: int) -> None:
    """Refuse n up front when a report's integers, all below 2^n, could be
    too long to print: 2^n < 10^L for n <= 3L, L the live digit limit.  Under
    a raised limit, or none, dyn.MAX_REPORT_N is the narrower bound."""
    limit = int_str_digits()
    bound = min(3 * limit or dyn.MAX_REPORT_N, dyn.MAX_REPORT_N)
    if n > bound:
        by_digits = bound == 3 * limit
        why = "gives integers too long to print" if by_digits else "exceeds the report level bound"
        raise ValueError(f"{flag} {n} {why}; use {flag} <= {bound}")


def _cmd_dynatomic_check_bounds(args):
    if args.max < 1:
        raise ValueError(f"--max must be >= 1, got {args.max}")
    _check_printable("--max", args.max)
    rows = [dyn.check_degree_bounds(n) for n in range(1, args.max + 1)]
    ok = all(r.ok for r in rows)
    keys = ("n", "D1", "lower", "upper", "lower_strict", "upper_strict", "ok")
    doc = {
        "max": args.max,
        "all_ok": ok,
        "rows": [{key: getattr(r, key) for key in keys} for r in rows],
    }
    lines = [
        f"n={r.n} {r.lower} <= D1={r.D1} <= {r.upper} strict_low={int(r.lower_strict)} "
        f"strict_high={int(r.upper_strict)} ok={int(r.ok)}"
        for r in rows
    ]
    return doc, lines, 0 if ok else 1


def _cmd_dynatomic_asymptotic(args):
    _check_printable("--n", args.n)
    r = dyn.asymptotic_genus_check(args.n)
    doc = {
        "n": r.n,
        "chain_holds": r.chain_holds,
        "lhs": r.lhs,
        "rhs": r.rhs,
        "B": r.B,
        "six_D0": r.six_d0,
        "B_exceeds_six_D0": r.b_exceeds_six_d0,
    }
    line = (
        f"n={r.n} chain_holds={int(r.chain_holds)} lhs={r.lhs} rhs={r.rhs} "
        f"B={r.B} six_D0={r.six_d0} B_exceeds={int(r.b_exceeds_six_d0)}"
    )
    return doc, [line], 0


# -------------------------------------------------------------------- portrait


def _cmd_portrait_validate(args):
    P = _load_portrait(args.portrait)
    report = validate_generic(P)
    doc = {
        "portrait": P.to_text(),
        "cycle_structure": str(cycle_structure(P)),
        "generic": report.is_generic,
        "violations": [{"rule": v.rule, "detail": v.detail} for v in report.violations],
    }
    lines = [
        f"portrait {P.to_text()} cycle_structure={cycle_structure(P)}",
        f"generic: {'yes' if report.is_generic else 'no'}",
    ] + [f"violation[{v.rule}]: {v.detail}" for v in report.violations]
    return doc, lines, 0


def _cmd_portrait_enumerate(args):
    sigma = CycleStructure.parse(args.cycles)
    classes = [P.to_text() for P in enumerate_generic(args.n, sigma)]
    doc = {"n": args.n, "cycles": str(sigma), "count": len(classes), "classes": classes}
    return doc, classes + [f"count: {len(classes)}"], 0


def _cmd_portrait_autgroup(args):
    P = _load_portrait(args.portrait)
    auts = automorphism_group(P)
    doc = {"portrait": P.to_text(), "order": len(auts), "automorphisms": [list(a) for a in auts]}
    return doc, [f"order: {len(auts)}"] + [",".join(map(str, a)) for a in auts], 0


def _cmd_portrait_embeds(args):
    sub = _load_portrait(args.sub)
    sup = _load_portrait(args.super)
    maps = embeddings(sub, sup)
    doc = {
        "sub": sub.to_text(),
        "super": sup.to_text(),
        "count": len(maps),
        "embeddings": [list(m) for m in maps],
    }
    return doc, [f"count: {len(maps)}"] + [",".join(map(str, m)) for m in maps], 0


def _cmd_portrait_catalog(args):
    entries = cat.catalog()
    doc = {
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
        ]
    }
    lines = [
        f"{e.label:12s} {e.portrait.to_text():32s} genus={'-' if e.genus is None else e.genus}"
        + (" degenerate" if e.degenerate else "")
        for e in entries
    ]
    return doc, lines, 0


def _cmd_portrait_extensions(args):
    P = _load_portrait(args.portrait)
    matched = [(Q, cat.match(Q)) for Q in minimal_extensions(P, args.b)]
    doc = {
        "portrait": P.to_text(),
        "bound": args.b,
        "count": len(matched),
        "extensions": [
            {"portrait": Q.to_text(), "label": e.label if e else None} for Q, e in matched
        ],
    }
    lines = [Q.to_text() + (f"  [{e.label}]" if e else "") for Q, e in matched]
    return doc, lines + [f"count: {len(matched)}"], 0


# ----------------------------------------------------------------------- model


def _model_report(model):
    return None, [mdl.model_to_json(model).rstrip("\n")], 0


def _cmd_model_full(args):
    return _model_report(mdl.full_model(_load_portrait(args.portrait)))


def _cmd_model_reduced(args):
    return _model_report(mdl.reduced_model(_load_portrait(args.portrait)))


def _cmd_model_multilevel(args):
    levels = [int(t) for t in args.cycles.strip().strip("()").split(",") if t.strip()]
    return _model_report(mdl.multi_level_model(levels))


def _cmd_model_trace_check(args):
    r = fflab.trace_relation_check(args.p, args.enumeration_cap)
    doc = {"p": r.p, "points": r.points, "violations": [list(v) for v in r.violations]}
    lines = [f"p={r.p} points={r.points} violations={len(r.violations)}"]
    lines += [f"violation at (c,x)=({c0},{x0})" for c0, x0 in r.violations]
    return doc, lines, 0 if not r.violations else 1


# -------------------------------------------------------------------------- ff


def _cmd_ff_count(args):
    model = mdl.model_from_json(Path(args.model).read_text())
    r = fflab.count_points(model, args.p, args.k, args.enumeration_cap)
    doc = {
        "model": r.model_id,
        "q": r.q,
        "affine_count": r.affine_count,
        "nonsingular_count": r.nonsingular_count,
        "cross_count": r.cross_count,
        "violations": r.violations,
    }
    extra = "" if r.nonsingular_count is None else f" nonsingular={r.nonsingular_count}"
    lines = [f"model={r.model_id} q={r.q} affine={r.affine_count}{extra}"]
    lines += [f"violation: {v}" for v in r.violations]
    return doc, lines, 0 if not r.violations else 1


def _cmd_ff_gonality_lb(args):
    return None, [str(fflab.gonality_lower_bound(args.count, args.q))], 0


def _cmd_ff_cs(args):
    q = fflab.CSQuery(g=args.g, g1=args.g1, g2=args.g2, d1=args.d1, d2=args.d2)
    r = fflab.cs_obstruction(q)
    doc = {
        "g": q.g,
        "g1": q.g1,
        "g2": q.g2,
        "d1": q.d1,
        "d2": q.d2,
        "bound": r.bound,
        "inequality_holds": r.inequality_holds,
    }
    verdict = "holds" if r.inequality_holds else "fails (common factor map forced)"
    return doc, [f"bound={r.bound} inequality {verdict}"], 0


def _cmd_ff_max_period(args):
    cap = args.enumeration_cap
    fflab.check_enumeration_cap(args.p, 2, cap, k=args.k)
    r = fflab.max_period_mod(FFContext(args.p, args.k, cap), cap)
    witness = list(r.witness_c.coeffs)
    doc = {"p": r.p, "k": r.k, "q": r.q, "max_period": r.max_period, "witness_c": witness}
    return doc, [f"q={r.q} max_period={r.max_period} witness_c={witness}"], 0


# ------------------------------------------------------------ classify / sweep


def _cmd_classify(args):
    r = cls.classify(parse_rational(args.c), args.enumeration_cap)
    c = format_rational(r.c)
    points = [format_rational(x) for x in r.points]
    doc = {
        "c": c,
        "portrait": r.portrait.to_text(),
        "label": r.label,
        "generic": r.generic,
        "point_count": r.point_count,
        "flags": r.flags,
        "points": points,
    }
    lines = [
        f"c={c} portrait={r.portrait.to_text()} label={r.label or '-'}",
        f"generic={'yes' if r.generic else 'no'} points={r.point_count} flags={','.join(r.flags) or '-'}",
    ]
    if points:
        lines.append("preperiodic points: " + ", ".join(points))
    return doc, lines, 0


def _cmd_sweep(args):
    summary = cls.sweep(args.height, None, args.enumeration_cap)
    if args.out:  # opened only after the sweep, so a refused sweep leaves it untouched
        out_path = Path(args.out)
        with out_path.open("w") as out:
            cls.write_records_csv(out, summary.records)
        print(f"records written to {out_path}", file=sys.stderr)
    lines = [f"height_bound={summary.height_bound} classified={len(summary.records)}"]
    lines += [f"{label:12s} {count}" for label, count in summary.tally.items()]
    lines.append(f"anomalies: {len(summary.anomalies)}")
    lines += [
        f"anomaly: c={format_rational(rec.c)} portrait={rec.portrait.to_text()}"
        for rec in summary.anomalies
    ]
    return None, lines, 0


# ------------------------------------------------------------------- reproduce


def _check(rows, name, expected, got) -> None:
    rows.append((name, str(expected), str(got), expected == got))


def _reproduce_figures(cap: int) -> list:
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


def _reproduce_degrees(cap: int) -> list:
    rows = []
    r3 = dyn.degree_report(3)
    _check(rows, "D1(3)", 6, r3.D1)
    _check(rows, "D0(3)", 2, r3.D0)
    _check(rows, "B(3)", 1, r3.B)
    _check(rows, "genus_lb(3)", "-1/2", format_rational(r3.genus_lb))
    r12 = dyn.degree_report(12)
    _check(rows, "D1(12)", 4020, r12.D1)
    _check(rows, "D0(12)", 335, r12.D0)
    _check(rows, "B(12)", 1959, r12.B)
    _check(rows, "genus_lb(12)", "1291/2", format_rational(r12.genus_lb))
    _check(rows, "n | D1(n) for n <= 64", True,
           all(dyn.degree_d1(n) % n == 0 for n in range(1, 65)))
    return rows


def _reproduce_trace(cap: int) -> list:
    rows = []
    for p in (5, 7, 11, 13):
        r = fflab.trace_relation_check(p, cap)
        _check(rows, f"trace violations p={p}", 0, len(r.violations))
    return rows


def _reproduce_sweep(cap: int) -> list:
    rows = []
    _check(rows, "classify(-3/4)", "4(1,1)", cls.classify(Fraction(-3, 4), cap).label)
    _check(rows, "classify(1)", "empty", cls.classify(Fraction(1), cap).label)
    _check(rows, "classify(-1) generic", False, cls.classify(Fraction(-1), cap).generic)
    summary = cls.sweep(20, cap=cap)
    _check(rows, "sweep(20) anomalies", 0, len(summary.anomalies))
    return rows


def _reproduce_bounds(cap: int) -> list:
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


def _cmd_reproduce(args):
    if args.report not in _REPORTS:
        raise UnknownReport(
            f"unknown report {args.report!r}; choose from {', '.join(sorted(_REPORTS))}"
        )
    t0 = time.monotonic()
    rows = _REPORTS[args.report](args.enumeration_cap)
    print(f"[{args.report}] elapsed {time.monotonic() - t0:.2f}s", file=sys.stderr)
    width = max(len(r[0]) for r in rows)
    lines = [
        f"{name:<{width}}  expected={expected:<10} got={got:<10} {'PASS' if passed else 'FAIL'}"
        for name, expected, got, passed in rows
    ]
    passed = sum(1 for r in rows if r[3])
    ok = passed == len(rows)
    lines.append(f"{args.report}: {'PASS' if ok else 'FAIL'} ({passed}/{len(rows)})")
    return None, lines, 0 if ok else 1


# ------------------------------------------------------------------ arg parsing


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dynw",
        description="Exact-arithmetic workbench for preperiodic portraits of x^2 + c.",
    )
    parser.add_argument("--enumeration-cap", type=int, default=ENUMERATION_CAP)
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
    if args.enumeration_cap <= 0:
        print("error: all configuration caps must be positive", file=sys.stderr)
        return 2
    try:
        doc, lines, code = args.func(args)
    except (DynwError, ValueError, KeyError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if doc is not None and args.json:
        lines = [json.dumps({"schema_version": SCHEMA_VERSION, **doc}, sort_keys=True, indent=2)]
    for line in lines:
        print(line)
    return code


def main() -> None:
    sys.exit(dispatch(sys.argv[1:]))


if __name__ == "__main__":
    main()
