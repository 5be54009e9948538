"""Exact computation of the rational preperiodic portrait of x^2 + c.

The candidate envelope: write c = a/b in lowest terms.

* If b is not a perfect square, there are no rational preperiodic points at
  all: for any prime p with v_p(c) = -e < 0, iteration forces
  v_p(x) = -e/2, so e must be even, for every p dividing b.
* If b = m^2, every preperiodic x = u/v in lowest terms has v dividing m
  (in fact v = m when m > 1), and |x| <= 1/2 + sqrt(1/4 + |c|), since any
  point beyond that radius has strictly growing orbit.  Escape from this
  envelope therefore certifies non-preperiodicity.

classify(c) works on the integer numerators u of the candidates u/m.  The
candidate u/m maps to (u^2 + a)/m when m divides u^2 + a, that is when
u = r (mod m) for a root r of r^2 = -a (mod m), and the result stays in the
window |u| <= u_max; otherwise it escapes.  One dict per c holds this map
for the live candidates alone, those whose image stays in the window, so
its size follows what is found and not the window: the enumeration cap on
the window bounds the work of the residue scan, not memory.  Only the
annulus of magnitudes |u| with -m*u_max <= u^2 + a <= m*u_max can map back
into the window, so images are computed only for the residues r of the
annulus; every other candidate escapes at once.  When c > 1/4 nothing is
computed, since x^2 + c - x = (x - 1/2)^2 + c - 1/4 > 0: every real orbit
strictly increases and the portrait is empty.  The preperiodic points are
the candidates whose path never escapes (the set is automatically
forward-closed), found by walking from the keys of the map, and the
portrait's image map is read straight off it.  The raw portrait then gets
its verdict: canonical form, catalog label, genericity and flags.  The
verdict depends on the raw portrait alone and few raw portraits occur (18
over the 3535 parameters of height 200), so a bounded cache computes each
once; it holds only immutable values, so the records of one verdict share
its flags tuple, and each record's points are a tuple.  sweep() does this
for all c = a/m^2 up to a height bound and tallies the classes; any generic
portrait outside the conjectured twelve rational classes is reported as an
anomaly rather than an error, since completeness of that list is
conditional on the absence of rational points of period above 3.

orbit() iterates one value in Fraction arithmetic; the tests use it as an
independent oracle for classify().
"""

from __future__ import annotations

import csv
from fractions import Fraction
from functools import lru_cache
from math import gcd, isqrt
from typing import NamedTuple

from ._record import Record
from .catalog import TWELVE_RATIONAL_LABELS, match
from .errors import BudgetExceeded, StepBudgetExceeded
from .ff import ENUMERATION_CAP
from .portraits import Portrait, canonical_form, validate_generic
from .rational import isqrt_ceil, perfect_square_root


def _window(c: Fraction) -> tuple[int, int, int] | None:
    """(m, a, u_max) with c = a/m^2 and the candidates u/m, |u| <= u_max.

    u_max is the integer ceiling of the escape radius m/2 + sqrt(m^2/4 + |a|),
    plus one.  None when the denominator of c is not a perfect square.
    """
    m = perfect_square_root(c.denominator)
    if m is None:
        return None
    a = c.numerator
    return m, a, (m + isqrt_ceil(m * m + 4 * abs(a))) // 2 + 1


def preperiodic_candidates(c: Fraction) -> list[Fraction]:
    """A finite superset of the rational preperiodic points of x^2 + c.

    Returns [] when the denominator of c is not a perfect square; otherwise
    all u/m with b = m^2 and |u| within the integer ceiling of the escape
    radius m/2 + sqrt(m^2/4 + |a|).
    """
    window = _window(Fraction(c))
    if window is None:
        return []
    m, _, u_max = window
    return [Fraction(u, m) for u in range(-u_max, u_max + 1)]


def _escapes(c: Fraction, x: Fraction, m: int) -> bool:
    """True when x is outside the candidate envelope of c.

    |x| > 1/2 + sqrt(1/4 + |c|) is tested exactly as
    2|x| > 1 and (2|x| - 1)^2 > 1 + 4|c|; a denominator not dividing m also
    certifies escape.
    """
    if m % x.denominator != 0:
        return True
    two_abs = 2 * abs(x)
    return two_abs > 1 and (two_abs - 1) ** 2 > 1 + 4 * abs(c)


class OrbitRecord(NamedTuple):
    start: Fraction
    orbit: list[Fraction]
    preperiod: int | None
    eventual_period: int | None
    escaped: bool


def orbit(c: Fraction, x: Fraction, max_steps: int) -> OrbitRecord:
    """Iterate x under x^2 + c with cycle detection.

    Stops when a value repeats (preperiodic, with minimal preperiod and
    eventual period reported) or leaves the candidate envelope (escaped,
    certifying non-preperiodicity).
    """
    if max_steps < 1:
        raise ValueError("max_steps must be >= 1")
    c, x = Fraction(c), Fraction(x)
    m = perfect_square_root(c.denominator)
    if m is None or _escapes(c, x, m):
        return OrbitRecord(x, [x], None, None, escaped=True)
    seen = {x: 0}
    values = [x]
    current = x
    for _ in range(max_steps):
        current = current * current + c
        if current in seen:
            idx = seen[current]
            return OrbitRecord(
                x, values, preperiod=idx, eventual_period=len(values) - idx, escaped=False
            )
        if _escapes(c, current, m):
            values.append(current)
            return OrbitRecord(x, values, None, None, escaped=True)
        seen[current] = len(values)
        values.append(current)
    raise StepBudgetExceeded(f"orbit of {x} under c={c} unresolved after {max_steps} steps")


class ClassificationRecord(Record):
    __slots__ = ("c", "portrait", "label", "generic", "point_count", "flags", "points")

    def __init__(
        self,
        c: Fraction,
        portrait: Portrait,
        label: str | None,
        generic: bool,
        point_count: int,
        flags: tuple[str, ...] = (),
        points: tuple[Fraction, ...] = (),
    ):
        self.c = c
        self.portrait = portrait
        self.label = label
        self.generic = generic
        self.point_count = point_count
        self.flags = flags
        self.points = points


def _successors(m: int, a: int, u_max: int) -> dict[int, int]:
    """succ[u + u_max] = v + u_max for each candidate u/m whose image v/m
    lies inside the window; a candidate whose image escapes has no key.

    The image (u^2 + a)/m is an integer exactly when u = r (mod m) for a
    root r of r^2 = -a (mod m), and lies in the window exactly when u is in
    the annulus lo <= |u| <= hi of -m*u_max <= u^2 + a <= m*u_max.  So the
    roots are found in one pass over range(m), and each steps through the
    annulus in strides of m from lo + (r - lo) % m, one division per
    magnitude shared by +u and -u.  Only these live candidates are stored,
    so the map's size follows what is found, not the 2*u_max + 1 candidates
    of the window.  The annulus is empty, and so is the map, when
    m*u_max < a, which needs c > 1; classify calls this only for c <= 1/4.
    """
    succ: dict[int, int] = {}
    top = m * u_max - a
    if top < 0:
        return succ
    lo, hi = isqrt_ceil(max(0, -a - m * u_max)), min(u_max, isqrt(top))
    for r in [r for r in range(m) if (r * r + a) % m == 0]:
        for u in range(lo + (r - lo) % m, hi + 1, m):
            succ[u_max + u] = succ[u_max - u] = (u * u + a) // m + u_max
    return succ


def _non_escaping(succ: dict[int, int]) -> list[int]:
    """The ascending indices whose path under succ never escapes, walked
    from the keys of succ; a path escapes at the first index that is not a
    key."""
    stays: dict[int, bool | None] = {}  # None while on the current path
    for start in succ:
        path = []
        i = start
        while i in succ and i not in stays:
            stays[i] = None
            path.append(i)
            i = succ[i]
        verdict = i in succ and stays[i] is not False
        for j in path:
            stays[j] = verdict
    return sorted(i for i, s in stays.items() if s)


# Far above the 18 distinct raw portraits of the height-200 and height-300
# sweeps, and small enough that a full cache costs little memory.
_VERDICT_CACHE_SIZE = 1024


@lru_cache(maxsize=_VERDICT_CACHE_SIZE)
def _verdict(n: int, image: tuple[int, ...]) -> tuple[Portrait, str | None, bool, tuple[str, ...]]:
    """(canonical portrait, catalog label, genericity, flags) of the raw
    portrait (n, image), computed once per raw portrait.  Only immutable
    parts are returned, so the records that share them cannot change one
    another."""
    P = canonical_form(Portrait(n, image))
    entry = match(P)
    report = validate_generic(P)
    flags: tuple[str, ...] = ()
    if not report.is_generic:
        flags = ("NonGeneric", *sorted({v.rule for v in report.violations}))
    return P, entry.label if entry else None, report.is_generic, flags


def classify(c: Fraction, cap: int = ENUMERATION_CAP) -> ClassificationRecord:
    """The exact rational preperiodic portrait of x^2 + c.  BudgetExceeded
    when its 2*u_max + 1 candidates exceed the enumeration cap `cap`."""
    c = c if isinstance(c, Fraction) else Fraction(c)
    points: tuple[Fraction, ...] = ()
    image: tuple[int, ...] = ()
    window = _window(c)
    if window is not None:
        m, a, u_max = window
        if 2 * u_max + 1 > cap:
            raise BudgetExceeded(f"{2 * u_max + 1} candidates exceed enumeration cap {cap}")
        # when c > 1/4, x^2 + c - x = (x - 1/2)^2 + c - 1/4 > 0, so every
        # real orbit strictly increases and no point is preperiodic
        if 4 * a <= m * m:
            succ = _successors(m, a, u_max)
            kept = _non_escaping(succ)
            if kept:
                rank = {i: r + 1 for r, i in enumerate(kept)}
                image = tuple([rank[succ[i]] for i in kept])
                points = tuple([Fraction(i - u_max, m) for i in kept])
    P, label, generic, flags = _verdict(len(points), image)
    return ClassificationRecord(c, P, label, generic, P.n, flags, points)


# ------------------------------------------------------------------------ sweep


class SweepSummary(NamedTuple):
    height_bound: int
    records: list[ClassificationRecord]
    tally: dict[str, int]
    anomalies: list[ClassificationRecord]


def _sweep_domain(height_bound: int) -> list[Fraction]:
    """All c = a/m^2 in lowest terms with max(|a|, m^2) <= height_bound,
    ordered by (height, numerator, denominator)."""
    keys = sorted(
        (max(abs(a), den), a, den)
        for den in [m * m for m in range(1, isqrt(height_bound) + 1)]
        for a in range(-height_bound, height_bound + 1)
        if gcd(a, den) == 1
    )
    return [Fraction(a, den) for _, a, den in keys]


def sweep(height_bound: int, out=None, cap: int = ENUMERATION_CAP) -> SweepSummary:
    """Classify every square-denominator c up to the height bound.

    Writes CSV rows to `out` (a text stream) when given.  The summary
    tallies portrait classes and lists every *generic* record that is not
    among the twelve conjectured rational classes as an anomaly.
    BudgetExceeded, before the domain is built, when its
    floor(sqrt(height_bound)) * (2 * height_bound + 1) numerator and
    denominator pairs exceed the enumeration cap.
    """
    if height_bound < 1:
        raise ValueError("height bound must be >= 1")
    if isqrt(height_bound) * (2 * height_bound + 1) > cap:
        raise BudgetExceeded(f"sweep to height {height_bound} exceeds enumeration cap {cap}")
    records = [classify(c, cap) for c in _sweep_domain(height_bound)]

    tally: dict[str, int] = {}
    anomalies = []
    for rec in records:
        key = rec.label if rec.label else f"unlabeled:{rec.portrait.to_text()}"
        tally[key] = tally.get(key, 0) + 1
        if rec.generic and rec.label not in TWELVE_RATIONAL_LABELS:
            anomalies.append(rec)
    if out is not None:
        write_records_csv(out, records)
    return SweepSummary(
        height_bound=height_bound,
        records=records,
        tally=dict(sorted(tally.items())),
        anomalies=anomalies,
    )


CSV_COLUMNS = (
    "c_num",
    "c_den",
    "portrait_serialized",
    "canonical_label",
    "generic",
    "point_count",
    "flags",
)


def write_records_csv(out, records: list[ClassificationRecord]) -> None:
    """One CSV row per record; the verdict cache shares portrait objects
    between records, so each shared portrait is formatted once."""
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(CSV_COLUMNS)
    texts: dict[int, str] = {}  # keyed by id: the records keep each portrait alive
    for rec in records:
        text = texts.get(id(rec.portrait))
        if text is None:
            text = texts[id(rec.portrait)] = rec.portrait.to_text()
        c, label, flags = rec.c, rec.label or "", ";".join(rec.flags)
        writer.writerow(
            [c.numerator, c.denominator, text, label, int(rec.generic), rec.point_count, flags]
        )
