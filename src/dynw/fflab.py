"""Point counting over F_{p^k}, gonality and cover-degree bound checkers,
and exhaustive residual period data for z -> z^2 + c.

Counts are affine-model counts; points at infinity and singular-fiber
corrections are out of scope, so gonality statements derived from them are
lower bounds computed from (nonsingular) affine points.

Solutions are enumerated in-process over a model's free variables, and
each equation, inequation and propagation step is applied at the first
enumeration level where its variables are bound, so a failed condition
prunes everything below it.  Polynomials are evaluated in the compiled
Horner form of MultiPoly.horner.  The exhaustive enumeration that checks
every condition only on complete assignments is the test oracle.

For plane models the affine count is computed twice, by independent
strategies: straight enumeration of (c, x), and per-x root counting in c
via gcd(f, z^q - z).  Disagreement is reported as a violation; it cannot
happen unless one of the strategies is buggy, which is the point.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator

from .config import RunConfig, DEFAULT
from .errors import BudgetExceeded
from .ff import FFContext, FFElement, ff_enumerate
from .models import CurveModel


# ----------------------------------------------------------- solution iteration


def check_enumeration_cap(q: int, dims: int, config: RunConfig = DEFAULT) -> None:
    """Raise BudgetExceeded when q^dims exceeds the enumeration cap."""
    total = q**dims
    if total > config.enumeration_cap:
        raise BudgetExceeded(
            f"q^{dims} = {total} exceeds enumeration cap {config.enumeration_cap}"
        )


def iter_solutions(
    model: CurveModel, ctx: FFContext, config: RunConfig = DEFAULT
) -> Iterator[dict]:
    """All assignments over F_q satisfying every equation and inequation.

    Enumeration runs over the model's free variables, in order; the
    remaining variables are filled in by the recorded propagation steps
    (forward image x -> x^2 + c and sibling negation).  Each step runs, and
    each equation and inequation is checked, at the first enumeration level
    where every variable it reads is bound, so a failed check prunes every
    assignment below that level.
    """
    free = model.enumeration_variables()
    check_enumeration_cap(ctx.q, len(free), config)
    level = {v: i + 1 for i, v in enumerate(free)}
    steps: list[list] = [[] for _ in range(len(free) + 1)]
    for kind, target, source in model.steps:
        reads = (source, "c") if kind == "image" else (source,)
        level[target] = max(level[v] for v in reads)
        steps[level[target]].append((kind, target, source))
    checks: list[list] = [[] for _ in range(len(free) + 1)]
    for is_equation, polys in ((True, model.equations), (False, model.inequations)):
        for poly in polys:
            at = max((level[v] for v in poly.variables), default=0)
            checks[at].append((poly.horner(ctx.from_rational), is_equation))
    elements = list(ff_enumerate(ctx, config))
    zero = ctx.zero()

    def rec(depth: int, values: dict):
        for kind, target, source in steps[depth]:
            s = values[source]
            values[target] = s * s + values["c"] if kind == "image" else -s
        for poly, is_equation in checks[depth]:
            if (poly(values) == zero) != is_equation:
                return
        if depth == len(free):
            yield dict(values)
            return
        var = free[depth]
        for z in elements:
            values[var] = z
            yield from rec(depth + 1, values)

    yield from rec(0, {})


# --------------------------------------------------------------- point counting


@dataclass
class PointCountReport:
    model_id: str
    q: int
    affine_count: int
    nonsingular_count: int | None = None
    cross_count: int | None = None
    violations: list[str] = field(default_factory=list)


def _is_plane(model: CurveModel) -> bool:
    return len(model.variables) == 2 and len(model.equations) == 1


def count_points(
    model: CurveModel, p: int, k: int = 1, config: RunConfig = DEFAULT
) -> PointCountReport:
    """Count F_{p^k} assignments satisfying the model.

    The enumeration cap is checked before the field is built.  For
    two-variable models the report also carries the count of solutions
    where some partial derivative is nonzero (nonsingular_count) and the
    independent per-x root-counting total (cross_count).
    """
    check_enumeration_cap(p**k, len(model.enumeration_variables()), config)
    ctx = FFContext(p, k)
    plane = _is_plane(model)
    partials = []
    if plane:
        f = model.equations[0]
        partials = [f.partial(v).horner(ctx.from_rational) for v in model.variables]
    zero = ctx.zero()
    affine = 0
    nonsingular = 0
    for sol in iter_solutions(model, ctx, config):
        affine += 1
        if any(pd(sol) != zero for pd in partials):
            nonsingular += 1
    report = PointCountReport(
        model_id=model.name,
        q=ctx.q,
        affine_count=affine,
        nonsingular_count=nonsingular if plane else None,
    )
    if plane:
        report.cross_count = _plane_count_by_roots(model, ctx)
        if report.cross_count != affine:
            report.violations.append(
                f"strategy mismatch: enumeration {affine}, root counting {report.cross_count}"
            )
    return report


def _plane_count_by_roots(model: CurveModel, ctx: FFContext) -> int:
    """Second counting strategy for a plane model f(c, x) = 0: for every x
    value, count the distinct roots in c of the resulting univariate
    polynomial via gcd with c^q - c."""
    f = model.equations[0]
    first, second = model.variables
    deg = f.degree(first)
    coeff_polys = [f.coefficient_in(first, i).horner(ctx.from_rational) for i in range(deg + 1)]
    total = 0
    for b in ff_enumerate(ctx):
        coeffs = [poly({second: b}) for poly in coeff_polys]
        u = _ftrim(coeffs, ctx)
        if not u:
            total += ctx.q
            continue
        if len(u) == 1:
            continue
        total += _distinct_root_count(u, ctx)
    return total


def _ftrim(u: list[FFElement], ctx: FFContext) -> list[FFElement]:
    while u and u[-1] == ctx.zero():
        u.pop()
    return u


def _fmod(a: list[FFElement], m: list[FFElement], ctx: FFContext) -> list[FFElement]:
    a = a[:]
    inv = m[-1].inverse()
    while len(a) >= len(m) and a:
        shift = len(a) - len(m)
        factor = a[-1] * inv
        for i, c in enumerate(m):
            a[shift + i] = a[shift + i] - factor * c
        _ftrim(a, ctx)
    return a


def _fgcd(a: list[FFElement], b: list[FFElement], ctx: FFContext) -> list[FFElement]:
    while b:
        a, b = b, _fmod(a, b, ctx)
    return a


def _distinct_root_count(u: list[FFElement], ctx: FFContext) -> int:
    """deg gcd(u, z^q - z), the number of distinct roots of u in F_q."""
    # z^q mod u by square-and-multiply on [0, 1]
    zq = [ctx.one()]
    base = _fmod([ctx.zero(), ctx.one()], u, ctx)
    e = ctx.q
    while e:
        if e & 1:
            zq = _fmod(_fmul(zq, base, ctx), u, ctx)
        base = _fmod(_fmul(base, base, ctx), u, ctx)
        e >>= 1
    # z^q - z
    need = max(len(zq), 2)
    diff = zq + [ctx.zero()] * (need - len(zq))
    diff[1] = diff[1] - ctx.one()
    g = _fgcd(u, _ftrim(diff, ctx), ctx)
    return len(g) - 1 if g else len(u) - 1


def _fmul(a: list[FFElement], b: list[FFElement], ctx: FFContext) -> list[FFElement]:
    if not a or not b:
        return []
    out = [ctx.zero()] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x == ctx.zero():
            continue
        for j, y in enumerate(b):
            out[i + j] = out[i + j] + x * y
    return _ftrim(out, ctx)


# ------------------------------------------------------------ bound calculators


def gonality_lower_bound(count: int, q: int) -> int:
    """ceil(count / (q + 1)): a lower bound for the gonality of a curve with
    at least `count` points over F_q."""
    if count < 0 or q < 2:
        raise ValueError("need count >= 0 and q >= 2")
    return -(-count // (q + 1))


@dataclass
class CSQuery:
    g: int
    g1: int
    g2: int
    d1: int
    d2: int


@dataclass
class CSReport:
    query: CSQuery
    bound: int
    inequality_holds: bool


def cs_obstruction(query: CSQuery) -> CSReport:
    """Castelnuovo-Severi check: two independent covers of degrees d1, d2
    from a genus-g curve to curves of genus g1, g2 force

        g <= d1*g1 + d2*g2 + (d1 - 1)(d2 - 1).

    A failed inequality certifies that the two maps factor through a common
    map of degree at least 2.
    """
    if query.g < 0 or query.g1 < 0 or query.g2 < 0:
        raise ValueError("genera must be nonnegative")
    if query.d1 < 1 or query.d2 < 1:
        raise ValueError("degrees must be positive")
    bound = query.d1 * query.g1 + query.d2 * query.g2 + (query.d1 - 1) * (query.d2 - 1)
    return CSReport(query=query, bound=bound, inequality_holds=query.g <= bound)


# --------------------------------------------------------- residual period data


@dataclass
class MaxPeriodReport:
    p: int
    k: int
    q: int
    max_period: int
    witness_c: FFElement


def max_period_mod(ctx: FFContext, config: RunConfig = DEFAULT) -> MaxPeriodReport:
    """Largest cycle length of z -> z^2 + c on F_q over all c, with witness.

    The enumeration visits all q^2 pairs (c, z), so q^2 is held to the
    enumeration cap.
    """
    check_enumeration_cap(ctx.q, 2, config)
    elements = list(ff_enumerate(ctx, config))
    index = {z: i for i, z in enumerate(elements)}
    q = ctx.q
    best, witness = 0, elements[0]
    squares = [z * z for z in elements]
    for c in elements:
        succ = [index[squares[i] + c] for i in range(q)]
        longest = _longest_cycle(succ)
        if longest > best:
            best, witness = longest, c
    return MaxPeriodReport(p=ctx.p, k=ctx.k, q=q, max_period=best, witness_c=witness)


def _longest_cycle(succ: list[int]) -> int:
    n = len(succ)
    state = [0] * n  # 0 new, 1 in progress, 2 done
    best = 0
    for start in range(n):
        if state[start]:
            continue
        path = []
        pos = {}
        v = start
        while state[v] == 0:
            state[v] = 1
            pos[v] = len(path)
            path.append(v)
            v = succ[v]
        if state[v] == 1:
            best = max(best, len(path) - pos[v])
        for u in path:
            state[u] = 2
    return best
