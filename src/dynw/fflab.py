"""Point counting over F_{p^k}, gonality and cover-degree bound checkers,
and exhaustive residual period data for z -> z^2 + c.

Counts are affine-model counts; points at infinity and singular-fiber
corrections are out of scope, so gonality statements derived from them are
lower bounds computed from (nonsingular) affine points.

For plane models the affine count is computed twice, by independent
strategies: straight enumeration of (c, x), and per-x root counting in c
via gcd(f, z^q - z).  Disagreement is reported as a violation; it cannot
happen unless one of the strategies is buggy, which is the point.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from multiprocessing import Pool
from typing import Iterator

from .config import RunConfig, DEFAULT
from .errors import BudgetExceeded
from .ff import FFContext, FFElement, ff_enumerate
from .models import CurveModel
from .multipoly import MultiPoly


# ----------------------------------------------------------- solution iteration


def _compile(poly: MultiPoly, ctx: FFContext):
    """[(coefficient in F_q, exponent map)] for fast pointwise evaluation."""
    return [
        (ctx.from_rational(coef), tuple(zip(poly.variables, exps)))
        for exps, coef in poly.terms.items()
    ]


def _eval_compiled(compiled, values: dict) -> FFElement:
    acc = None
    for coef, exps in compiled:
        term = coef
        for var, e in exps:
            if e:
                term = term * values[var] ** e
        acc = term if acc is None else acc + term
    return acc


def iter_solutions(
    model: CurveModel,
    ctx: FFContext,
    config: RunConfig = DEFAULT,
    outer_range: tuple[int, int] | None = None,
) -> Iterator[dict]:
    """All assignments over F_q satisfying every equation and inequation.

    Enumeration runs over the model's free variables; the remaining
    variables are filled in by the recorded propagation steps (forward
    image x -> x^2 + c and sibling negation), then the full system is
    checked.  `outer_range` restricts the first free variable to a slice of
    the element enumeration, which is how parallel counting partitions the
    work.
    """
    free = model.enumeration_variables()
    total = ctx.q ** len(free)
    if total > config.enumeration_cap:
        raise BudgetExceeded(
            f"q^{len(free)} = {total} exceeds enumeration cap {config.enumeration_cap}"
        )
    eqs = [_compile(e, ctx) for e in model.equations]
    ineqs = [_compile(e, ctx) for e in model.inequations]
    elements = list(ff_enumerate(ctx, config))
    lo, hi = outer_range if outer_range else (0, len(elements))
    zero = ctx.zero()

    def rec(idx: int, values: dict):
        if idx == len(free):
            for kind, target, source in model.steps:
                s = values[source]
                if kind == "image":
                    values[target] = s * s + values["c"]
                else:
                    values[target] = -s
            for compiled in eqs:
                if _eval_compiled(compiled, values) != zero:
                    return
            for compiled in ineqs:
                if _eval_compiled(compiled, values) == zero:
                    return
            yield dict(values)
            return
        pool = elements[lo:hi] if idx == 0 else elements
        for z in pool:
            values[free[idx]] = z
            yield from rec(idx + 1, values)

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


def _count_range(
    model: CurveModel, ctx: FFContext, lo: int, hi: int, config: RunConfig
) -> tuple[int, int]:
    """(affine, nonsingular) counts over the solutions whose first free
    variable is one of elements lo..hi-1; nonsingular counts the solutions
    where some partial derivative is nonzero and is 0 unless the model is a
    plane curve."""
    partials = None
    if _is_plane(model):
        f = model.equations[0]
        partials = [_compile(f.partial(v), ctx) for v in model.variables]
    zero = ctx.zero()
    affine = 0
    nonsingular = 0
    for sol in iter_solutions(model, ctx, config, outer_range=(lo, hi)):
        affine += 1
        if partials is not None and any(_eval_compiled(pd, sol) != zero for pd in partials):
            nonsingular += 1
    return affine, nonsingular


def _count_chunk(args) -> tuple[int, int]:
    """Worker: _count_range for a model sent as JSON."""
    model_json, p, k, lo, hi, cap = args
    from .models import model_from_json

    return _count_range(
        model_from_json(model_json), FFContext(p, k), lo, hi, RunConfig(enumeration_cap=cap)
    )


def count_points(
    model: CurveModel, p: int, k: int = 1, config: RunConfig = DEFAULT
) -> PointCountReport:
    """Count F_{p^k} assignments satisfying the model.

    With config.jobs > 1 the outermost free variable's value range is
    partitioned across worker processes and the partial counts are summed;
    the result does not depend on the partitioning.  For two-variable
    models the report also carries the count of solutions where some
    partial derivative is nonzero (nonsingular_count) and the independent
    per-x root-counting total (cross_count).
    """
    ctx = FFContext(p, k)
    plane = _is_plane(model)
    q = ctx.q
    if config.jobs > 1:
        from .models import model_to_json

        doc = model_to_json(model)
        step = -(-q // config.jobs)
        chunks = [
            (doc, p, k, lo, min(lo + step, q), config.enumeration_cap)
            for lo in range(0, q, step)
        ]
        with Pool(config.jobs) as pool:
            parts = pool.map(_count_chunk, chunks)
        affine = sum(a for a, _ in parts)
        nonsingular = sum(s for _, s in parts)
    else:
        affine, nonsingular = _count_range(model, ctx, 0, q, config)
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
    coeff_polys = [f.coefficient_in(first, i) for i in range(deg + 1)]
    total = 0
    for b in ff_enumerate(ctx):
        coeffs = [poly.evaluate({second: b}) for poly in coeff_polys]
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
    if ctx.q * ctx.q > config.enumeration_cap:
        raise BudgetExceeded(
            f"q^2 = {ctx.q ** 2} exceeds enumeration cap {config.enumeration_cap}"
        )
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
