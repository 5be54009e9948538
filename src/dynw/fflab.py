"""Point counting over F_{p^k}, gonality and cover-degree bound checkers,
and exhaustive residual period data for z -> z^2 + c.

Counts are affine-model counts; points at infinity and singular-fiber
corrections are out of scope, so gonality statements derived from them are
lower bounds computed from (nonsingular) affine points.

All field arithmetic runs on the int codes of an FFContext, with the
context's add, mul, neg, sub and inv; elements are the codes in range(q),
and the only FFElement is max_period_mod's witness, kept for its
coefficient vector.

Which way a model is counted depends on what it is:

* A full model (provenance "full") that is exactly full_model(P), for the
  portrait P its name gives, is counted on the functional graph G_c of
  z -> z^2 + c, one fiber c at a time: its points are the injective
  edge-preserving maps of P into G_c, found by portraits.map_search, the
  search that also gives portrait embeddings.  Each fiber's graph costs
  O(q) to build, so the enumeration cap bounds q^2.  max_period_mod walks
  the same graphs.
* Every other model, reduced, multilevel, plane or a full model edited by
  hand, is solved by iter_solutions.  Solutions are enumerated in-process
  over the model's free variables, and each equation, inequation and
  propagation step is applied at the first enumeration level where its
  variables are bound, so a failed condition prunes everything below it.
  Polynomials are evaluated in the compiled Horner form of
  MultiPoly.horner over the context's ring.  The enumeration cap bounds
  q^(free variables).

The exhaustive enumeration on coefficient-tuple arithmetic that checks every
condition only on complete assignments is the test oracle of both.

For plane models the affine count is computed twice, by independent
strategies: straight enumeration of (c, x), and per-x root counting in c
via gcd(f, z^q - z).  Disagreement is reported as a violation; it cannot
happen unless one of the strategies is buggy, which is the point.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator

from .config import RunConfig, DEFAULT
from .errors import NotGeneric, ParseError
from .ff import FFContext, FFElement, check_enumeration_cap, poly_gcd, poly_powmod, poly_trim
from .models import CurveModel, full_system
from .portraits import Portrait, map_search, successor_cycles


# ----------------------------------------------------------- solution iteration


def iter_solutions(
    model: CurveModel, ctx: FFContext, config: RunConfig = DEFAULT
) -> Iterator[dict]:
    """All assignments over F_q satisfying every equation and inequation,
    as dicts from variable names to codes.

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
            checks[at].append((poly.horner(ctx.ring), is_equation))
    codes = range(ctx.q)
    add, mul, neg = ctx.add, ctx.mul, ctx.neg

    def rec(depth: int, values: dict):
        for kind, target, source in steps[depth]:
            s = values[source]
            values[target] = add(mul(s, s), values["c"]) if kind == "image" else neg(s)
        for poly, is_equation in checks[depth]:
            if (poly(values) == 0) != is_equation:
                return
        if depth == len(free):
            yield dict(values)
            return
        var = free[depth]
        for z in codes:
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

    A model that is exactly full_model(P) for the portrait P its name
    gives is counted on the graph of z -> z^2 + c, one fiber at a time
    (_count_full), with q^2 held to the enumeration cap.  Every other
    model, reduced, multilevel, plane or edited, runs through
    iter_solutions, with q^(free variables) held to the cap.  Either cap
    is checked before the field is built.  For two-variable models the
    report also carries the count of solutions where some partial
    derivative is nonzero (nonsingular_count) and the independent per-x
    root-counting total (cross_count).
    """
    P = _full_portrait(model)
    dims = 2 if P is not None else len(model.enumeration_variables())
    check_enumeration_cap(p, dims, config, k=k)
    ctx = FFContext(p, k, config=config)
    if P is not None:
        return PointCountReport(model_id=model.name, q=ctx.q, affine_count=_count_full(P, ctx))
    plane = _is_plane(model)
    partials = []
    if plane:
        f = model.equations[0]
        partials = [f.partial(v).horner(ctx.ring) for v in model.variables]
    affine = 0
    nonsingular = 0
    for sol in iter_solutions(model, ctx, config):
        affine += 1
        if any(pd(sol) for pd in partials):
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
    coeff_polys = [f.coefficient_in(first, i).horner(ctx.ring) for i in range(deg + 1)]
    total = 0
    for b in range(ctx.q):
        u = poly_trim([poly({second: b}) for poly in coeff_polys])
        if not u:
            total += ctx.q
            continue
        # the distinct roots of u are those of gcd(u, c^q - c)
        diff = poly_powmod([0, 1], ctx.q, u, ctx) + [0, 0]
        diff[1] = ctx.sub(diff[1], 1)
        total += len(poly_gcd(u, poly_trim(diff), ctx)) - 1
    return total


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
    best, witness = 0, 0
    for c, succ in _fiber_successors(ctx):
        longest = max(map(len, successor_cycles(succ)))
        if longest > best:
            best, witness = longest, c
    return MaxPeriodReport(ctx.p, ctx.k, ctx.q, best, FFElement(ctx, witness))


# ------------------------------------------------- the graph of z -> z^2 + c


def _fiber_successors(ctx: FFContext) -> Iterator[tuple[int, list[int]]]:
    """(c, succ) for every code c in order, succ[z] the code of z^2 + c.

    Adding c moves each base-p digit of a code independently, so the table
    of z -> z + c is built digit by digit from rotations of range(p),
    starting from the rotation of the lowest digit (over a prime field, the
    whole table), and succ indexes it by the list of squares."""
    p = ctx.p
    squares = [ctx.mul(z, z) for z in range(ctx.q)]
    for c in range(ctx.q):
        low, *high = ctx.digits(c)
        shift = [*range(low, p), *range(low)]
        place = p
        for d in high:
            digit = [(j + d) % p * place for j in range(p)]
            shift = [h + t for h in digit for t in shift]
            place *= p
        yield c, [shift[s] for s in squares]


def _full_portrait(model: CurveModel) -> Portrait | None:
    """The portrait P when the model is exactly full_model(P) for the P its
    name gives: same variables, equations and inequations.  None otherwise."""
    if model.provenance != "full" or not model.name.startswith("full:"):
        return None
    try:
        P = Portrait.from_text(model.name[5:])
        system = full_system(P)
    except (ParseError, NotGeneric, ValueError):
        return None
    return P if system == (model.variables, model.equations, model.inequations) else None


def _count_full(P: Portrait, ctx: FFContext) -> int:
    """The F_q points of full_model(P): the injective maps phi of the
    portrait into the graph G_c of z -> z^2 + c on F_q with
    phi(v)^2 + c = phi(succ v), summed over c.

    The maps are those found by portraits.map_search, with P's structure
    built once: G_c is given by its cycles and by the square roots of y - c
    as the preimages of y.  Nothing is special-cased.  A G_c-cycle through
    0, a point with a single square root (y = c, or every point in
    characteristic 2) and a cycle predecessor already taken each leave a
    vertex of the generic P without an unused preimage, so injectivity
    alone excludes them.
    """
    add, neg = ctx.add, ctx.neg
    roots: list[list[int]] = [[] for _ in range(ctx.q)]  # the square roots of each code
    for z in range(ctx.q):
        roots[ctx.mul(z, z)].append(z)
    maps = map_search(P)
    total = 0
    for c, succ in _fiber_successors(ctx):
        minus_c = neg(c)
        total += sum(1 for _ in maps(successor_cycles(succ), lambda y: roots[add(y, minus_c)]))
    return total
