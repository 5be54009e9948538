"""Point counting over F_{p^k}, gonality and cover-degree bound checkers,
the 3-cycle trace check, and exhaustive residual period data for
z -> z^2 + c.

Counts are affine-model counts; points at infinity and singular-fiber
corrections are out of scope, so gonality statements derived from them are
lower bounds computed from (nonsingular) affine points.

All field arithmetic runs on the int codes of an FFContext, with the
context's add, mul, neg, sub and inv; elements are the codes in range(q),
and the only FFElement is max_period_mod's witness, kept for its
coefficient vector.  Polynomials are evaluated in the compiled Horner form
of MultiPoly.horner over the context's ring.

Route rule.  _reference_route rebuilds the model a name gives ("full:P",
"plane:n", "multilevel:n1,...", "reduced:P") with full_model, plane_model,
multi_level_model or reduced_model, unless what the name alone fixes
already differs.  A model with that reference's variables, equations,
inequations, free variables and steps is counted on the functional graph
G_c of z -> z^2 + c, one fiber c at a time; its meta is never read.  Every
other model, edited, renamed or enumerated another way, is solved by
iter_solutions.

* A full model full_model(P): its points are the injective edge-preserving
  maps of P into G_c, found by portraits.map_search, the search that also
  gives portrait embeddings.  Each fiber's graph costs O(q) to build, so
  the enumeration cap bounds q^2.  max_period_mod walks the same graphs.
* A plane, multilevel or reduced model: each equation is Phi_{m,n} in one
  point variable, of orbit type (m, n) read off the reference (a plane
  model is type (0, n)).  Each variable is bound to the roots of its
  equation in the fiber, by the root rule, and the tuples are checked
  against the model's inequations.  The cap bounds q^(free variables).  In
  a plane model Phi_n, a root x of exact period n whose cycle has
  multiplier lambda != 1 (lambda as in the root rule) is nonsingular: the
  x-partial of f^n(x) - x = prod_{d | n} Phi_d(x) is lambda - 1, and at x
  it equals Phi_n'(x) * prod_{d | n, d < n} Phi_d(x).  Both partials are
  evaluated at every other root.

Root rule (_fiber_roots).  The roots of Phi_n in a fiber are the points of
its cycles of length d dividing n, since Phi_n divides f^n - x, and the
formal-period rule (Morton and Silverman 1994, "Rational periodic points of
rational functions", IMRN) reads them off each cycle's length d and
multiplier lambda = prod over the cycle of 2y, with no evaluation: a point
with d = n is a root; one with d < n is a root exactly when lambda != 0,
the order r of lambda divides n/d, and n/(d*r) is a power of p.  In
brief: f^(dk) - x has a simple root at the point unless lambda^k = 1, and
Moebius inversion of f^n - x = prod_{e | n} Phi_e leaves it a root of
Phi_{dk} exactly for k = 1, r and r*p^e, e >= 1.  For m >= 1,
Phi_{m,n}(c, x) = Phi_n(c, -f^(m-1)(x)): f is even and permutes the roots
b of Phi_n, whose degree is even, so
Phi_n(c, f(x)) = prod (x - b)(x + b) = Phi_n(c, x) * Phi_n(c, -x).  The
roots of Phi_{m,n} are therefore the negated roots of Phi_n walked back
m - 1 times through square roots.  trace_relation_check takes the points
of Phi_3 from the same rule.

The solver and the orbit-type count share one walk (_plan, _walk): each
free variable runs over a domain, range(q) for the solver and the roots of
its equation for the count, and each propagation step, equation and
inequation runs at the first level where its variables are bound, so a
failed condition prunes everything below it.  iter_solutions, and the
exhaustive enumeration on coefficient-tuple arithmetic that checks every
condition only on complete assignments, are the test oracles of the fiber
counts.

Frobenius rule (_frobenius_classes).  The fiber counts and
max_period_mod visit one fiber per orbit of c -> c^p, its smallest code,
and weight its counts by the orbit's size.  Proof: sigma(z) = z^p is a
field automorphism fixing F_p, so sigma(z^2 + c) = sigma(z)^2 + sigma(c)
and sigma maps the graph G_c isomorphically onto G_{sigma(c)}; every
equation, inequation and partial derivative a routed model holds has
coefficients in F_p, so sigma maps its points, and its nonsingular points,
in fiber c one to one onto those in fiber sigma(c).  Over a prime field
every class has size 1.  The solver, the cross count, the trace check and
the test oracles still visit every fiber or every x, so each stays an
independent check of the weighted count.

For plane models the affine count is computed twice, by independent
strategies: the fiber count (or, for an edited model, the solver), and
per-x root counting in c via gcd(f, z^q - z).  Disagreement is reported as
a violation; it cannot happen unless one of the strategies is buggy, which
is the point.
"""

from __future__ import annotations

from functools import reduce
from typing import Iterable, Iterator, NamedTuple

from ._record import Record
from .dynatomic import MAX_DYNATOMIC_N, degree_d1
from .errors import DynwError
from .ff import ENUMERATION_CAP, FFContext, FFElement, check_enumeration_cap, require_prime
from .ff import poly_gcd, poly_powmod, poly_trim
from .models import CurveModel, full_model, generator_set, multi_level_model, plane_model
from .models import reduced_model
from .multipoly import MultiPoly
from .portraits import Portrait, map_search, successor_cycles


# ----------------------------------------------------------- solution iteration


def iter_solutions(
    model: CurveModel, ctx: FFContext, cap: int = ENUMERATION_CAP
) -> Iterator[dict]:
    """All assignments over F_q satisfying every equation and inequation,
    as dicts from variable names to codes.

    The walk runs every free variable over range(q), in order; the
    remaining variables are filled in by the recorded propagation steps
    (forward image x -> x^2 + c and sibling negation).
    """
    free = model.enumeration_variables()
    check_enumeration_cap(ctx.q, len(free), cap)
    plan = _plan(model, model.equations, ctx)
    for values in _walk(plan, [range(ctx.q)] * len(free), ctx):
        yield dict(values)


def _plan(model: CurveModel, equations: list, ctx: FFContext) -> tuple:
    """(free, steps, checks) of a walk over the model's free variables:
    steps[i] and checks[i] run once the first i free variables are bound,
    each at the first level where every variable it reads is bound.  A
    check is the Horner form of one of the given equations or of one of the
    model's inequations, with True for an equation."""
    free = model.enumeration_variables()
    level = {v: i + 1 for i, v in enumerate(free)}
    steps: list[list] = [[] for _ in range(len(free) + 1)]
    for kind, target, source in model.steps:
        reads = (source, "c") if kind == "image" else (source,)
        level[target] = max(level[v] for v in reads)
        steps[level[target]].append((kind, target, source))
    checks: list[list] = [[] for _ in range(len(free) + 1)]
    for is_equation, polys in ((True, equations), (False, model.inequations)):
        for poly in polys:
            at = max((level[v] for v in poly.variables), default=0)
            checks[at].append((poly.horner(ctx.ring), is_equation))
    return free, steps, checks


def _walk(plan: tuple, domains: list, ctx: FFContext) -> Iterator[dict]:
    """The assignments that bind the i-th free variable of the plan to each
    value of domains[i] in turn, run its steps and pass its checks, pruned
    at the first failed check.  Each is the walk's one dict, valid until
    the next is asked for."""
    free, steps, checks = plan
    add, mul, neg = ctx.add, ctx.mul, ctx.neg
    values: dict = {}

    def rec(depth: int):
        for kind, target, source in steps[depth]:
            s = values[source]
            values[target] = add(mul(s, s), values["c"]) if kind == "image" else neg(s)
        for poly, is_equation in checks[depth]:
            if (poly(values) == 0) != is_equation:
                return
        if depth == len(free):
            yield values
            return
        var = free[depth]
        for z in domains[depth]:
            values[var] = z
            yield from rec(depth + 1)

    return rec(0)


# --------------------------------------------------------------- point counting


class PointCountReport(Record):
    __slots__ = ("model_id", "q", "affine_count", "nonsingular_count", "cross_count", "violations")

    def __init__(
        self,
        model_id: str,
        q: int,
        affine_count: int,
        nonsingular_count: int | None = None,
        cross_count: int | None = None,
        violations: list[str] | None = None,
    ):
        self.model_id = model_id
        self.q = q
        self.affine_count = affine_count
        self.nonsingular_count = nonsingular_count
        self.cross_count = cross_count
        self.violations = [] if violations is None else violations


def _is_plane(model: CurveModel) -> bool:
    return len(model.variables) == 2 and len(model.equations) == 1


def count_points(
    model: CurveModel, p: int, k: int = 1, cap: int = ENUMERATION_CAP
) -> PointCountReport:
    """Count F_{p^k} assignments satisfying the model.

    q^min(2, free variables), a bound for every route, is checked first,
    so no p too large to count is ever tested for primality; a p that is
    not prime is refused next.  A model equal to the one its name gives
    is counted one fiber c at a time, by the route rule of the module
    docstring: a full model by the maps of its portrait into the fiber's
    graph (_count_full), with q^2 held to the enumeration cap; a plane,
    multilevel or reduced model from the roots of each equation Phi_{m,n}
    (_count_by_orbit_types).  A point of period d | n on a cycle
    of multiplier lambda is a root of Phi_n when d = n, or when lambda != 0
    has order r | n/d and n/(d*r) is a power of p: the formal-period rule
    (Morton and Silverman 1994), with its reason in the module docstring.
    Both fiber routes visit one fiber per orbit of c -> c^p and weight its
    counts by the orbit's size: Frobenius maps fiber c, its points and its
    nonsingular points onto those of fiber c^p (the Frobenius rule of the
    module docstring).  Every other model runs through iter_solutions.
    Every count but the full one holds q^(free variables) to the cap; that
    exact cap is checked before the field is built.  A coefficient whose
    denominator p divides is refused with ValueError before the model's
    reference is rebuilt.  For two-variable models other than full ones
    the report also carries the count of solutions where some partial
    derivative is nonzero (nonsingular_count) and the independent per-x
    root-counting total (cross_count).
    """
    dims = len(model.enumeration_variables())
    check_enumeration_cap(p, min(2, dims), cap, k=k)  # a bound for every route
    require_prime(p)
    for poly in (*model.equations, *model.inequations):
        for coef in poly.terms.values():
            if coef.denominator % p == 0:
                raise ValueError(f"the denominator of coefficient {coef} vanishes mod {p}")
    route = _reference_route(model)
    full = isinstance(route, Portrait)
    check_enumeration_cap(p, 2 if full else dims, cap, k=k)
    ctx = FFContext(p, k, cap)
    if full:
        return PointCountReport(model_id=model.name, q=ctx.q, affine_count=_count_full(route, ctx))
    plane = _is_plane(model)
    if route is None:
        affine, nonsingular = _count_by_solver(model, ctx, cap, plane)
    else:
        affine, nonsingular = _count_by_orbit_types(model, route, ctx, plane)
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


def _nonsingular_test(model: CurveModel, ctx: FFContext):
    """A function of an assignment, true when some partial derivative of
    the plane model's equation is nonzero there."""
    f = model.equations[0]
    partials = [f.partial(v).horner(ctx.ring) for v in model.variables]
    return lambda values: any(pd(values) for pd in partials)


def _count_by_solver(
    model: CurveModel, ctx: FFContext, cap: int, plane: bool
) -> tuple[int, int]:
    """(affine, nonsingular) over the solutions iter_solutions yields;
    nonsingular is 0 unless the model is a plane one."""
    nonsingular_at = _nonsingular_test(model, ctx) if plane else None
    affine = nonsingular = 0
    for sol in iter_solutions(model, ctx, cap):
        affine += 1
        if plane and nonsingular_at(sol):
            nonsingular += 1
    return affine, nonsingular


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


class CSQuery(NamedTuple):
    g: int
    g1: int
    g2: int
    d1: int
    d2: int


class CSReport(NamedTuple):
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


# --------------------------------------------------------- trace relation check


class TraceReport(NamedTuple):
    p: int
    points: int
    violations: list[tuple[int, int]]


def trace_relation_check(p: int, cap: int = ENUMERATION_CAP) -> TraceReport:
    """Check the 3-cycle trace invariant at every affine F_p point of the
    level-3 plane model.

    For a marked point x entering the 3-cycle (x, f(x), f^2(x)), the cycle
    is classically parametrized by a single quadratic parameter t with

        t^2 - 2*t + 29 + 16*c = 0.

    The parameter is the affine normalization t = -(4*s + 1) of the raw
    cycle sum s = x + f(x) + f^2(x); the raw sum itself satisfies
    s^2 + s + c + 2 = 0, and the two statements are equivalent.  The
    points are the roots of Phi_3 in each fiber, by the root rule; the
    check evaluates the normalized relation at each and reports the
    violations in (c, x) order (there should be none at any odd prime).
    """
    if p == 2:
        raise ValueError("the trace normalization degenerates at p = 2")
    check_enumeration_cap(p, 2, cap)
    ctx = FFContext(p)  # refuses a p that is not prime
    x, c = MultiPoly.var("x"), MultiPoly.var("c")
    fx = x * x + c
    t = -(4 * (x + fx + fx * fx + c) + 1)
    relation = (t * t - 2 * t + 29 + 16 * c).horner(ctx.ring)
    points, violations = 0, []
    for c0, _, (xs,) in _fiber_roots(ctx, ((0, 3),), range(ctx.q)):
        points += len(xs)
        violations += [(c0, x0) for x0 in xs if relation({"c": c0, "x": x0})]
    return TraceReport(p=p, points=points, violations=sorted(violations))


# --------------------------------------------------------- residual period data


class MaxPeriodReport(NamedTuple):
    p: int
    k: int
    q: int
    max_period: int
    witness_c: FFElement


def max_period_mod(ctx: FFContext, cap: int = ENUMERATION_CAP) -> MaxPeriodReport:
    """Largest cycle length of z -> z^2 + c on F_q over all c, with witness:
    the smallest code c whose graph has a cycle of that length.

    By the Frobenius rule of the module docstring, c^p has the cycle lengths
    of c, so only the smallest code of each class is visited, and the first
    one with the longest cycle is the smallest such code of all.  The
    enumeration visits about q^2/k pairs (c, z); the enumeration cap still
    bounds q^2.
    """
    check_enumeration_cap(ctx.q, 2, cap)
    best, witness = 0, 0
    for c, succ in _fiber_successors(ctx, [c for c, _ in _frobenius_classes(ctx)]):
        longest = max(map(len, successor_cycles(succ)))
        if longest > best:
            best, witness = longest, c
    return MaxPeriodReport(ctx.p, ctx.k, ctx.q, best, FFElement(ctx, witness))


# ------------------------------------------------- the graph of z -> z^2 + c


def _frobenius_classes(ctx: FFContext) -> list[tuple[int, int]]:
    """(smallest code, size) of each orbit of c -> c^p, in code order.  The
    size of c's class is the degree of F_p(c) over F_p, a divisor of k;
    over a prime field every class has size 1."""
    seen = bytearray(ctx.q)
    classes = []
    for c in range(ctx.q):
        if seen[c]:
            continue
        size, z = 0, c
        while not seen[z]:
            seen[z] = 1
            size += 1
            z = ctx.pow(z, ctx.p)
        classes.append((c, size))
    return classes


def _fiber_successors(
    ctx: FFContext, codes: Iterable[int]
) -> Iterator[tuple[int, list[int]]]:
    """(c, succ) for each code c of codes in turn, succ[z] the code of
    z^2 + c.

    Adding c moves each base-p digit of a code independently, so the table
    of z -> z + c is built digit by digit from rotations of range(p),
    starting from the rotation of the lowest digit (over a prime field, the
    whole table), and succ indexes it by the list of squares."""
    p = ctx.p
    squares = [ctx.mul(z, z) for z in range(ctx.q)]
    for c in codes:
        low, *high = ctx.digits(c)
        shift = [*range(low, p), *range(low)]
        place = p
        for d in high:
            digit = [(j + d) % p * place for j in range(p)]
            shift = [h + t for h in digit for t in shift]
            place *= p
        yield c, [shift[s] for s in squares]


def _square_roots(ctx: FFContext) -> list[list[int]]:
    """roots[z] lists the square roots of the code z; the preimages of y
    under z -> z^2 + c are roots[y - c]."""
    roots: list[list[int]] = [[] for _ in range(ctx.q)]
    for z in range(ctx.q):
        roots[ctx.mul(z, z)].append(z)
    return roots


def _fiber_roots(
    ctx: FFContext, types: tuple[tuple[int, int], ...], codes: Iterable[int]
) -> Iterator[tuple[int, list[tuple[list[int], int]], list[list[int]]]]:
    """(c, cycles, lists) for each code c of codes in turn: the cycles of the
    fiber's graph whose length divides some n of types, in successor
    order, each with its multiplier lambda = prod 2y, and lists[i] the
    roots of Phi_{m,n} in the fiber, (m, n) = types[i].  A point of exact
    period d | n is a root of Phi_n when d = n, or when lambda != 0, its
    order r divides n/d and n/(d*r) is a power of p: the formal-period
    rule (Morton and Silverman 1994) of the module docstring, which
    evaluates nothing."""
    add, mul, sub, neg = ctx.add, ctx.mul, ctx.sub, ctx.neg
    roots = _square_roots(ctx)
    periods = {n for _, n in types}

    def is_root(n: int, d: int, lam: int) -> bool:
        if d == n or n % d or not lam:  # period n, or no root at all
            return d == n
        k = n // d  # a root when k = r * p^e, r the order of lam
        r = next((j for j in range(1, k + 1) if k % j == 0 and ctx.pow(lam, j) == 1), k + 1)
        return any(r * ctx.p**e == k for e in range(k.bit_length()))

    for c, succ in _fiber_successors(ctx, codes):
        cycles = [
            (g, reduce(mul, [add(y, y) for y in g]))
            for g in successor_cycles(succ)
            if any(n % len(g) == 0 for n in periods)
        ]
        periodic = {
            n: [y for g, lam in cycles if is_root(n, len(g), lam) for y in g] for n in periods
        }
        lists = []
        for m, n in types:
            ys = [neg(y) for y in periodic[n]] if m else periodic[n]
            for _ in range(m - 1):
                ys = [u for y in ys for u in roots[sub(y, c)]]
            lists.append(ys)
        yield c, cycles, lists


def _reference_route(model: CurveModel) -> Portrait | tuple[tuple[int, int], ...] | None:
    """How count_points counts the model, by the route rule of the module
    docstring: the portrait P of a full model, or the orbit type (m, n) of
    each equation's point variable, in the order of the equations, read off
    the reference (a plane model is type (0, n)).  None, the route of the
    solver, for any other name, any failure to rebuild and any model that
    differs from its reference.  What the name alone fixes is compared
    first: the shape of a full system, the total degree D1(n) of each Phi_n
    (each level checked against the cap before D1 is formed) and a reduced
    model's generator count."""
    kind, _, arg = model.name.partition(":")
    try:
        if kind == "full":
            route = Portrait.from_text(arg)
            n = route.n
            shape = (len(model.variables), len(model.equations), len(model.inequations))
            if shape != (n + 1, n, n * (n - 1) // 2):
                return None
            reference = full_model(route)
        elif kind in ("plane", "multilevel"):
            levels = sorted(map(int, arg.split(",") if kind == "multilevel" else [arg]))
            if not all(0 < n <= MAX_DYNATOMIC_N for n in levels):
                return None
            degrees = sorted(max(map(sum, e.terms), default=-1) for e in model.equations)
            if degrees != sorted(map(degree_d1, levels)):
                return None
            reference = plane_model(levels[0]) if kind == "plane" else multi_level_model(levels)
            route = tuple((0, n) for n in reversed(levels))
        elif kind == "reduced":
            P = Portrait.from_text(arg)
            if len(model.variables) != len(generator_set(P).generators) + 1:
                return None
            reference = reduced_model(P)
            types = reference.meta["orbit_types"]
            route = tuple(tuple(types[str(g)]) for g in reference.meta["generators"])
        else:
            return None
    except (DynwError, ValueError):
        return None

    def system(m: CurveModel) -> tuple:
        return m.variables, m.equations, m.inequations, m.enumeration_variables(), m.steps

    return route if system(model) == system(reference) else None


def _count_by_orbit_types(
    model: CurveModel, types: tuple[tuple[int, int], ...], ctx: FFContext, plane: bool
) -> tuple[int, int]:
    """(affine, nonsingular) of a model whose i-th equation is Phi_{m,n}
    in its (i+1)-th variable, (m, n) = types[i], under the model's own
    inequations, counted one fiber c at a time; nonsingular is 0 unless
    the model is a plane one.

    In each fiber the walk binds c to itself and each point variable to
    the roots of its equation from _fiber_roots, so it checks only the
    inequations.  The nonsingularity rule is in the module docstring; it
    reads the multiplier _fiber_roots gives each cycle.  Only the smallest
    code of each Frobenius class is visited, and its affine and nonsingular
    counts are weighted by the class size (the Frobenius rule of the module
    docstring).
    """
    plan = _plan(model, [], ctx)
    name = model.variables[1]
    nonsingular_at = None
    affine = nonsingular = 0
    classes = _frobenius_classes(ctx)
    fibers = _fiber_roots(ctx, types, [c for c, _ in classes])
    for (c, cycles, lists), (_, size) in zip(fibers, classes):
        affine += size * sum(1 for _ in _walk(plan, [[c], *lists], ctx))
        if plane:
            (m, n), = types
            certified = {y for g, lam in cycles if not m and len(g) == n and lam != 1 for y in g}
            for y in lists[0]:
                if y not in certified:
                    nonsingular_at = nonsingular_at or _nonsingular_test(model, ctx)
                    if not nonsingular_at({"c": c, name: y}):
                        continue
                nonsingular += size
    return affine, nonsingular


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
    alone excludes them.  Only the smallest code of each Frobenius class
    is visited, and its count is weighted by the class size (the Frobenius
    rule of the module docstring).
    """
    add, neg = ctx.add, ctx.neg
    roots = _square_roots(ctx)
    maps = map_search(P)
    total = 0
    classes = _frobenius_classes(ctx)
    fibers = _fiber_successors(ctx, [c for c, _ in classes])
    for (c, succ), (_, size) in zip(fibers, classes):
        minus_c = neg(c)
        total += size * sum(
            1 for _ in maps(successor_cycles(succ), lambda y: roots[add(y, minus_c)])
        )
    return total
