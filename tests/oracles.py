"""Independent brute-force oracles shared by the test modules.

These deliberately avoid the library's own search strategies: they iterate
raw candidate grids with plain Fraction arithmetic and a blow-up cutoff, so
they can catch completeness bugs in the candidate envelope.  Over F_q they
bind every free variable before checking a single condition, and evaluate
polynomials term by term rather than in Horner form.
"""

from fractions import Fraction
from math import gcd

from dynw.config import DEFAULT, RunConfig
from dynw.errors import BudgetExceeded, NonExactDivision
from dynw.ff import FFContext, ff_enumerate
from dynw.models import CurveModel
from dynw.multipoly import MultiPoly, _term_key


def brute_force_preperiodic(c: Fraction, height: int) -> set[Fraction]:
    """All preperiodic starting points found among x = u/v with
    |u|, v <= 4*height, by iterating 64 steps and watching for repeats."""
    found = set()
    bound = 4 * height
    for v in range(1, bound + 1):
        for u in range(-bound, bound + 1):
            if gcd(abs(u), v) != 1:
                continue
            x = Fraction(u, v)
            val = x
            seen = {val}
            for _ in range(64):
                val = val * val + c
                if abs(val.numerator) > 10**24 or val.denominator > 10**24:
                    break
                if val in seen:
                    found.add(x)
                    break
                seen.add(val)
    return found


def brute_force_automorphism_count(image: tuple[int, ...]) -> int:
    """Number of vertex bijections s with s(f(v)) = f(s(v)) for every v.

    ``image`` is the successor map f as a tuple, vertex v mapping to
    image[v - 1].  The search backtracks over the images of vertices
    1, 2, ... in turn and prunes an assignment as soon as it breaks
    commutation with a vertex already assigned; it uses nothing of the
    library's tree-matching search.
    """
    n = len(image)
    f = (0,) + tuple(image)
    preimages = [[] for _ in range(n + 1)]
    for v in range(1, n + 1):
        preimages[f[v]].append(v)
    s = [0] * (n + 1)
    used = [False] * (n + 1)

    def consistent(v: int, w: int) -> bool:
        if f[v] == v and f[w] != w:
            return False
        if s[f[v]] and s[f[v]] != f[w]:
            return False
        return all(not s[u] or f[s[u]] == w for u in preimages[v])

    def extend(v: int) -> int:
        if v > n:
            return 1
        count = 0
        for w in range(1, n + 1):
            if not used[w] and consistent(v, w):
                s[v], used[w] = w, True
                count += extend(v + 1)
                s[v], used[w] = 0, False
        return count

    return extend(1)


def poly_exact_divide(numerator: MultiPoly, denominator: MultiPoly) -> MultiPoly:
    """Exact quotient numerator / denominator over Q.

    Runs multivariate long division by the leading term in the canonical
    graded order, on MultiPoly terms rather than the packed Z[c,x] engine.
    If the division is exact this strips one leading term per step and
    terminates with remainder zero; otherwise NonExactDivision is raised.
    """
    if denominator.is_zero():
        raise ZeroDivisionError("division by the zero polynomial")
    if numerator.is_zero():
        return MultiPoly.zero()
    variables, rem_map, den_map = numerator._align(denominator)
    den_lead = max(den_map, key=_term_key)
    den_lead_coef = den_map[den_lead]

    quot: dict[tuple[int, ...], Fraction] = {}
    rem = dict(rem_map)
    while rem:
        lead = max(rem, key=_term_key)
        q_exp = tuple(a - b for a, b in zip(lead, den_lead))
        if any(e < 0 for e in q_exp):
            raise NonExactDivision(f"{denominator} does not divide {numerator}")
        q_coef = rem[lead] / den_lead_coef
        quot[q_exp] = quot.get(q_exp, Fraction(0)) + q_coef
        for e, c in den_map.items():
            key = tuple(a + b for a, b in zip(q_exp, e))
            val = rem.get(key, Fraction(0)) - q_coef * c
            if val:
                rem[key] = val
            else:
                rem.pop(key, None)
    return MultiPoly(variables, quot)


def compile_terms(poly: MultiPoly, coerce):
    """[(coefficient, exponent map)] for term-by-term evaluation, each
    coefficient coerced by `coerce`.  The list starts with a zero term, so
    the zero polynomial evaluates to zero of the right kind."""
    return [(coerce(0), ())] + [
        (coerce(coef), tuple(zip(poly.variables, exps)))
        for exps, coef in poly.terms.items()
    ]


def eval_terms(compiled, values: dict):
    """Sum of the compiled terms, each a coefficient times powers."""
    acc = None
    for coef, exps in compiled:
        term = coef
        for var, e in exps:
            if e:
                term = term * values[var] ** e
        acc = term if acc is None else acc + term
    return acc


def brute_solutions(model: CurveModel, ctx: FFContext, config: RunConfig = DEFAULT):
    """All assignments over F_q satisfying every equation and inequation.

    Binds every free variable, fills in the remaining variables by the
    model's propagation steps, and only then checks the whole system,
    term by term.
    """
    free = model.enumeration_variables()
    total = ctx.q ** len(free)
    if total > config.enumeration_cap:
        raise BudgetExceeded(
            f"q^{len(free)} = {total} exceeds enumeration cap {config.enumeration_cap}"
        )
    eqs = [compile_terms(e, ctx.from_rational) for e in model.equations]
    ineqs = [compile_terms(e, ctx.from_rational) for e in model.inequations]
    elements = list(ff_enumerate(ctx, config))
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
                if eval_terms(compiled, values) != zero:
                    return
            for compiled in ineqs:
                if eval_terms(compiled, values) == zero:
                    return
            yield dict(values)
            return
        for z in elements:
            values[free[idx]] = z
            yield from rec(idx + 1, values)

    yield from rec(0, {})


def brute_counts(model: CurveModel, p: int, k: int = 1) -> tuple:
    """(affine, nonsingular, cross) as count_points should report them: the
    brute solution count; for a plane model, the solutions where a partial
    derivative is nonzero, with the root-counting total equal to the
    affine count; otherwise None for both."""
    ctx = FFContext(p, k)
    zero = ctx.zero()
    plane = len(model.variables) == 2 and len(model.equations) == 1
    partials = []
    if plane:
        f = model.equations[0]
        partials = [compile_terms(f.partial(v), ctx.from_rational) for v in model.variables]
    affine = nonsingular = 0
    for sol in brute_solutions(model, ctx):
        affine += 1
        if any(eval_terms(pd, sol) != zero for pd in partials):
            nonsingular += 1
    if not plane:
        return affine, None, None
    return affine, nonsingular, affine
