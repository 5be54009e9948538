"""Independent brute-force oracles shared by the test modules.

These deliberately avoid the library's own search strategies: they iterate
raw candidate grids with plain Fraction arithmetic and a blow-up cutoff, so
they can catch completeness bugs in the candidate envelope.  Over F_q they
compute on coefficient tuples (schoolbook products reduced by the modulus,
inverses by the extended Euclidean algorithm) rather than on the library's
int codes and tables, bind every free variable before checking a single
condition, and evaluate polynomials term by term rather than in Horner form.
generic_classes lists the inputs that several property tests range over.
window_successors and window_non_escaping compute classify's successor
array from every candidate of the window and walk it from every index,
against which the library's annulus of live candidates is checked.
brute_force_embeddings tries every injective vertex map, against which the
library's cycle-then-tree map search is checked.
oracle_generator_set runs the generator greedy as defined, closing the
known set afresh for every candidate, against which the library's per-vertex
closures are checked.
arithmetic_full_system builds the full model's system by MultiPoly
arithmetic, against which the library's term-by-term construction is checked.
has_intermediate searches every generic class of every size between two
portraits, against which minimal_extensions, which returns its candidates
unsearched, is checked; it uses the library's enumeration and embeddings.
quotient_generalized_dynatomic builds Phi_{m,n} by the one big division of
its definition, and is now the only route to Phi_{m,n} that divides: the
library's Phi_n(c, -f^(m-1)(x)) is checked against it.  Its compositions go
through oracle_compose, Horner in x with the packed engine's products,
which shares no code with the library's Taylor shifts.
dynatomic_roots_by_evaluation finds the roots of Phi_n over F_q by
iterating every point and evaluating Phi_n at those of smaller period,
against which fflab's formal-period rule, which evaluates nothing, is
checked.
"""

import operator
from fractions import Fraction
from functools import reduce
from itertools import combinations, combinations_with_replacement, permutations, product
from math import gcd

from dynw import _packed as pk
from dynw.dynatomic import _cx_to_multipoly, dynatomic, dynatomic_cx
from dynw.errors import BudgetExceeded, NonExactDivision
from dynw.ff import ENUMERATION_CAP, FFContext
from dynw.models import CurveModel
from dynw.multipoly import MultiPoly, _term_key
from dynw.portraits import (
    CycleStructure,
    Portrait,
    cycle_structure,
    embeddings,
    enumerate_generic,
    find_cycles,
    preimages,
    vertex_depths,
)


def generic_classes(max_n: int) -> list[Portrait]:
    """Every generic class with at most max_n vertices, from the library's
    enumeration; a generic portrait has at most n/2 periodic points."""
    half = max_n // 2
    structures = {
        CycleStructure.of(lengths)
        for size in range(1, half + 1)
        for lengths in combinations_with_replacement(range(1, half + 1), size)
        if sum(lengths) <= half
    }
    return [
        P
        for sigma in sorted(structures, key=lambda s: s.lengths)
        if sigma.admissible()
        for n in range(2, max_n + 1, 2)
        for P in enumerate_generic(n, sigma)
    ]


def has_intermediate(P: Portrait, Q: Portrait) -> bool:
    """Whether a generic class R with P < R < Q exists: every generic class
    of each even size strictly between, whose cycles are P's plus a
    sub-multiset of those Q adds, is tried for P embedding in R and R in Q."""
    base = list(cycle_structure(P).lengths)
    extra = list(cycle_structure(Q).lengths)
    for length in base:
        extra.remove(length)
    subsets = {tuple(c) for r in range(len(extra) + 1) for c in combinations(extra, r)}
    for size in range(P.n + 2, Q.n, 2):
        for subset in sorted(subsets):
            sigma = CycleStructure.of(base + list(subset))
            if sigma.admissible() and any(
                embeddings(P, R) and embeddings(R, Q) for R in enumerate_generic(size, sigma)
            ):
                return True
    return False


def arithmetic_full_system(P: Portrait) -> tuple[list, list]:
    """The edge equations x_i^2 + c - x_j and the inequations x_i - x_j
    (i < j) of full_model(P), by MultiPoly arithmetic on the variables."""
    c = MultiPoly.var("c")
    xs = {i: MultiPoly.var(f"x{i}") for i in range(1, P.n + 1)}
    equations = [xs[i] * xs[i] + c - xs[P.successor(i)] for i in range(1, P.n + 1)]
    inequations = [
        xs[i] - xs[j] for i in range(1, P.n + 1) for j in range(i + 1, P.n + 1)
    ]
    return equations, inequations


def quotient_generalized_dynatomic(m: int, n: int) -> MultiPoly:
    """Phi_{m,n} for m >= 1 as its definition reads: Phi_n composed with
    f^m, exactly divided by Phi_n composed with f^(m-1), on the packed
    engine, whose division certifies its quotient by a coefficient bound."""
    phi = dynatomic_cx(n)
    numer = oracle_compose(phi, pk.fc_iterate(m))
    denom = oracle_compose(phi, pk.fc_iterate(m - 1))
    return _cx_to_multipoly(pk.cx_divexact(numer, denom))


def oracle_compose(A: list, g: list) -> list:
    """Substitute x -> g(c, x) in the cx form A, by Horner in x."""
    acc: list = []
    for xd in range(pk.cx_deg_x(A), -1, -1):
        acc = pk.cx_mul(acc, g) if acc else []
        if A[xd]:
            acc = pk.cx_add(acc, [A[xd][:]])
    return acc


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


def window_successors(m: int, a: int, u_max: int) -> list[int]:
    """The successor array of classify's candidates u/m, |u| <= u_max, with
    one divmod for every candidate: succ[u + u_max] = v + u_max when
    (u^2 + a)/m = v is an integer with |v| <= u_max, and -1 otherwise."""
    succ = []
    for u in range(-u_max, u_max + 1):
        v, r = divmod(u * u + a, m)
        succ.append(v + u_max if r == 0 and -u_max <= v <= u_max else -1)
    return succ


def window_non_escaping(succ: list[int]) -> list[int]:
    """The ascending indices whose path under succ never reaches -1, walked
    from every index."""
    state = [0] * len(succ)  # 0 new, 1 on the current path, 2 escapes, 3 stays
    for start in range(len(succ)):
        path = []
        i = start
        while i >= 0 and state[i] == 0:
            state[i] = 1
            path.append(i)
            i = succ[i]
        verdict = 2 if i < 0 or state[i] == 2 else 3
        for j in path:
            state[j] = verdict
    return [i for i, s in enumerate(state) if s == 3]


def brute_force_embeddings(P: Portrait, Q: Portrait) -> list[tuple[int, ...]]:
    """Every injective map psi of P's vertices into Q's with
    psi(f_P(v)) = f_Q(psi(v)), as sorted tuples psi[v-1]: all
    Q.n!/(Q.n - P.n)! injections are tried, with no search strategy."""
    return sorted(
        psi
        for psi in permutations(range(1, Q.n + 1), P.n)
        if all(psi[t - 1] == Q.image[psi[v] - 1] for v, t in enumerate(P.image))
    )


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


def _close(P: Portrait, known: set[int]) -> set[int]:
    """Closure of a vertex set under forward images and sibling negation."""
    pre = preimages(P)
    known = set(known)
    changed = True
    while changed:
        changed = False
        for v in sorted(known):
            w = P.successor(v)
            if w not in known:
                known.add(w)
                changed = True
            for u in pre[P.successor(v) - 1]:
                if u != v and u not in known:
                    known.add(u)
                    changed = True
    return known


def oracle_generator_set(P: Portrait) -> tuple[list[int], list[tuple[str, int, int]]]:
    """The generators and (kind, vertex, source) closure steps of a generic
    P by the greedy's definition: each round closes the known set together
    with every candidate afresh and keeps the first largest gain in tie
    order (periodic vertices by index, then in-degree-zero vertices by
    decreasing depth, then the rest by index); the steps replay the closure
    of the generators, image steps before negations in each round."""
    depth = vertex_depths(P)
    on_cycle = {v for cyc in find_cycles(P) for v in cyc}
    indeg = [0] * (P.n + 1)
    for t in P.image:
        indeg[t] += 1

    def tie_key(v: int):
        if v in on_cycle:
            return (0, v)
        if indeg[v] == 0:
            return (1, -depth[v], v)
        return (2, v)

    generators: list[int] = []
    known: set[int] = set()
    while len(known) < P.n:
        best_v, best_gain = None, -1
        for v in sorted(range(1, P.n + 1), key=tie_key):
            if v in known:
                continue
            gain = len(_close(P, known | {v})) - len(known)
            if gain > best_gain:
                best_v, best_gain = v, gain
        generators.append(best_v)
        known = _close(P, known | {best_v})

    steps: list[tuple[str, int, int]] = []
    have = set(generators)
    pre = preimages(P)
    progress = True
    while progress:
        progress = False
        for v in sorted(have):
            w = P.successor(v)
            if w not in have:
                have.add(w)
                steps.append(("image", w, v))
                progress = True
        for v in sorted(have):
            for u in pre[P.successor(v) - 1]:
                if u != v and u not in have:
                    have.add(u)
                    steps.append(("negate", u, v))
                    progress = True
    return generators, steps


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
        q_coef = Fraction(rem[lead], den_lead_coef)
        quot[q_exp] = quot.get(q_exp, Fraction(0)) + q_coef
        for e, c in den_map.items():
            key = tuple(a + b for a, b in zip(q_exp, e))
            val = rem.get(key, Fraction(0)) - q_coef * c
            if val:
                rem[key] = val
            else:
                rem.pop(key, None)
    return MultiPoly(variables, quot)


# ------------------------------------------------- F_q on coefficient tuples


def _trim(f: list[int]) -> list[int]:
    while f and f[-1] == 0:
        f.pop()
    return f


def _polymul(f: list[int], g: list[int], p: int) -> list[int]:
    if not f or not g:
        return []
    out = [0] * (len(f) + len(g) - 1)
    for i, a in enumerate(f):
        for j, b in enumerate(g):
            out[i + j] = (out[i + j] + a * b) % p
    return _trim(out)


def _remainder(f: list[int], monic: list[int], p: int) -> list[int]:
    f = f[:]
    while len(f) >= len(monic):
        lead, shift = f[-1], len(f) - len(monic)
        for i, c in enumerate(monic):
            f[shift + i] = (f[shift + i] - lead * c) % p
        _trim(f)
    return f


class TupleField:
    """F_{p^k} = F_p[t] / (modulus) with elements as coefficient tuples,
    low degree first."""

    def __init__(self, p: int, k: int, modulus: tuple[int, ...]):
        self.p, self.k, self.modulus = p, k, tuple(modulus)
        self.q = p**k

    @classmethod
    def like(cls, ctx: FFContext) -> "TupleField":
        """The field of a context, on the same modulus."""
        return cls(ctx.p, ctx.k, ctx.modulus)

    @classmethod
    def of_order(cls, p: int, k: int) -> "TupleField":
        """F_{p^k} on the first monic modulus, in lexicographic order of its
        coefficients from the top, that no monic polynomial of degree 1 to
        k/2 divides."""
        for high_first in product(range(p), repeat=k):
            modulus = list(reversed(high_first)) + [1]
            if not any(
                not _remainder(modulus, list(reversed(low)) + [1], p)
                for d in range(1, k // 2 + 1)
                for low in product(range(p), repeat=d)
            ):
                return cls(p, k, tuple(modulus))
        raise AssertionError("no irreducible modulus")

    def element(self, coeffs) -> "TupleElement":
        coeffs = tuple(c % self.p for c in coeffs)
        if len(coeffs) != self.k:
            raise ValueError("coefficient vector has wrong length")
        return TupleElement(self, coeffs)

    def zero(self) -> "TupleElement":
        return self.element((0,) * self.k)

    def one(self) -> "TupleElement":
        return self.from_int(1)

    def from_int(self, n: int) -> "TupleElement":
        return self.element((n,) + (0,) * (self.k - 1))

    def from_rational(self, r) -> "TupleElement":
        r = Fraction(r)
        if r.denominator % self.p == 0:
            raise ZeroDivisionError(f"denominator of {r} vanishes mod {self.p}")
        return self.from_int(r.numerator) * self.from_int(r.denominator).inverse()

    def elements(self) -> list["TupleElement"]:
        """Every element, lexicographic on the coefficient tuple with the
        constant coefficient varying fastest."""
        return [
            self.element(reversed(high_first))
            for high_first in product(range(self.p), repeat=self.k)
        ]


class TupleElement:
    __slots__ = ("field", "coeffs")

    def __init__(self, field: TupleField, coeffs: tuple[int, ...]):
        self.field = field
        self.coeffs = coeffs

    def _other(self, other) -> "TupleElement":
        if isinstance(other, int):
            return self.field.from_int(other)
        if other.field is not self.field:
            raise ValueError("elements of different fields")
        return other

    def __add__(self, other):
        other = self._other(other)
        p = self.field.p
        return TupleElement(
            self.field, tuple((a + b) % p for a, b in zip(self.coeffs, other.coeffs))
        )

    __radd__ = __add__

    def __neg__(self):
        p = self.field.p
        return TupleElement(self.field, tuple(-a % p for a in self.coeffs))

    def __sub__(self, other):
        return self + (-self._other(other))

    def __mul__(self, other):
        """Schoolbook product, then reduction of the top coefficients by the
        modulus."""
        other = self._other(other)
        field = self.field
        p, k, m = field.p, field.k, field.modulus
        prod = [0] * (2 * k - 1)
        for i, a in enumerate(self.coeffs):
            for j, b in enumerate(other.coeffs):
                prod[i + j] += a * b
        for d in range(2 * k - 2, k - 1, -1):
            c = prod[d] % p
            for i in range(k):
                prod[d - k + i] -= c * m[i]
            prod[d] = 0
        return TupleElement(field, tuple(v % p for v in prod[:k]))

    __rmul__ = __mul__

    def __pow__(self, e: int):
        if e < 0:
            return self.inverse() ** (-e)
        result = self.field.one()
        for _ in range(e):
            result = result * self
        return result

    def inverse(self) -> "TupleElement":
        """Multiplicative inverse by the extended Euclidean algorithm on
        (modulus, self)."""
        if self.is_zero():
            raise ZeroDivisionError("inverse of zero")
        field = self.field
        p = field.p
        r0, r1 = list(field.modulus), _trim(list(self.coeffs))
        s0, s1 = [], [1]
        while len(r1) > 1:
            # one division step: r0 = quot*r1 + rem
            quot = [0] * (len(r0) - len(r1) + 1)
            rem = r0[:]
            inv_lead = pow(r1[-1], p - 2, p)
            while len(rem) >= len(r1):
                shift = len(rem) - len(r1)
                factor = rem[-1] * inv_lead % p
                quot[shift] = factor
                for i, c in enumerate(r1):
                    rem[shift + i] = (rem[shift + i] - factor * c) % p
                _trim(rem)
            r0, r1 = r1, rem
            qs1 = _polymul(quot, s1, p)
            news = [0] * max(len(s0), len(qs1))
            for i, c in enumerate(s0):
                news[i] = c
            for i, c in enumerate(qs1):
                news[i] = (news[i] - c) % p
            s0, s1 = s1, _trim(news)
        # r1 is a nonzero constant; normalize
        inv_c = pow(r1[0], p - 2, p)
        s1 = [c * inv_c % p for c in s1] + [0] * field.k
        return TupleElement(field, tuple(s1[: field.k]))

    def is_zero(self) -> bool:
        return not any(self.coeffs)

    def __eq__(self, other):
        if isinstance(other, int):
            other = self.field.from_int(other)
        return isinstance(other, TupleElement) and self.coeffs == other.coeffs

    def __hash__(self):
        return hash(self.coeffs)

    def __repr__(self):
        return f"TupleElement({list(self.coeffs)} over p={self.field.p})"


# ------------------------------------------------------ brute point counting


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


def brute_solutions(model: CurveModel, field: TupleField, cap: int = ENUMERATION_CAP):
    """All assignments over F_q satisfying every equation and inequation,
    as dicts from variable names to TupleElements.

    Binds every free variable, fills in the remaining variables by the
    model's propagation steps, and only then checks the whole system,
    term by term.
    """
    free = model.enumeration_variables()
    total = field.q ** len(free)
    if total > cap:
        raise BudgetExceeded(f"q^{len(free)} = {total} exceeds enumeration cap {cap}")
    eqs = [compile_terms(e, field.from_rational) for e in model.equations]
    ineqs = [compile_terms(e, field.from_rational) for e in model.inequations]
    elements = field.elements()
    zero = field.zero()

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
    affine count; otherwise None for both.  The field is found by trial
    division, independently of FFContext; counts do not depend on the
    modulus."""
    field = TupleField.of_order(p, k)
    zero = field.zero()
    plane = len(model.variables) == 2 and len(model.equations) == 1
    partials = []
    if plane:
        f = model.equations[0]
        partials = [compile_terms(f.partial(v), field.from_rational) for v in model.variables]
    affine = nonsingular = 0
    for sol in brute_solutions(model, field):
        affine += 1
        if any(eval_terms(pd, sol) != zero for pd in partials):
            nonsingular += 1
    if not plane:
        return affine, None, None
    return affine, nonsingular, affine


# ------------------------------------------------------ roots of Phi_n over F_q


def dynatomic_roots_by_evaluation(n: int, ctx: FFContext) -> tuple[set, list]:
    """(roots, evaluated): the roots (c, y) of Phi_n over F_q, and
    (c, y, d, vanishes) for every point y of exact period d, d a proper
    divisor of n, at which Phi_n was evaluated.

    Each point's exact period comes from iterating z -> z^2 + c from it in
    the context's arithmetic, with no cycle search.  A point of exact
    period n is a root unevaluated: over Z[c], f^n - x is the product of
    the Phi_d over d | n, and Phi_d vanishes only at points of period
    dividing d.  Every other periodic point of period dividing n is tested
    by evaluating dynatomic(n).phi, the test fflab made before the
    formal-period rule replaced it.  Once per fiber that has such a point,
    each coefficient of x is evaluated at c term by term: its integer
    coefficients reduced mod p weigh the coefficient vectors of the powers
    of c, one F_p sum per vector entry.  The polynomial in x that results
    is evaluated at each point."""
    p, add, mul = ctx.p, ctx.add, ctx.mul
    table = dynatomic(n)
    rows: dict = {}  # x-degree -> ([c-degree], [coefficient mod p])
    for (ec, ex), coef in table.phi.terms.items():
        row = rows.setdefault(ex, ([], []))
        row[0].append(ec)
        row[1].append(coef % p)

    def coefficients_in_x(c: int) -> list[tuple[int, int]]:
        power = [1]
        for _ in range(table.degree_c):
            power.append(mul(power[-1], c))
        vectors = [entry.__getitem__ for entry in zip(*map(ctx.digits, power))]
        return [
            (ex, sum(sum(map(operator.mul, coefs, map(v, degrees))) % p * p**j
                     for j, v in enumerate(vectors)))
            for ex, (degrees, coefs) in rows.items()
        ]

    roots, evaluated = set(), []
    for c in range(ctx.q):
        in_x = None
        for y in range(ctx.q):
            z, d = add(mul(y, y), c), 1
            while z != y and d < n:
                z, d = add(mul(z, z), c), d + 1
            if z != y or n % d:
                continue
            vanishes = d == n
            if d < n:
                in_x = in_x or coefficients_in_x(c)
                vanishes = reduce(add, [mul(a, ctx.pow(y, ex)) for ex, a in in_x]) == 0
                evaluated.append((c, y, d, vanishes))
            if vanishes:
                roots.add((c, y))
    return roots, evaluated
