"""Dynatomic polynomials of x^2 + c and the associated degree arithmetic.

The n-th dynatomic polynomial is computed by the Moebius product

    Phi_n(c, x) = prod_{d | n} (f^d(x) - x)^{mu(n/d)},

organized as a chain of exact divisions (see dynatomic_cx for the staging),
each certified with no product and each a correctness assertion, since a
non-exact division can only come from a logic error.  The generalized
dynatomic polynomials need no division: f = x^2 + c is even and permutes
the roots of Phi_n, so Phi_n(c, f(x)) = Phi_n(c, x) * Phi_n(c, -x) and
Phi_{m,n} = Phi_n(c, -f^(m-1)(x)) (generalized_dynatomic).

Degree bookkeeping (all exact big-integer arithmetic):

    D1(n) = sum_{k | n} mu(n/k) 2^k          degree in x of Phi_n
    D0(n) = D1(n) / n                        always an integer
    B(n)  = (D1(n) - sum_{k | n, k < n} D1(k) phi(n/k)) / 2
    genus_lb(n) = 1 + B(n)/2 - D0(n)         reported raw, may be negative

Levels above MAX_DYNATOMIC_N = 11, and orbit types wider in x than Phi_11,
are refused before anything is built: level 11 takes about 26 s and 1 GiB,
and level 12 exhausts a 7 GB machine.  The cap is a constant, not a run
setting, so every builder of Phi_n, Phi_{m,n} and their models sees one cap.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from . import _packed as pk
from .errors import NonExactDivision
from .multipoly import MultiPoly
from .rational import divisors_of, factorize

VAR_C = "c"
VAR_X = "x"
MAX_DYNATOMIC_N = 11


# ------------------------------------------------------- elementary functions


def moebius(n: int) -> int:
    if n < 1:
        raise ValueError("moebius expects n >= 1")
    exps = factorize(n).values()
    return 0 if any(e > 1 for e in exps) else (-1) ** len(exps)


def euler_phi(n: int) -> int:
    if n < 1:
        raise ValueError("euler_phi expects n >= 1")
    result = n
    for p in factorize(n):
        result -= result // p
    return result


def degree_d1(n: int) -> int:
    return sum(moebius(n // k) * (1 << k) for k in divisors_of(n))


def degree_d0(n: int) -> int:
    d1 = degree_d1(n)
    if d1 % n:
        raise ArithmeticError(f"n = {n} does not divide D1(n) = {d1}")
    return d1 // n


def branch_count(n: int) -> int:
    """Number of affine branch points of the cycle-parameter map at level n.

    The proper-divisor sum is empty for n = 1, giving B(1) = D1(1)/2 = 1.
    """
    total = degree_d1(n) - sum(
        degree_d1(k) * euler_phi(n // k) for k in divisors_of(n) if k < n
    )
    if total % 2:
        raise ArithmeticError(f"odd branch-count numerator at n = {n}")
    return total // 2


# ----------------------------------------------------------------- cx bridge


def _cx_to_multipoly(cx: list) -> MultiPoly:
    terms = pk.cx_to_terms(cx)
    if any(ec for ec, _ in terms) and any(ex for _, ex in terms):  # both used
        return MultiPoly._normalized((VAR_C, VAR_X), terms)
    return MultiPoly((VAR_C, VAR_X), terms)


def _fn_minus_x(n: int) -> list:
    return pk.cx_add(pk.fc_iterate(n), [None, [-1]])


# ------------------------------------------------------------------ operations


def iterate_fc(n: int) -> MultiPoly:
    """The n-th iterate of x^2 + c as a polynomial in (c, x); f^0 = x."""
    if n < 0:
        raise ValueError("iterate count must be >= 0")
    return _cx_to_multipoly(pk.fc_iterate(n))


@dataclass
class DynatomicTable:
    n: int
    phi: MultiPoly
    degree_x: int
    degree_c: int


_dynatomic_cache: dict[int, list] = {}


def dynatomic_cx(n: int) -> list:
    """Internal cx form of Phi_n, cached.

    The Moebius product is evaluated as a chain of single-dividend exact
    divisions over the prime factors of n, which keeps the largest
    intermediate close to f^n itself:

        M(n, {}) = f^n - x,    M(n, S + {p}) = M(n, S) / M(n/p, S),

    Phi_n = M(n, all primes); for two primes p < q that is
    [(f^n - x)/(f^(n/p) - x)] / [(f^(n/q) - x)/(f^(n/pq) - x)].
    M(n, S) is the product of the Phi_e, e | n, for which no prime in S
    divides n/e, so each division is exact.
    """
    if n in _dynatomic_cache:
        return pk.cx_copy(_dynatomic_cache[n])
    try:
        phi = _moebius_chain(n, sorted(factorize(n)))
    except ArithmeticError as exc:  # pragma: no cover - internal invariant
        raise NonExactDivision(f"dynatomic quotient at n = {n}: {exc}") from exc
    _dynatomic_cache[n] = pk.cx_copy(phi)
    return phi


def _moebius_chain(n: int, primes: list) -> list:
    if not primes:
        return _fn_minus_x(n)
    *rest, p = primes
    return pk.cx_divexact(_moebius_chain(n, rest), _moebius_chain(n // p, rest))


def dynatomic(n: int) -> DynatomicTable:
    """The n-th dynatomic polynomial with its degree bookkeeping."""
    if n < 1:
        raise ValueError("dynatomic level must be >= 1")
    if n > MAX_DYNATOMIC_N:
        raise ValueError(f"n = {n} exceeds max_dynatomic_n = {MAX_DYNATOMIC_N}")
    phi_cx = dynatomic_cx(n)
    d1 = degree_d1(n)
    deg_x = pk.cx_deg_x(phi_cx)
    deg_c = pk.cx_deg_c(phi_cx)
    if deg_x != d1 or 2 * deg_c != d1:
        raise NonExactDivision(
            f"dynatomic degrees at n = {n}: got ({deg_x}, {deg_c}), want ({d1}, {d1 // 2})"
        )
    return DynatomicTable(n=n, phi=_cx_to_multipoly(phi_cx), degree_x=deg_x, degree_c=deg_c)


def product_identity_holds(n: int) -> bool:
    """Check prod_{d | n} Phi_d = f^n - x exactly."""
    prod = None
    for d in sorted(divisors_of(n)):
        phi = dynatomic_cx(d)
        prod = phi if prod is None else pk.cx_mul(prod, phi)
    return pk.cx_eq(prod, _fn_minus_x(n))


def generalized_dynatomic(m: int, n: int) -> MultiPoly:
    """Dynatomic polynomial of preperiod m and eventual period n.

    For m = 0 this is Phi_n; for m >= 1 it is
    Phi_n(c, f^m(x)) / Phi_n(c, f^{m-1}(x)), which is
    Phi_n(c, -f^{m-1}(x)), with no division.  Proof: f = x^2 + c permutes
    the roots b of Phi_n and D1(n) is even, so
    Phi_n(c, f(x)) = prod (x^2 + c - f(b)) = prod (x - b)(x + b)
    = Phi_n(c, x) * Phi_n(c, -x); hence Phi_{1,n}(c, x) = Phi_n(c, -x) and
    Phi_{m,n} = Phi_{1,n} o f^{m-1}.  Phi_n(c, -x) negates the odd x-rows
    of Phi_n, and f^{m-1} is composed in by m - 1 Taylor shifts
    (pk.cx_compose_f): A(c, x^2 + c) = Q(c, x^2) with Q(c, y) = A(c, y + c),
    by Horner in y on packed c-rows, shifts and adds only.  The result must
    have x-degree 2^{m-1}*D1(n) and be monic in x; an orbit type wider in x
    than Phi_11 (MAX_DYNATOMIC_N) is refused before anything is built.
    """
    if m < 0 or n < 1:
        raise ValueError("need m >= 0 and n >= 1")
    if n > MAX_DYNATOMIC_N:
        raise ValueError(f"n = {n} exceeds max_dynatomic_n = {MAX_DYNATOMIC_N}")
    want, cap = degree_d1(n) << max(m - 1, 0), degree_d1(MAX_DYNATOMIC_N)
    if want > cap:
        raise ValueError(
            f"orbit type ({m}, {n}) has x-degree {want}, more than the {cap} of "
            f"Phi_{MAX_DYNATOMIC_N} (max_dynatomic_n)"
        )
    phi = dynatomic_cx(n)
    if m == 0:
        return _cx_to_multipoly(phi)
    odd_negated = [[-v for v in s] if i % 2 and s else s for i, s in enumerate(phi)]
    out = pk.cx_compose_f(odd_negated, m - 1)
    deg = pk.cx_deg_x(out)
    if deg != want or out[-1] != [1]:
        raise NonExactDivision(
            f"generalized dynatomic ({m}, {n}): x-degree {deg}, want {want}, monic in x"
        )
    return _cx_to_multipoly(out)


# --------------------------------------------------------------- degree reports


@dataclass
class DegreeReport:
    n: int
    D1: int
    D0: int
    B: int
    genus_lb: Fraction


def degree_report(n: int) -> DegreeReport:
    """Exact degree, branch-count, and genus-lower-bound data for level n.

    genus_lb = 1 + B(n)/2 - D0(n) is returned raw (it can be negative and is
    only meaningful as a curve bound for large n; callers decide how to use
    it).
    """
    if n < 1:
        raise ValueError("degree_report expects n >= 1")
    if n > 256:
        raise ValueError("degree_report supports n <= 256")
    d1 = degree_d1(n)
    d0 = degree_d0(n)
    b = branch_count(n)
    genus_lb = 1 + Fraction(b, 2) - d0
    return DegreeReport(n=n, D1=d1, D0=d0, B=b, genus_lb=genus_lb)


@dataclass
class BoundsReport:
    n: int
    D1: int
    lower: int
    upper: int
    lower_holds: bool
    upper_holds: bool
    lower_strict: bool
    upper_strict: bool
    strict_required: bool
    ok: bool


def check_degree_bounds(n: int) -> BoundsReport:
    """Verify 2^(n-1) <= D1(n) <= 2^n, with strictness.

    Strict inequalities are required whenever n >= 3; the report's `ok`
    field records whether everything that must hold does.  The D0 analogue,
    2^(n-1)/n <= D0(n) <= 2^n/n, is the same verdict divided by n.
    """
    if n < 1:
        raise ValueError("check_degree_bounds expects n >= 1")
    d1 = degree_d1(n)
    lower, upper = 1 << (n - 1), 1 << n
    lo_holds, hi_holds = lower <= d1, d1 <= upper
    lo_strict, hi_strict = lower < d1, d1 < upper
    strict_required = n >= 3
    ok = lo_holds and hi_holds
    if strict_required:
        ok = ok and lo_strict and hi_strict
    return BoundsReport(
        n=n,
        D1=d1,
        lower=lower,
        upper=upper,
        lower_holds=lo_holds,
        upper_holds=hi_holds,
        lower_strict=lo_strict,
        upper_strict=hi_strict,
        strict_required=strict_required,
        ok=ok,
    )


@dataclass
class AsymptoticReport:
    n: int
    chain_holds: bool
    lhs: int
    rhs: int
    B: int
    six_d0: int
    b_exceeds_six_d0: bool


def asymptotic_genus_check(n: int) -> AsymptoticReport:
    """Exact-integer check of the sufficient branch-point growth inequality.

    chain_holds is true iff 2^(n-2) - n*2^floor(n/2) + n >= ceil(6*2^n / n);
    the floor exponent keeps everything in Z and only strengthens the bound.
    The report also records whether B(n) > 6*D0(n) holds outright.
    """
    if n < 12:
        raise ValueError("asymptotic_genus_check expects n >= 12")
    lhs = (1 << (n - 2)) - n * (1 << (n // 2)) + n
    rhs = -((-6 * (1 << n)) // n)  # ceiling division
    b = branch_count(n)
    six_d0 = 6 * degree_d0(n)
    return AsymptoticReport(
        n=n,
        chain_holds=lhs >= rhs,
        lhs=lhs,
        rhs=rhs,
        B=b,
        six_d0=six_d0,
        b_exceeds_six_d0=b > six_d0,
    )


def clear_caches() -> None:
    _dynatomic_cache.clear()
    pk.clear_caches()


__all__ = [
    "DynatomicTable",
    "DegreeReport",
    "BoundsReport",
    "AsymptoticReport",
    "iterate_fc",
    "dynatomic",
    "generalized_dynatomic",
    "degree_report",
    "check_degree_bounds",
    "asymptotic_genus_check",
    "product_identity_holds",
    "degree_d1",
    "degree_d0",
    "branch_count",
    "moebius",
    "euler_phi",
]
