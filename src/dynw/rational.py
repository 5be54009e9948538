"""Arbitrary-precision rational scalars and integer helpers.

Rational is the base scalar for every exact computation in the package.  We
use the standard-library Fraction, which already maintains the normal form
we need (coprime numerator/denominator, denominator >= 1, zero as 0/1).  A
polynomial coefficient that is integral is kept as an int instead, which
has the same numerator and denominator, so format_rational prints both.
"""

from __future__ import annotations

import math
import re
import sys
from fractions import Fraction

from .errors import ParseError

Rational = Fraction


def int_str_digits() -> int:
    """The interpreter's live limit on the decimal digits of an int <-> str
    conversion (sys.set_int_max_str_digits, PYTHONINTMAXSTRDIGITS); 0 for none."""
    return getattr(sys, "get_int_max_str_digits", lambda: 0)()


_RAT_RE = re.compile(r"^\s*(-?\d+)\s*(?:/\s*(\d+)\s*)?$")


def parse_rational(text: str) -> Fraction:
    """Parse 'a' or 'a/b' into a Rational."""
    m = _RAT_RE.match(text)
    if not m:
        raise ParseError(f"not a rational number: {text!r}")
    num = int(m.group(1))
    den = int(m.group(2)) if m.group(2) else 1
    if den == 0:
        raise ParseError("zero denominator")
    return Fraction(num, den)


def format_rational(q: int | Fraction) -> str:
    return str(q.numerator) if q.denominator == 1 else f"{q.numerator}/{q.denominator}"


def isqrt_ceil(n: int) -> int:
    if n < 0:
        raise ValueError("negative argument")
    if n == 0:
        return 0
    return math.isqrt(n - 1) + 1


def perfect_square_root(n: int) -> int | None:
    """Return the integer square root of n if n is a perfect square, else None."""
    if n < 0:
        return None
    r = math.isqrt(n)
    return r if r * r == n else None


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin primality test (exact for n < 3.3 * 10^24)."""
    if n < 2:
        return False
    for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        if n % p == 0:
            return n == p
    d = n - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def factorize(n: int) -> dict[int, int]:
    """Prime factorization of n >= 1 via trial division plus Pollard rho."""
    if n < 1:
        raise ValueError("factorize expects n >= 1")
    factors: dict[int, int] = {}
    for p in (2, 3, 5):
        while n % p == 0:
            factors[p] = factors.get(p, 0) + 1
            n //= p
    d = 7
    wheel = (4, 2, 4, 2, 4, 6, 2, 6)
    i = 0
    while d * d <= n and d < 1 << 20:
        while n % d == 0:
            factors[d] = factors.get(d, 0) + 1
            n //= d
        d += wheel[i]
        i = (i + 1) % 8
    if n > 1:
        _factor_large(n, factors)
    return factors


def _factor_large(n: int, factors: dict[int, int]) -> None:
    if n == 1:
        return
    if is_prime(n):
        factors[n] = factors.get(n, 0) + 1
        return
    d = _pollard_rho(n)
    _factor_large(d, factors)
    _factor_large(n // d, factors)


def _pollard_rho(n: int) -> int:
    """A nontrivial factor of composite n (Brent's cycle variant)."""
    if n % 2 == 0:
        return 2
    seed = 1
    while True:
        seed += 1
        x = y = 2
        c = seed
        d = 1
        while d == 1:
            x = (x * x + c) % n
            y = (y * y + c) % n
            y = (y * y + c) % n
            d = math.gcd(abs(x - y), n)
        if d != n:
            return d


def divisors_of(n: int) -> list[int]:
    """Sorted positive divisors of n >= 1."""
    divs = [1]
    for p, e in factorize(n).items():
        divs = [d * p**i for d in divs for i in range(e + 1)]
    return sorted(divs)
