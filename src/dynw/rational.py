"""Arbitrary-precision rational scalars and integer helpers.

Rational is the base scalar for every exact computation in the package.  We
use the standard-library Fraction, which already maintains the normal form
we need (coprime numerator/denominator, denominator >= 1, zero as 0/1).  A
polynomial coefficient that is integral is kept as an int instead, which
has the same numerator and denominator, so format_rational prints both.
"""

from __future__ import annotations

import itertools
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


# below psi_13 of OEIS A014233, a strong probable prime to these bases is prime
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MR_EXACT_BELOW = 3317044064679887385961981


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin primality test to the prime bases 2..41.

    It is exact for n < psi_13 = 3317044064679887385961981 (OEIS A014233),
    and raises ValueError for larger n, whose primality it cannot certify.
    """
    if n < 2:
        return False
    for p in _MR_BASES:
        if n % p == 0:
            return n == p
    if n >= _MR_EXACT_BELOW:
        raise ValueError(f"{n} is too large to test for primality (exact below {_MR_EXACT_BELOW})")
    d, r = n - 1, 0
    while d % 2 == 0:
        d, r = d // 2, r + 1
    for a in _MR_BASES:
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
    """Prime factorization of 1 <= n < 2^40, by trial division alone.

    Trial division by every candidate up to sqrt(n) < 2^20 leaves 1 or a
    prime, so no primality test is needed; n >= 2^40 raises ValueError.
    Every caller stays below that: q - 1 of an extension field, whose
    tables hold q <= 2^20 (ff.FIELD_TABLE_LIMIT); the levels of the degree
    commands, at most 12900 under the default int-digit limit (cli); and
    dynatomic levels, at most 11.
    """
    if n < 1:
        raise ValueError("factorize expects n >= 1")
    if n >= 1 << 40:
        raise ValueError("factorize expects n < 2^40")
    factors: dict[int, int] = {}
    # 2, 3 and 5, then the candidates prime to 30: a wheel of 8 steps
    steps = itertools.chain((1, 2, 2), itertools.cycle((4, 2, 4, 2, 4, 6, 2, 6)))
    d = 2
    while d * d <= n:
        while n % d == 0:
            factors[d] = factors.get(d, 0) + 1
            n //= d
        d += next(steps)
    if n > 1:
        factors[n] = 1
    return factors


def divisors_of(n: int) -> list[int]:
    """Sorted positive divisors of n >= 1."""
    divs = [1]
    for p, e in factorize(n).items():
        divs = [d * p**i for d in divs for i in range(e + 1)]
    return sorted(divs)
