"""Finite fields F_{p^k} on integer codes.

An element of F_q, q = p^k, is an int in [0, q): its base-p digits, least
significant first, are its coefficient vector in F_p[t] / (modulus).  So
range(q) lists the field in the lexicographic order of coefficient vectors.
Prime fields compute with % p.  Extension fields compute through tables
built once per context from digit arithmetic: exp and log for a primitive
element g, and Zech logarithms zech[n] = log(1 + g^n) for addition, of
about q entries each.

Codes and the context's add, sub, neg, mul, inv, pow, coerce and digits are
the one field API; polynomials over F_q are evaluated on codes by
MultiPoly.horner(ctx.ring).  FFElement only pairs a code with its context,
so that a report such as max_period_mod's witness can print its
coefficient vector; it has no arithmetic.

The modulus of a context is the smallest monic irreducible of degree k, so
no caller can pass a reducible one, which would silently corrupt every point
count downstream.  The search tests irreducibility: a monic degree-k m over
F_p is reducible iff it has an irreducible factor of degree j <= k/2, iff
gcd(m, x^{p^j} - x) is nonconstant for some such j.
"""

from __future__ import annotations

import operator
from array import array
from fractions import Fraction

from .errors import BudgetExceeded
from .multipoly import Ring
from .rational import factorize, int_str_digits, is_prime

# Univariate polynomials over a field are lists of codes, low degree first,
# with no trailing zeros.  They serve the irreducibility and primitivity
# tests over F_p and the root counting over F_q in fflab.


def poly_trim(u: list[int]) -> list[int]:
    while u and not u[-1]:
        u.pop()
    return u


def poly_mul(a: list[int], b: list[int], F: "FFContext") -> list[int]:
    if not a or not b:
        return []
    add, mul = F.add, F.mul
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if not x:
            continue
        for j, y in enumerate(b):
            out[i + j] = add(out[i + j], mul(x, y))
    return poly_trim(out)


def poly_mod(a: list[int], m: list[int], F: "FFContext") -> list[int]:
    a = a[:]
    inv = F.inv(m[-1])
    mul, sub = F.mul, F.sub
    while len(a) >= len(m) and a:
        shift = len(a) - len(m)
        factor = mul(a[-1], inv)
        for i, c in enumerate(m):
            a[shift + i] = sub(a[shift + i], mul(factor, c))
        poly_trim(a)
    return a


def poly_gcd(a: list[int], b: list[int], F: "FFContext") -> list[int]:
    while b:
        a, b = b, poly_mod(a, b, F)
    return a


def poly_powmod(f: list[int], e: int, m: list[int], F: "FFContext") -> list[int]:
    """f^e mod m, by square and multiply."""
    result = [1]
    base = poly_mod(f, m, F)
    while e:
        if e & 1:
            result = poly_mod(poly_mul(result, base, F), m, F)
        e >>= 1
        if e:
            base = poly_mod(poly_mul(base, base, F), m, F)
    return result


def _is_irreducible(m: list[int], Fp: "FFContext") -> bool:
    for j in range(1, (len(m) - 1) // 2 + 1):
        diff = poly_powmod([0, 1], Fp.p**j, m, Fp) + [0, 0]
        diff[1] = Fp.sub(diff[1], 1)
        if len(poly_gcd(m, poly_trim(diff), Fp)) != 1:
            return False
    return True


def require_prime(p: int) -> None:
    """Raise ValueError when p is not prime, as FFContext(p) does."""
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")


# The default enumeration cap of ff, fflab and classify, an int argument
# `cap` wherever it is read; the CLI resolves it once (see cli).
ENUMERATION_CAP = 10_000_000


def check_enumeration_cap(q: int, dims: int, cap: int = ENUMERATION_CAP, k: int = 1) -> None:
    """Raise BudgetExceeded when (q^k)^dims exceeds the enumeration cap, and
    ValueError when k < 1.  Bit lengths bound (q^k)^dims before any power is
    formed; the message names it when the bound shows it printable, and
    otherwise a power of two below it."""
    if k < 1:
        raise ValueError(f"extension degree must be >= 1, got {k}")
    name = "q" if dims == 1 else f"q^{dims}"
    e = k * dims
    low_bits = e * (q.bit_length() - 1)  # q^e >= 2^low_bits
    # print at most 4300 digits, and no more than the live limit allows:
    # q^e < 2^(e * bits), and 2^(3 * digits) < 10^digits
    digits = min(int_str_digits() or 4300, 4300)
    if e * q.bit_length() > 3 * digits:
        if low_bits >= cap.bit_length() or q**e > cap:
            raise BudgetExceeded(f"{name} >= 2^{low_bits} exceeds enumeration cap {cap}")
    elif q**e > cap:
        raise BudgetExceeded(f"{name} = {q**e} exceeds enumeration cap {cap}")


# An extension field keeps tables of 32 bytes per element, so q is held to
# this constant, whatever the cap: F_{2^20} builds in about 6.5 s and 47 MiB.
FIELD_TABLE_LIMIT = 1 << 20


class FFContext:
    """The field F_{p^k} = F_p[t] / (modulus), its elements coded as ints.

    add, sub, neg, mul, inv and pow act on codes.  `ring` carries the
    operations MultiPoly.horner evaluates with: over a prime field it
    reduces each power mod p as it forms it, evaluates the rest over Z and
    reduces once mod p, which is exact.  An extension field keeps tables of
    about q entries, so it must fit both the enumeration cap and
    FIELD_TABLE_LIMIT, q <= 2^20; both are checked, the cap first, before p
    is tested for primality or a modulus is searched for.
    """

    __slots__ = ("p", "k", "q", "modulus", "ring", "_exp", "_log", "_zech")

    def __init__(self, p: int, k: int = 1, cap: int = ENUMERATION_CAP):
        if k != 1:  # k >= 1; the cap bounds p^k before it is formed
            check_enumeration_cap(p, 1, cap, k=k)
            if p**k > FIELD_TABLE_LIMIT:
                raise BudgetExceeded(f"q = {p}^{k} exceeds the field table limit 2^20")
        require_prime(p)
        self.p, self.k, self.q = p, k, p**k
        self._exp = self._log = self._zech = None
        self.modulus = self._find_modulus()
        if k == 1:
            self.ring = Ring(self.coerce, operator.add, operator.mul, self.pow, p)
        else:
            self._build_tables()
            self.ring = Ring(self.coerce, self.add, self.mul, self.pow)

    def _find_modulus(self) -> tuple[int, ...]:
        """Smallest monic irreducible of degree k, lexicographic on low coefficients."""
        if self.k == 1:
            return (0, 1)
        Fp = FFContext(self.p)
        # counter enumerates the k low coefficients in lexicographic order
        for counter in range(self.q):
            m = list(self.digits(counter)) + [1]
            if m[0] != 0 and _is_irreducible(m, Fp):
                return tuple(m)
        raise RuntimeError("no irreducible modulus found")  # impossible

    def _build_tables(self) -> None:
        """exp, log and zech for the first primitive element g in code order.

        exp[n] = g^n for 0 <= n < 2(q - 1), so a sum of two logs indexes it
        directly; log[exp[n]] = n; zech[n] = log(1 + g^n), or -1 where
        1 + g^n = 0.  They are arrays of 8-byte ints, 32 bytes per element
        in all.  Each power of g is the previous one times g, formed on its
        digit list with int arithmetic and reduced mod p and the monic
        modulus once per power.
        """
        p, q, k, m = self.p, self.q, self.k, list(self.modulus)
        Fp = FFContext(p)
        cofactors = [(q - 1) // r for r in factorize(q - 1)]
        # codes below p are the prime field, of order dividing p - 1 < q - 1
        for code in range(p, q):
            g = poly_trim(list(self.digits(code)))
            if all(poly_powmod(g, e, m, Fp) != [1] for e in cofactors):
                break
        g_terms = [(j, b) for j, b in enumerate(g) if b]
        m_low = m[:k]  # t^k = -m_low(t) mod m
        place = [p**i for i in range(k)]
        exp = array("q", [0]) * (2 * q - 2)
        log = array("q", [0]) * q
        power = [1]
        for n in range(q - 1):
            code = sum(c * w for c, w in zip(power, place))
            exp[n] = exp[n + q - 1] = code
            log[code] = n
            prod = [0] * (k + len(g) - 1)
            for j, b in g_terms:
                for i, a in enumerate(power, j):
                    prod[i] += a * b
            for top in range(len(prod) - 1, k - 1, -1):
                lead = prod.pop() % p
                if lead:
                    for i, a in enumerate(m_low, top - k):
                        prod[i] -= lead * a
            power = [a % p for a in prod]
        zech = array("q", [-1]) * (q - 1)
        for n in range(q - 1):
            low = exp[n] % p
            plus_one = exp[n] - low + (low + 1) % p  # 1 + g^n: only the constant digit moves
            if plus_one:
                zech[n] = log[plus_one]
        self._exp, self._log, self._zech = exp, log, zech

    # ------------------------------------------------------------ codes

    def coerce(self, r) -> int:
        """The code of an integer or a rational number."""
        if not isinstance(r, (int, Fraction)):
            r = Fraction(r)
        p = self.p
        if r.denominator % p == 0:
            raise ZeroDivisionError(f"denominator of {r} vanishes mod {p}")
        return r.numerator * pow(r.denominator, -1, p) % p

    def digits(self, a: int) -> tuple[int, ...]:
        """The coefficient vector of a code, low degree first."""
        out = []
        for _ in range(self.k):
            a, digit = divmod(a, self.p)
            out.append(digit)
        return tuple(out)

    def add(self, a: int, b: int) -> int:
        log = self._log
        if log is None:
            return (a + b) % self.p
        if not a:
            return b
        if not b:
            return a
        la = log[a]
        # a + b = a (1 + b/a); zech has q - 1 entries, so a negative
        # difference of logs wraps around to the right entry
        z = self._zech[log[b] - la]
        return self._exp[la + z] if z >= 0 else 0

    def neg(self, a: int) -> int:
        log = self._log
        if log is None:
            return -a % self.p
        if not a or self.p == 2:
            return a
        return self._exp[log[a] + (self.q - 1) // 2]  # -1 = g^((q-1)/2)

    def sub(self, a: int, b: int) -> int:
        return self.add(a, self.neg(b))

    def mul(self, a: int, b: int) -> int:
        log = self._log
        if log is None:
            return a * b % self.p
        if a and b:
            return self._exp[log[a] + log[b]]
        return 0

    def inv(self, a: int) -> int:
        if not a:
            raise ZeroDivisionError("inverse of zero")
        if self._log is None:
            return pow(a, -1, self.p)
        return self._exp[self.q - 1 - self._log[a]]

    def pow(self, a: int, e: int) -> int:
        if not a:
            if e < 0:
                raise ZeroDivisionError("inverse of zero")
            return 0 if e else 1
        if self._log is None:
            return pow(a, e, self.p)
        return self._exp[self._log[a] * e % (self.q - 1)]

    def __eq__(self, other):
        return (
            isinstance(other, FFContext)
            and (self.p, self.k, self.modulus) == (other.p, other.k, other.modulus)
        )

    def __hash__(self):
        return hash((self.p, self.k, self.modulus))

    def __repr__(self):
        return f"FFContext(p={self.p}, k={self.k})"


class FFElement:
    """A code with its field, for reports that print a coefficient vector."""

    __slots__ = ("context", "code")

    def __init__(self, context: FFContext, code: int):
        self.context = context
        self.code = code

    @property
    def coeffs(self) -> tuple[int, ...]:
        return self.context.digits(self.code)
