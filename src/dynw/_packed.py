"""Internal dense arithmetic for integer polynomials in (c, x).

Dynatomic construction multiplies and exactly divides bivariate integer
polynomials whose dense size grows like 4^n; a dict-of-monomials approach
is far too slow past n = 8.  Instead coefficients are Kronecker-packed: a
polynomial in c with bounded coefficients is encoded as one big number
(signed base-2^W or base-10^w digits), so polynomial products become single
big-number products.  Only the standard library is used.

Representation ("cx form"): a polynomial in (c, x) is a list indexed by
x-degree whose entries are dense c-coefficient lists of ints (or None for a
zero x-slot).  All arithmetic here is exact over Z; the slot width of every
product is derived from rigorous bit-size bounds of the operands, so digit
recovery can never alias.

Factors that are both even in x are first rewritten in y = x^2, which
halves them.  A product then takes one of two routes, whichever the cost
model in ``_termwise_is_cheaper`` expects to be faster:

* term by term: each term b*c^l*x^j of the smaller factor adds b times the
  packed c-row i of the other factor, shifted by l slots, into output row
  i + j, in base 2^W ints.  A huge quotient times a divisor like f^5 - x,
  the bulk of dynatomic work, costs a few shifts, small multiplies and
  additions per row this way.
* 2-D Kronecker: each factor becomes one decimal.Decimal of base-10^w
  slots, x-row i starting at slot i*stride, which libmpdec multiplies with
  a number-theoretic transform.  A slot is converted between int and str,
  so a slot wider than the interpreter's digit limit is refused.

Exact division is long division of N(2^W, x) by the x-monic D(2^W, x) over
Z, on packed c-rows.  A zero remainder proves that E = N - quot*D vanishes
at c = 2^W, and E = 0 once its coefficients are below 2^W in absolute
value: its lowest nonzero one would be a nonzero multiple of 2^W.

Composition with f = x^2 + c is a Taylor shift: A(c, x^2 + c) = Q(c, x^2)
with Q(c, y) = A(c, y + c).  Horner in y on packed c-rows makes each step
acc*(y + c) + A_k a row move plus a one-slot shift, with no products; the
slots hold ||A o f||_1 <= ||A||_1 * 2^deg_x(A), which bounds every partial
Horner sum as well.
"""

from __future__ import annotations

import decimal

from .rational import int_str_digits

# The engine's big-integer type, reported by callers that record the
# backend; the engine runs on the standard library alone.
mpz = int

# --------------------------------------------------------------- c-poly layer
# A c-poly is a dense list of ints, index = degree in c, no trailing zeros.


def _trim(u: list[int]) -> list[int]:
    while u and u[-1] == 0:
        u.pop()
    return u


def _bits(u: list[int]) -> int:
    return max(max(u, default=0), -min(u, default=0)).bit_length()


def _width_for(bits: int) -> int:
    return ((bits + 8) // 8) * 8  # at least one spare bit plus byte alignment


def _pack(u: list[int], W: int) -> int:
    """Encode sum u[i] * 2^(W*i) as the packed positive parts minus the
    packed negative parts; OverflowError when some |u[i]| >= 2^W."""
    nbytes = W // 8
    zero = bytes(nbytes)
    pos = b"".join([v.to_bytes(nbytes, "little") if v > 0 else zero for v in u])
    neg = b"".join([(-v).to_bytes(nbytes, "little") if v < 0 else zero for v in u])
    return int.from_bytes(pos, "little") - int.from_bytes(neg, "little")


def _slots(packed: int, W: int, nslots: int) -> list[int]:
    """The nslots signed base-2^W digits of packed, each in [-2^(W-1), 2^(W-1)).

    Each is an unsigned slot of packed plus half a slot in every slot, less
    that half.  OverflowError when packed does not fit; digits that
    overflowed their slot are caught by the callers' exactness checks.
    """
    nbytes = W // 8
    half = 1 << (W - 1)
    halves = int.from_bytes((bytes(nbytes - 1) + b"\x80") * nslots, "little")
    raw = (packed + halves).to_bytes(nbytes * nslots, "little")
    starts = range(0, len(raw), nbytes)
    return [int.from_bytes(raw[k : k + nbytes], "little") - half for k in starts]


def _unpack(packed: int, W: int) -> list[int]:
    """Decode a packed c-poly."""
    return _trim(_slots(packed, W, packed.bit_length() // W + 2))


# ------------------------------------------------------------------ cx layer
# cx form: list over x-degree of (c-poly | None).


def cx_trim(A: list) -> list:
    """A without its trailing zero rows and with None for each empty row;
    the rows themselves are shared, not copied."""
    return [slot if slot else None for slot in A[: cx_deg_x(A) + 1]]


def cx_bits(A: list) -> int:
    return max((_bits(s) for s in A if s), default=0)


def cx_nnz(A: list) -> int:
    return sum(1 for s in A if s)


def cx_copy(A: list) -> list:
    return [s[:] if s else None for s in A]


def cx_add(A: list, B: list) -> list:
    out = [s[:] if s else None for s in A]
    if len(out) < len(B):
        out += [None] * (len(B) - len(out))
    for i, s in enumerate(B):
        if not s:
            continue
        if out[i] is None:
            out[i] = s[:]
        else:
            t = out[i]
            if len(t) < len(s):
                t += [0] * (len(s) - len(t))
            for j, c in enumerate(s):
                t[j] += c
            _trim(t)
    return cx_trim(out)


def _nc(A: list) -> int:
    return max(len(s) for s in A if s)


def _slot_count(A: list) -> int:
    return sum(len(s) for s in A if s)


def _terms(A: list) -> list[tuple[int, int, int]]:
    """(x-degree, c-degree, coefficient) of every nonzero term."""
    return [(i, l, v) for i, s in enumerate(A) if s for l, v in enumerate(s) if v]


# ------------------------------------------------------------ 2-D Kronecker
# A whole cx form is packed into one decimal, x-row i starting at slot
# i*stride, and a product is decoded back into rows.

# Exact integer arithmetic on decimals: no operation here may round.
_DEC = decimal.Context(
    prec=decimal.MAX_PREC,
    Emax=decimal.MAX_EMAX,
    Emin=decimal.MIN_EMIN,
    traps=[decimal.InvalidOperation, decimal.Inexact, decimal.Overflow],
)


def _digits_for(bits: int) -> int:
    """Decimal digits per slot holding any |v| < 2^bits as a balanced digit.

    0.30103 exceeds log10(2), so 10^(w-1) >= 2^bits, below the half base.
    """
    return (bits * 30103 + 99999) // 100000 + 1


def _dec_pack(A: list, w: int, stride: int) -> decimal.Decimal:
    """Decimal slots of w digits; signed slots borrow from the slot above."""
    base = 10**w
    fmt = f"0{w}d"
    zeros, nines = "0" * w, "9" * w
    parts = []
    borrow = 0
    last = len(A) - 1
    for xi, s in enumerate(A):
        s = s or ()
        fields = []
        for v in s:
            v += borrow
            borrow = -1 if v < 0 else 0
            fields.append(format(v - borrow * base, fmt))
        fields.reverse()
        parts.append("".join(fields))
        if xi < last and len(s) < stride:
            parts.append((nines if borrow else zeros) * (stride - len(s)))
    parts.reverse()
    digits = "".join(parts)
    del parts
    packed = decimal.Decimal(digits or "0")
    if borrow:
        packed = _DEC.subtract(packed, decimal.Decimal(f"1E{len(digits)}"))
    return packed


def _dec_unpack(M: decimal.Decimal, w: int, stride: int, n_rows: int) -> list:
    base = 10**w
    half = base // 2
    total = stride * n_rows
    negative = M < 0
    if negative:
        M = _DEC.add(M, decimal.Decimal(f"1E{total * w}"))
    digits = str(M)
    if M < 0 or len(digits) > total * w:
        raise OverflowError("packed value out of range; slot width too small")
    top = len(digits) % w
    flat = [int(digits[k : k + w]) for k in range(top, len(digits), w)]
    if top:
        flat.insert(0, int(digits[:top]))
    del digits
    flat.reverse()
    flat += [0] * (total - len(flat))
    carry = 0
    for k, t in enumerate(flat):
        t += carry
        carry = 1 if t >= half else 0
        flat[k] = t - carry * base
    if carry != negative:
        raise OverflowError("packed value out of range; slot width too small")
    return cx_trim([_trim(flat[i * stride : (i + 1) * stride]) for i in range(n_rows)])


def _kronecker(A: list, B: list, bits: int) -> list:
    """A*B (A is B for a square) by 2-D Kronecker substitution.

    ``bits`` bounds the bit size of every output coefficient.
    """
    stride = _nc(A) + _nc(B) - 1
    w = _digits_for(bits)
    limit = int_str_digits()  # int <-> str conversions of a slot
    if limit and w > limit:
        raise ValueError(
            f"a product needs {w}-digit slots, over the {limit}-digit limit "
            "for int <-> str conversion; raise it with sys.set_int_max_str_digits"
        )
    pa = _dec_pack(A, w, stride)
    pb = pa if B is A else _dec_pack(B, w, stride)
    return _dec_unpack(_DEC.multiply(pa, pb), w, stride, len(A) + len(B) - 1)


# ------------------------------------------------------------ term by term


def _shifts(q: int, W: int, top: int) -> list[int]:
    """q * c^l for every c-degree l up to top: slot shifts."""
    return [q << (l * W) for l in range(top + 1)]


def _add_terms(rows: list, shifted: list[int], terms: list, offset: int) -> None:
    """rows[offset + j] += v * shifted[l] for every term (j, l, v)."""
    for j, l, v in terms:
        if v == 1:
            rows[offset + j] += shifted[l]
        elif v == -1:
            rows[offset + j] -= shifted[l]
        else:
            rows[offset + j] += v * shifted[l]


def _termwise(A: list, B: list, W: int) -> list:
    """A*B, adding the terms of B to the packed rows of A."""
    terms = _terms(B)
    top = max((l for _, l, _ in terms), default=0)
    out = [0] * (len(A) + len(B) - 1)
    for i, s in enumerate(A):
        if s:
            _add_terms(out, _shifts(_pack(s, W), W, top), terms, i)
    return cx_trim([_unpack(p, W) if p else None for p in out])


def _termwise_is_cheaper(big: list, small: list, bits: int) -> bool:
    """Cost model, in 30-bit digit operations, fitted on CPython 3.11.

    Term by term: each term of ``small`` costs a multiply and an add over
    the packed rows of ``big``.  Kronecker: about 300 per 30-bit digit of
    the product, packed, multiplied and unpacked as a decimal.
    """
    digit_ops = sum(1 + (abs(v).bit_length() + 29) // 30 for s in small if s for v in s if v)
    big_digits = _slot_count(big) * bits // 30 + 1
    termwise = digit_ops * big_digits
    n = (len(big) + len(small) - 1) * (_nc(big) + _nc(small) - 1) * bits // 30 + 1
    return termwise < 300 * n


def _is_even(A: list) -> bool:
    return not any(A[1::2])


def _spread(C: list) -> list:
    """Substitute x^2 for x."""
    out: list = [None] * (2 * len(C) - 1)
    out[::2] = C
    return out


def cx_mul(A: list, B: list) -> list:
    """Exact product."""
    A = cx_trim(A)
    B = cx_trim(B)
    return _product(A, B) if A and B else []


def cx_square(A: list) -> list:
    A = cx_trim(A)
    return _product(A, A) if A else []


def _product(A: list, B: list) -> list:
    """A*B for trimmed nonzero cx forms; B is A for a square."""
    if (len(A) > 1 or len(B) > 1) and _is_even(A) and _is_even(B):
        half = A[::2]
        return _spread(_product(half, half if B is A else B[::2]))
    pair_bound = min(_nc(A), _nc(B)) * min(cx_nnz(A), cx_nnz(B))
    bits = cx_bits(A) + cx_bits(B) + pair_bound.bit_length() + 1
    big, small = (A, B) if _slot_count(A) >= _slot_count(B) else (B, A)
    if _termwise_is_cheaper(big, small, bits):
        return _termwise(big, small, _width_for(bits))
    return _kronecker(A, B, bits)


# ------------------------------------------------------------------ division


def cx_divexact(N: list, D: list) -> list:
    """Exact quotient N / D for D monic in x; ArithmeticError if not exact.

    Classical long division in (Z[c])[x] over Kronecker-packed c-rows, at a
    heuristic slot width W that N fits in.  A pass with zero remainder is
    certified (module docstring) when bits(quot) + bits(D) + bits(pairs) + 1
    < W, pairs being _product's pair bound; otherwise the next pass is at
    least twice as wide, and twice that sum.  After the third pass an exact
    quotient several times wider than N and D together is still refused.
    """
    N = cx_trim(N)
    D = cx_trim(D)
    if not D:
        raise ZeroDivisionError("division by zero polynomial")
    if D[-1] != [1]:
        raise ValueError("divisor must be monic in x")
    if not N:
        return []
    deg_n, deg_d = len(N) - 1, len(D) - 1
    if deg_n < deg_d:
        raise ArithmeticError("non-exact division: dividend degree too small")

    nc = (cx_deg_c(N) + 1) + (cx_deg_c(D) + 1)
    base_bits = cx_bits(N) + cx_bits(D) + nc.bit_length() + 40
    negated = [(j, l, -v) for j, l, v in _terms(D[:deg_d])]
    needed = 0
    for attempt in range(3):
        W = _width_for(max(base_bits << attempt, 2 * needed))
        quot = _div_packed(N, negated, deg_d, W)
        if quot is None:
            continue
        pairs = min(_nc(quot), _nc(D)) * min(cx_nnz(quot), cx_nnz(D))
        needed = cx_bits(quot) + cx_bits(D) + pairs.bit_length() + 1
        if needed < W:
            return quot
    raise ArithmeticError("non-exact division: nonzero remainder")


def _div_packed(N: list, negated: list, deg_d: int, W: int):
    """One packed long-division pass; None signals overflow/non-exactness.

    ``negated`` are the divisor's terms below its leading x^deg_d, with
    their signs flipped.  Dividend rows are packed when the elimination
    first reaches them, and quotient rows are unpacked as soon as they are
    produced.
    """
    rows: list = [None] * len(N)

    def row(i: int) -> int:
        if rows[i] is None:
            rows[i] = _pack(N[i], W) if N[i] else 0
        return rows[i]

    for i in range(len(N) - deg_d - 1, len(N)):
        row(i)  # the rows the first quotient row reaches
    quot: list = [None] * (len(N) - deg_d)
    top = max((l for _, l, _ in negated), default=0)
    try:
        for xd in range(len(N) - 1, deg_d - 1, -1):
            q = row(xd)
            rows[xd] = 0
            row(xd - deg_d)
            if q:
                if negated:
                    _add_terms(rows, _shifts(q, W, top), negated, xd - deg_d)
                quot[xd - deg_d] = _unpack(q, W)
        if any(row(i) for i in range(deg_d)):
            return None
    except OverflowError:
        return None
    return cx_trim(quot)


def _trimmed_row(s) -> list:
    """A c-row without its trailing zeros; [] for an absent or all-zero row."""
    if not s:
        return []
    n = len(s)
    while n and not s[n - 1]:
        n -= 1
    return s if n == len(s) else s[:n]


def cx_eq(A: list, B: list) -> bool:
    if len(A) < len(B):
        A, B = B, A
    return all(
        _trimmed_row(s) == _trimmed_row(B[i] if i < len(B) else None)
        for i, s in enumerate(A)
    )


def cx_deg_x(A: list) -> int:
    """Index of the last row with a nonzero coefficient; -1 for zero."""
    i = len(A) - 1
    while i >= 0 and not any(A[i] or ()):
        i -= 1
    return i


def cx_deg_c(A: list) -> int:
    return max((len(s) - 1 for s in A if s), default=-1)


def cx_to_terms(A: list) -> dict:
    """Exponent map {(e_c, e_x): int} of a cx form."""
    out = {}
    for ex, s in enumerate(A):
        if not s:
            continue
        for ec, coef in enumerate(s):
            if coef:
                out[(ec, ex)] = coef
    return out


# ------------------------------------------------------- iterates of x^2 + c

_fc_cache: list = [[None, [1]]]  # f^0 = x


def fc_iterate(n: int) -> list:
    """cx form of the n-th iterate of x^2 + c (f^0 = x), cached."""
    while len(_fc_cache) <= n:
        _fc_cache.append(cx_add(cx_square(_fc_cache[-1]), [[0, 1]]))  # + c
    return cx_copy(_fc_cache[n])


def cx_compose_f(A: list, times: int) -> list:
    """A(c, f^times(x)) for f = x^2 + c, by ``times`` Taylor shifts: each
    pass is Q(c, y) = A(c, y + c) by Horner in y, then y = x^2."""
    A = cx_trim(A)
    for _ in range(times):
        W = _width_for(sum(abs(v) for s in A if s for v in s).bit_length() + len(A) - 1)
        acc: list[int] = []
        for s in reversed(A):
            acc.append(0)
            for i in range(len(acc) - 1, 0, -1):  # acc * (y + c)
                acc[i] = acc[i - 1] + (acc[i] << W)
            acc[0] = (acc[0] << W) + (_pack(s, W) if s else 0)
        A = _spread([_unpack(p, W) or None for p in acc])
    return cx_trim(A)


def clear_caches() -> None:
    del _fc_cache[1:]
