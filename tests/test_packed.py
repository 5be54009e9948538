"""Engine-level tests for the packed integer-polynomial arithmetic."""

import decimal
import math
import random
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import oracle_compose

import dynw._packed as pk


def random_cx(rng, max_x=12, max_c=8, bits=64):
    out = []
    for _ in range(rng.randint(1, max_x)):
        if rng.random() < 0.3:
            out.append(None)
            continue
        out.append([rng.randint(-(2**bits), 2**bits) for _ in range(rng.randint(1, max_c))])
    return pk.cx_trim(out)


def reference_mul(A, B):
    """Schoolbook product on plain dicts, independent of the packed paths."""
    ta, tb = pk.cx_to_terms(A), pk.cx_to_terms(B)
    out = {}
    for (ca, xa), va in ta.items():
        for (cb, xb), vb in tb.items():
            key = (ca + cb, xa + xb)
            out[key] = out.get(key, 0) + va * vb
    return {k: v for k, v in out.items() if v}


def test_pack_round_trip():
    rng = random.Random(1)
    for _ in range(200):
        u = [rng.randint(-(2**100), 2**100) for _ in range(rng.randint(1, 30))]
        while u and u[-1] == 0:
            u.pop()
        W = pk._width_for(pk._bits(u) + 2)
        assert pk._unpack(pk._pack(u, W), W) == u


def test_slot_codecs_are_exact_or_raise_overflow():
    """_pack is exact for every |v| < 2^W and raises OverflowError above;
    _slots gives the signed digits of every value they can hold, the
    lowest, -2^(W-1) in every slot, included, and raises OverflowError for
    a value one below or above its range, which _div_packed relies on."""
    rng = random.Random(11)
    for W in (8, 16, 64):
        top, half = (1 << W) - 1, 1 << (W - 1)
        for _ in range(200):
            u = [rng.choice((top, -top, half, -half, 0, rng.randint(-top, top))) for _ in range(5)]
            assert pk._pack(u, W) == sum(v << (W * i) for i, v in enumerate(u))
        for bad in ([top + 1], [0, -top - 1, 3]):
            with pytest.raises(OverflowError):
                pk._pack(bad, W)
        for n in (1, 3):
            lowest = sum(-half << (W * i) for i in range(n))
            highest = sum((half - 1) << (W * i) for i in range(n))
            assert pk._slots(lowest, W, n) == [-half] * n
            assert pk._slots(highest, W, n) == [half - 1] * n
            for beyond in (lowest - 1, highest + 1):
                with pytest.raises(OverflowError):
                    pk._slots(beyond, W, n)


def test_mul_matches_reference():
    rng = random.Random(2)
    for _ in range(100):
        A, B = random_cx(rng), random_cx(rng)
        got = pk.cx_to_terms(pk.cx_mul(A, B))
        assert got == reference_mul(A, B)


def test_square_matches_reference():
    rng = random.Random(3)
    for _ in range(100):
        A = random_cx(rng)
        assert pk.cx_to_terms(pk.cx_square(A)) == reference_mul(A, A)


def test_divexact_random_products():
    rng = random.Random(5)
    for _ in range(100):
        Q = random_cx(rng)
        D = random_cx(rng)
        if not Q or not D:
            continue
        D[-1] = [1]  # monic in x
        N = pk.cx_mul(Q, D)
        assert pk.cx_to_terms(pk.cx_divexact(N, D)) == pk.cx_to_terms(Q)


def test_divexact_rejects_non_exact():
    x2_plus_1 = [[1], None, [1]]
    x_plus_1 = [[1], [1]]
    with pytest.raises(ArithmeticError):
        pk.cx_divexact(x2_plus_1, x_plus_1)
    with pytest.raises(ValueError):
        pk.cx_divexact(x2_plus_1, [[2], [2]])  # not monic
    with pytest.raises(ZeroDivisionError):
        pk.cx_divexact(x2_plus_1, [])


def test_eq_ignores_trailing_zeros_in_rows():
    assert pk.cx_eq([[1, 0]], [[1]])
    assert pk.cx_eq([[1], [0, 0], None], [[1]])
    assert pk.cx_eq([[1], None], [[1, 0], [0]])
    assert not pk.cx_eq([[1, 0]], [[1, 1]])
    assert not pk.cx_eq([[1], [0, 2]], [[1]])


def test_divexact_accepts_untrimmed_rows():
    # (x + 1)(x + 2) with every c-row carrying a trailing zero
    quot = pk.cx_divexact([[2, 0], [3, 0], [1, 0]], [[1], [1]])
    assert pk.cx_to_terms(quot) == {(0, 0): 2, (0, 1): 1}


def division_pass(N, D):
    """The first packed long-division pass of cx_divexact(N, D), with no
    exactness certificate."""
    nc = (pk.cx_deg_c(N) + 1) + (pk.cx_deg_c(D) + 1)
    W = pk._width_for(pk.cx_bits(N) + pk.cx_bits(D) + nc.bit_length() + 40)
    negated = [(j, l, -v) for j, l, v in pk._terms(D[:-1])]
    return pk._div_packed(N, negated, len(D) - 1, W)


def test_divexact_packs_each_row_once(monkeypatch):
    """The windowed division packs each remainder row exactly once: the pack
    call count of one division pass stays linear in the dividend, never
    quadratic."""
    calls = 0
    original = pk._pack

    def counting_pack(u, W):
        nonlocal calls
        calls += 1
        return original(u, W)

    monkeypatch.setattr(pk, "_pack", counting_pack)
    rng = random.Random(6)
    Q = pk.cx_trim([[rng.randint(-99, 99)] for _ in range(60)])
    D = pk.cx_trim([[rng.randint(-99, 99)], [3], [1]])
    D[-1] = [1]
    N = pk.cx_mul(Q, D)
    calls = 0
    assert pk.cx_eq(division_pass(N, D), Q)
    assert calls <= len(N) + len(D) + 4


# ------------------------------------------------- one test per engine path
# Each path below is forced through the term-wise cost model and checked
# against reference_mul.


def random_even_cx(rng, max_x=12, max_c=8, bits=64):
    """A random cx form in x^2 only, with at least two x-rows."""
    while True:
        A = random_cx(rng, max_x, max_c, bits)
        A = pk.cx_trim([s if i % 2 == 0 else None for i, s in enumerate(A)])
        if len(A) > 1:
            return A


def from_terms(terms):
    """cx form of an exponent map {(e_c, e_x): int}."""
    out = [None] * (max(ex for _, ex in terms) + 1)
    for (ec, ex), v in terms.items():
        if out[ex] is None:
            out[ex] = []
        out[ex] += [0] * (ec + 1 - len(out[ex]))
        out[ex][ec] = v
    return pk.cx_trim(out)


def spy_on(monkeypatch, name):
    """Record the calls of the module function ``name``."""
    calls = []
    real = getattr(pk, name)

    def spy(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(pk, name, spy)
    return calls


def test_decimal_pack_round_trip():
    rng = random.Random(7)
    for _ in range(200):
        A = random_cx(rng, bits=rng.choice((1, 8, 64, 300)))
        if not A:
            continue
        w = pk._digits_for(pk.cx_bits(A))
        stride = max(len(s) for s in A if s) + rng.randint(0, 3)
        packed = pk._dec_pack(A, w, stride)
        assert pk.cx_to_terms(pk._dec_unpack(packed, w, stride, len(A))) == pk.cx_to_terms(A)
    for bad in (10**12, -(10**12)):
        with pytest.raises(OverflowError):
            pk._dec_unpack(decimal.Decimal(bad), 3, 2, 1)


def test_decimal_kronecker_matches_reference(monkeypatch):
    """With the term-wise route off, every product is a decimal Kronecker
    product."""
    monkeypatch.setattr(pk, "_termwise_is_cheaper", lambda *args: False)
    kron = spy_on(monkeypatch, "_kronecker")
    rng = random.Random(8)
    for _ in range(100):
        bits = rng.choice((1, 64, 200))
        A, B = random_cx(rng, bits=bits), random_cx(rng, bits=bits)
        assert pk.cx_to_terms(pk.cx_mul(A, B)) == reference_mul(A, B)
        assert pk.cx_to_terms(pk.cx_square(A)) == reference_mul(A, A)
    assert len(kron) >= 150


def test_kronecker_refuses_slots_over_the_digit_limit(monkeypatch):
    """A slot wider than the int <-> str digit limit is one ValueError that
    names the limit, raised before anything is packed."""
    monkeypatch.setattr(pk, "_termwise_is_cheaper", lambda *args: False)
    packs = spy_on(monkeypatch, "_dec_pack")
    rng = random.Random(9)
    A = [[rng.randint(2**2299, 2**2300) for _ in range(3)] for _ in range(3)]
    old = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(640)
    try:
        with pytest.raises(ValueError, match="640-digit limit") as exc:
            pk.cx_mul(A, A[::-1])
    finally:
        sys.set_int_max_str_digits(old)
    assert "\n" not in str(exc.value) and not packs


def test_termwise_matches_reference(monkeypatch):
    monkeypatch.setattr(pk, "_termwise_is_cheaper", lambda *args: True)
    termwise = spy_on(monkeypatch, "_termwise")
    rng = random.Random(10)
    for _ in range(100):
        bits = rng.choice((1, 30, 64, 200))
        A, B = random_cx(rng, bits=bits), random_cx(rng, max_x=5, max_c=4, bits=bits)
        assert pk.cx_to_terms(pk.cx_mul(A, B)) == reference_mul(A, B)
    assert len(termwise) >= 90


@pytest.mark.parametrize("max_str_digits", [0, 20000])
def test_even_operands_multiply_in_x_squared(monkeypatch, max_str_digits):
    """Factors even in x are multiplied as polynomials in y = x^2, with no
    int <-> str digit limit (0) and with a finite one."""
    old = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(max_str_digits)
    try:
        check_even_operands(monkeypatch)
    finally:
        sys.set_int_max_str_digits(old)


def check_even_operands(monkeypatch):
    monkeypatch.setattr(pk, "_termwise_is_cheaper", lambda *args: False)
    kron = spy_on(monkeypatch, "_kronecker")
    rng = random.Random(11)
    for _ in range(50):
        A, B = random_even_cx(rng), random_even_cx(rng)
        kron.clear()
        assert pk.cx_to_terms(pk.cx_square(A)) == reference_mul(A, A)
        assert len(kron[0][0]) <= (len(A) + 1) // 2
        kron.clear()
        assert pk.cx_to_terms(pk.cx_mul(A, B)) == reference_mul(A, B)
        assert len(kron[0][0]) + len(kron[0][1]) <= (len(A) + len(B) + 2) // 2
    # f^n is even in x for n >= 1: squaring it is a square in y
    f5 = pk.fc_iterate(5)
    kron.clear()
    assert pk.cx_to_terms(pk.cx_square(f5)) == reference_mul(f5, f5)
    assert len(kron[0][0]) == 17


# signed cx forms with absent rows, odd and even x-degrees and coefficients
# up to 2^200; an all-None draw is the zero polynomial
cx_forms = st.lists(
    st.one_of(st.none(), st.lists(st.integers(-(2**200), 2**200), min_size=1, max_size=5)),
    min_size=1,
    max_size=8,
)


def drawn_cx(max_x, max_c):
    """cx_forms, or a seeded random_cx of up to max_x rows and max_c slots."""
    bits = st.sampled_from((1, 15, 64, 200))
    rngs = st.randoms(use_true_random=False)
    seeded = st.builds(random_cx, rngs, st.just(max_x), st.just(max_c), bits)
    return st.one_of(cx_forms, seeded)


@settings(max_examples=80, deadline=None)
@given(Q=drawn_cx(20, 10), D=drawn_cx(8, 6), R=drawn_cx(8, 6))
def test_divexact_matches_reference_and_rejects_remainders(Q, D, R):
    """Dividends built by the reference product, not by the engine, over a
    divisor made monic by one more row; adding any nonzero remainder of
    lower x-degree than the divisor must raise."""
    Q, D = pk.cx_trim(Q), pk.cx_trim(D + [[1]])
    N = from_terms(reference_mul(Q, D)) if pk.cx_to_terms(Q) else []
    assert pk.cx_to_terms(pk.cx_divexact(N, D)) == pk.cx_to_terms(Q)
    if N:
        assert pk.cx_to_terms(division_pass(N, D)) == pk.cx_to_terms(Q)
    if len(D) > 1:  # a remainder needs a divisor of positive x-degree
        R = pk.cx_trim(R[: len(D) - 1])
        if not pk.cx_to_terms(R):  # R drew the zero polynomial, e.g. [[0, 0]]
            R = [[1]]
        with pytest.raises(ArithmeticError):
            pk.cx_divexact(pk.cx_add(N, R), D)


def binomial_power(step, e):
    """cx form of (x^step - 1)^e, free of c."""
    out = [None] * (step * e + 1)
    for k in range(e + 1):
        out[step * k] = [math.comb(e, k) * (-1) ** (e - k)]
    return out


def record_passes(monkeypatch):
    """Record (W, quotient or None) for every _div_packed pass."""
    passes = []
    real = pk._div_packed

    def spy(N, negated, deg_d, W):
        quot = real(N, negated, deg_d, W)
        passes.append((W, quot))
        return quot

    monkeypatch.setattr(pk, "_div_packed", spy)
    return passes


def test_an_aliased_quotient_is_refused_and_the_retry_is_exact(monkeypatch):
    """(x^16 - 1)^30 / (x - 1)^30 = (1 + x + ... + x^15)^30 has 115-bit
    coefficients, wider than the first 104-bit slot.  The first pass still
    leaves a zero remainder at c = 2^104, with a quotient aliased into c;
    the certificate refuses it (103 + 28 bits, 5 of pairs, one spare: 137),
    and the second pass, sized at twice that, is exact."""
    N, D = binomial_power(16, 30), binomial_power(1, 30)
    Q = [[1]] * 16
    for _ in range(29):
        Q = from_terms(reference_mul(Q, [[1]] * 16))
    assert pk.cx_bits(Q) == 115 and reference_mul(Q, D) == pk.cx_to_terms(N)
    passes = record_passes(monkeypatch)
    products = spy_on(monkeypatch, "_product")
    assert pk.cx_to_terms(pk.cx_divexact(N, D)) == pk.cx_to_terms(Q)
    (w1, aliased), (w2, exact) = passes
    assert (w1, w2) == (104, pk._width_for(2 * 137)) and not products
    assert pk.cx_bits(aliased) == 103 and pk.cx_deg_c(aliased) == 1
    assert pk.cx_deg_c(exact) == 0
    # the aliased quotient is the exact one read in base 2^104 digits
    assert [sum(v << (w1 * l) for l, v in enumerate(s)) for s in aliased] == [s[0] for s in Q]


def test_an_exact_pass_too_narrow_to_certify_is_repeated(monkeypatch):
    """(x^16 - 1)^15 / (x - 1)^15: the 72-bit first pass finds the exact
    quotient (55-bit coefficients), but 55 + 13 bits, 5 of pairs and one
    spare make 74, so only the next pass, sized at twice that, certifies
    it."""
    N, D = binomial_power(16, 15), binomial_power(1, 15)
    passes = record_passes(monkeypatch)
    quot = pk.cx_divexact(N, D)
    assert reference_mul(quot, D) == pk.cx_to_terms(N)
    (w1, first), (w2, second) = passes
    assert (w1, w2) == (72, pk._width_for(2 * 74)) and first == second == quot
    assert pk.cx_bits(quot) == 55


def test_a_quotient_wider_than_doubling_reaches_is_certified(monkeypatch):
    """(x^1024 - 1)^54 / (x - 1)^54 has a 528-bit quotient from 51-bit
    operands, so the first width is sized from 51 + 51 + 2 + 40 = 144 bits.
    Certifying it needs 528 + 51 + 6 + 1 = 586 bits, more than the 584-bit
    slot that doubling those 144 bits twice gives; each pass
    after an aliased one is sized from that pass's bound, so the third is
    968 bits wide.  Coefficients are checked against the closed form
    [x^k] ((1 - x^s)/(1 - x))^e = sum_j (-1)^j C(e, j) C(k - s*j + e - 1, e - 1).
    About 4 s: each pass applies 55 divisor terms to 55,000 rows."""
    s, e = 1024, 54
    passes = record_passes(monkeypatch)
    quot = pk.cx_divexact(binomial_power(s, e), binomial_power(1, e))
    assert [w for w, _ in passes] == [152, 424, 968]
    assert pk.cx_deg_c(passes[0][1]) == 3 and pk.cx_deg_c(passes[1][1]) == 1
    assert len(quot) == (s - 1) * e + 1 and pk.cx_deg_c(quot) == 0
    assert pk.cx_bits(quot) == 528 and pk._width_for(144 << 2) == 584
    rng = random.Random(7)
    for k in [0, 1, (s - 1) * e // 2, (s - 1) * e] + rng.sample(range(len(quot)), 20):
        terms = (math.comb(e, j) * math.comb(k - s * j + e - 1, e - 1) for j in range(k // s + 1))
        assert quot[k] == [sum((-1) ** j * t for j, t in enumerate(terms))]


@settings(max_examples=80, deadline=None)
@given(A=cx_forms, times=st.integers(0, 4))
def test_compose_f_matches_horner_oracle(A, times):
    """Taylor shifts agree with Horner in x by products with f^times."""
    got = pk.cx_compose_f(A, times)
    want = oracle_compose(A, pk.fc_iterate(times))
    assert pk.cx_to_terms(got) == pk.cx_to_terms(want)
    deg = pk.cx_deg_x(A)
    assert pk.cx_deg_x(got) == (deg << times if deg >= 0 else -1)
    assert got == pk.cx_trim(got)
