"""Engine-level tests for the packed integer-polynomial arithmetic."""

import decimal
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
    re-multiplication check."""
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


def test_divexact_matches_reference_and_rejects_remainders():
    """Dividends built by the reference product, not by the engine; adding
    any nonzero remainder of lower x-degree than the divisor must raise."""
    rng = random.Random(12)
    checked = 0
    for _ in range(60):
        bits = rng.choice((1, 15, 64, 200))
        Q = random_cx(rng, max_x=20, max_c=10, bits=bits)
        D = random_cx(rng, max_x=8, max_c=6, bits=bits)
        if not Q or len(D) < 2:
            continue
        D[-1] = [1]
        N = from_terms(reference_mul(Q, D))
        assert pk.cx_to_terms(pk.cx_divexact(N, D)) == pk.cx_to_terms(Q)
        assert pk.cx_to_terms(division_pass(N, D)) == pk.cx_to_terms(Q)
        R = random_cx(rng, max_x=len(D) - 1, max_c=6, bits=bits)
        if pk.cx_to_terms(R):  # R can be the zero polynomial, e.g. [[0, 0]]
            with pytest.raises(ArithmeticError):
                pk.cx_divexact(pk.cx_add(N, R), D)
            checked += 1
    assert checked >= 30


# signed cx forms with absent rows, odd and even x-degrees and coefficients
# up to 2^200; an all-None draw is the zero polynomial
cx_forms = st.lists(
    st.one_of(st.none(), st.lists(st.integers(-(2**200), 2**200), min_size=1, max_size=5)),
    min_size=1,
    max_size=8,
)


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
