"""Exact scalar, polynomial, and finite-field layer tests."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import compile_terms, eval_terms, poly_exact_divide

from dynw.errors import (
    BudgetExceeded,
    MissingVariable,
    MixedScalarKinds,
    NonExactDivision,
    ParseError,
)
from dynw.config import RunConfig
from dynw.ff import FFContext, ff_enumerate
from dynw.multipoly import MultiPoly
from dynw.rational import parse_rational


def P(text):
    return MultiPoly.parse(text)


# ---------------------------------------------------------------- rationals


def test_rational_normalization():
    rng = random.Random(11)
    for _ in range(500):
        a = rng.randint(-10**6, 10**6)
        b = rng.randint(1, 10**6)
        q = Fraction(a, b)
        from math import gcd

        assert q.denominator >= 1
        assert gcd(abs(q.numerator), q.denominator) == 1
    assert Fraction(0, 7) == Fraction(0, 1)


def test_parse_rational():
    assert parse_rational("-3/4") == Fraction(-3, 4)
    assert parse_rational("5") == Fraction(5)
    assert parse_rational(" 7 / 2 ") == Fraction(7, 2)
    with pytest.raises(ParseError):
        parse_rational("x")
    with pytest.raises(ParseError):
        parse_rational("1/0")


# --------------------------------------------------------------- polynomials


def _random_poly(rng, nvars=2, max_terms=5, max_exp=4):
    names = ("c", "x", "y")[:nvars]
    terms = {}
    for _ in range(rng.randint(0, max_terms)):
        exps = tuple(rng.randint(0, max_exp) for _ in names)
        terms[exps] = Fraction(rng.randint(-9, 9), rng.randint(1, 9))
    return MultiPoly(names, terms)


def test_parse_str_round_trip():
    rng = random.Random(23)
    for _ in range(300):
        f = _random_poly(rng)
        assert MultiPoly.parse(str(f)) == f
    assert str(P("x^2 + x + c + 1")) == "x^2 + x + c + 1"
    assert str(MultiPoly.zero()) == "0"
    assert P("-x") == -MultiPoly.var("x")
    assert P("3/2*c*x^2 - 1/2") == P("-1/2 + 3/2*x^2*c")


_NAMES = ("c", "x", "y", "x1", "u_2")


@st.composite
def polys(draw):
    """A MultiPoly over a subset of _NAMES with small exponents and
    coefficients whose denominators are at most 6."""
    names = draw(st.lists(st.sampled_from(_NAMES), unique=True, max_size=3))
    terms = draw(
        st.dictionaries(
            st.tuples(*(st.integers(0, 5) for _ in names)),
            st.fractions(-40, 40, max_denominator=6),
            max_size=6,
        )
    )
    return MultiPoly(names, terms)


@settings(max_examples=100, deadline=None)
@given(f=polys())
def test_parse_inverts_str(f):
    assert MultiPoly.parse(str(f)) == f


@settings(max_examples=100, deadline=None)
@given(f=polys(), values=st.tuples(*(st.fractions(-5, 5, max_denominator=9) for _ in _NAMES)))
def test_horner_matches_term_oracle_over_q(f, values):
    assignment = dict(zip(_NAMES, values))
    expected = eval_terms(compile_terms(f, Fraction), assignment)
    assert f.horner(Fraction)(assignment) == expected
    assert f.evaluate(assignment) == expected


_FIELDS = {(p, k): FFContext(p, k) for p, k in ((7, 1), (11, 1), (7, 2), (11, 2))}


@settings(max_examples=100, deadline=None)
@given(f=polys(), field=st.sampled_from(sorted(_FIELDS)), data=st.data())
def test_horner_matches_term_oracle_over_finite_fields(f, field, data):
    ctx = _FIELDS[field]
    p, k = field
    coeffs = st.tuples(*(st.integers(0, p - 1) for _ in range(k)))
    assignment = {v: ctx.element(data.draw(coeffs)) for v in _NAMES}
    expected = eval_terms(compile_terms(f, ctx.from_rational), assignment)
    assert f.horner(ctx.from_rational)(assignment) == expected
    assert f.evaluate(assignment) == expected


def test_parse_errors():
    for bad in ("", "x +", "1/0", "x^", "x$y"):
        with pytest.raises(ParseError):
            MultiPoly.parse(bad)


def test_ring_axioms():
    rng = random.Random(5)
    for _ in range(150):
        f, g, h = (_random_poly(rng) for _ in range(3))
        assert (f + g) + h == f + (g + h)
        assert f + g == g + f
        assert f * g == g * f
        assert (f * g) * h == f * (g * h)
        assert f * (g + h) == f * g + f * h
        assert f - f == MultiPoly.zero()


def test_exact_divide_examples():
    num = P("x^4 + 2*c*x^2 - x^2 + c^2")
    den = P("x^2 - x + c")
    q = poly_exact_divide(num, den)
    assert q * den == num  # the division's own certificate
    assert q == P("x^2 + x + c")

    f = P("3*x^2*y - c + 1/2")
    assert poly_exact_divide(f, MultiPoly.constant(1)) == f

    assert poly_exact_divide(P("x^2 - 1"), P("x + 1")) == P("x - 1")


def test_exact_divide_random_products():
    rng = random.Random(42)
    for _ in range(200):
        f = _random_poly(rng)
        g = _random_poly(rng)
        if g.is_zero():
            continue
        assert poly_exact_divide(f * g, g) == f


def test_exact_divide_failure():
    with pytest.raises(NonExactDivision):
        poly_exact_divide(P("x^2 + 1"), P("x + 1"))
    with pytest.raises(ZeroDivisionError):
        poly_exact_divide(P("x"), MultiPoly.zero())


def test_poly_eval():
    phi2 = P("x^2 + x + c + 1")
    assert phi2.evaluate({"c": Fraction(-3, 4), "x": Fraction(-1, 2)}) == 0
    phi1 = P("x^2 - x + c")
    assert phi1.evaluate({"c": 0, "x": 0}) == 0
    assert P("x^2 + c").evaluate({"c": 1, "x": 2}) == 5
    with pytest.raises(MissingVariable):
        phi2.evaluate({"x": 1})
    ctx = FFContext(5)
    with pytest.raises(MixedScalarKinds):
        phi2.evaluate({"x": ctx.from_int(1), "c": Fraction(1)})


def test_poly_eval_ff():
    ctx = FFContext(7)
    phi2 = P("x^2 + x + c + 1")
    val = phi2.evaluate({"c": ctx.from_int(4), "x": ctx.from_int(3)})
    assert val == ctx.from_int((9 + 3 + 4 + 1) % 7)
    half = P("1/2*x")
    assert half.evaluate({"x": ctx.from_int(3)}) == ctx.from_int(5)  # 3 * inverse(2)


def test_substitute_and_partial():
    f = P("x^2 + c")
    f2 = f.substitute("x", f)
    assert f2 == P("x^4 + 2*c*x^2 + c^2 + c")
    assert f.partial("x") == P("2*x")
    assert f.partial("c") == MultiPoly.constant(1)
    assert f.partial("zz").is_zero()


# -------------------------------------------------------------- finite fields


def test_ff_enumerate_small():
    ctx = FFContext(3, 1)
    elems = list(ff_enumerate(ctx))
    assert [e.coeffs for e in elems] == [(0,), (1,), (2,)]

    ctx = FFContext(3, 2)
    elems = list(ff_enumerate(ctx))
    assert len(elems) == 9
    assert len(set(elems)) == 9


def test_ff_enumerate_frobenius_fixed():
    ctx = FFContext(2, 3)
    elems = list(ff_enumerate(ctx))
    assert len(elems) == 8
    for z in elems:
        assert z**8 == z  # direct exponentiation, not the frobenius helper


def test_ff_enumerate_budget():
    cfg = RunConfig(enumeration_cap=5)
    with pytest.raises(BudgetExceeded):
        list(ff_enumerate(FFContext(3, 2), cfg))


def test_ff_modulus_validation():
    ctx = FFContext(2, 3)  # auto-found modulus
    assert len(ctx.modulus) == 4 and ctx.modulus[-1] == 1
    FFContext(2, 3, modulus=(1, 1, 0, 1))  # x^3 + x + 1, irreducible
    with pytest.raises(ValueError):
        FFContext(2, 3, modulus=(1, 1, 1, 1))  # (x+1)(x^2+1) over F_2
    with pytest.raises(ValueError):
        FFContext(4, 1)  # not prime


def test_ff_field_axioms_random():
    rng = random.Random(99)
    for p, k in ((3, 2), (5, 1), (2, 3), (7, 2), (3, 3)):
        ctx = FFContext(p, k)
        q = ctx.q
        for _ in range(100):
            z = ctx.element(tuple(rng.randrange(p) for _ in range(k)))
            assert z**q == z
            if not z.is_zero():
                assert z ** (q - 1) == ctx.one()
                assert z * z.inverse() == ctx.one()


def test_ff_arithmetic_consistency():
    ctx = FFContext(3, 2)
    elems = list(ff_enumerate(ctx))
    for a in elems:
        for b in elems:
            assert a + b == b + a
            assert a * b == b * a
            assert (a - b) + b == a
    # frobenius is additive and multiplicative on a sample
    rng = random.Random(1)
    sample = rng.sample(elems, 5)
    for a in sample:
        for b in sample:
            assert (a + b).frobenius() == a.frobenius() + b.frobenius()
            assert (a * b).frobenius() == a.frobenius() * b.frobenius()
