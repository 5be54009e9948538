"""Exact scalar, polynomial, and finite-field layer tests."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import TupleField, compile_terms, eval_terms, poly_exact_divide

from dynw.errors import (
    BudgetExceeded,
    MissingVariable,
    MixedScalarKinds,
    NonExactDivision,
    ParseError,
)
from dynw.dynatomic import dynatomic
from dynw import ff, rational
from dynw.ff import FFContext, FFElement, poly_mod, poly_mul
from dynw.multipoly import MultiPoly
from dynw.rational import factorize, is_prime, parse_rational


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
    assert str(P("y - 1 - 3/2*x^2*c")) == "-3/2*c*x^2 + y - 1"


_NAMES = ("c", "x", "y", "x1", "u_2")


@st.composite
def polys(draw, max_exp=5, max_size=6):
    """A MultiPoly over a subset of _NAMES with small exponents and
    coefficients whose denominators are at most 6."""
    names = draw(st.lists(st.sampled_from(_NAMES), unique=True, max_size=3))
    terms = draw(
        st.dictionaries(
            st.tuples(*(st.integers(0, max_exp) for _ in names)),
            st.fractions(-40, 40, max_denominator=6),
            max_size=max_size,
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
    assert f.horner()(assignment) == expected
    assert f.evaluate(assignment) == expected


_FIELDS = {(p, k): FFContext(p, k) for p, k in ((7, 1), (11, 1), (7, 2), (11, 2))}


@settings(max_examples=100, deadline=None)
@given(f=polys(), field=st.sampled_from(sorted(_FIELDS)), data=st.data())
def test_horner_matches_term_oracle_over_finite_fields(f, field, data):
    ctx = _FIELDS[field]
    oracle = TupleField.like(ctx)
    codes = {v: data.draw(st.integers(0, ctx.q - 1)) for v in _NAMES}
    expected = eval_terms(
        compile_terms(f, oracle.from_rational),
        {v: oracle.element(ctx.digits(a)) for v, a in codes.items()},
    )
    assert ctx.digits(f.horner(ctx.ring)(codes)) == expected.coeffs


@settings(max_examples=100, deadline=None)
@given(f=polys(), data=st.data())
def test_rename_matches_construction_from_terms(f, data):
    """rename permutes exponents into the new sorted order; building the
    polynomial afresh from the renamed variable tuple must agree, also when
    the new names reorder the variables (x -> a)."""
    targets = data.draw(st.lists(st.sampled_from(("a", "b", "x", "z9")), unique=True,
                                 min_size=len(f.variables), max_size=len(f.variables)))
    mapping = dict(zip(f.variables, targets))
    renamed = [mapping.get(v, v) for v in f.variables]
    assert f.rename(mapping) == MultiPoly(renamed, f.terms)


def _check_the_coefficient_rule(f):
    """Every coefficient is an int, or a Fraction with denominator > 1, and
    f is the polynomial its text parses to, in ==, hash and str."""
    for coef in f.terms.values():
        assert type(coef) is int or (type(coef) is Fraction and coef.denominator > 1), f.terms
    parsed = MultiPoly.parse(str(f))
    assert parsed == f and hash(parsed) == hash(f) and str(parsed) == str(f)
    assert {e: type(c) for e, c in parsed.terms.items()} == {e: type(c) for e, c in f.terms.items()}


@settings(max_examples=100, deadline=None)
@given(f=polys(), g=polys(), small=polys(max_exp=2, max_size=3), data=st.data())
def test_integral_coefficients_are_ints(f, g, small, data):
    """An integral coefficient is an int and every other one a Fraction
    with denominator > 1, whichever operation made the polynomial."""
    var = data.draw(st.sampled_from(_NAMES))
    k = data.draw(st.integers(0, 3))
    scalar = data.draw(st.sampled_from((0, 3, -1, Fraction(1, 2), Fraction(-4, 2))))
    targets = data.draw(st.lists(st.sampled_from(("a", "b", "x", "z9")), unique=True,
                                 min_size=len(f.variables), max_size=len(f.variables)))
    for h in (
        f, MultiPoly.parse(str(f)), f + g, f - g, f * g, f * scalar, scalar * f,
        f + scalar, scalar - f, f ** k, small ** 3, f.partial(var), f.substitute(var, small),
        f.rename(dict(zip(f.variables, targets))), f.coefficient_in(var, k),
        MultiPoly.constant(scalar), MultiPoly.var(var),
    ):
        _check_the_coefficient_rule(h)


def test_coefficients_are_ints_after_fraction_arithmetic():
    half = P("1/2*x + 1/2")
    assert (half * 2).terms == {(1,): 1, (0,): 1}
    assert all(type(c) is int for c in (half + half).terms.values())
    assert type(MultiPoly.constant(Fraction(6, 3)).terms[()]) is int
    assert type(MultiPoly(("x",), {(1,): 2.0}).terms[(1,)]) is int
    assert MultiPoly.var("x").terms == {(1,): 1}


def test_an_order_keeping_rename_shares_the_terms():
    """x -> y keeps c before the new name, so the renamed polynomial is
    equal to one built afresh and shares the exponent table; x -> a
    reorders, so its exponents are permuted."""
    f = P("x^3*c + 2*x - c^2")
    kept = f.rename({"x": "y"})
    assert kept == MultiPoly(("c", "y"), f.terms) == P("y^3*c + 2*y - c^2")
    assert kept.terms is f.terms
    moved = f.rename({"x": "a"})
    assert moved == P("a^3*c + 2*a - c^2") and moved.variables == ("a", "c")
    assert moved.terms == {(e[1], e[0]): coef for e, coef in f.terms.items()}


def test_rename_refuses_to_merge_variables():
    with pytest.raises(ValueError, match="duplicate variable names"):
        P("x*y + c").rename({"x": "y"})
    assert P("x^2*c + x").rename({"x": "a"}).variables == ("a", "c")


def test_parse_builds_one_polynomial(monkeypatch):
    """Parsing sums the terms into one table: a 750-term string makes as
    many MultiPoly constructions as a one-term string."""
    phi = dynatomic(6).phi
    text = str(phi)
    assert text.count(" + ") + text.count(" - ") + 1 == 750
    built = []
    init = MultiPoly.__init__

    def spy_init(self, *args):
        built.append(args)
        init(self, *args)

    monkeypatch.setattr(MultiPoly, "__init__", spy_init)
    MultiPoly.parse("x")
    one_term = len(built)
    built.clear()
    parsed = MultiPoly.parse(text)
    assert 1 <= one_term == len(built)
    assert parsed == phi


def test_parse_errors():
    for bad in ("", "x +", "1/0", "x^", "x$y"):
        with pytest.raises(ParseError):
            MultiPoly.parse(bad)


def test_a_star_stands_between_two_factors():
    """x**2 once read as 2*x: every '*' was skipped and 2 read as a
    coefficient.  A '*' not between two factors is now a ParseError."""
    for bad in ("x**2", "2**x", "x*", "*x", "2*-x", "x*+y", "c*x**3 + 1", "x* * y"):
        with pytest.raises(ParseError, match="between two factors"):
            MultiPoly.parse(bad)
    assert P("2 * x * c") == P("2*c*x") == P("2 c x")
    assert P("x^2*3/4") == P("3/4*x^2")


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
        phi2.evaluate({"x": FFElement(ctx, 1), "c": Fraction(1)})


def test_poly_eval_ff():
    ctx = FFContext(7)
    phi2 = P("x^2 + x + c + 1")
    assert phi2.horner(ctx.ring)({"c": 4, "x": 3}) == (9 + 3 + 4 + 1) % 7
    half = P("1/2*x")
    assert half.horner(ctx.ring)({"x": 3}) == 5  # 3 * inverse(2)
    with pytest.raises(MixedScalarKinds):
        phi2.evaluate({"c": FFElement(ctx, 4), "x": FFElement(ctx, 3)})


def test_substitute_and_partial():
    f = P("x^2 + c")
    f2 = f.substitute("x", f)
    assert f2 == P("x^4 + 2*c*x^2 + c^2 + c")
    assert f.partial("x") == P("2*x")
    assert f.partial("c") == MultiPoly.constant(1)
    assert f.partial("zz").is_zero()


# -------------------------------------------------------------- finite fields


def test_field_codes_small():
    ctx = FFContext(3, 1)
    assert [ctx.digits(a) for a in range(ctx.q)] == [(0,), (1,), (2,)]

    ctx = FFContext(3, 2)
    assert ctx.q == 9
    assert len({ctx.digits(a) for a in range(ctx.q)}) == 9


def test_every_code_is_fixed_by_the_q_power():
    ctx = FFContext(2, 3)
    assert ctx.q == 8
    for z in range(ctx.q):
        assert ctx.pow(z, 8) == z


def test_poly_powmod_matches_repeated_products(monkeypatch):
    """f^e mod m against e products reduced one at a time, over F_5 and
    F_9; square and multiply squares only while bits of e remain, so it
    makes bit_length(e) - 1 squarings and popcount(e) multiplications."""
    rng = random.Random(17)
    for ctx in (FFContext(5), FFContext(3, 2)):
        for _ in range(3):
            m = [rng.randrange(ctx.q) for _ in range(3)] + [rng.randrange(1, ctx.q)]
            f = [rng.randrange(ctx.q) for _ in range(5)]
            want = [1]
            for e in range(41):
                products = []
                with monkeypatch.context() as patch:
                    patch.setattr(ff, "poly_mul", lambda a, b, F: products.append(1) or poly_mul(a, b, F))
                    got = ff.poly_powmod(f, e, m, ctx)
                assert got == want, (ctx.q, m, f, e)
                assert len(products) == max(e.bit_length() - 1, 0) + bin(e).count("1"), e
                want = poly_mod(poly_mul(want, f, ctx), m, ctx)


def test_prime_field_powers_are_reduced_as_they_are_formed():
    """Horner over F_p reduces each power mod p as it forms it: every power
    the prime field's ring returns is a code, below p."""
    ctx = FFContext(7)
    powers = []

    def power(base, exp):
        powers.append(ctx.ring.power(base, exp))
        return powers[-1]

    evaluate = P("x^100 - c + x^3*c^5").horner(ctx.ring._replace(power=power))
    for x in range(7):
        for c in range(7):
            assert evaluate({"x": x, "c": c}) == (x**100 - c + x**3 * c**5) % 7
    assert powers and all(0 <= value < 7 for value in powers)


def test_ff_modulus_validation():
    ctx = FFContext(2, 3)  # auto-found modulus
    assert len(ctx.modulus) == 4 and ctx.modulus[-1] == 1
    assert ff._is_irreducible(list(ctx.modulus), FFContext(2))
    assert ff._is_irreducible([1, 1, 0, 1], FFContext(2))  # x^3 + x + 1
    assert not ff._is_irreducible([1, 1, 1, 1], FFContext(2))  # (x+1)(x^2+1) over F_2
    with pytest.raises(ValueError):
        FFContext(4, 1)  # not prime


def test_ff_field_axioms_random():
    rng = random.Random(99)
    for p, k in ((3, 2), (5, 1), (2, 3), (7, 2), (3, 3)):
        ctx = FFContext(p, k)
        q = ctx.q
        for _ in range(100):
            z = sum(rng.randrange(p) * p**i for i in range(k))
            assert ctx.pow(z, q) == z
            if z:
                assert ctx.pow(z, q - 1) == 1
                assert ctx.mul(z, ctx.inv(z)) == 1


def test_ff_arithmetic_consistency():
    ctx = FFContext(3, 2)
    add, sub, mul = ctx.add, ctx.sub, ctx.mul
    elems = range(ctx.q)
    for a in elems:
        for b in elems:
            assert add(a, b) == add(b, a)
            assert mul(a, b) == mul(b, a)
            assert add(sub(a, b), b) == a
    # frobenius a -> a^p is additive and multiplicative on a sample
    rng = random.Random(1)
    sample = rng.sample(elems, 5)

    def frob(a):
        return ctx.pow(a, ctx.p)

    for a in sample:
        for b in sample:
            assert frob(add(a, b)) == add(frob(a), frob(b))
            assert frob(mul(a, b)) == mul(frob(a), frob(b))


def test_exp_table_holds_the_powers_of_the_primitive_element():
    """exp[n] is g^n mod the modulus, g = exp[1], by square and multiply
    over F_p at sampled n, and the first q - 1 entries are every nonzero
    code once, over F_{2^10}, F_{3^5} and F_{7^3}."""
    rng = random.Random(5)
    for p, k in ((2, 10), (3, 5), (7, 3)):
        ctx, Fp = FFContext(p, k), FFContext(p)
        q, modulus = ctx.q, list(ctx.modulus)
        g = ff.poly_trim(list(ctx.digits(ctx._exp[1])))
        assert len(g) > 1  # not in the prime field
        for n in [0, 1, 2, k, q - 2, *rng.sample(range(q - 1), 40)]:
            want = ff.poly_powmod(g, n, modulus, Fp)
            assert ff.poly_trim(list(ctx.digits(ctx._exp[n]))) == want, (p, k, n)
            assert ctx._exp[n + q - 1] == ctx._exp[n] and ctx._log[ctx._exp[n]] == n
        assert sorted(ctx._exp[: q - 1]) == list(range(1, q))


def test_context_refuses_a_field_over_the_cap():
    with pytest.raises(BudgetExceeded, match="q = 27 exceeds enumeration cap 26"):
        FFContext(3, 3, cap=26)


def test_context_checks_the_cap_before_primality(monkeypatch):
    # 3376-digit p, prime and even: q >= 2^22424 is refused with no
    # primality test, which would take far longer
    def no_primality_test(n):
        raise AssertionError("tested p for primality")

    monkeypatch.setattr(ff, "is_prime", no_primality_test)
    for p in (2**11213 - 1, 2**11213 - 2):
        with pytest.raises(BudgetExceeded, match=r"^q >= 2\^22424 exceeds enumeration cap"):
            FFContext(p, 2)


def test_context_refuses_a_field_over_the_table_limit_before_any_search(monkeypatch):
    def never(*args):
        raise AssertionError("searched for a modulus or tested p for primality")

    monkeypatch.setattr(ff, "_is_irreducible", never)
    monkeypatch.setattr(ff, "is_prime", never)
    for p, k in ((2, 21), (2, 45), (1025, 2), (1024, 3)):  # 1025, 1024 not prime
        with pytest.raises(BudgetExceeded, match=rf"^q = {p}\^{k} exceeds the field table limit 2\^20"):
            FFContext(p, k, cap=10**14)


def test_the_table_limit_admits_q_up_to_2_to_the_20(monkeypatch):
    built = []
    monkeypatch.setattr(FFContext, "_build_tables", lambda self: built.append(self.q))
    for p, k in ((2, 20), (1021, 2), (101, 3)):
        FFContext(p, k)
    assert built == [2**20, 1021**2, 101**3] and ff.FIELD_TABLE_LIMIT == 2**20


# psi_12 and psi_13 of OEIS A014233, the least strong pseudoprimes to the
# first 12 and 13 prime bases
PSI_12 = 318665857834031151167461
PSI_13 = 3317044064679887385961981


def test_is_prime_refuses_the_least_pseudoprime_to_the_bases_up_to_37():
    assert PSI_12 == 399165290221 * 798330580441
    assert not is_prime(PSI_12)
    assert is_prime(399165290221) and is_prime(798330580441)
    for refuse in (ff.require_prime, FFContext):
        with pytest.raises(ValueError, match=f"^{PSI_12} is not prime$"):
            refuse(PSI_12)
    with pytest.raises(ValueError, match="too large to test for primality"):
        is_prime(PSI_13)
    assert not is_prime(2 * PSI_13)  # a small factor is still exact


def test_is_prime_agrees_with_trial_division():
    sieve = bytearray([1]) * 10**5
    sieve[0] = sieve[1] = 0
    for n in range(2, 317):
        if sieve[n]:
            sieve[n * n :: n] = bytearray(len(range(n * n, 10**5, n)))
    assert [n for n in range(10**5) if is_prime(n)] == [n for n in range(10**5) if sieve[n]]
    assert [is_prime(n) for n in (-7, 0, 1, 2, 41, 43)] == [False] * 3 + [True] * 3


def test_factorize_multiplies_back_with_prime_factors():
    for n in range(1, 20000):
        factors = factorize(n)
        product = 1
        for q, e in factors.items():
            assert e >= 1 and is_prime(q), (n, q)
            product *= q**e
        assert product == n
    assert factorize(2**40 - 1) == {3: 1, 5: 2, 11: 1, 17: 1, 31: 1, 41: 1, 61681: 1}
    assert factorize(1048573 * 1048571) == {1048571: 1, 1048573: 1}  # largest primes < 2^20
    for n in (2**40, 2**64, 0):
        with pytest.raises(ValueError, match="factorize expects"):
            factorize(n)


def test_factorize_tests_no_primality(monkeypatch):
    def no_primality_test(n):
        raise AssertionError("tested for primality")

    monkeypatch.setattr(rational, "is_prime", no_primality_test)
    assert factorize(2**40 - 87) == {2**40 - 87: 1}  # the largest prime below 2^40


# Characteristic 2 (F_2, F_8), where -1 = 1, and odd characteristic in prime
# fields and extensions of degree 2, 3 and 5.
_ORACLE_FIELDS = {
    (p, k): FFContext(p, k) for p, k in ((2, 1), (2, 3), (7, 1), (7, 2), (11, 2), (3, 5), (7, 3))
}


def test_code_order_is_the_lexicographic_enumeration():
    for ctx in _ORACLE_FIELDS.values():
        lexicographic = [e.coeffs for e in TupleField.like(ctx).elements()]
        assert [ctx.digits(a) for a in range(ctx.q)] == lexicographic
        for a in range(ctx.q):
            assert ctx.add(a, ctx.neg(a)) == 0 and ctx.sub(a, a) == 0


@settings(max_examples=300, deadline=None)
@given(field=st.sampled_from(sorted(_ORACLE_FIELDS)), data=st.data())
def test_field_operations_match_tuple_oracle(field, data):
    ctx = _ORACLE_FIELDS[field]
    oracle = TupleField.like(ctx)
    a, b = (data.draw(st.integers(0, ctx.q - 1)) for _ in range(2))
    e = data.draw(st.integers(-2 * ctx.q, 2 * ctx.q))
    ta, tb = oracle.element(ctx.digits(a)), oracle.element(ctx.digits(b))
    assert ctx.digits(ctx.add(a, b)) == (ta + tb).coeffs
    assert ctx.digits(ctx.sub(a, b)) == (ta - tb).coeffs
    assert ctx.digits(ctx.neg(a)) == (-ta).coeffs
    assert ctx.digits(ctx.mul(a, b)) == (ta * tb).coeffs
    if a:
        assert ctx.digits(ctx.inv(a)) == ta.inverse().coeffs
        assert ctx.digits(ctx.pow(a, e)) == (ta**e).coeffs
    else:
        with pytest.raises(ZeroDivisionError):
            ctx.inv(a)
        assert ctx.pow(a, abs(e)) == (0 if e else 1)
    assert ctx.digits(ctx.add(ctx.mul(a, b), ctx.coerce(3))) == (ta * tb + 3).coeffs
