"""Dynatomic polynomial and degree-arithmetic tests."""

import hashlib
import random
from collections import Counter
from fractions import Fraction

import pytest

from oracles import poly_exact_divide, quotient_generalized_dynatomic

import dynw._packed as pk
import dynw.dynatomic as dyn
from dynw.dynatomic import (
    asymptotic_genus_check,
    branch_count,
    check_degree_bounds,
    degree_d1,
    degree_report,
    dynatomic,
    euler_phi,
    generalized_dynatomic,
    iterate_fc,
    moebius,
    product_identity_holds,
)
from dynw.errors import NonExactDivision
from dynw.models import plane_model, reduced_model
from dynw.multipoly import MultiPoly
from dynw.portraits import build_portrait
from dynw.rational import factorize

P = MultiPoly.parse


def test_iterates():
    assert iterate_fc(0) == MultiPoly.var("x")
    assert iterate_fc(1) == P("x^2 + c")
    assert iterate_fc(2) == P("x^4 + 2*c*x^2 + c^2 + c")  # (x^2+c)^2 + c by hand
    # composition law f^(m+1) = f(f^m)
    f3 = iterate_fc(3)
    assert f3 == iterate_fc(2).substitute("x", P("x^2 + c"))
    with pytest.raises(ValueError):
        iterate_fc(-1)


def test_dynatomic_small_levels():
    assert dynatomic(1).phi == P("x^2 - x + c")
    assert str(dynatomic(2).phi) == "x^2 + x + c + 1"
    # independent oracle for level 3: direct expansion and exact division
    f3 = iterate_fc(3)
    phi3_oracle = poly_exact_divide(f3 - MultiPoly.var("x"), P("x^2 - x + c"))
    t = dynatomic(3)
    assert t.phi == phi3_oracle
    assert t.degree_x == 6 and t.degree_c == 3


def test_dynatomic_degree_bookkeeping():
    for n in range(1, 9):
        t = dynatomic(n)
        assert t.degree_x == degree_d1(n)
        assert 2 * t.degree_c == degree_d1(n)


def test_dynatomic_level_cap(monkeypatch):
    def no_build(n):
        raise AssertionError("started building f^n")

    monkeypatch.setattr(pk, "fc_iterate", no_build)
    monkeypatch.setenv("DYNW_MAX_DYNATOMIC_N", "12")  # not a setting: never read
    assert dyn.MAX_DYNATOMIC_N == 11
    for build in (dynatomic, iterate_fc, product_identity_holds):
        with pytest.raises(ValueError, match=r"^n = 12 exceeds max_dynatomic_n = 11$"):
            build(12)
    with pytest.raises(ValueError):
        dynatomic(0)


def test_product_identity_direct():
    # independent path: multiply the MultiPoly factors directly
    x = MultiPoly.var("x")
    for n in range(1, 7):
        prod = MultiPoly.constant(1)
        for d in range(1, n + 1):
            if n % d == 0:
                prod = prod * dynatomic(d).phi
        assert prod == iterate_fc(n) - x


def test_product_identity_engine():
    for n in range(1, 9):
        assert product_identity_holds(n)


def test_moebius_chain_certifies_each_division_on_its_first_pass(monkeypatch):
    """Built from a cold cache, Phi_1..Phi_9 make one packed pass per
    division and form no product inside a division; the polynomials are
    pinned by one sha256 over their exponent maps."""
    divisions, passes, products = [], [], []
    real_divexact, real_pass, real_mul, real_square = (
        pk.cx_divexact, pk._div_packed, pk.cx_mul, pk.cx_square
    )

    def divexact(N, D):
        before = len(products)
        divisions.append(real_divexact(N, D))
        assert len(products) == before, "a product inside cx_divexact"
        return divisions[-1]

    def one_pass(*args):
        passes.append(args[-1])
        return real_pass(*args)

    def mul(A, B):
        products.append(B)
        return real_mul(A, B)

    def square(A):
        products.append(A)
        return real_square(A)

    monkeypatch.setattr(dyn, "_dynatomic_cache", {})
    monkeypatch.setattr(pk, "cx_divexact", divexact)
    monkeypatch.setattr(pk, "_div_packed", one_pass)
    monkeypatch.setattr(pk, "cx_mul", mul)
    monkeypatch.setattr(pk, "cx_square", square)
    digest = hashlib.sha256()
    for n in range(1, 10):
        digest.update(repr(sorted(pk.cx_to_terms(dyn.dynatomic_cx(n)).items())).encode())
    assert len(divisions) == len(passes) == 10  # levels 2..9, and three at 6
    assert digest.hexdigest() == "9a42dbb7e70c3f3302744348d4d58be7790bf160fb90ee59aa9e6dbfffd48878"


def test_cached_forms_are_shared_and_never_mutated():
    """dynatomic_cx and fc_iterate return their cached forms themselves, not
    copies, so no reader may mutate one: a digest of the forms of levels
    1-8 is unchanged after the builders that read them have run."""
    def digest():
        h = hashlib.sha256()
        for n in range(1, 9):
            h.update(repr((dyn.dynatomic_cx(n), pk.fc_iterate(n))).encode())
        return h.hexdigest()

    for n in range(1, 9):
        assert dyn.dynatomic_cx(n) is dyn.dynatomic_cx(n)
        assert pk.fc_iterate(n) is pk.fc_iterate(n)
    before = digest()
    assert all(product_identity_holds(n) for n in range(1, 9))
    for m, n in ((1, 3), (2, 2), (3, 4)):
        generalized_dynatomic(m, n)
    for n in range(9):
        iterate_fc(n)
    plane_model(5)
    chain = ()
    for _ in range(5):
        chain = (chain, ())  # preimage pairs down to depth 6: orbit type (6, 2)
    reduced_model(build_portrait([(2, [chain, ()])]))
    assert digest() == before


@pytest.mark.parametrize("n", [8, 12, 30, 210])
def test_moebius_chain_divides_exactly(monkeypatch, n):
    """Levels with three or more prime factors (30 and up) are far too large
    to build, so the division chain runs here on multisets of factors:
    f^d - x is the product of the Phi_e with e | d.  Every division must
    take out only factors its dividend has, and the chain must end at Phi_n."""
    def fn_minus_x(d):
        return Counter(e for e in range(1, d + 1) if d % e == 0)

    def divexact(N, D):
        assert not D - N, (N, D)
        return N - D

    monkeypatch.setattr(dyn, "_fn_minus_x", fn_minus_x)
    monkeypatch.setattr(pk, "cx_divexact", divexact)
    assert dyn._moebius_chain(n, sorted(factorize(n))) == Counter({n: 1})


def test_generalized_dynatomic():
    g11 = generalized_dynatomic(1, 1)
    assert g11 == P("x^2 + x + c")
    # oracle: the quotient re-multiplies to the composed numerator
    num = dynatomic(1).phi.substitute("x", P("x^2 + c"))
    assert g11 * dynatomic(1).phi == num

    assert generalized_dynatomic(0, 2) == dynatomic(2).phi
    g12 = generalized_dynatomic(1, 2)
    assert g12 == P("x^2 - x + c + 1")
    assert g12 * dynatomic(2).phi == dynatomic(2).phi.substitute("x", P("x^2 + c"))


def test_generalized_dynatomic_refuses_orbit_types_wider_than_the_level_cap(monkeypatch):
    # x-degree 2^(m-1) D1(n) against D1(11) = 2046: D1(2) = 2, D1(10) = 990
    def not_built(*args):
        raise AssertionError("built Phi_n or a composition")

    monkeypatch.setattr(dyn, "dynatomic_cx", not_built)
    monkeypatch.setattr(pk, "cx_compose_f", not_built)
    for (m, n), width in (((11, 2), 2048), ((3, 10), 3960)):
        with pytest.raises(ValueError, match=(
            rf"^orbit type \({m}, {n}\) has x-degree {width}, more than the 2046 of "
            r"Phi_11 \(max_dynatomic_n\)$"
        )):
            generalized_dynatomic(m, n)


def test_generalized_dynatomic_identity_grid():
    """Phi_{m,n} * Phi_n(f^(m-1)) = Phi_n(f^m) in MultiPoly arithmetic, which
    shares no code with the packed engine.  Where m + n <= 7 the identity is
    checked in Z[c, x]; the three larger cells, whose MultiPoly products take
    8 to 124 s, are checked with c specialized to three values."""
    for n in range(1, 5):
        for m in range(1, 6):
            cases = [None] if m + n <= 7 else [-2, Fraction(1, 3), 5]
            for c0 in cases:
                def at(f):
                    return f if c0 is None else f.substitute("c", MultiPoly.constant(c0))

                phi, inner = at(dynatomic(n).phi), at(iterate_fc(m - 1))
                outer = inner.substitute("x", at(iterate_fc(1)))
                lhs = at(generalized_dynatomic(m, n)) * phi.substitute("x", inner)
                assert lhs == phi.substitute("x", outer), (m, n, c0)
    f1, f2 = iterate_fc(1), iterate_fc(2)
    phi5 = dynatomic(5).phi
    quotient = poly_exact_divide(phi5.substitute("x", f2), phi5.substitute("x", f1))
    assert generalized_dynatomic(2, 5) == quotient


# the benchmark's orbit types, and the grid below them
ORBIT_TYPES = ((2, 6), (3, 5), (4, 4), (5, 3), (6, 2), (7, 2))
GRID = [(m, n) for m in range(1, 6) for n in range(1, 5)]


@pytest.mark.parametrize("m,n", GRID + [t for t in ORBIT_TYPES if t not in GRID])
def test_generalized_dynatomic_matches_quotient_oracle(m, n):
    assert generalized_dynatomic(m, n) == quotient_generalized_dynatomic(m, n)


def test_generalized_dynatomic_8_2_matches_recorded_oracle():
    """quotient_generalized_dynatomic(8, 2) takes about 15 s, so the sha256
    of its text, computed once, is recorded here."""
    g = generalized_dynatomic(8, 2)
    assert dynatomic(2).degree_x << 7 == 256 == g.degree("x")
    digest = hashlib.sha256(str(g).encode()).hexdigest()
    assert digest == "4af14b8799eff6ce785dc4908ba3df0742757b30f7d83c47eed44d5bc100ded2"


@pytest.mark.parametrize("n", [2, 3])
def test_generalized_dynatomic_divides_once(monkeypatch, n):
    """Once Phi_n is built, Phi_{m,n} = Phi_n(c, -f^(m-1)(x)) makes no
    exact division at all."""
    divisions = []

    def spy(*args):
        divisions.append(args)
        raise AssertionError("divided")

    dynatomic(n)  # Phi_n is built and cached before the spy goes in
    monkeypatch.setattr(pk, "cx_divexact", spy)
    for m in range(1, 7):
        assert generalized_dynatomic(m, n).degree("x") == degree_d1(n) << (m - 1)
    assert divisions == []


@pytest.mark.parametrize("damage", ["drop the top row", "double the top row"])
def test_generalized_dynatomic_checks_degree_and_leading_term(monkeypatch, damage):
    """Composing f^(m-1) into Phi_n(c, -x) is the one composition, so the
    result's x-degree 2^(m-1)*D1(n) and monic leading term are checked."""
    real = pk.cx_compose_f
    calls = []

    def damaged(A, times):
        out = real(A, times)
        calls.append(times)
        if damage == "drop the top row":
            return out[:-1]
        return out[:-1] + [[2 * v for v in out[-1]]]

    monkeypatch.setattr(pk, "cx_compose_f", damaged)
    with pytest.raises(NonExactDivision, match=r"\(3, 2\): x-degree"):
        generalized_dynatomic(3, 2)
    assert calls == [2]


def test_generalized_dynatomic_composes_without_products(monkeypatch):
    """Once Phi_n is cached, Phi_{m,n} makes no product: negating the odd
    x-rows and the Taylor shifts of f^(m-1) are moves, shifts and adds."""
    products = []

    def spy(*args):
        products.append(args)
        raise AssertionError("multiplied")

    dynatomic(3)  # Phi_n is built and cached before the spies go in
    monkeypatch.setattr(pk, "cx_mul", spy)
    monkeypatch.setattr(pk, "cx_square", spy)
    for m in range(1, 7):
        generalized_dynatomic(m, 3)
    assert products == []


def test_phi_n_of_f_splits_into_phi_n_and_its_mirror():
    """Phi_n(c, x^2 + c) = Phi_n(c, x) * Phi_n(c, -x), so Phi_{1,n} is
    Phi_n(c, -x): in MultiPoly arithmetic, which shares no code with the
    packed engine, for n <= 4, and in cx form for n <= 7."""
    x = MultiPoly.var("x")
    for n in range(1, 5):
        phi = dynatomic(n).phi
        mirror = phi.substitute("x", -x)
        assert phi.substitute("x", iterate_fc(1)) == phi * mirror, n
        assert generalized_dynatomic(1, n) == mirror, n
    for n in range(1, 8):
        phi = dyn.dynatomic_cx(n)
        mirror = [[-v for v in s] if i % 2 and s else s for i, s in enumerate(phi)]
        composed, product = pk.cx_compose_f(phi, 1), pk.cx_mul(phi, mirror)
        assert pk.cx_to_terms(composed) == pk.cx_to_terms(product), n


def _with_fractions(terms: dict) -> MultiPoly:
    """The polynomial with a Fraction per term, as MultiPoly once held it."""
    return MultiPoly._normalized(("c", "x"), {e: Fraction(c) for e, c in terms.items()})


def test_dynatomic_polynomials_hold_only_ints():
    """Phi_n and Phi_{m,n} lie in Z[c, x]: every coefficient is an int, and
    the polynomial equals, hashes and prints as the one with a Fraction per
    term, built from the packed form (Phi_n) or from its own terms
    (Phi_{m,n}, which also equals the quotient oracle)."""
    cases = [(dynatomic(n).phi, dyn.dynatomic_cx(n)) for n in range(1, 9)]
    cases += [(generalized_dynatomic(m, n), (m, n)) for m, n in ((1, 3), (2, 2), (3, 1), (3, 4), (4, 3))]
    for poly, source in cases:
        assert all(type(c) is int for c in poly.terms.values()), source
        if isinstance(source, tuple):
            assert poly == quotient_generalized_dynatomic(*source), source
            old = _with_fractions(poly.terms)
        else:
            old = _with_fractions(pk.cx_to_terms(source))
        assert poly == old and hash(poly) == hash(old) and str(poly) == str(old), source


def test_degree_report_values():
    r = degree_report(3)
    assert (r.D1, r.D0, r.B, r.genus_lb) == (6, 2, 1, Fraction(-1, 2))
    r = degree_report(1)
    assert (r.D1, r.D0, r.B) == (2, 2, 1)  # empty proper-divisor sum
    r = degree_report(12)
    assert (r.D1, r.D0, r.B, r.genus_lb) == (4020, 335, 1959, Fraction(1291, 2))
    r = degree_report(256)  # big-integer-only path goes far beyond construction
    assert r.D1 == 2**256 - 2**128 and r.D1 % 256 == 0
    with pytest.raises(ValueError):
        degree_report(0)
    with pytest.raises(ValueError):
        degree_report(257)


def test_degree_report_against_sympy_oracle():
    sympy = pytest.importorskip("sympy")
    from sympy import divisors
    from sympy.functions.combinatorial.numbers import mobius, totient

    for n in range(1, 25):
        d1 = sum(int(mobius(n // k)) * 2**k for k in divisors(n))
        b = (d1 - sum(int(totient(n // k)) * sum(int(mobius(k // j)) * 2**j for j in divisors(k))
                      for k in divisors(n) if k < n)) // 2
        r = degree_report(n)
        assert r.D1 == d1
        assert r.D0 * n == d1
        assert r.B == b
        assert r.genus_lb == 1 + Fraction(b, 2) - d1 // n


def test_divisibility_property():
    for n in range(1, 65):
        assert degree_d1(n) % n == 0


def test_moebius_and_phi():
    assert [moebius(n) for n in range(1, 11)] == [1, -1, -1, 0, -1, 1, -1, 0, 0, 1]
    assert [euler_phi(n) for n in range(1, 11)] == [1, 1, 2, 2, 4, 2, 6, 4, 6, 4]


def test_check_degree_bounds():
    r = check_degree_bounds(2)
    assert r.D1 == 2 and r.lower == 2 and not r.lower_strict and r.ok
    r = check_degree_bounds(3)
    assert r.lower_strict and r.upper_strict and r.ok  # 4 < 6 < 8
    r = check_degree_bounds(10)
    assert r.lower_strict and r.upper_strict and r.ok
    assert all(check_degree_bounds(n).ok for n in range(1, 31))


def test_asymptotic_genus_check():
    assert asymptotic_genus_check(25).chain_holds
    r12 = asymptotic_genus_check(12)
    assert not r12.chain_holds
    assert r12.B == 1959 and r12.six_d0 == 2010 and not r12.b_exceeds_six_d0
    assert asymptotic_genus_check(30).chain_holds
    assert not asymptotic_genus_check(24).chain_holds
    with pytest.raises(ValueError):
        asymptotic_genus_check(11)


def test_degree_reports_refuse_levels_over_the_report_bound():
    assert dyn.MAX_REPORT_N == 12900
    assert check_degree_bounds(12900).ok
    assert asymptotic_genus_check(12900).chain_holds
    for check in (check_degree_bounds, asymptotic_genus_check):
        for n in (12901, 1099511627777):
            with pytest.raises(ValueError, match=f"{check.__name__} supports n <= 12900"):
                check(n)


def test_branch_count_small():
    assert branch_count(1) == 1
    assert branch_count(2) == 0
    assert branch_count(3) == 1
    assert branch_count(12) == 1959
    assert all(branch_count(n) >= 0 for n in range(1, 65))


def test_exact_period_of_dynatomic_roots_mod_101():
    """Points where the level-n polynomial vanishes but no lower level does
    have exact period n under x -> x^2 + c."""
    p = 101
    rng = random.Random(17)
    # terms grouped by x-degree: by_xdeg[n][ex] = [(coefficient, c-degree)]
    by_xdeg = {}
    for n in range(1, 9):
        phi = dynatomic(n).phi
        slots = [[] for _ in range(phi.degree("x") + 1)]
        for (ec, ex), coef in phi.terms.items():  # variables are (c, x)
            slots[ex].append((coef.numerator % p, ec))
        by_xdeg[n] = slots

    def x_values(n, c0, cpow):
        """Phi_n(c0, x) for all x, by Horner on the specialized coefficients."""
        ucoef = [sum(co * cpow[ec] for co, ec in slot) % p for slot in by_xdeg[n]]
        out = []
        for x0 in range(p):
            acc = 0
            for co in reversed(ucoef):
                acc = (acc * x0 + co) % p
            out.append(acc)
        return out

    for n in range(1, 9):
        found = 0
        for c0 in rng.sample(range(p), p):
            cpow = [1] * 2048
            for i in range(1, 2048):
                cpow[i] = cpow[i - 1] * c0 % p
            level_n = x_values(n, c0, cpow)
            lower = [x_values(d, c0, cpow) for d in range(1, n)]
            for x0 in range(p):
                if level_n[x0] != 0 or any(vals[x0] == 0 for vals in lower):
                    continue
                z = (x0 * x0 + c0) % p
                length = 1
                while z != x0:
                    z = (z * z + c0) % p
                    length += 1
                    assert length <= n, "orbit exceeded the claimed period"
                assert length == n
                found += 1
            if found >= 50:
                break
        assert found >= 50, f"not enough sample points at level {n}"
