"""Acceptance suite.

Each criterion is one test that prints a single PASS/FAIL line (run with
`pytest tests/test_acceptance.py -v -s` to see them live) and enforces both
the exact expected values and the stated runtime budget; a run over its
budget prints FAIL.

Criterion 5 names the exact set of 12-vertex (2,1,1) classes whose
automorphism group has order 16.  There are two, not one: the class with
preimage pairs on both 2-cycle tails (catalog 12(2,1,1)a) and the class with
preimage pairs on both fixed-point tails (12(2,1,1)d); both groups are
(Z2 wr Z2) x Z2.  The other three classes have order 4.  Every order is
cross-checked against a brute-force count of the bijections that commute
with the map (tests/oracles.py).
"""

import time
from fractions import Fraction
from math import gcd
import random

import pytest

from oracles import brute_force_automorphism_count, brute_force_preperiodic

import dynw.dynatomic as dyn
from dynw.catalog import build_portrait, generic_entries, lookup, L, T3
from dynw.classify import classify, preperiodic_candidates, orbit, sweep
from dynw.ff import FFContext
from dynw.fflab import (
    CSQuery,
    cs_obstruction,
    count_points,
    gonality_lower_bound,
    iter_solutions,
    trace_relation_check,
)
from dynw.models import full_model, multi_level_model, reduced_model
from dynw.portraits import (
    CycleStructure,
    automorphism_group,
    canonical_form,
    embeddings,
    enumerate_generic,
    minimal_extensions,
)


class Budget:
    """Measure a criterion, print its verdict line, enforce its time cap."""

    def __init__(self, number: int, name: str, seconds: float):
        self.number = number
        self.name = name
        self.seconds = seconds

    def __enter__(self):
        self.t0 = time.monotonic()
        self.ok = True
        self.detail = ""
        return self

    def __exit__(self, exc_type, exc, tb):
        elapsed = time.monotonic() - self.t0
        in_time = elapsed < self.seconds
        verdict = "PASS" if self.ok and exc_type is None and in_time else "FAIL"
        line = f"ACCEPTANCE {self.number:02d} {verdict} {self.name} ({elapsed:.2f}s"
        line += f" / budget {self.seconds:.0f}s)"
        if self.detail:
            line += f"  {self.detail}"
        print(line, flush=True)
        if exc_type is None:
            assert in_time, (
                f"criterion {self.number} exceeded its {self.seconds}s budget: {elapsed:.2f}s"
            )
        return False


def test_budget_prints_fail_when_over_time(capsys):
    with pytest.raises(AssertionError, match="exceeded its 0s budget"):
        with Budget(99, "over budget", 0):
            pass
    assert "ACCEPTANCE 99 FAIL over budget" in capsys.readouterr().out


def test_criterion_01_dynatomic_identities():
    with Budget(1, "dynatomic identities", 60):
        dyn.clear_caches()  # honest timing: construct everything from scratch
        for n in range(1, 11):
            assert dyn.product_identity_holds(n), f"product identity fails at n={n}"
            assert dyn.dynatomic(n).degree_x == dyn.degree_d1(n)
        assert str(dyn.dynatomic(2).phi) == "x^2 + x + c + 1"


def test_criterion_02_degree_bounds():
    with Budget(2, "degree bounds", 1):
        for n in range(1, 31):
            r = dyn.check_degree_bounds(n)
            assert r.lower_holds and r.upper_holds, n
            if n >= 3:
                assert r.lower_strict and r.upper_strict, n
                assert Fraction(r.lower, n) < dyn.degree_d0(n) < Fraction(r.upper, n), n
        for n in range(1, 65):
            assert dyn.degree_d1(n) % n == 0, n


def test_criterion_03_branch_genus_arithmetic():
    with Budget(3, "branch/genus arithmetic", 1):
        # independent big-integer oracle via sympy's arithmetic functions
        from sympy import divisors
        from sympy.functions.combinatorial.numbers import mobius, totient

        def d1_oracle(n):
            return sum(int(mobius(n // k)) * 2**k for k in divisors(n))

        def b_oracle(n):
            s = sum(d1_oracle(k) * int(totient(n // k)) for k in divisors(n) if k < n)
            return (d1_oracle(n) - s) // 2

        assert b_oracle(12) == 1959
        r = dyn.degree_report(12)
        assert r.B == 1959
        assert r.genus_lb == Fraction(1291, 2)
        assert r.genus_lb == 1 + Fraction(b_oracle(12), 2) - d1_oracle(12) // 12

        # the tail inequality, all in exact integers
        def chain(n):
            lhs = 2 ** (n - 2) - n * 2 ** (n // 2) + n
            rhs = (6 * 2**n + n - 1) // n  # ceil(6*2^n / n)
            return lhs >= rhs

        for n in range(25, 201):
            assert chain(n), n
            assert dyn.asymptotic_genus_check(n).chain_holds, n
        # the n = 24 instance is reported, not required
        assert chain(24) is False
        assert dyn.asymptotic_genus_check(24).chain_holds is False


FIGURE_COUNTS = [
    (8, (1, 1), 2), (10, (1, 1), 3), (8, (2,), 2), (10, (2,), 3),
    (8, (3,), 1), (10, (3,), 2), (10, (4,), 1), (10, (2, 1, 1), 2),
    (12, (2, 1, 1), 5), (12, (3, 1, 1), 2), (12, (3, 2), 2),
    (12, (3, 3), 1), (14, (3, 3), 1),
]


def test_criterion_04_figure_enumeration():
    with Budget(4, "portrait class counts", 30):
        for n, sig, want in FIGURE_COUNTS:
            got = len(enumerate_generic(n, CycleStructure.of(sig)))
            assert got == want, f"n={n} cycles={sig}: expected {want} classes, got {got}"


def test_criterion_05_automorphism_uniqueness():
    with Budget(5, "automorphism order sixteen", 5) as budget:
        classes = enumerate_generic(12, CycleStructure.of((2, 1, 1)))
        orders = {P: len(automorphism_group(P)) for P in classes}
        for P, order in orders.items():
            assert order == brute_force_automorphism_count(P.image), P.to_text()
        sixteen = sorted(P.to_text() for P, o in orders.items() if o == 16)
        budget.detail = f"order-16 classes: {sixteen}"

        # 12(2,1,1)a: preimage pairs on both 2-cycle tails
        both_2cycle_tails = canonical_form(
            build_portrait([(2, [T3, T3]), (1, [L]), (1, [L])])
        )
        # 12(2,1,1)d: preimage pairs on both fixed-point tails; its group is
        # also (Z2 wr Z2) x Z2 (swap the two decorated fixed components, swap
        # each leaf pair, rotate the bare 2-cycle)
        both_fixed_tails = canonical_form(
            build_portrait([(2, [L, L]), (1, [T3]), (1, [T3])])
        )
        assert sixteen == sorted([both_2cycle_tails.to_text(), both_fixed_tails.to_text()])
        assert sorted(orders.values()) == [4, 4, 4, 16, 16], orders


def test_criterion_06_trace_invariant():
    with Budget(6, "three-cycle trace invariant", 10):
        for p in (5, 7, 11, 13):
            r = trace_relation_check(p)
            assert r.violations == [], f"p={p}: {r.violations}"
            assert r.points > 0


def test_criterion_07_pair_system_decomposition():
    with Budget(7, "pair-system decomposition", 10):
        pair = multi_level_model((3, 3))
        eqs_only = type(pair)(
            name="pair",
            variables=pair.variables,
            equations=pair.equations,
            inequations=[],
            provenance="multilevel",
            free_variables=pair.variables,
        )
        for p in (5, 7, 11):
            ctx = FFContext(p)
            diagonal = 0
            off_orbit = 0
            for sol in iter_solutions(eqs_only, ctx):
                c0, x0, y0 = (sol[v] for v in ("c", "x", "y"))
                fx = ctx.add(ctx.mul(x0, x0), c0)
                orbit_set = {x0, fx, ctx.add(ctx.mul(fx, fx), c0)}
                in_orbit = y0 in orbit_set
                ineqs_hold = all(y0 != v for v in orbit_set)
                assert in_orbit != ineqs_hold  # exactly one side of the split
                if in_orbit:
                    diagonal += 1
                else:
                    off_orbit += 1
            model_count = count_points(pair, p).affine_count
            assert off_orbit == model_count, p
            total = diagonal + off_orbit
            assert total == count_points(eqs_only, p).affine_count, p


def test_criterion_08_gonality_and_cs_checkers():
    with Budget(8, "gonality and cover-degree checkers", 1):
        assert gonality_lower_bound(93, 3) == 24
        r = cs_obstruction(CSQuery(g=9, d1=3, g1=0, d2=2, g2=2))
        assert r.bound == 6 and not r.inequality_holds  # 9 <= d + 3 fails at d = 3
        r = cs_obstruction(CSQuery(g=5, d1=3, g1=0, d2=2, g2=1))
        assert r.bound == 4 and not r.inequality_holds  # 5 <= d + 1 fails at d = 3
        assert cs_obstruction(CSQuery(g=0, d1=2, g1=1, d2=3, g2=1)).inequality_holds


def test_criterion_09_classifier():
    with Budget(9, "rational classifier", 300):
        r = classify(Fraction(-3, 4))
        assert r.label == "4(1,1)" and r.generic and r.point_count == 4
        assert classify(Fraction(1)).portrait.n == 0
        r = classify(Fraction(-1))
        assert "NonGeneric" in r.flags

        summary = sweep(20)
        assert summary.anomalies == [], [rec.c for rec in summary.anomalies]

        rng = random.Random(424242)
        checked = 0
        while checked < 50:
            den = rng.choice((1, 1, 4, 9, 4, 1))
            num = rng.randint(-10, 10)
            if gcd(abs(num), den) != 1:
                continue
            c = Fraction(num, den)
            if max(abs(c.numerator), c.denominator) > 10:
                continue
            checked += 1
            oracle = brute_force_preperiodic(c, 10)
            cands = set(preperiodic_candidates(c))
            assert oracle <= cands, f"candidate envelope missed a point at c={c}"
            found = {x for x in cands if not orbit(c, x, 256).escaped}
            assert oracle == found, f"disagreement at c={c}"


def test_criterion_10_model_consistency():
    with Budget(10, "full/reduced model consistency", 120):
        projected = 0
        for e in generic_entries():
            if not 1 <= e.portrait.n <= 12:
                continue
            fm = full_model(e.portrait)
            rm = reduced_model(e.portrait)
            gv = rm.meta["generator_vars"]
            for p in (3, 5, 7):
                ctx = FFContext(p)
                equations = [eq.horner(ctx.ring) for eq in rm.equations]
                inequations = [iq.horner(ctx.ring) for iq in rm.inequations]
                for sol in iter_solutions(fm, ctx):
                    projected += 1
                    assign = {"c": sol["c"]}
                    for g, var in gv.items():
                        assign[var] = sol[f"x{g}"]
                    for eq in equations:
                        assert eq(assign) == 0, (e.label, p)
                    for iq in inequations:
                        assert iq(assign) != 0, (e.label, p)
        assert projected > 0

        red = reduced_model(lookup("12(3,3)").portrait)
        ml = multi_level_model((3, 3))
        assert red.variables == ml.variables
        assert red.equations == ml.equations
        assert red.inequations == ml.inequations


def test_criterion_11_minimal_extensions():
    with Budget(11, "minimal extensions", 60):
        from dynw.catalog import match
        from dynw.portraits import EMPTY, cycle_structure

        exts = minimal_extensions(EMPTY, 1)
        assert [match(Q).label for Q in exts] == ["4(1,1)"]
        exts = minimal_extensions(EMPTY, 2)
        assert sorted(match(Q).label for Q in exts) == ["4(1,1)", "4(2)"]

        base = lookup("6(3)").portrait
        exts = minimal_extensions(base, 3)
        assert sorted(match(Q).label for Q in exts) == [
            "10(3,1,1)", "10(3,2)", "12(3,3)", "8(3)"
        ]
        # exhaustive independent check: P embeds, and no generic class sits
        # strictly between P and any returned extension
        base_sig = list(cycle_structure(base).lengths)
        for Q in exts:
            assert embeddings(base, Q)
            extra = list(cycle_structure(Q).lengths)
            for l in base_sig:
                extra.remove(l)
            for size in range(base.n + 2, Q.n, 2):
                for mask in range(1 << len(extra)):
                    sub = [extra[i] for i in range(len(extra)) if mask >> i & 1]
                    sigma = CycleStructure.of(base_sig + sub)
                    if not sigma.admissible():
                        continue
                    for mid in enumerate_generic(size, sigma):
                        assert not (
                            embeddings(base, mid) and embeddings(mid, Q)
                        ), f"intermediate {mid.to_text()} between 6(3) and {Q.to_text()}"
