"""Finite-field lab tests: counting, bound checkers, residual period data."""

import random

import pytest

from oracles import brute_counts

from dynw.catalog import generic_entries, lookup
from dynw.config import RunConfig
from dynw.errors import BudgetExceeded
from dynw.ff import FFContext
from dynw.fflab import (
    CSQuery,
    cs_obstruction,
    count_points,
    gonality_lower_bound,
    max_period_mod,
)
from dynw.models import (
    CurveModel,
    full_model,
    model_from_json,
    model_to_json,
    multi_level_model,
    plane_model,
    reduced_model,
)
from dynw.multipoly import MultiPoly


def test_plane_counts_small():
    # level 1: c is determined by x, so exactly p affine points
    r = count_points(plane_model(1), 5)
    assert r.affine_count == 5 and r.cross_count == 5 and not r.violations
    # level 2: same solve-for-c structure
    r = count_points(plane_model(2), 3)
    assert r.affine_count == 3 and r.cross_count == 3


def test_plane_dual_strategy_agreement():
    for n in (1, 2, 3, 4):
        for p, k in ((3, 1), (5, 1), (7, 1), (11, 1), (3, 2)):
            r = count_points(plane_model(n), p, k)
            assert r.cross_count == r.affine_count, (n, p, k)
            assert not r.violations
            assert 0 <= r.nonsingular_count <= r.affine_count


def test_count_invariant_under_x_negation():
    for n in (1, 2, 3, 4):
        base = plane_model(n)
        negated = CurveModel(
            name=f"plane:{n}:neg",
            variables=base.variables,
            equations=[e.substitute("x", -MultiPoly.var("x")) for e in base.equations],
            inequations=[],
            provenance="plane",
            free_variables=base.variables,
        )
        for p in (3, 5, 7):
            assert (
                count_points(base, p).affine_count
                == count_points(negated, p).affine_count
            )


def test_count_budget():
    cfg = RunConfig(enumeration_cap=10)
    with pytest.raises(BudgetExceeded):
        count_points(plane_model(1), 7, config=cfg)


def _oracle_cases():
    """(model, p, k): full models of the small generic portraits, both
    counting strategies on planes over prime and extension fields, and
    models with inequations read back from JSON."""
    cases = [
        (full_model(e.portrait), p, 1)
        for e in generic_entries()
        if 0 < e.portrait.n <= 10
        for p in (5, 7)
    ]
    cases += [
        (multi_level_model((3, 3)), 19, 1),
        (plane_model(3), 19, 1),
        (plane_model(3), 7, 2),
        (plane_model(4), 5, 2),
    ]
    for model in (
        full_model(lookup("8(2,1,1)").portrait),
        reduced_model(lookup("8(2,1,1)").portrait),
        reduced_model(lookup("8(2)a").portrait),
        reduced_model(lookup("10(1,1)b").portrait),
        multi_level_model((3, 3)),
    ):
        assert model.inequations
        cases.append((model_from_json(model_to_json(model)), 7, 1))
    return cases


def test_count_points_matches_brute_oracle():
    for model, p, k in _oracle_cases():
        r = count_points(model, p, k)
        got = (r.affine_count, r.nonsingular_count, r.cross_count)
        assert got == brute_counts(model, p, k), (model.name, p, k)
        assert not r.violations


def test_zero_partial_derivative_does_not_make_a_point_nonsingular():
    # x^2 = 0 is a double line in the (c, x) plane: every point is singular,
    # though the partial in c is the zero polynomial
    double_line = CurveModel(
        name="double-line",
        variables=("c", "x"),
        equations=[MultiPoly.parse("x^2")],
        inequations=[],
        provenance="plane",
        free_variables=("c", "x"),
    )
    r = count_points(double_line, 5)
    assert (r.affine_count, r.nonsingular_count, r.cross_count) == (5, 0, 5)


def test_gonality_lower_bound():
    assert gonality_lower_bound(93, 3) == 24
    assert gonality_lower_bound(6, 5) == 1
    assert gonality_lower_bound(0, 7) == 0
    with pytest.raises(ValueError):
        gonality_lower_bound(-1, 3)
    with pytest.raises(ValueError):
        gonality_lower_bound(5, 1)


def test_cs_obstruction():
    r = cs_obstruction(CSQuery(g=9, g1=0, g2=2, d1=3, d2=2))
    assert r.bound == 6 and not r.inequality_holds
    r = cs_obstruction(CSQuery(g=5, g1=0, g2=1, d1=3, d2=2))
    assert r.bound == 4 and not r.inequality_holds
    r = cs_obstruction(CSQuery(g=0, g1=3, g2=4, d1=2, d2=5))
    assert r.inequality_holds
    with pytest.raises(ValueError):
        cs_obstruction(CSQuery(g=-1, g1=0, g2=0, d1=1, d2=1))


def test_max_period_small_fields():
    r = max_period_mod(FFContext(2))
    assert r.max_period == 2  # c = 1 swaps 0 and 1
    assert r.witness_c == FFContext(2).from_int(1)
    r = max_period_mod(FFContext(3))
    assert r.max_period == 2
    r9 = max_period_mod(FFContext(3, 2))
    r27 = max_period_mod(FFContext(3, 3))
    assert r9.q == 9 and r27.q == 27
    assert r9.max_period <= r27.max_period  # larger field admits longer cycles here


def test_max_period_agrees_with_orbit_walks():
    rng = random.Random(6)
    for p, k in ((7, 1), (3, 2), (13, 1)):
        ctx = FFContext(p, k)
        report = max_period_mod(ctx)
        for _ in range(10):
            c = ctx.element(tuple(rng.randrange(p) for _ in range(k)))
            z = ctx.element(tuple(rng.randrange(p) for _ in range(k)))
            seen = {}
            steps = 0
            while z not in seen:
                seen[z] = steps
                z = z * z + c
                steps += 1
            cycle_len = steps - seen[z]
            assert cycle_len <= report.max_period


def test_max_period_budget():
    cfg = RunConfig(enumeration_cap=50)
    with pytest.raises(BudgetExceeded):
        max_period_mod(FFContext(11), cfg)
