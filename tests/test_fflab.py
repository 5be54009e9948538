"""Finite-field lab tests: counting, bound checkers, residual period data."""

import random
from fractions import Fraction
from functools import reduce

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import TupleElement, TupleField, brute_counts, brute_solutions, generic_classes
from oracles import dynatomic_roots_by_evaluation

import dynw.dynatomic as dyn
from dynw import fflab
from dynw.catalog import build_portrait, generic_entries, lookup
from dynw.errors import BudgetExceeded
from dynw.ff import FFContext
from dynw.fflab import (
    CSQuery,
    cs_obstruction,
    count_points,
    gonality_lower_bound,
    iter_solutions,
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
from dynw.portraits import Portrait, successor_cycles


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
    with pytest.raises(BudgetExceeded):
        count_points(plane_model(1), 7, cap=10)


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


def test_a_denominator_that_vanishes_mod_p_is_refused_before_any_route(monkeypatch):
    """x^2 + 1/2*c - x has no reduction mod 2: count_points refuses it with
    one message naming the coefficient and p, before the reference model is
    rebuilt, at p = 2 and over F_4, and counts it at p = 3."""
    model = model_from_json(model_to_json(plane_model(1)).replace("x^2 - x + c", "x^2 + 1/2*c - x"))
    assert str(model.equations[0]) == "x^2 - x + 1/2*c"
    assert count_points(model, 3).affine_count == 3
    monkeypatch.setattr(fflab, "_reference_route", lambda *a: pytest.fail("routed"))
    for k in (1, 2):
        with pytest.raises(ValueError, match="^the denominator of coefficient 1/2 vanishes mod 2$"):
            count_points(model, 2, k)


_CATALOG_FULL_MODELS = [
    full_model(e.portrait) for e in generic_entries() if 0 < e.portrait.n <= 12
]


@pytest.mark.parametrize("p, k", [(13, 1), (5, 2), (2, 2), (2, 3), (3, 2)])
def test_fiber_count_matches_solver_and_brute_oracle(p, k):
    assert len(_CATALOG_FULL_MODELS) == 35
    ctx = FFContext(p, k)
    counts = []
    for model in _CATALOG_FULL_MODELS:
        got = count_points(model, p, k).affine_count
        assert got == sum(1 for _ in iter_solutions(model, ctx)), (model.name, p, k)
        # the brute oracle visits all q^dims assignments; 2000 keep it fast
        if ctx.q ** len(model.enumeration_variables()) <= 2000:
            assert (got, None, None) == brute_counts(model, p, k), (model.name, p, k)
        counts.append(got)
    if p > 2:
        assert any(counts), (p, k)  # the agreement is not all zeros
    if (p, k) in ((13, 1), (5, 2)):
        assert sum(1 for n in counts if n) == {13: 21, 25: 27}[ctx.q]


def test_fiber_count_follows_the_cycle_orientation():
    # mirror images around a 3-cycle: the tail at its second vertex has two
    # leaves and the tail at its third a depth-2 tree, or the other way round
    counts = {}
    for text in ("12:2,3,1,1,2,5,5,3,8,8,10,10", "12:2,3,1,1,2,5,5,7,7,3,10,10"):
        model = full_model(Portrait.from_text(text))
        for p in (31, 37):
            counts[p] = counts.get(p, ()) + (count_points(model, p).affine_count,)
            assert counts[p][-1] == sum(1 for _ in iter_solutions(model, FFContext(p)))
    assert counts == {31: (20, 16), 37: (16, 8)}


def _no_solver(*args, **kwargs):
    raise AssertionError("the solver ran")


def test_full_models_are_recognized_in_memory_and_from_json(monkeypatch):
    model = full_model(lookup("12(3,3)").portrait)
    monkeypatch.setattr(fflab, "iter_solutions", _no_solver)
    assert count_points(model, 5, 2).affine_count == 36
    assert count_points(model_from_json(model_to_json(model)), 5, 2).affine_count == 36
    assert fflab._reference_route(model) == lookup("12(3,3)").portrait


def test_edited_full_models_go_to_the_solver(monkeypatch):
    model = full_model(lookup("8(2,1,1)").portrait)
    fiber = count_points(model, 7).affine_count
    solver_calls = []

    def spy(*args, **kwargs):
        solver_calls.append(args[0].name)
        return iter_solutions(*args, **kwargs)

    monkeypatch.setattr(fflab, "iter_solutions", spy)
    dropped = model_from_json(model_to_json(model))
    dropped.inequations.remove(MultiPoly.parse("x5 - x6"))  # fixed point 5 and its twin
    renamed = model_from_json(model_to_json(model).replace('"full:', '"edited:'))
    for edited in (dropped, renamed):
        assert fflab._reference_route(edited) is None
        got = count_points(edited, 7).affine_count
        assert got == sum(1 for _ in iter_solutions(edited, FFContext(7)))
        assert got == brute_counts(edited, 7)[0]
    assert solver_calls == [dropped.name, renamed.name]
    # x5 = x6 = 0 is now allowed: at c = 0, the fixed point 0 with the
    # 2-cycle of cube roots of unity mod 7 adds points
    assert count_points(dropped, 7).affine_count > fiber
    assert count_points(renamed, 7).affine_count == fiber


def test_a_full_model_with_every_variable_free_goes_to_the_solver(monkeypatch):
    """Free variables and steps are part of the reference: the 4(1,1) full
    model with every variable free and no steps is solved, not routed."""
    model = full_model(lookup("4(1,1)").portrait)
    want = count_points(model, 5).affine_count
    all_free = model_from_json(model_to_json(model))
    all_free.free_variables, all_free.steps = all_free.variables, []
    solver_calls = []

    def spy(*args, **kwargs):
        solver_calls.append(args[0].name)
        return iter_solutions(*args, **kwargs)

    monkeypatch.setattr(fflab, "iter_solutions", spy)
    assert fflab._reference_route(all_free) is None
    got = count_points(all_free, 5).affine_count
    assert solver_calls == [model.name]
    assert got == want == brute_counts(all_free, 5)[0] == brute_counts(model, 5)[0]
    assert got > 0


def test_routing_builds_no_reference_the_model_cannot_equal(monkeypatch):
    """A model file whose shape or degrees differ from what its name fixes
    goes to the solver without its reference being rebuilt: here the
    two-variable model x - c under names whose references are Phi_10, a
    pair Phi_10 and Phi_9, an 802-vertex full system, a three-variable
    reduced model, and a level whose D1 would have 10^9 bits."""
    tree = ()
    for _ in range(399):
        tree = (tree, ())
    chain = build_portrait([(2, [tree, ()])])
    assert chain.n == 802
    names = [
        "plane:10", "multilevel:10,9", "plane:1000000000", "multilevel:3,1000000000",
        f"full:{chain.to_text()}", f"reduced:{lookup('10(3,2)').portrait.to_text()}",
    ]

    def not_built(*args):
        raise AssertionError("rebuilt a reference the model cannot equal")

    monkeypatch.setattr(dyn, "dynatomic_cx", not_built)
    monkeypatch.setattr(fflab, "full_model", not_built)
    monkeypatch.setattr(fflab, "reduced_model", not_built)
    line = MultiPoly.parse("x - c")
    for name in names:
        model = CurveModel(name, ("c", "x"), [line], [], "plane", ("c", "x"))
        assert fflab._reference_route(model) is None, name
        r = count_points(model, 7)
        assert (r.affine_count, r.nonsingular_count, r.cross_count) == brute_counts(model, 7)
        assert r.affine_count == 7 and not r.violations


def test_trace_points_are_the_points_of_the_level_3_plane_model():
    for p in (3, 5, 7, 11, 13, 31):
        assert fflab.trace_relation_check(p).points == brute_counts(plane_model(3), p)[0], p


_ORBIT_TYPE_MODELS = (
    [plane_model(n) for n in range(1, 7)]
    + [multi_level_model(levels) for levels in ((3, 3), (4, 2, 1), (4, 3))]
    + [reduced_model(e.portrait) for e in generic_entries() if 0 < e.portrait.n <= 10]
)


def _solver_counts(model, ctx):
    """(affine, nonsingular, cross) from iter_solutions, the partials
    evaluated at every solution of a plane model."""
    solutions = list(iter_solutions(model, ctx))
    if not fflab._is_plane(model):
        return len(solutions), None, None
    f = model.equations[0]
    partials = [f.partial(v).horner(ctx.ring) for v in model.variables]
    nonsingular = sum(1 for s in solutions if any(pd(s) for pd in partials))
    return len(solutions), nonsingular, len(solutions)


@pytest.mark.parametrize(
    "p, k", [(2, 1), (3, 1), (2, 2), (5, 1), (7, 1), (2, 3), (3, 2), (13, 1), (5, 2)]
)
def test_orbit_type_counts_match_solver_and_brute_oracle(p, k):
    assert len(_ORBIT_TYPE_MODELS) == 34
    ctx = FFContext(p, k)
    for model in _ORBIT_TYPE_MODELS:
        assert fflab._reference_route(model) is not None, model.name
        r = count_points(model, p, k)
        got = (r.affine_count, r.nonsingular_count, r.cross_count)
        assert got == _solver_counts(model, ctx), (model.name, p, k)
        assert not r.violations
        # the brute oracle evaluates every term at all q^dims assignments;
        # these bounds keep it to a few seconds over the grid
        assignments = ctx.q ** len(model.enumeration_variables())
        terms = sum(len(e.terms) for e in model.equations)
        if assignments <= 2000 and assignments * terms <= 20000:
            assert got == brute_counts(model, p, k), (model.name, p, k)


def test_orbit_types_come_from_the_reference_model():
    P = lookup("10(3,2)").portrait
    model = reduced_model(P)
    route = fflab._reference_route(model)
    types = model.meta["orbit_types"]
    assert route == tuple(tuple(types[str(g)]) for g in model.meta["generators"])
    assert sorted(route) == [(0, 2), (0, 3)]
    assert fflab._reference_route(multi_level_model((4, 2, 1))) == ((0, 4), (0, 2), (0, 1))
    assert fflab._reference_route(plane_model(5)) == ((0, 5),)
    # a file's meta is never read
    edited = model_from_json(model_to_json(model))
    edited.meta["orbit_types"] = {g: [7, 7] for g in edited.meta["orbit_types"]}
    assert fflab._reference_route(edited) == route


@pytest.mark.parametrize("p, k", [(2, 1), (3, 1), (5, 1), (7, 1), (2, 2), (3, 2), (5, 2)])
def test_formal_period_rule_finds_the_roots_that_evaluating_phi_n_finds(p, k):
    """For n <= 10, the roots of Phi_n that _fiber_roots reads off each
    cycle's length and multiplier are exactly the points of exact period n
    and the points of smaller period d | n where dynatomic(n).phi
    vanishes.  Every field of the grid has points of multiplier 0, none a
    root of a Phi_n of higher level; every odd one has roots of smaller
    period, among them roots where p divides n/d.  In characteristic 2
    every multiplier is 0."""
    ctx = FFContext(p, k)
    smaller = p_divides = zero_multiplier = 0
    for n in range(1, 11):
        want, evaluated = dynatomic_roots_by_evaluation(n, ctx)
        fibers = fflab._fiber_roots(ctx, ((0, n),), range(ctx.q))
        got = {(c, y) for c, _, (ys,) in fibers for y in ys}
        assert got == want, (p, k, n)
        for c, y, d, vanishes in evaluated:
            orbit = [y]
            for _ in range(d - 1):
                orbit.append(ctx.add(ctx.mul(orbit[-1], orbit[-1]), c))
            multiplier = reduce(ctx.mul, [ctx.add(z, z) for z in orbit])
            assert not (vanishes and multiplier == 0)
            smaller += vanishes
            p_divides += vanishes and (n // d) % p == 0
            zero_multiplier += multiplier == 0
    assert zero_multiplier
    assert (smaller > 0, p_divides > 0) == ((True, True) if p > 2 else (False, False))


def test_the_fixed_point_of_multiplier_minus_one_is_a_root_of_phi_2():
    # at c = -3/4 the fixed point x = -1/2 has multiplier 2x = -1, of
    # order 2, so it is a root of Phi_2 (n/d = 2 = r) but not of Phi_3
    ctx = FFContext(7)
    c0, x0 = ctx.coerce(Fraction(-3, 4)), ctx.coerce(Fraction(-1, 2))
    fibers = fflab._fiber_roots(ctx, ((0, 1), (0, 2), (0, 3)), range(ctx.q))
    (cycles, (fixed, two, three)), = [(cy, lists) for c, cy, lists in fibers if c == c0]
    assert ([x0], ctx.coerce(-1)) in cycles
    assert x0 in fixed and x0 in two and x0 not in three
    assert {"c": c0, "x": x0} in list(iter_solutions(plane_model(2), ctx))


def test_fiber_roots_and_the_trace_check_build_no_dynatomic_polynomial(monkeypatch):
    """The roots of every Phi_{m,n}, and the trace check's points of Phi_3,
    come from the cycles alone: with dynatomic and dynatomic_cx patched to
    raise, the 28 reduced models of generic entries with an m >= 1
    generator count as the solver counts them, and the trace check runs."""
    models = [reduced_model(e.portrait) for e in generic_entries() if e.portrait.n]
    routes = [fflab._reference_route(model) for model in models]
    cases = [(model, route) for model, route in zip(models, routes) if max(route)[0]]
    assert len(cases) == 28

    def no_build(n):
        raise AssertionError(f"built Phi_{n}")

    monkeypatch.setattr(dyn, "dynatomic", no_build)
    monkeypatch.setattr(dyn, "dynatomic_cx", no_build)
    for p, k in ((2, 1), (2, 2), (7, 1), (3, 2)):
        ctx = FFContext(p, k)
        for model, route in cases:
            want = sum(1 for _ in iter_solutions(model, ctx))
            assert fflab._count_by_orbit_types(model, route, ctx, False) == (want, 0)
        for _ in fflab._fiber_roots(ctx, tuple((0, n) for n in range(1, 13)), range(ctx.q)):
            pass
    assert fflab.trace_relation_check(101) == fflab.TraceReport(p=101, points=99, violations=[])


def test_partials_are_evaluated_only_where_the_multiplier_is_one(monkeypatch):
    # every root of Phi_1 has exact period 1 and multiplier 2x, which is 1
    # only at x = 1/2, c = 1/4
    model = plane_model(1)
    ctx = FFContext(7)
    tested = []
    nonsingular_test = fflab._nonsingular_test

    def spy(*args):
        test = nonsingular_test(*args)
        return lambda values: tested.append(dict(values)) or test(values)

    monkeypatch.setattr(fflab, "_nonsingular_test", spy)
    r = count_points(model, 7)
    assert (r.affine_count, r.nonsingular_count) == (7, 7)
    assert tested == [{"c": ctx.coerce(Fraction(1, 4)), "x": ctx.coerce(Fraction(1, 2))}]


def test_cap_on_q_squared_is_checked_before_the_reference_is_rebuilt(monkeypatch):
    """q^min(2, free variables) bounds every route, so a field with q^2
    over the cap is refused before Phi_n or a reduced model is rebuilt;
    below it, the exact cap still names q^(free variables)."""
    models = [
        model_from_json(model_to_json(model))
        for model in (
            plane_model(3),
            multi_level_model((3, 3)),
            reduced_model(lookup("8(2)a").portrait),
            full_model(lookup("8(2,1,1)").portrait),
        )
    ]

    def not_rebuilt(*args, **kwargs):
        raise AssertionError("rebuilt the reference")

    with monkeypatch.context() as patch:
        for name in ("plane_model", "multi_level_model", "reduced_model", "full_model"):
            patch.setattr(fflab, name, not_rebuilt)
        for model in models:
            with pytest.raises(BudgetExceeded, match=r"^q\^2 = 10000600009 exceeds enumeration cap"):
                count_points(model, 100003)
    for model in models[1:3]:  # three variables, two of them free points
        with pytest.raises(BudgetExceeded, match=r"^q\^3 = 1027243729 exceeds enumeration cap"):
            count_points(model, 1009)


def test_every_provenance_counts_without_the_solver(monkeypatch):
    cases = [
        (full_model(lookup("12(3,3)").portrait), 5, 2),
        (plane_model(3), 7, 2),
        (plane_model(4), 13, 1),
        (multi_level_model((3, 3)), 13, 1),
        (reduced_model(lookup("8(2,1,1)").portrait), 7, 1),
        (reduced_model(lookup("10(1,1)b").portrait), 5, 1),
    ]
    expected = [count_points(model, p, k) for model, p, k in cases]
    monkeypatch.setattr(fflab, "iter_solutions", _no_solver)
    for (model, p, k), want in zip(cases, expected):
        assert count_points(model, p, k) == want, model.name
        assert count_points(model_from_json(model_to_json(model)), p, k) == want, model.name


def test_edited_and_renamed_models_go_to_the_solver(monkeypatch):
    solver_calls = []

    def spy(*args, **kwargs):
        solver_calls.append(args[0].name)
        return iter_solutions(*args, **kwargs)

    monkeypatch.setattr(fflab, "iter_solutions", spy)
    base = plane_model(3)
    negated = CurveModel(
        name="plane:3:neg",
        variables=base.variables,
        equations=[e.substitute("x", -MultiPoly.var("x")) for e in base.equations],
        inequations=[],
        provenance="plane",
        free_variables=base.variables,
    )
    relabeled = model_from_json(model_to_json(base).replace('"plane:3"', '"plane:4"'))
    reduced = reduced_model(lookup("8(2)a").portrait)
    assert reduced.inequations
    dropped = model_from_json(model_to_json(reduced))
    dropped.inequations.pop()
    renamed = model_from_json(model_to_json(reduced).replace('"reduced:', '"edited:'))
    stepped = model_from_json(model_to_json(multi_level_model((3, 3))))
    stepped.free_variables = ("c", "y")
    stepped.steps = [("image", "x", "y")]
    # a negation between siblings turned into an image step no edge implies
    flipped = model_from_json(model_to_json(full_model(lookup("8(2,1,1)").portrait)))
    at = next(i for i, step in enumerate(flipped.steps) if step[0] == "negate")
    flipped.steps[at] = ("image", *flipped.steps[at][1:])
    edited = [negated, relabeled, dropped, renamed, stepped, flipped]
    for model in edited:
        assert fflab._reference_route(model) is None, model.name
        r = count_points(model, 7)
        assert (r.affine_count, r.nonsingular_count, r.cross_count) == brute_counts(model, 7)
    assert solver_calls == [model.name for model in edited]


_FROBENIUS_FIELDS = [(2, 2), (2, 3), (2, 4), (3, 2), (3, 3), (5, 2), (7, 2)]


def _orbit(ctx, c):
    orbit = [c]
    while ctx.pow(orbit[-1], ctx.p) != c:
        orbit.append(ctx.pow(orbit[-1], ctx.p))
    return orbit


@pytest.mark.parametrize("p, k", [(2, 1), (7, 1), *_FROBENIUS_FIELDS, (2, 6), (7, 3)])
def test_frobenius_classes_partition_the_field(p, k):
    """Each class is an orbit of c -> c^p listed by its smallest code, in
    code order, with its size; the sizes sum to q and divide k, and the
    classes of size k are the (1/k) sum_{d | k} mu(d) p^(k/d) orbits of
    elements of degree k.  At k = 1 every class has size 1."""
    ctx = FFContext(p, k)
    classes = fflab._frobenius_classes(ctx)
    assert [c for c, _ in classes] == sorted(c for c, _ in classes)
    covered = set()
    for c, size in classes:
        orbit = _orbit(ctx, c)
        assert len(orbit) == size and k % size == 0 and min(orbit) == c
        assert covered.isdisjoint(orbit)
        covered.update(orbit)
    assert covered == set(range(ctx.q)) and sum(size for _, size in classes) == ctx.q
    full = sum(dyn.moebius(d) * p ** (k // d) for d in range(1, k + 1) if k % d == 0) // k
    assert sum(1 for _, size in classes if size == k) == full
    if k == 1:
        assert classes == [(c, 1) for c in range(p)]


def _visited_codes(patch):
    """Spy on _fiber_successors: the list of the codes of each call."""
    visited = []
    fiber_successors = fflab._fiber_successors

    def spy(ctx, codes):
        visited.append(list(codes))
        return fiber_successors(ctx, visited[-1])

    patch.setattr(fflab, "_fiber_successors", spy)
    return visited


@pytest.mark.parametrize("p, k", _FROBENIUS_FIELDS)
def test_frobenius_weighted_counts_equal_the_every_fiber_sums(p, k, monkeypatch):
    """The full and orbit-type counts visit only the smallest code of each
    Frobenius class and weight it by the class size; the affine and
    nonsingular counts equal the sums over every code, each a class of
    size 1."""
    ctx = FFContext(p, k)
    classes = fflab._frobenius_classes(ctx)
    assert len(classes) < ctx.q
    full = [fflab._reference_route(model) for model in _CATALOG_FULL_MODELS]
    orbit = [(model, fflab._reference_route(model)) for model in _ORBIT_TYPE_MODELS]

    def counts():
        return [fflab._count_full(route, ctx) for route in full] + [
            fflab._count_by_orbit_types(model, route, ctx, fflab._is_plane(model))
            for model, route in orbit
        ]

    fibers = len(full) + len(orbit)
    with monkeypatch.context() as patch:
        visited = _visited_codes(patch)
        weighted = counts()
    assert visited == [[c for c, _ in classes]] * fibers
    with monkeypatch.context() as patch:
        visited = _visited_codes(patch)
        patch.setattr(fflab, "_frobenius_classes", lambda ctx: [(c, 1) for c in range(ctx.q)])
        summed = counts()
    assert visited == [list(range(ctx.q))] * fibers
    assert weighted == summed
    assert any(a for a, _ in summed[len(full) :]) and any(n for _, n in summed[len(full) :])
    if p > 2:  # no full model of a generic portrait has points in characteristic 2
        assert any(summed[: len(full)])


@pytest.mark.parametrize("p, k", [*_FROBENIUS_FIELDS, (7, 3), (19, 2)])
def test_max_period_equals_the_every_fiber_scan(p, k):
    """max_period_mod visits the class representatives only; its period and
    witness are those of a scan of every fiber, the witness the smallest
    code with the longest cycle."""
    ctx = FFContext(p, k)
    longest = [
        max(map(len, successor_cycles(succ)))
        for _, succ in fflab._fiber_successors(ctx, range(ctx.q))
    ]
    report = max_period_mod(ctx)
    assert report.max_period == max(longest)
    assert report.witness_c.code == longest.index(max(longest))


def test_the_cross_count_still_evaluates_every_x(monkeypatch):
    """The per-x root count of a plane model stays an independent check of
    the weighted fiber count: over F_49 it evaluates its coefficients of c
    at all 49 values of x."""
    seen = []
    horner = MultiPoly.horner

    def spy(poly, ring):
        evaluate = horner(poly, ring)

        def record(values):
            if set(values) == {"x"}:
                seen.append(values["x"])
            return evaluate(values)

        return record

    monkeypatch.setattr(MultiPoly, "horner", spy)
    r = count_points(plane_model(3), 7, 2)
    assert r.cross_count == r.affine_count > 0 and not r.violations
    assert sorted(set(seen)) == list(range(49))


def test_fiber_successors_match_field_arithmetic():
    for p, k in ((2, 3), (3, 4), (101, 1), (7, 3), (19, 2)):
        ctx = FFContext(p, k)
        for c, succ in fflab._fiber_successors(ctx, range(ctx.q)):
            assert succ == [ctx.add(ctx.mul(z, z), c) for z in range(ctx.q)], (p, k, c)
        assert c == ctx.q - 1


def test_cycles_are_the_periodic_points_in_successor_order():
    for p, k in ((13, 1), (3, 4)):
        ctx = FFContext(p, k)
        for c, succ in fflab._fiber_successors(ctx, range(ctx.q)):
            cycles = successor_cycles(succ)
            # after q steps every orbit is on its cycle
            image = list(range(ctx.q))
            for _ in range(ctx.q):
                image = [succ[v] for v in image]
            assert sorted(v for cyc in cycles for v in cyc) == sorted(set(image))
            for cyc in cycles:
                assert [succ[v] for v in cyc] == cyc[1:] + cyc[:1]


_SMALL_PORTRAITS = generic_classes(8)
_SMALL_FIELDS = [(2, 1), (2, 2), (2, 3), (2, 4), (3, 1), (3, 2), (5, 1), (5, 2), (7, 1)]


def _production_arithmetic(*args):
    raise AssertionError("the oracle used the field's int arithmetic")


@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_full_model_counts_match_tuple_oracle(data):
    model = full_model(data.draw(st.sampled_from(_SMALL_PORTRAITS)))
    dims = len(model.enumeration_variables())
    # the oracle visits all q^dims assignments; 2000 of them keep it fast
    fields = [(p, k) for p, k in _SMALL_FIELDS if p ** (k * dims) <= 2000]
    p, k = data.draw(st.sampled_from(fields))
    r = count_points(model, p, k)
    with pytest.MonkeyPatch.context() as patch:
        for op in ("add", "sub", "neg", "mul", "inv", "pow"):
            patch.setattr(FFContext, op, _production_arithmetic)
        expected = brute_counts(model, p, k)
        solution = next(brute_solutions(model, TupleField.of_order(p, k)), {})
    assert (r.affine_count, r.nonsingular_count, r.cross_count) == expected, (model.name, p, k)
    assert all(isinstance(v, TupleElement) for v in solution.values())


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
    assert r.witness_c.context == FFContext(2) and r.witness_c.code == 1
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
            c = sum(rng.randrange(p) * p**i for i in range(k))
            z = sum(rng.randrange(p) * p**i for i in range(k))
            seen = {}
            steps = 0
            while z not in seen:
                seen[z] = steps
                z = ctx.add(ctx.mul(z, z), c)
                steps += 1
            cycle_len = steps - seen[z]
            assert cycle_len <= report.max_period


def test_max_period_budget():
    with pytest.raises(BudgetExceeded):
        max_period_mod(FFContext(11), 50)
