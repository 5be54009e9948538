"""Curve-model construction and consistency tests."""

import hashlib
import json
from dataclasses import replace

import pytest

from oracles import arithmetic_full_system, generic_classes, oracle_generator_set

from dynw import models
from dynw.catalog import generic_entries, lookup
from dynw.dynatomic import dynatomic, generalized_dynatomic, iterate_fc
from dynw.errors import InadmissibleCycleStructure, NotGeneric, ParseError
from dynw.ff import FFContext
from dynw.fflab import count_points, iter_solutions, trace_relation_check
from dynw.models import (
    fc_power,
    full_model,
    generator_set,
    model_from_json,
    model_to_json,
    multi_level_model,
    plane_model,
    reduced_model,
)
from dynw.multipoly import MultiPoly
from dynw.portraits import CycleStructure, Portrait, find_cycles, minimal_portrait

TWO_THREE_CYCLES = Portrait(12, (2, 3, 1, 1, 2, 3, 8, 9, 7, 7, 8, 9))


def test_full_model_shape():
    m = full_model(TWO_THREE_CYCLES)
    assert len(m.variables) == 13
    assert len(m.equations) == 12
    assert len(m.inequations) == 66
    m4 = full_model(Portrait(4, (1, 2, 1, 2)))
    assert len(m4.equations) == 4
    with pytest.raises(NotGeneric):
        full_model(Portrait(2, (1, 1)))


def test_full_model_validates_the_portrait_once(monkeypatch):
    calls = []
    validate = models.validate_generic
    monkeypatch.setattr(models, "validate_generic", lambda P: calls.append(P) or validate(P))
    for e in generic_entries():
        if e.portrait.n:
            calls.clear()
            full_model(e.portrait)
            assert calls == [e.portrait]


def test_full_model_matches_arithmetic_construction():
    portraits = [e.portrait for e in generic_entries() if e.portrait.n > 0]
    assert any(P.n >= 10 for P in portraits)  # x10 sorts before x2
    assert any(P.successor(v) == v for P in portraits for v in range(1, P.n + 1))
    for P in portraits:
        model = full_model(P)
        equations, inequations = arithmetic_full_system(P)
        assert model.equations == equations, P
        assert model.inequations == inequations, P
        oracle = replace(model, equations=equations, inequations=inequations)
        assert model_to_json(model) == model_to_json(oracle), P


def test_full_model_equation_count_matches_vertex_count():
    for e in generic_entries():
        if not 1 <= e.portrait.n <= 12:
            continue
        m = full_model(e.portrait)
        assert len(m.equations) == e.portrait.n
        declared = set(m.variables)
        for poly in m.equations + m.inequations:
            assert set(poly.variables) <= declared


def test_generator_closure_covers_all_vertices():
    for e in generic_entries():
        if e.portrait.n == 0:
            continue
        gs = generator_set(e.portrait)
        covered = set(gs.generators) | {s.vertex for s in gs.closure_trace}
        assert covered == set(range(1, e.portrait.n + 1)), e.label
        # negation steps really point at siblings: same image, distinct vertex
        for s in gs.closure_trace:
            if s.kind == "negate":
                assert s.vertex != s.source
                assert e.portrait.successor(s.vertex) == e.portrait.successor(s.source)
            else:
                assert e.portrait.successor(s.source) == s.vertex


def test_generator_sets():
    gs = generator_set(TWO_THREE_CYCLES)
    assert gs.generators == [1, 7]  # one periodic vertex per 3-cycle component
    assert len(gs.closure_trace) == 10

    gs = generator_set(lookup("6(3)").portrait)
    assert len(gs.generators) == 1

    P83 = lookup("8(3)").portrait
    gs = generator_set(P83)
    assert len(gs.generators) == 1
    # that generator sits at depth 2: two image steps reach the cycle
    g = gs.generators[0]
    depth_two = P83.successor(P83.successor(g))
    assert depth_two in {v for cyc in find_cycles(P83) for v in cyc}


def test_generator_set_matches_greedy_oracle():
    portraits = [e.portrait for e in generic_entries()] + generic_classes(14)
    assert len(portraits) > 150
    for P in portraits:
        gs = generator_set(P)
        steps = [(s.kind, s.vertex, s.source) for s in gs.closure_trace]
        assert (gs.generators, steps) == oracle_generator_set(P), P


# sha256 of the concatenated model_to_json text over the generic catalog
# entries with 1 to 12 vertices, in catalog order
MODEL_DIGESTS = {
    full_model: "64a5cdd5bca52495a7ef7cc83eed4e0c53bbae74354b596fbfd00ea7ea33efef",
    reduced_model: "9dd36db3ed8b985035e81dabc98aedff6ba1a4b25e5d30544cdeb951d2221885",
}


@pytest.mark.parametrize("build", list(MODEL_DIGESTS), ids=lambda f: f.__name__)
def test_catalog_model_json_is_pinned(build):
    portraits = [e.portrait for e in generic_entries() if 1 <= e.portrait.n <= 12]
    assert len(portraits) == 35
    text = "".join(model_to_json(build(P)) for P in portraits)
    assert hashlib.sha256(text.encode()).hexdigest() == MODEL_DIGESTS[build]


def test_reduced_matches_multilevel_for_two_cycles():
    red = reduced_model(TWO_THREE_CYCLES)
    ml = multi_level_model((3, 3))
    assert red.variables == ml.variables == ("c", "x", "y")
    assert red.equations == ml.equations
    assert red.inequations == ml.inequations
    # and the inequations are exactly y - f^k(x) for k = 0, 1, 2
    y = MultiPoly.var("y")
    assert red.inequations == [y - fc_power("x", k) for k in range(3)]


def test_reduced_model_single_generator():
    red = reduced_model(lookup("6(3)").portrait)
    assert red.variables == ("c", "x")
    assert red.equations == [dynatomic(3).phi]
    assert red.inequations == []

    red = reduced_model(lookup("8(3)").portrait)
    assert red.equations[0].degree("x") == 12
    assert red.equations[0] == generalized_dynatomic(2, 3)
    # exactness of the underlying quotient
    phi3 = dynatomic(3).phi
    assert generalized_dynatomic(2, 3) * phi3.substitute("x", iterate_fc(1)) == phi3.substitute("x", iterate_fc(2))


def test_reduced_model_of_minimal_portraits():
    for sig in ((1, 1), (2,), (3,), (4,), (2, 1, 1), (3, 2), (3, 3)):
        P = minimal_portrait(CycleStructure.of(sig))
        red = reduced_model(P)
        assert len(red.variables) - 1 == len(sig)


def test_multilevel_examples():
    m = multi_level_model((1,))
    assert m.variables == ("c", "x")
    assert m.equations == [dynatomic(1).phi]
    assert m.inequations == []

    m = multi_level_model((3, 2, 1))
    assert m.variables == ("c", "z", "y", "x")
    assert m.equations[0] == dynatomic(3).phi.rename({"x": "z"})
    assert m.equations[1] == dynatomic(2).phi.rename({"x": "y"})
    assert m.equations[2] == dynatomic(1).phi
    assert m.inequations == []

    with pytest.raises(InadmissibleCycleStructure):
        multi_level_model((2, 2))
    with pytest.raises(InadmissibleCycleStructure):
        multi_level_model((1, 1, 1))


def test_trace_relation():
    for p in (5, 7, 13):
        r = trace_relation_check(p)
        assert r.violations == []
        assert r.points > 0
    with pytest.raises(ValueError):
        trace_relation_check(2)
    with pytest.raises(ValueError):
        trace_relation_check(9)


def test_a_repeated_variable_name_is_one_parse_error():
    doc = {
        "name": "twice", "variables": ["c", "x"], "free_variables": ["c", "x"],
        "equations": ["x^2 + c - x"], "inequations": [],
    }
    for key in ("variables", "free_variables"):
        text = json.dumps({**doc, key: ["c", "x", "x"]})
        with pytest.raises(ParseError, match=f"^model JSON field '{key}' repeats variable 'x'$"):
            model_from_json(text)
    assert model_from_json(json.dumps(doc)).variables == ("c", "x")


def test_full_solutions_project_to_reduced(sample_primes=(3, 5, 7)):
    projected = 0
    for e in generic_entries():
        if not 1 <= e.portrait.n <= 12:
            continue
        fm = full_model(e.portrait)
        rm = reduced_model(e.portrait)
        gv = rm.meta["generator_vars"]
        for p in sample_primes:
            ctx = FFContext(p)
            equations = [eq.horner(ctx.ring) for eq in rm.equations]
            inequations = [iq.horner(ctx.ring) for iq in rm.inequations]
            for sol in iter_solutions(fm, ctx):
                projected += 1
                assign = {"c": sol["c"]}
                for g, var in gv.items():
                    assign[var] = sol[f"x{g}"]
                assert all(eq(assign) == 0 for eq in equations)
                assert all(iq(assign) != 0 for iq in inequations)
    assert projected > 0  # the check must not be vacuous


def test_pair_system_decomposition():
    """Solutions of the two-variable level-3 pair system split exactly into
    the orbit-diagonal part and the distinct-orbit model."""
    pair = multi_level_model((3, 3))
    pair_eqs_only = type(pair)(
        name="pair",
        variables=pair.variables,
        equations=pair.equations,
        inequations=[],
        provenance="multilevel",
        free_variables=pair.variables,
    )
    off_totals = {}
    for p in (5, 7, 11, 19):
        ctx = FFContext(p)
        all_pairs = list(iter_solutions(pair_eqs_only, ctx))
        diag = 0
        off = 0
        for sol in all_pairs:
            c0, x0, y0 = (sol[v] for v in ("c", "x", "y"))
            fx = ctx.add(ctx.mul(x0, x0), c0)
            orbit = {x0, fx, ctx.add(ctx.mul(fx, fx), c0)}
            if y0 in orbit:
                diag += 1
            else:
                off += 1
        model_count = count_points(pair, p).affine_count
        assert off == model_count
        assert diag + off == len(all_pairs)
        off_totals[p] = off
    assert off_totals[19] > 0  # two disjoint rational 3-cycles exist mod 19


def test_model_json_round_trip(tmp_path):
    for model in (
        full_model(Portrait(4, (1, 2, 1, 2))),
        reduced_model(TWO_THREE_CYCLES),
        multi_level_model((3, 2, 1)),
        plane_model(2),
    ):
        text = model_to_json(model)
        back = model_from_json(text)
        assert back.variables == model.variables
        assert back.equations == model.equations
        assert back.inequations == model.inequations
        assert back.provenance == model.provenance
        assert back.enumeration_variables() == model.enumeration_variables()
        # counting through the round-tripped model gives identical results
        assert (
            count_points(back, 5).affine_count == count_points(model, 5).affine_count
        )
