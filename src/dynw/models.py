"""Polynomial-system models of dynamical modular curves.

Four constructions:

* full_model(P): one variable per portrait vertex plus c, the N edge
  equations x_i^2 + c = x_j, and all pairwise distinctness inequations.
* reduced_model(P): one variable per generator.  A generator of preperiod m
  and eventual period n contributes the (m, n) dynatomic equation; pairs of
  generators with equal eventual period contribute distinctness inequations
  (cycle-separating ones between different cycles, sibling-collision
  exclusions within a shared cycle; see reduced_model).
* multi_level_model(n_1 >= ... >= n_m): the dynatomic equation at each
  level plus orbit-distinctness between equal levels.
* plane_model(n): Phi_n in the variables (c, x).

Generators are a greedy closure basis: a known vertex propagates forward
along its edge, and a known vertex reveals its sibling (the second preimage
of its image) as a negation.  Both rules derive one vertex from one known
vertex, so a set's closure is the union of its vertices' closures, and each
vertex's closure is computed once.  Ties between equally productive starting
vertices prefer periodic vertices, so the classical small models come out
in their textbook shape.

Point-variable naming: letters x, y, z, ... are assigned in ascending
(period, preperiod) order while the variables tuple lists generators in
descending order, matching the usual presentation (c, z, y, x) for levels
(3, 2, 1).

Models are bookkeeping objects only: nothing here counts points or
evaluates over a finite field, and no normalization, genus computation, or
projective closure happens here.  fflab counts them, fiber by fiber when a
model is exactly the one its name gives.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

from .dynatomic import MAX_DYNATOMIC_N, degree_d0, dynatomic, generalized_dynatomic, iterate_fc
from .errors import InadmissibleCycleStructure, NotGeneric, ParseError
from .multipoly import MultiPoly
from .portraits import Portrait, find_cycles, indegrees, preimages, validate_generic, vertex_depths

_NAME_POOL = ("x", "y", "z", "u", "v", "w", "s", "t")


def _point_var(i: int) -> str:
    return _NAME_POOL[i] if i < len(_NAME_POOL) else f"x{i + 1}"


def fc_power(var: str, e: int) -> MultiPoly:
    """The e-th iterate of x^2 + c evaluated at the named variable."""
    return iterate_fc(e).rename({"x": var})


@dataclass
class PropagationStep:
    kind: str  # "image" | "negate"
    vertex: int
    source: int


@dataclass
class GeneratorSet:
    generators: list[int]
    closure_trace: list[PropagationStep]


@dataclass
class CurveModel:
    name: str
    variables: tuple[str, ...]
    equations: list[MultiPoly]
    inequations: list[MultiPoly]
    provenance: str  # "full" | "reduced" | "multilevel" | "plane"
    free_variables: tuple[str, ...] | None = None
    steps: list[tuple[str, str, str]] = field(default_factory=list)
    meta: dict = field(default_factory=dict)

    def enumeration_variables(self) -> tuple[str, ...]:
        return self.free_variables if self.free_variables else self.variables


# ------------------------------------------------------------- generator sets


def _orbit_data(P: Portrait) -> dict[int, tuple[int, int, int]]:
    """(preperiod, eventual period, index within find_cycles of the cycle it
    enters) of each vertex, walking the vertices by increasing depth."""
    cycles = find_cycles(P)
    depth = vertex_depths(P, cycles)
    entry = {v: i for i, cyc in enumerate(cycles) for v in cyc}
    for v in sorted(range(1, P.n + 1), key=depth.__getitem__):
        if v not in entry:
            entry[v] = entry[P.successor(v)]
    return {v: (depth[v], len(cycles[entry[v]]), entry[v]) for v in range(1, P.n + 1)}


def _propagate(P: Portrait, start) -> list[PropagationStep]:
    """The steps that derive the closure of the start vertices under
    forward images and sibling negation: image steps first in each round,
    then negations, each in increasing order of the source."""
    pre = preimages(P)
    have = set(start)
    trace: list[PropagationStep] = []
    progress = True
    while progress:
        progress = False
        for v in sorted(have):
            w = P.successor(v)
            if w not in have:
                have.add(w)
                trace.append(PropagationStep("image", w, v))
                progress = True
        for v in sorted(have):
            for u in pre[P.successor(v) - 1]:
                if u != v and u not in have:
                    have.add(u)
                    trace.append(PropagationStep("negate", u, v))
                    progress = True
    return trace


def generator_set(P: Portrait) -> GeneratorSet:
    """Greedy minimal closure basis with a deterministic tie-break.

    Each closure rule derives one vertex from one known vertex, so the
    closure of a set is the union of the closures of its vertices: each
    vertex's closure is computed once, and adding v to a closed set gains
    exactly the vertices of v's closure not yet known.  Repeatedly add the
    vertex whose gain is largest; among ties, periodic vertices come first
    (smallest index), then in-degree-zero vertices by decreasing depth, then
    everything else by index.
    """
    _require_generic(P)
    return _generator_set(P)


def _require_generic(P: Portrait) -> None:
    report = validate_generic(P)
    if not report.is_generic:
        raise NotGeneric(f"portrait is not generic: {report.violations[0].detail}")


def _generator_set(P: Portrait) -> GeneratorSet:
    """generator_set(P) for a P already known to be generic."""
    depth = vertex_depths(P)
    indeg = indegrees(P)

    def tie_key(v: int):
        if depth[v] == 0:
            return (0, v)
        if indeg[v - 1] == 0:
            return (1, -depth[v], v)
        return (2, v)

    pre = preimages(P)

    def closure(v: int) -> set[int]:
        """v's forward orbit with every preimage of each orbit vertex's image:
        a sibling's image and its other siblings are already in that set."""
        orbit: set[int] = set()
        while v not in orbit:
            orbit.add(v)
            v = P.successor(v)
        return {u for w in orbit for u in pre[P.successor(w) - 1]}

    order = sorted(range(1, P.n + 1), key=tie_key)
    reach = {v: closure(v) for v in order}
    generators: list[int] = []
    known: set[int] = set()
    while len(known) < P.n:
        best = max((v for v in order if v not in known), key=lambda v: len(reach[v] - known))
        generators.append(best)
        known |= reach[best]
    return GeneratorSet(generators=generators, closure_trace=_propagate(P, generators))


# ------------------------------------------------------------------ full model


def full_model(P: Portrait) -> CurveModel:
    """The affine model with one variable per vertex: N edge equations
    x_i^2 + c = x_j and all pairwise distinctness conditions.  The
    generators are free and the rest follow by the closure steps.
    """
    _require_generic(P)
    if P.n < 1:
        raise ValueError("full_model needs at least one vertex")
    names = [f"x{i}" for i in range(1, P.n + 1)]
    gens = _generator_set(P)
    return CurveModel(
        name=f"full:{P.to_text()}",
        variables=("c",) + tuple(names),
        equations=[_edge_equation(names[i - 1], names[j - 1]) for i, j in enumerate(P.image, 1)],
        inequations=[_difference(a, b) for i, a in enumerate(names) for b in names[i + 1:]],
        provenance="full",
        free_variables=("c",) + tuple(names[g - 1] for g in gens.generators),
        steps=[(s.kind, names[s.vertex - 1], names[s.source - 1]) for s in gens.closure_trace],
        meta={"generators": gens.generators},
    )


# The full system is built from its terms, in MultiPoly's normal form:
# variables sorted as strings (so x10 comes before x2), and every coefficient
# an int, as MultiPoly keeps an integral one.


def _edge_equation(a: str, b: str) -> MultiPoly:
    """a^2 + c - b; a fixed point a = b gives a^2 - a + c."""
    if a == b:
        return MultiPoly._normalized(("c", a), {(0, 2): 1, (0, 1): -1, (1, 0): 1})
    if a < b:
        terms = {(0, 2, 0): 1, (1, 0, 0): 1, (0, 0, 1): -1}
        return MultiPoly._normalized(("c", a, b), terms)
    terms = {(0, 0, 2): 1, (1, 0, 0): 1, (0, 1, 0): -1}
    return MultiPoly._normalized(("c", b, a), terms)


def _difference(a: str, b: str) -> MultiPoly:
    """a - b for distinct variables."""
    if a < b:
        return MultiPoly._normalized((a, b), {(1, 0): 1, (0, 1): -1})
    return MultiPoly._normalized((b, a), {(0, 1): 1, (1, 0): -1})


# --------------------------------------------------------------- reduced model


def reduced_model(P: Portrait) -> CurveModel:
    """Generator-reduced model: one dynatomic equation per generator plus
    distinctness inequations between generators of equal eventual period.

    Two generators with the same eventual period get cycle-separating
    inequations f^{m_j}(y) != f^{m_i + k}(x) when their orbits enter
    different cycles of the portrait.  When they enter the same cycle (the
    cycles already coincide, so separating them would exclude every genuine
    point) the degenerate collisions with the first generator's closure are
    excluded instead: every vertex derived from x is of the form
    +-f^j(x), and the only ones sharing y's orbit type are +-f^{m_i-m_j}(x).
    """
    gens = generator_set(P)
    if not gens.generators:
        raise ValueError("the empty portrait has no model variables")
    data = _orbit_data(P)
    # (vertex, preperiod, period, entry cycle) in descending (period, preperiod)
    ordered = sorted(
        ((g, *data[g]) for g in gens.generators), key=lambda t: (-t[2], -t[1], t[0])
    )
    by_asc = sorted(ordered, key=lambda t: (t[2], t[1], t[0]))
    var_of = {g: _point_var(i) for i, (g, *_) in enumerate(by_asc)}
    generators = [t[0] for t in ordered]

    variables = ("c",) + tuple(var_of[g] for g in generators)
    equations = []
    for g, m, n, _ in ordered:
        eq = generalized_dynatomic(m, n) if m else dynatomic(n).phi
        equations.append(eq.rename({"x": var_of[g]}))
    inequations = []
    for i, (gi, mi, ni, ei) in enumerate(ordered):
        for gj, mj, nj, ej in ordered[i + 1:]:
            if ni != nj:
                continue
            if ei != ej:
                entry_j = fc_power(var_of[gj], mj)
                for k in range(ni):
                    inequations.append(entry_j - fc_power(var_of[gi], mi + k))
            else:
                vj = MultiPoly.var(var_of[gj])
                twin = fc_power(var_of[gi], mi - mj)
                inequations.append(vj - twin)
                inequations.append(vj + twin)
    return CurveModel(
        name=f"reduced:{P.to_text()}",
        variables=variables,
        equations=equations,
        inequations=inequations,
        provenance="reduced",
        free_variables=variables,
        meta={
            "generators": generators,
            "generator_vars": {str(g): var_of[g] for g in generators},
            "orbit_types": {str(g): [m, n] for g, m, n, _ in ordered},
        },
    )


# ------------------------------------------------------------ multilevel model


def multi_level_model(n_list) -> CurveModel:
    """Model for several marked periodic orbits: dynatomic equation at each
    level, plus distinctness from earlier orbits of the same length."""
    levels = sorted((int(n) for n in n_list), reverse=True)
    if not levels or any(n < 1 for n in levels):
        raise InadmissibleCycleStructure("levels must be positive integers")
    if levels[0] > MAX_DYNATOMIC_N:  # before D0(n) forms 2^n
        raise ValueError(f"n = {levels[0]} exceeds max_dynatomic_n = {MAX_DYNATOMIC_N}")
    for n in set(levels):
        if levels.count(n) > degree_d0(n):
            raise InadmissibleCycleStructure(
                f"{levels.count(n)} marked {n}-cycles exceed the bound {degree_d0(n)}"
            )
    by_asc = sorted(range(len(levels)), key=lambda i: (levels[i], i))
    var_of = {idx: _point_var(pos) for pos, idx in enumerate(by_asc)}
    variables = ("c",) + tuple(var_of[i] for i in range(len(levels)))
    equations = [dynatomic(n).phi.rename({"x": var_of[i]}) for i, n in enumerate(levels)]
    inequations = []
    for i in range(len(levels)):
        for j in range(i + 1, len(levels)):
            if levels[i] != levels[j]:
                continue
            vj = MultiPoly.var(var_of[j])
            for k in range(levels[i]):
                inequations.append(vj - fc_power(var_of[i], k))
    return CurveModel(
        name="multilevel:" + ",".join(str(n) for n in levels),
        variables=variables,
        equations=equations,
        inequations=inequations,
        provenance="multilevel",
        free_variables=variables,
        meta={"levels": levels},
    )


def plane_model(n: int) -> CurveModel:
    """The plane dynatomic model at level n, in variables (c, x)."""
    phi = dynatomic(n).phi
    return CurveModel(
        name=f"plane:{n}",
        variables=("c", "x"),
        equations=[phi],
        inequations=[],
        provenance="plane",
        free_variables=("c", "x"),
    )


# ------------------------------------------------------------------------ JSON

SCHEMA_VERSION = 1


def model_to_json(model: CurveModel) -> str:
    doc = {
        "schema_version": SCHEMA_VERSION,
        "name": model.name,
        "variables": list(model.variables),
        "equations": [str(e) for e in model.equations],
        "inequations": [str(e) for e in model.inequations],
        "provenance": model.provenance,
    }
    if model.free_variables:
        doc["free_variables"] = list(model.free_variables)
    if model.steps:
        doc["steps"] = [list(s) for s in model.steps]
    if model.meta:
        doc["meta"] = model.meta
    return json.dumps(doc, sort_keys=True, indent=2) + "\n"


def _strings(doc: dict, key: str) -> list[str]:
    if key not in doc:
        raise ParseError(f"model JSON missing field {key!r}")
    value = doc[key]
    if not isinstance(value, list) or not all(isinstance(v, str) for v in value):
        raise ParseError(f"model JSON field {key!r} must be a list of strings")
    return value


def model_from_json(text: str) -> CurveModel:
    """The model of a JSON document, checked before it is used: one
    ParseError names the field that is malformed, repeats a variable or
    names an undeclared one, a variable read or left unbound, or a step that
    writes a bound variable.  A variable is bound when it is free or the
    target of an earlier step."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"bad model JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise ParseError("model JSON must be an object")
    variables = tuple(_strings(doc, "variables"))
    free = tuple(_strings(doc, "free_variables")) if "free_variables" in doc else None
    for key, names in (("variables", variables), ("free_variables", free or ())):
        for i, v in enumerate(names):
            if v in names[:i]:
                raise ParseError(f"model JSON field {key!r} repeats variable {v!r}")
    steps = doc.get("steps", [])
    if not isinstance(steps, list) or not all(
        isinstance(s, list) and len(s) == 3 and s[0] in ("image", "negate") for s in steps
    ):
        raise ParseError("model JSON field 'steps' must list [image|negate, target, source]")
    steps = [tuple(s) for s in steps]
    polys = {}
    for key in ("equations", "inequations"):
        texts = _strings(doc, key)
        try:
            polys[key] = [MultiPoly.parse(e) for e in texts]
        except ParseError as exc:
            raise ParseError(f"model JSON field {key!r}: {exc}") from exc
    named = [(key, v) for key, group in polys.items() for poly in group for v in poly.variables]
    named += [("free_variables", v) for v in free or ()]
    for key, v in named + [("steps", v) for step in steps for v in step[1:]]:
        if v not in variables:
            raise ParseError(f"model JSON field {key!r} names undeclared variable {v!r}")
    known = set(free or variables)
    for step in steps:
        kind, target, source = step
        for v in (source, "c") if kind == "image" else (source,):
            if v not in known:
                raise ParseError(f"model JSON field 'steps': {list(step)!r} reads unbound {v!r}")
        if target in known:
            raise ParseError(f"model JSON field 'steps': {list(step)!r} writes bound {target!r}")
        known.add(target)
    for v in variables:
        if v not in known:
            raise ParseError(f"model JSON field 'variables': {v!r} is never bound")
    return CurveModel(
        name=str(doc.get("name", "model")),
        variables=variables,
        equations=polys["equations"],
        inequations=polys["inequations"],
        provenance=doc.get("provenance", "plane"),
        free_variables=free,
        steps=steps,
        meta=doc.get("meta", {}),
    )
