"""Record semantics of the report, model and value classes: construction by
position and keyword in the declared field order, fresh mutable defaults,
validation, and immutability, hashing and equality of the frozen types."""

import pickle

import pytest

from dynw.catalog import CatalogEntry
from dynw.classify import ClassificationRecord, OrbitRecord, SweepSummary
from dynw.dynatomic import AsymptoticReport, BoundsReport, DegreeReport, DynatomicTable
from dynw.fflab import CSQuery, CSReport, MaxPeriodReport, PointCountReport, TraceReport
from dynw.models import CurveModel, GeneratorSet, PropagationStep
from dynw.portraits import CycleStructure, GenericityReport, Portrait, Violation

P2 = Portrait(2, (2, 1))
S2 = CycleStructure((2,))

# every class with its fields in declared (positional) order and one value each
FIELDS = {
    OrbitRecord: dict(start=1, orbit=[1, 2], preperiod=0, eventual_period=2, escaped=False),
    ClassificationRecord: dict(
        c=-1, portrait=P2, label="4(2)", generic=True, point_count=2, flags=("f",), points=(0, -1)
    ),
    SweepSummary: dict(height_bound=3, records=[], tally={"4(2)": 1}, anomalies=[]),
    DynatomicTable: dict(n=2, phi="phi", degree_x=2, degree_c=1),
    DegreeReport: dict(n=3, D1=6, D0=2, B=1, genus_lb=-1),
    BoundsReport: dict(
        n=3, D1=6, lower=4, upper=8, lower_holds=True, upper_holds=True,
        lower_strict=True, upper_strict=True, strict_required=True, ok=True,
    ),
    AsymptoticReport: dict(
        n=12, chain_holds=False, lhs=1, rhs=2, B=3, six_d0=4, b_exceeds_six_d0=False
    ),
    PointCountReport: dict(
        model_id="m", q=7, affine_count=5, nonsingular_count=4, cross_count=5, violations=["v"]
    ),
    CSQuery: dict(g=5, g1=0, g2=1, d1=2, d2=3),
    CSReport: dict(query=CSQuery(5, 0, 1, 2, 3), bound=5, inequality_holds=True),
    TraceReport: dict(p=7, points=3, violations=[(1, 2)]),
    MaxPeriodReport: dict(p=7, k=1, q=7, max_period=3, witness_c=2),
    PropagationStep: dict(kind="image", vertex=2, source=1),
    GeneratorSet: dict(generators=[1], closure_trace=[PropagationStep("image", 2, 1)]),
    CurveModel: dict(
        name="m", variables=("c", "x"), equations=["e"], inequations=["i"], provenance="plane",
        free_variables=("c", "x"), steps=[("image", "x", "y")], meta={"k": 1},
    ),
    Portrait: dict(n=2, image=(2, 1)),
    CycleStructure: dict(lengths=(2, 1)),
    Violation: dict(rule="InDegree", detail="vertex 1 has in-degree 1"),
    GenericityReport: dict(is_generic=False, violations=[Violation("InDegree", "d")]),
    CatalogEntry: dict(
        label="4(2)", portrait=P2, cycle_structure=S2, genus=0, degenerate=False, notes="n"
    ),
}
FROZEN = (Portrait, CycleStructure, Violation, CatalogEntry)
MUTABLE = (ClassificationRecord, PointCountReport, CurveModel, GenericityReport)
# the fields whose default is empty: a new list or dict in each instance, or
# the one empty tuple, which instances may share since no one can change it
FRESH_DEFAULTS = {
    ClassificationRecord: (
        dict(c=0, portrait=P2, label=None, generic=True, point_count=0), ("flags", "points")
    ),
    PointCountReport: (dict(model_id="m", q=7, affine_count=0), ("violations",)),
    CurveModel: (
        dict(name="m", variables=("x",), equations=[], inequations=[], provenance="full"),
        ("steps", "meta"),
    ),
    GenericityReport: (dict(is_generic=True), ("violations",)),
}


@pytest.mark.parametrize("cls", list(FIELDS), ids=lambda cls: cls.__name__)
def test_construction_by_position_and_by_keyword(cls):
    values = FIELDS[cls]
    by_position = cls(*values.values())
    by_keyword = cls(**values)
    for name, value in values.items():
        assert getattr(by_position, name) == value, name
        assert getattr(by_keyword, name) == value, name
    assert by_position == by_keyword
    fields = ", ".join(f"{name}={value!r}" for name, value in values.items())
    assert repr(by_keyword) == f"{cls.__name__}({fields})"
    with pytest.raises(TypeError):
        cls(*values.values(), None)


@pytest.mark.parametrize("cls", list(FRESH_DEFAULTS), ids=lambda cls: cls.__name__)
def test_mutable_defaults_are_fresh_per_instance(cls):
    required, defaulted = FRESH_DEFAULTS[cls]
    first, second = cls(**required), cls(**required)
    for name in defaulted:
        value = getattr(first, name)
        if type(value) is tuple:
            assert value == () and getattr(second, name) == (), name
        else:
            assert not value and value is not getattr(second, name), name
    if cls is PointCountReport:
        assert first.nonsingular_count is None and first.cross_count is None
    if cls is CurveModel:
        assert first.free_variables is None


@pytest.mark.parametrize("cls", MUTABLE, ids=lambda cls: cls.__name__)
def test_mutable_records_take_assignment_and_compare_by_type_and_fields(cls):
    values = FIELDS[cls]
    record, other = cls(**values), cls(**values)
    name = next(iter(values))
    setattr(record, name, "changed")
    assert getattr(record, name) == "changed" and record != other
    setattr(record, name, values[name])
    assert record == other and record != tuple(values.values())
    with pytest.raises(AttributeError):
        record.not_a_field = 1
    with pytest.raises(TypeError):
        hash(record)


@pytest.mark.parametrize("cls", FROZEN, ids=lambda cls: cls.__name__)
def test_frozen_types_are_immutable_hashable_and_equal_only_to_their_type(cls):
    values = FIELDS[cls]
    value, twin = cls(**values), cls(**values)
    for name in values:
        with pytest.raises(AttributeError):
            setattr(value, name, None)
        with pytest.raises(AttributeError):
            delattr(value, name)
    with pytest.raises(AttributeError):
        value.not_a_field = 1
    assert value == twin and hash(value) == hash(twin) and len({value, twin}) == 1
    assert value != tuple(values.values()) and tuple(values.values()) != value
    assert pickle.loads(pickle.dumps(value)) == value


def test_frozen_values_differ_by_type_or_by_field():
    assert Violation("a", "b") != ("a", "b")
    assert Portrait(0, ()) != CycleStructure(())
    assert Portrait(2, (2, 1)) != Portrait(2, (1, 2))
    assert CycleStructure((2, 1)) != CycleStructure((2,))


def test_portrait_and_cycle_structure_validate():
    for n, image in ((-1, ()), (2, (1,)), (2, (1, 3)), (2, (0, 1))):
        with pytest.raises(ValueError):
            Portrait(n, image)
    with pytest.raises(ValueError):
        Portrait(n=1, image=(2,))
    for lengths in ((0,), (1, 2), (3, -1)):
        with pytest.raises(ValueError):
            CycleStructure(lengths)
    with pytest.raises(ValueError):
        CycleStructure(lengths=(1, 3))
    assert CycleStructure.of([1, 3]) == CycleStructure((3, 1))
