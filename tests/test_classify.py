"""Rational preperiodic classifier tests."""

import hashlib
import io
import random
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from oracles import brute_force_preperiodic, window_non_escaping, window_successors

from dynw import classify as classify_module
from dynw.classify import (
    _non_escaping,
    _successors,
    _sweep_domain,
    _window,
    classify,
    orbit,
    preperiodic_candidates,
    sweep,
)
from dynw.dynatomic import degree_d0
from dynw.errors import BudgetExceeded, StepBudgetExceeded
from dynw.portraits import Portrait, canonical_form, cycle_structure
from dynw.rational import perfect_square_root


def test_candidates_square_denominator():
    cands = preperiodic_candidates(Fraction(-3, 4))
    for x in (Fraction(1, 2), Fraction(-1, 2), Fraction(3, 2), Fraction(-3, 2)):
        assert x in cands
    assert preperiodic_candidates(Fraction(1, 3)) == []
    assert preperiodic_candidates(Fraction(2, 9)) != []
    # c = 5: integer candidates only, reaching past the escape radius ~2.8
    cands = preperiodic_candidates(Fraction(5))
    assert all(x.denominator == 1 for x in cands)
    assert {Fraction(k) for k in range(-2, 3)} <= set(cands)


def test_orbit_examples():
    rec = orbit(Fraction(-1), Fraction(1), 64)
    assert rec.orbit == [1, 0, -1]
    assert (rec.preperiod, rec.eventual_period, rec.escaped) == (1, 2, False)

    rec = orbit(Fraction(0), Fraction(0), 64)
    assert (rec.preperiod, rec.eventual_period) == (0, 1)

    rec = orbit(Fraction(1), Fraction(1), 64)
    assert rec.escaped

    with pytest.raises(ValueError):
        orbit(Fraction(0), Fraction(0), 0)


def test_orbit_consistency_invariant():
    rng = random.Random(3)
    for _ in range(200):
        c = Fraction(rng.randint(-8, 8), rng.choice((1, 1, 4, 9)))
        if c.denominator > 1 and gcd(c.numerator, c.denominator) != 1:
            continue
        for x in preperiodic_candidates(c)[:6]:
            rec = orbit(c, x, 256)
            if rec.escaped:
                continue
            for a, b in zip(rec.orbit, rec.orbit[1:]):
                assert a * a + c == b
            m, n = rec.preperiod, rec.eventual_period
            val = x
            for _ in range(m + n):
                val = val * val + c
            target = x
            for _ in range(m):
                target = target * target + c
            assert val == target


def test_classify_known_parameters():
    r = classify(Fraction(-3, 4))
    assert r.label == "4(1,1)" and r.generic and r.point_count == 4
    assert set(r.points) == {Fraction(3, 2), Fraction(-3, 2), Fraction(1, 2), Fraction(-1, 2)}

    assert classify(Fraction(1)).label == "empty"
    assert classify(Fraction(1)).point_count == 0

    r = classify(Fraction(-1))
    assert not r.generic and "NonGeneric" in r.flags
    assert r.label == "3(2)" and set(r.points) == {-1, 0, 1}

    assert classify(Fraction(0)).label == "3(1,1)"
    assert classify(Fraction(1, 4)).label == "2(1)"
    assert classify(Fraction(-2)).label == "5(1,1)a"
    assert classify(Fraction(-29, 16)).label == "8(3)"
    assert classify(Fraction(-21, 16)).label == "8(2,1,1)"


def test_classify_takes_an_int_or_a_string_as_the_fraction_it_names():
    for arg, c in ((-2, Fraction(-2)), ("-3/4", Fraction(-3, 4))):
        rec = classify(arg)
        assert rec == classify(c) and type(rec.c) is Fraction and rec.c == c, arg


def test_classify_soundness():
    """Every vertex value satisfies its recorded preperiod/period exactly."""
    rng = random.Random(8)
    for _ in range(60):
        c = Fraction(rng.randint(-10, 10), rng.choice((1, 4, 9, 16)))
        c = Fraction(c.numerator, c.denominator)
        rec = classify(c)
        pts = set(rec.points)
        for x in rec.points:
            assert x * x + c in pts  # forward closure
            o = orbit(c, x, 256)
            assert not o.escaped
            m, n = o.preperiod, o.eventual_period
            # minimality: no smaller pair works
            val = x
            seq = [x]
            for _ in range(m + n):
                val = val * val + c
                seq.append(val)
            assert seq[m + n] == seq[m]
            for mm in range(m):
                assert seq[mm] != seq[mm + n]
            for nn in range(1, n):
                assert seq[m] != seq[m + nn] if m + nn <= m + n else True


def test_classify_generic_structure_constraints():
    rng = random.Random(12)
    for _ in range(80):
        c = Fraction(rng.randint(-12, 12), rng.choice((1, 1, 4, 9, 25)))
        rec = classify(c)
        if rec.generic:
            assert rec.point_count % 2 == 0
            sigma = cycle_structure(rec.portrait)
            for length in set(sigma.lengths):
                assert sigma.count(length) <= degree_d0(length)
        assert rec.point_count == rec.portrait.n


def test_candidate_completeness_against_brute_force():
    rng = random.Random(2718)
    checked = 0
    while checked < 12:  # the full 50-parameter sweep runs in the acceptance suite
        den = rng.choice((1, 4, 9))
        num = rng.randint(-10, 10)
        if gcd(abs(num), den) != 1:
            continue
        c = Fraction(num, den)
        if max(abs(c.numerator), c.denominator) > 10:
            continue
        checked += 1
        oracle = brute_force_preperiodic(c, 10)
        cands = set(preperiodic_candidates(c))
        assert oracle <= cands, f"missed preperiodic points at c={c}"
        assert oracle == {x for x in cands if not orbit(c, x, 256).escaped}


def test_sweep_height_one():
    summary = sweep(1)
    assert [r.c for r in summary.records] == [Fraction(-1), Fraction(0), Fraction(1)]
    by_c = {r.c: r for r in summary.records}
    assert not by_c[Fraction(-1)].generic
    assert not by_c[Fraction(0)].generic
    assert by_c[Fraction(1)].label == "empty"
    assert summary.anomalies == []


def test_sweep_csv_output():
    buf = io.StringIO()
    summary = sweep(2, out=buf)
    lines = buf.getvalue().strip().split("\n")
    assert lines[0] == "c_num,c_den,portrait_serialized,canonical_label,generic,point_count,flags"
    assert len(lines) == len(summary.records) + 1
    # deterministic order: by height, then numerator, then denominator
    cs = [(int(line.split(",")[0]), int(line.split(",")[1])) for line in lines[1:]]
    keys = [(max(abs(a), b), a, b) for a, b in cs]
    assert keys == sorted(keys)


def assert_matches_orbit_oracle(c: Fraction) -> None:
    """classify(c) against per-candidate Fraction orbits."""
    rec = classify(c)
    cands = preperiodic_candidates(c)
    oracle = [x for x in cands if not orbit(c, x, len(cands) + 4).escaped]
    assert rec.points == tuple(oracle), c
    index = {x: i + 1 for i, x in enumerate(oracle)}
    image = tuple(index[x * x + c] for x in oracle)
    assert rec.portrait == canonical_form(Portrait(len(oracle), image)), c
    window = _window(c)
    if window is None:
        assert rec.points == () and rec.portrait.n == 0
        return
    m, a, u_max = window
    succ = _successors(m, a, u_max)
    for x in rec.points:
        v = succ[int(x * m) + u_max] - u_max
        assert Fraction(v, m) == x * x + c, (c, x)


def test_classify_matches_orbit_oracle_on_sweep_domain():
    for c in _sweep_domain(60):
        assert_matches_orbit_oracle(c)


@settings(max_examples=60, deadline=None)
@given(a=st.integers(-10**6, 10**6), m=st.integers(1, 40))
def test_classify_matches_orbit_oracle_on_square_denominators(a, m):
    assert_matches_orbit_oracle(Fraction(a, m * m))


@settings(max_examples=60, deadline=None)
@given(a=st.integers(-10**6, 10**6), b=st.integers(2, 1600))
def test_non_square_denominator_gives_empty_portrait(a, b):
    c = Fraction(a, b)
    assume(perfect_square_root(c.denominator) is None)
    rec = classify(c)
    assert rec.points == () and rec.portrait.n == 0 and rec.label == "empty"
    assert_matches_orbit_oracle(c)


def test_step_budget():
    with pytest.raises(StepBudgetExceeded):
        # a genuinely periodic point cannot resolve in a single step
        orbit(Fraction(-1), Fraction(0), 1)


def assert_annulus_matches_window(c: Fraction) -> None:
    """_successors, stepping through the annulus by the square roots of -a
    mod m, has a key for exactly the indices whose full-window successor is
    not -1, each with that successor, and _non_escaping, walking from those
    keys only, keeps the same indices as the walk from every index."""
    window = _window(c)
    if window is None:
        return
    m, a, u_max = window
    succ = _successors(m, a, u_max)
    full = window_successors(m, a, u_max)
    assert succ == {i: j for i, j in enumerate(full) if j >= 0}, c
    kept = window_non_escaping(full)
    assert _non_escaping(succ) == kept, c


def test_annulus_matches_full_window_on_sweep_domain():
    domain = _sweep_domain(300)
    assert len(domain) == 6481
    for c in domain:
        assert_annulus_matches_window(c)


@settings(max_examples=200, deadline=None)
@given(a=st.integers(-10**6, 10**6), m=st.integers(1, 40))
def test_annulus_matches_full_window_on_square_denominators(a, m):
    assert_annulus_matches_window(Fraction(a, m * m))


MANY_ROOT_MODULI = [8, 16, 24, 48, 120, 240]


def square_roots_mod(m: int, a: int) -> int:
    """How many r in range(m) have r^2 = -a (mod m), counted one by one."""
    return sum(1 for r in range(m) if (r * r + a) % m == 0)


@settings(max_examples=120, deadline=None)
@given(
    m=st.sampled_from(MANY_ROOT_MODULI),
    s=st.integers(0, 239),
    t=st.integers(-10**8 + 60000, 10**8),
    square=st.booleans(),
)
def test_annulus_matches_full_window_on_moduli_with_many_roots(m, s, t, square):
    # a = t - t % m - s^2 makes -a a square mod m; a plain t may have no root
    a = t - t % m - s * s if square else t
    assert abs(a) <= 10**8 and (square_roots_mod(m, a) > 0 or not square)
    assert_annulus_matches_window(Fraction(a, m * m))


@pytest.mark.parametrize("m", MANY_ROOT_MODULI)
def test_annulus_matches_full_window_at_every_root_of_one(m):
    # a = -1 (mod m), so c = a/m^2 is in lowest terms and r^2 = -a = 1 has
    # 4 roots mod 8 and mod 16, 8 mod 24 and mod 48, and 16 mod 120 and 240
    roots = {8: 4, 16: 4, 24: 8, 48: 8, 120: 16, 240: 16}[m]
    top = 10**8 // m * m
    for a in (-1, m - 1, -m * m - 1, -2 * m * m - 1, m - top - 1, top - 1):
        assert abs(a) <= 10**8 and square_roots_mod(m, a) == roots, (m, a)
        assert_annulus_matches_window(Fraction(a, m * m))


EMPTY_ANNULUS = [Fraction(5), Fraction(10**6), Fraction(101, 4)]
EXACT_INNER_RADIUS = [Fraction(-8), Fraction(-32), Fraction(-11, 4), Fraction(-37, 16)]


@pytest.mark.parametrize(
    "c", EMPTY_ANNULUS + EXACT_INNER_RADIUS + [Fraction(1), Fraction(17, 16), Fraction(-2)]
)
def test_annulus_edge_cases(c):
    m, a, u_max = _window(c)
    if c in EMPTY_ANNULUS:  # c > 1/4 with m*u_max < a: nothing maps back in
        assert m * u_max < a and _successors(m, a, u_max) == {}
    if c in EXACT_INNER_RADIUS:  # -a - m*u_max = r^2, and u = r maps into the window
        r = perfect_square_root(-a - m * u_max)
        assert r and u_max + r in _successors(m, a, u_max)
    assert_annulus_matches_window(c)


def test_no_annulus_is_built_above_one_quarter(monkeypatch):
    built = []
    successors = classify_module._successors

    def spy(m, a, u_max):
        built.append(Fraction(a, m * m))
        return successors(m, a, u_max)

    monkeypatch.setattr(classify_module, "_successors", spy)
    above = [c for c in _sweep_domain(300) if c > Fraction(1, 4) and _window(c)]
    assert len(above) == 849 + 2105  # c in (1/4, 1] and c > 1
    for c in above:
        rec = classify(c)
        assert rec.points == () and rec.label == "empty", c
    # the cap is still checked first
    with pytest.raises(BudgetExceeded, match="^2000000005 candidates exceed"):
        classify(Fraction(10**18))
    assert built == []
    # at c = 1/4 the parabolic fixed point 1/2 and its preimage are still found
    assert classify(Fraction(1, 4)).points == (Fraction(-1, 2), Fraction(1, 2))
    assert built == [Fraction(1, 4)]


def test_sweep_csv_is_pinned_at_heights_200_and_300():
    for height, digest in (
        (200, "f03af69518f51e52eb51a385ddf4822654dcb003a79f778304b088a5e4f7adb2"),
        (300, "63e236f30667af491e270325c10865c7cdb3073eca03a3695e2580db0a154dbd"),
    ):
        out = io.StringIO()
        sweep(height, out=out)
        assert hashlib.sha256(out.getvalue().encode()).hexdigest() == digest, height


def test_records_do_not_share_cached_flags():
    # the fields a record may share with another are tuples, so no record
    # can change another
    first = classify(Fraction(-1))
    assert type(first.flags) is tuple and type(first.points) is tuple
    assert first.flags == ("NonGeneric", "InDegree")
    again = classify(Fraction(-1))
    assert (again.flags, again.points) == (first.flags, first.points)
    assert again.portrait == first.portrait


def test_records_of_one_verdict_share_its_flags_and_the_empty_points():
    records = sweep(60).records
    by_portrait: dict[int, list] = {}  # the verdict cache shares each portrait
    for rec in records:
        by_portrait.setdefault(id(rec.portrait), []).append(rec)
    assert len(by_portrait) < len(records)
    for group in by_portrait.values():
        assert all(rec.flags is group[0].flags for rec in group), group[0].portrait
    empty = [rec.points for rec in records if not rec.points]
    assert len(empty) > 1 and type(empty[0]) is tuple
    assert all(points is empty[0] for points in empty)


def test_verdict_cache_is_bounded_and_changes_no_sweep_output(monkeypatch):
    info = classify_module._verdict.cache_info()
    assert info.maxsize == classify_module._VERDICT_CACHE_SIZE > 0

    cached = io.StringIO()
    summary = sweep(300, out=cached)

    original = classify_module.classify

    def cold_classify(c, cap):
        classify_module._verdict.cache_clear()
        return original(c, cap)

    monkeypatch.setattr(classify_module, "classify", cold_classify)
    cold = io.StringIO()
    cold_summary = sweep(300, out=cold)
    assert classify_module._verdict.cache_info().currsize == 1
    assert cold.getvalue() == cached.getvalue()
    assert cold_summary.tally == summary.tally
    assert [r.points for r in cold_summary.records] == [r.points for r in summary.records]
