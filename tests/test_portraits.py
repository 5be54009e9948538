"""Portrait engine tests: validation, canonical forms, automorphisms,
embeddings, enumeration, minimal extensions, and the catalog."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (
    brute_force_automorphism_count,
    brute_force_embeddings,
    generic_classes,
    has_intermediate,
)

from dynw.catalog import (
    catalog,
    catalog_selfcheck,
    generic_entries,
    lookup,
    match,
)
from dynw import portraits
from dynw.errors import BudgetExceeded, InadmissibleCycleStructure, NotGeneric, ParseError
from dynw.portraits import (
    EMPTY,
    ENUM_BUDGET,
    CycleStructure,
    Portrait,
    automorphism_group,
    canonical_form,
    cycle_structure,
    embeddings,
    enumerate_generic,
    indegrees,
    minimal_extensions,
    minimal_portrait,
    relabel,
    validate_generic,
)

P4 = Portrait(4, (1, 2, 1, 2))  # two fixed points, each with its extra preimage
FIG_TWO_THREE_CYCLES = Portrait(12, (2, 3, 1, 1, 2, 3, 8, 9, 7, 7, 8, 9))


def test_text_round_trip():
    for text in ("0:", "4:1,2,1,2", "3:2,1,1"):
        assert Portrait.from_text(text).to_text() == text
    with pytest.raises(ParseError):
        Portrait.from_text("4:1,2")
    with pytest.raises(ParseError):
        Portrait.from_text("2:0,1")
    with pytest.raises(ParseError):
        Portrait.from_text("nonsense")


def test_validate_generic():
    assert validate_generic(P4).is_generic
    assert validate_generic(EMPTY).is_generic
    # odd vertex count cannot be generic: in-degrees sum to n
    for img in ((1, 1, 2), (2, 3, 1), (1, 1, 1)):
        assert not validate_generic(Portrait(3, img)).is_generic
    # a single fixed point trips the fixed-point rule
    rep = validate_generic(Portrait(2, (1, 1)))
    assert any(v.rule == "FixedPointPair" for v in rep.violations)
    # two 2-cycles exceed the cycle bound
    two_two = Portrait(8, (2, 1, 4, 3, 1, 2, 3, 4))
    rep = validate_generic(two_two)
    assert any(v.rule == "CycleCount" for v in rep.violations)


def test_cycle_structure():
    assert cycle_structure(P4).lengths == (1, 1)
    assert cycle_structure(EMPTY).lengths == ()
    assert cycle_structure(lookup("6(3)").portrait).lengths == (3,)
    assert cycle_structure(FIG_TWO_THREE_CYCLES).lengths == (3, 3)


def test_canonical_form_properties():
    rng = random.Random(2024)
    for _ in range(1000):
        n = rng.randint(0, 10)
        img = tuple(rng.randint(1, n) for _ in range(n)) if n else ()
        Q = Portrait(n, img)
        C = canonical_form(Q)
        assert canonical_form(C) == C  # idempotent
        if n:
            perm = list(range(1, n + 1))
            rng.shuffle(perm)
            assert canonical_form(relabel(Q, tuple(perm))) == C


_GENERIC_UP_TO_14 = generic_classes(14)


@settings(max_examples=20, deadline=None)
@given(data=st.data())
def test_canonical_form_properties_on_generic_classes(data):
    assert len(_GENERIC_UP_TO_14) == 131 and max(Q.n for Q in _GENERIC_UP_TO_14) == 14
    for Q in _GENERIC_UP_TO_14:
        perm = tuple(data.draw(st.permutations(range(1, Q.n + 1))))
        assert canonical_form(Q) == Q  # enumerate_generic returns canonical forms
        assert canonical_form(relabel(Q, perm)) == Q


def test_canonical_form_and_map_search_find_cycles_once(monkeypatch):
    calls = []
    find_cycles = portraits.find_cycles
    monkeypatch.setattr(portraits, "find_cycles", lambda P: calls.append(P) or find_cycles(P))
    for Q in _GENERIC_UP_TO_14:
        calls.clear()
        assert canonical_form(Q) == Q
        assert calls == [Q]
        calls.clear()
        portraits.map_search(Q)
        assert calls == [Q]


def test_canonical_form_separates_classes():
    deep = lookup("8(1,1)b").portrait
    balanced = lookup("8(1,1)a").portrait
    assert canonical_form(deep) != canonical_form(balanced)
    # in-degree-by-depth profiles differ, so they cannot be isomorphic
    assert sorted(indegrees(deep)) == sorted(indegrees(balanced))


def test_automorphism_groups():
    assert len(automorphism_group(EMPTY)) == 1
    assert len(automorphism_group(P4)) == 2
    both_tails = lookup("12(2,1,1)a").portrait
    assert len(automorphism_group(both_tails)) == 16
    for perm in automorphism_group(P4):
        assert relabel(P4, perm) == P4


def test_embeddings():
    assert len(embeddings(lookup("6(3)").portrait, lookup("8(3)").portrait)) > 0
    assert len(embeddings(P4, P4)) == len(automorphism_group(P4)) == 2
    assert embeddings(lookup("4(2)").portrait, P4) == []
    # every embedding preserves edges
    small, big = lookup("6(1,1)").portrait, lookup("8(1,1)b").portrait
    for psi in embeddings(small, big):
        for v in range(1, small.n + 1):
            assert psi[small.successor(v) - 1] == big.successor(psi[v - 1])
    with pytest.raises(BudgetExceeded):
        embeddings(P4, Portrait(22, tuple([1] * 0 + [2, 1] + [1] * 20)))


def test_embeddings_count_vs_aut_random():
    rng = random.Random(31)
    for _ in range(100):
        n = rng.randint(1, 8)
        img = tuple(rng.randint(1, n) for _ in range(n))
        Q = Portrait(n, img)
        auts = len(automorphism_group(Q))
        assert len(embeddings(Q, Q)) == auts == brute_force_automorphism_count(img)


def test_embeddings_match_brute_force_on_catalog_pairs():
    small = [e.portrait for e in catalog() if e.portrait.n <= 8]
    pairs = [(P, Q) for P in small if P.n <= 6 for Q in small if P.n <= Q.n]
    found = 0
    for P, Q in pairs:
        expected = brute_force_embeddings(P, Q)
        assert embeddings(P, Q) == expected, (P, Q)
        found += bool(expected)
    assert len(pairs) == 130 and found == 61  # the agreement is not all empty


def test_embeddings_match_brute_force_on_random_non_generic_portraits():
    rng = random.Random(5)
    ports = []
    for _ in range(60):
        n = rng.randint(1, 6)
        ports.append(Portrait(n, tuple(rng.randint(1, n) for _ in range(n))))
    assert any(1 in indegrees(P) for P in ports) and any(3 in indegrees(P) for P in ports)
    found = 0
    for P in ports[:30]:
        for Q in ports:
            if P.n <= Q.n:
                expected = brute_force_embeddings(P, Q)
                assert embeddings(P, Q) == expected, (P, Q)
                found += bool(expected)
    assert found > 100
    assert all(embeddings(EMPTY, Q) == [()] for Q in [EMPTY] + ports)


def test_minimal_portrait():
    m3 = minimal_portrait(CycleStructure.of((3,)))
    assert m3.n == 6 and match(m3).label == "6(3)"
    m33 = minimal_portrait(CycleStructure.of((3, 3)))
    assert m33.n == 12
    assert canonical_form(m33) == canonical_form(FIG_TWO_THREE_CYCLES)
    with pytest.raises(InadmissibleCycleStructure):
        minimal_portrait(CycleStructure.of((1,)))
    with pytest.raises(InadmissibleCycleStructure):
        minimal_portrait(CycleStructure.of((2, 2)))


def test_enumerate_counts():
    cases = {
        (8, (1, 1)): 2,
        (10, (1, 1)): 3,
        (12, (3, 3)): 1,
        (14, (3, 3)): 1,
    }
    for (n, sig), want in cases.items():
        classes = enumerate_generic(n, CycleStructure.of(sig))
        assert len(classes) == want
        for Q in classes:
            assert Q.n == n
            assert cycle_structure(Q).lengths == tuple(sorted(sig, reverse=True))
            assert validate_generic(Q).is_generic
            assert canonical_form(Q) == Q


def test_enumerate_growth_chain():
    for n, sig in ((10, (1, 1)), (12, (2, 1, 1))):
        big = enumerate_generic(n, CycleStructure.of(sig))
        small = enumerate_generic(n - 2, CycleStructure.of(sig))
        for Q in big:
            assert any(embeddings(S, Q) for S in small)


def test_enumerate_rejects_bad_input():
    with pytest.raises(InadmissibleCycleStructure):
        enumerate_generic(7, CycleStructure.of((3,)))
    with pytest.raises(InadmissibleCycleStructure):
        enumerate_generic(6, CycleStructure.of((1,)))
    with pytest.raises(BudgetExceeded):
        enumerate_generic(18, CycleStructure.of((1, 1)))
    with pytest.raises(ValueError, match="vertex count must be >= 0, got -2"):
        enumerate_generic(-2, CycleStructure.of((1, 1)))


def test_minimal_extensions_from_empty():
    exts = minimal_extensions(EMPTY, 1)
    assert [match(Q).label for Q in exts] == ["4(1,1)"]
    exts = minimal_extensions(EMPTY, 2)
    assert sorted(match(Q).label for Q in exts) == ["4(1,1)", "4(2)"]


def test_minimal_extensions_of_three_cycle():
    base = lookup("6(3)").portrait
    exts = minimal_extensions(base, 3)
    assert sorted(match(Q).label for Q in exts) == ["10(3,1,1)", "10(3,2)", "12(3,3)", "8(3)"]
    for Q in exts:
        assert embeddings(base, Q)


def test_no_generic_class_lies_between_a_portrait_and_its_minimal_extensions():
    checked = 0
    for P in [EMPTY, *generic_classes(12)]:
        for B in range(1, 9):
            if P.n + 2 * B > ENUM_BUDGET + 2:
                with pytest.raises(BudgetExceeded):
                    minimal_extensions(P, B)
                continue
            for Q in minimal_extensions(P, B):
                assert Q.n > P.n and embeddings(P, Q), (P.to_text(), B, Q.to_text())
                assert not has_intermediate(P, Q), (P.to_text(), B, Q.to_text())
                checked += 1
    assert checked == 1017
    # the search does find a class between: 4(1,1) lies below 8(2,1,1)
    assert has_intermediate(EMPTY, lookup("8(2,1,1)").portrait)


def test_minimal_extensions_requires_generic():
    with pytest.raises(NotGeneric):
        minimal_extensions(Portrait(2, (1, 1)), 1)


# ---------------------------------------------------------------------- catalog


EXPECTED_LABELS = {
    "empty", "2(1)", "3(1,1)", "3(2)", "4(1,1)", "4(2)", "5(1,1)a",
    "6(1,1)", "6(2)", "6(3)",
    "8(1,1)a", "8(1,1)b", "8(2)a", "8(2)b", "8(2,1,1)", "8(3)", "8(4)",
    "10(1,1)a", "10(1,1)b", "10(1,1)c", "10(2)a", "10(2)b", "10(2)c",
    "10(2,1,1)a", "10(2,1,1)b", "10(3)a", "10(3)b", "10(3,1,1)", "10(3,2)", "10(4)",
    "12(2,1,1)a", "12(2,1,1)b", "12(2,1,1)c", "12(2,1,1)d", "12(2,1,1)e",
    "12(3,1,1)a", "12(3,1,1)b", "12(3,2)a", "12(3,2)b", "12(3,3)",
    "14(3,3)",
}


def test_catalog_selfcheck():
    assert catalog_selfcheck() == []
    assert {e.label for e in catalog()} == EXPECTED_LABELS
    assert len(catalog()) == 41  # labels are unique
    for e in generic_entries():
        assert validate_generic(e.portrait).is_generic


def test_catalog_lookup_and_match():
    e = lookup("12(3,3)")
    assert canonical_form(e.portrait) == canonical_form(FIG_TWO_THREE_CYCLES)
    e = lookup("6(3)")
    assert e.portrait.n == 6 and e.cycle_structure.lengths == (3,)
    assert match(Portrait(4, (2, 1, 2, 1))).label == "4(2)"
    assert match(Portrait(6, (2, 3, 1, 5, 6, 4))) is None  # two bare 3-cycles: not cataloged
    with pytest.raises(KeyError):
        lookup("99(9)")


def test_catalog_degenerate_entries():
    for label in ("2(1)", "3(1,1)", "3(2)", "5(1,1)a"):
        e = lookup(label)
        assert e.degenerate
        assert not validate_generic(e.portrait).is_generic
    assert not lookup("empty").degenerate


def test_catalog_enumeration_agreement():
    """Catalog classes of each (n, cycles) group are exactly the enumerated ones."""
    groups = {}
    for e in generic_entries():
        if e.portrait.n == 0:
            continue
        groups.setdefault((e.portrait.n, e.cycle_structure.lengths), set()).add(
            e.portrait.image
        )
    for (n, lengths), images in groups.items():
        classes = enumerate_generic(n, CycleStructure.of(lengths))
        assert {Q.image for Q in classes} == images, (n, lengths)


# directed-system arrows: (larger, smaller) pairs where the smaller class
# embeds; non-arrow same-structure pairs where no embedding exists
ARROWS = [
    ("6(1,1)", "4(1,1)"), ("8(1,1)a", "6(1,1)"), ("8(1,1)b", "6(1,1)"),
    ("10(1,1)a", "8(1,1)b"), ("10(1,1)b", "8(1,1)b"),
    ("10(1,1)c", "8(1,1)a"), ("10(1,1)c", "8(1,1)b"),
    ("6(2)", "4(2)"), ("8(2)a", "6(2)"), ("8(2)b", "6(2)"),
    ("10(2)a", "8(2)b"), ("10(2)b", "8(2)a"), ("10(2)b", "8(2)b"), ("10(2)c", "8(2)b"),
    ("8(3)", "6(3)"), ("10(3)a", "8(3)"), ("10(3)b", "8(3)"),
    ("10(4)", "8(4)"),
    ("10(2,1,1)a", "8(2,1,1)"), ("10(2,1,1)b", "8(2,1,1)"),
    ("12(2,1,1)a", "10(2,1,1)a"), ("12(2,1,1)c", "10(2,1,1)a"),
    ("12(2,1,1)e", "10(2,1,1)a"), ("12(2,1,1)e", "10(2,1,1)b"),
    ("12(2,1,1)d", "10(2,1,1)b"), ("12(2,1,1)b", "10(2,1,1)b"),
    ("12(3,1,1)a", "10(3,1,1)"), ("12(3,1,1)b", "10(3,1,1)"),
    ("12(3,2)a", "10(3,2)"), ("12(3,2)b", "10(3,2)"),
    ("14(3,3)", "12(3,3)"),
]

NON_EDGES = [
    ("10(1,1)a", "8(1,1)a"), ("10(1,1)b", "8(1,1)a"),
    ("8(1,1)b", "8(1,1)a"), ("10(1,1)b", "10(1,1)a"), ("10(1,1)c", "10(1,1)a"),
    ("10(2)a", "8(2)a"), ("10(2)c", "8(2)a"), ("8(2)b", "8(2)a"),
    ("10(3)b", "10(3)a"),
    ("12(2,1,1)a", "10(2,1,1)b"), ("12(2,1,1)b", "10(2,1,1)a"),
    ("12(2,1,1)c", "10(2,1,1)b"), ("12(2,1,1)d", "10(2,1,1)a"),
    ("12(3,1,1)b", "12(3,1,1)a"), ("12(3,2)b", "12(3,2)a"),
]


def test_directed_system_arrows():
    for big_label, small_label in ARROWS:
        big, small = lookup(big_label).portrait, lookup(small_label).portrait
        assert embeddings(small, big), (small_label, big_label)


def test_directed_system_non_edges():
    for big_label, small_label in NON_EDGES:
        big, small = lookup(big_label).portrait, lookup(small_label).portrait
        assert embeddings(small, big) == [], (small_label, big_label)


def test_even_vertex_count_for_generic():
    for e in generic_entries():
        assert e.portrait.n % 2 == 0


def test_canonical_equality_matches_isomorphism():
    """Equal canonical forms exactly when mutual embeddings exist."""
    rng = random.Random(77)
    for _ in range(150):
        n = rng.randint(1, 7)
        P = Portrait(n, tuple(rng.randint(1, n) for _ in range(n)))
        Q = Portrait(n, tuple(rng.randint(1, n) for _ in range(n)))
        same = canonical_form(P) == canonical_form(Q)
        iso = bool(embeddings(P, Q)) and bool(embeddings(Q, P))
        assert same == iso


def test_enumeration_complete_against_exhaustive_search():
    """Brute force over every functional graph on <= 6 vertices: the generic
    isomorphism classes found are exactly the enumerated ones."""
    from itertools import product

    for n in (2, 4, 6):
        classes_by_sigma = {}
        for img in product(range(1, n + 1), repeat=n):
            P = Portrait(n, img)
            if not validate_generic(P).is_generic:
                continue
            key = cycle_structure(P).lengths
            classes_by_sigma.setdefault(key, set()).add(canonical_form(P).image)
        # no generic portraits exist on 2 vertices at all
        expected_sigmas = {2: set(), 4: {(1, 1), (2,)}, 6: {(1, 1), (2,), (3,)}}[n]
        assert set(classes_by_sigma) == expected_sigmas
        for sigma, found in classes_by_sigma.items():
            enumerated = enumerate_generic(n, CycleStructure.of(sigma))
            assert {Q.image for Q in enumerated} == found, (n, sigma)
