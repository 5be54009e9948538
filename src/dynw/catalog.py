"""Built-in catalog of named portraits.

Labels follow the usual n(cycle structure)letter scheme.  Structures are
assembled from component descriptions: a component is a cycle length
together with one hanging tree per cycle position, where the tree at
position i is rooted at the second preimage of cycle vertex i+1 (the
"sibling" of cycle vertex i).  Trees are nested tuples of child trees.

Variant letters: most letters are pinned down by structural
cross-references (which smaller portraits embed, which pair-dropping or
component-swapping quotients exist, which class carries the order-16
symmetry).  For the two pairs where only the published diagrams decide
(10(1,1)a/b and 12(3,2)a/b) the letters are assigned by lexicographic order
of canonical forms; each entry's note records which situation applies.

Non-generic labels (2(1), 3(1,1), 3(2), 5(1,1)a) carry a degenerate flag and
explicit vertex maps realized by c = 1/4, 0, -1, -2 respectively; they are
excluded from generic-only queries.
"""

from __future__ import annotations

from ._record import Frozen
from .portraits import (
    CycleStructure,
    Portrait,
    build_portrait,
    canonical_form,
    cycle_structure,
    validate_generic,
)

# tree shorthands: nested tuples of children
L = ()                      # bare tail root
T3 = (L, L)                 # tail root carrying a preimage pair
T5 = (T3, L)                # chain of depth 3
T7A = (T3, T3)              # pairs above both branches
T7B = (T5, L)               # chain of depth 4


class CatalogEntry(Frozen):
    __slots__ = ("label", "portrait", "cycle_structure", "genus", "degenerate", "notes")

    def __init__(
        self,
        label: str,
        portrait: Portrait,
        cycle_structure: CycleStructure,
        genus: int | None,
        degenerate: bool,
        notes: str,
    ):
        object.__setattr__(self, "label", label)
        object.__setattr__(self, "portrait", portrait)
        object.__setattr__(self, "cycle_structure", cycle_structure)
        object.__setattr__(self, "genus", genus)
        object.__setattr__(self, "degenerate", degenerate)
        object.__setattr__(self, "notes", notes)


_VERIFIED = "letter fixed by structural cross-references"
_UNVERIFIED = "letter assigned by canonical-form order; the published diagrams fixing letters are not reproduced here"
_SINGLE = "single class for this size and cycle structure"


def _entry(label, components, genus, notes=_SINGLE) -> CatalogEntry:
    P = canonical_form(build_portrait(components))
    return CatalogEntry(
        label=label,
        portrait=P,
        cycle_structure=cycle_structure(P),
        genus=genus,
        degenerate=False,
        notes=notes,
    )


def _degenerate(label, image, genus, realized_by) -> CatalogEntry:
    P = canonical_form(Portrait(len(image), tuple(image)))
    return CatalogEntry(
        label=label,
        portrait=P,
        cycle_structure=cycle_structure(P),
        genus=genus,
        degenerate=True,
        notes=f"non-generic; realized by c = {realized_by}",
    )


def _lex_pair(base_label, components_x, components_y, genus_a, genus_b, notes):
    """Assign letters a/b to two classes by canonical-form order."""
    Px = canonical_form(build_portrait(components_x))
    Py = canonical_form(build_portrait(components_y))
    first, second = sorted([Px, Py], key=lambda P: P.image)
    return (
        CatalogEntry(base_label + "a", first, cycle_structure(first), genus_a, False, notes),
        CatalogEntry(base_label + "b", second, cycle_structure(second), genus_b, False, notes),
    )


def _build_catalog() -> list[CatalogEntry]:
    entries: list[CatalogEntry] = []
    add = entries.append

    add(
        CatalogEntry(
            "empty", Portrait(0, ()), CycleStructure(()), 0, False,
            "the empty portrait; its parameter curve is the c-line",
        )
    )

    # ---- degenerate (non-generic) labels
    add(_degenerate("2(1)", (1, 1), None, "1/4"))
    add(_degenerate("3(1,1)", (1, 2, 1), None, "0"))
    add(_degenerate("3(2)", (2, 1, 1), None, "-1"))
    add(_degenerate("5(1,1)a", (1, 1, 2, 4, 4), None, "-2"))

    # ---- cycle structure (1,1)
    add(_entry("4(1,1)", [(1, [L]), (1, [L])], 0))
    add(_entry("6(1,1)", [(1, [T3]), (1, [L])], 0))
    add(_entry("8(1,1)a", [(1, [T3]), (1, [T3])], 1, _VERIFIED))
    add(_entry("8(1,1)b", [(1, [T5]), (1, [L])], 1, _VERIFIED))
    # genus is 4 for one of these two classes and 5 for the other, but the
    # attachment follows the letter, which only the omitted figures fix
    a1011, b1011 = _lex_pair(
        "10(1,1)",
        [(1, [T7A]), (1, [L])],
        [(1, [T7B]), (1, [L])],
        None, None,
        _UNVERIFIED + "; genus 4/5 in some order, omitted here",
    )
    add(a1011)
    add(b1011)
    add(_entry("10(1,1)c", [(1, [T5]), (1, [T3])], 5, _VERIFIED))

    # ---- cycle structure (2)
    add(_entry("4(2)", [(2, [L, L])], 0))
    add(_entry("6(2)", [(2, [T3, L])], 0))
    add(_entry("8(2)a", [(2, [T3, T3])], 1, _VERIFIED))
    add(_entry("8(2)b", [(2, [T5, L])], 1, _VERIFIED))
    add(_entry("10(2)a", [(2, [T7B, L])], 5, _VERIFIED))
    add(_entry("10(2)b", [(2, [T5, T3])], 5, _VERIFIED))
    add(_entry("10(2)c", [(2, [T7A, L])], 5, _VERIFIED))

    # ---- cycle structure (3)
    add(_entry("6(3)", [(3, [L, L, L])], 0))
    add(_entry("8(3)", [(3, [T3, L, L])], 2))
    add(_entry("10(3)a", [(3, [T5, L, L])], 9, _VERIFIED))
    add(_entry("10(3)b", [(3, [T3, T3, L])], 9, _VERIFIED))

    # ---- cycle structure (4)
    add(_entry("8(4)", [(4, [L, L, L, L])], 2))
    add(_entry("10(4)", [(4, [T3, L, L, L])], 9))

    # ---- cycle structure (2,1,1)
    add(_entry("8(2,1,1)", [(2, [L, L]), (1, [L]), (1, [L])], 0))
    add(_entry("10(2,1,1)a", [(2, [T3, L]), (1, [L]), (1, [L])], 1, _VERIFIED))
    add(_entry("10(2,1,1)b", [(2, [L, L]), (1, [T3]), (1, [L])], 1, _VERIFIED))
    add(_entry("12(2,1,1)a", [(2, [T3, T3]), (1, [L]), (1, [L])], 5, _VERIFIED))
    add(_entry("12(2,1,1)b", [(2, [L, L]), (1, [T5]), (1, [L])], 5, _VERIFIED))
    add(_entry("12(2,1,1)c", [(2, [T5, L]), (1, [L]), (1, [L])], 5, _VERIFIED))
    add(_entry("12(2,1,1)d", [(2, [L, L]), (1, [T3]), (1, [T3])], 5, _VERIFIED))
    add(_entry("12(2,1,1)e", [(2, [T3, L]), (1, [T3]), (1, [L])], 5, _VERIFIED))

    # ---- cycle structure (3,1,1)
    add(_entry("10(3,1,1)", [(3, [L, L, L]), (1, [L]), (1, [L])], 2))
    add(_entry("12(3,1,1)a", [(3, [T3, L, L]), (1, [L]), (1, [L])], 9, _VERIFIED))
    add(_entry("12(3,1,1)b", [(3, [L, L, L]), (1, [T3]), (1, [L])], 9, _VERIFIED))

    # ---- cycle structure (3,2)
    add(_entry("10(3,2)", [(3, [L, L, L]), (2, [L, L])], 2))
    a1232, b1232 = _lex_pair(
        "12(3,2)",
        [(3, [T3, L, L]), (2, [L, L])],
        [(3, [L, L, L]), (2, [T3, L])],
        9, 9, _UNVERIFIED,
    )
    add(a1232)
    add(b1232)

    # ---- cycle structure (3,3)
    add(_entry("12(3,3)", [(3, [L, L, L]), (3, [L, L, L])], 4))
    add(_entry("14(3,3)", [(3, [T3, L, L]), (3, [L, L, L])], 16))

    return entries


_CATALOG: list[CatalogEntry] | None = None
_BY_LABEL: dict[str, CatalogEntry] = {}
_BY_CANONICAL: dict[tuple, CatalogEntry] = {}


def catalog() -> list[CatalogEntry]:
    """All catalog entries, in a fixed order."""
    global _CATALOG
    if _CATALOG is None:
        _CATALOG = _build_catalog()
        for e in _CATALOG:
            _BY_LABEL[e.label] = e
            _BY_CANONICAL[(e.portrait.n, e.portrait.image)] = e
    return _CATALOG


def generic_entries() -> list[CatalogEntry]:
    return [e for e in catalog() if not e.degenerate]


def lookup(label: str) -> CatalogEntry:
    catalog()
    if label not in _BY_LABEL:
        raise KeyError(f"no catalog entry labeled {label!r}")
    return _BY_LABEL[label]


def match(P: Portrait) -> CatalogEntry | None:
    """The catalog entry isomorphic to P, if any."""
    catalog()
    C = canonical_form(P)
    return _BY_CANONICAL.get((C.n, C.image))


# The conjectured complete list of rational preperiodic portraits of
# quadratic polynomials (complete if no rational point has period > 3).
TWELVE_RATIONAL_LABELS = (
    "empty",
    "2(1)",
    "3(1,1)",
    "3(2)",
    "4(1,1)",
    "4(2)",
    "5(1,1)a",
    "6(1,1)",
    "6(2)",
    "6(3)",
    "8(2,1,1)",
    "8(3)",
)


def catalog_selfcheck() -> list[str]:
    """Sanity problems in the catalog (empty list when healthy)."""
    problems = []
    for e in catalog():
        if e.label == "empty":
            continue
        head = e.label.split("(")[0]
        if int(head) != e.portrait.n:
            problems.append(f"{e.label}: leading integer != vertex count {e.portrait.n}")
        inside = e.label[e.label.index("(") + 1 : e.label.index(")")]
        if CycleStructure.parse(inside) != e.cycle_structure:
            problems.append(f"{e.label}: cycle structure mismatch")
        if not e.degenerate and not validate_generic(e.portrait).is_generic:
            problems.append(f"{e.label}: marked generic but fails validation")
        if e.degenerate and validate_generic(e.portrait).is_generic:
            problems.append(f"{e.label}: marked degenerate but is generic")
    return problems
