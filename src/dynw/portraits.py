"""Functional-graph portraits: validation, canonical forms, automorphisms,
embeddings, and exhaustive enumeration of generic quadratic portraits.

A portrait is a finite functional graph: vertex i (1-indexed) has the single
out-edge i -> image[i-1].  A *generic quadratic* portrait additionally has
every in-degree 0 or 2, at most D0(n) cycles of each length n, and zero or
exactly two fixed points.

Canonical forms use AHU subtree encoding on the trees hanging off cycle
vertices, minimal rotation of each cycle's encoding sequence, and a fixed
total order on components, so canonical_form(P) == canonical_form(Q) exactly
when P and Q are isomorphic.

One search, map_search, finds the injective edge-preserving maps of a
portrait into any functional graph: into another portrait for embeddings and
automorphism_group, and into the graph of z -> z^2 + c over F_q for the
point count of full models (fflab).

Text format: "N:t1,t2,...,tN" gives the image array; "0:" is the empty
portrait.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .dynatomic import degree_d0
from .errors import BudgetExceeded, InadmissibleCycleStructure, NotGeneric, ParseError

AUT_BUDGET = 20
ENUM_BUDGET = 16


@dataclass(frozen=True)
class Portrait:
    n: int
    image: tuple[int, ...]

    def __post_init__(self):
        if self.n < 0 or len(self.image) != self.n:
            raise ValueError("image array length must equal vertex count")
        for t in self.image:
            if not 1 <= t <= self.n:
                raise ValueError(f"image value {t} out of range 1..{self.n}")

    @staticmethod
    def from_text(text: str) -> "Portrait":
        text = text.strip()
        if ":" not in text:
            raise ParseError(f"portrait text needs 'N:t1,...,tN', got {text!r}")
        head, _, tail = text.partition(":")
        try:
            n = int(head)
        except ValueError as exc:
            raise ParseError(f"bad vertex count in {text!r}") from exc
        tail = tail.strip()
        if not tail:
            img: tuple[int, ...] = ()
        else:
            try:
                img = tuple(int(t) for t in tail.split(","))
            except ValueError as exc:
                raise ParseError(f"bad image entry in {text!r}") from exc
        try:
            return Portrait(n, img)
        except ValueError as exc:
            raise ParseError(str(exc)) from exc

    def to_text(self) -> str:
        return f"{self.n}:" + ",".join(str(t) for t in self.image)

    def successor(self, v: int) -> int:
        return self.image[v - 1]

    def __str__(self) -> str:
        return self.to_text()


EMPTY = Portrait(0, ())


@dataclass(frozen=True)
class CycleStructure:
    lengths: tuple[int, ...]

    def __post_init__(self):
        if any(l < 1 for l in self.lengths):
            raise ValueError("cycle lengths must be positive")
        if tuple(sorted(self.lengths, reverse=True)) != self.lengths:
            raise ValueError("cycle lengths must be nonincreasing")

    @staticmethod
    def of(lengths) -> "CycleStructure":
        return CycleStructure(tuple(sorted(lengths, reverse=True)))

    @staticmethod
    def parse(text: str) -> "CycleStructure":
        text = text.strip().strip("()")
        if not text:
            return CycleStructure(())
        try:
            return CycleStructure.of(int(t) for t in text.split(","))
        except ValueError as exc:
            raise ParseError(f"bad cycle structure {text!r}") from exc

    def count(self, length: int) -> int:
        return sum(1 for l in self.lengths if l == length)

    def admissible(self) -> bool:
        """At most D0(l) cycles of each length l, and never exactly one fixed point."""
        if self.count(1) == 1:
            return False
        return all(self.count(l) <= degree_d0(l) for l in set(self.lengths))

    def __str__(self) -> str:
        return "(" + ",".join(str(l) for l in self.lengths) + ")"


# ----------------------------------------------------------- basic structure


def indegrees(P: Portrait) -> list[int]:
    deg = [0] * P.n
    for t in P.image:
        deg[t - 1] += 1
    return deg


def preimages(P: Portrait) -> list[list[int]]:
    pre: list[list[int]] = [[] for _ in range(P.n)]
    for v in range(1, P.n + 1):
        pre[P.image[v - 1] - 1].append(v)
    return pre


def successor_cycles(succ: list[int]) -> list[list[int]]:
    """The cycles of v -> succ[v] on 0..len(succ)-1, each in successor
    order, discovered by smallest node.  Each walk stamps the nodes it
    meets with its start and stops at the first stamped node; a node
    stamped by the same walk lies on a new cycle."""
    walk = [-1] * len(succ)
    cycles = []
    for start in range(len(succ)):
        if walk[start] >= 0:
            continue
        v = start
        while walk[v] < 0:
            walk[v] = start
            v = succ[v]
        if walk[v] == start:
            cycle = [v]
            u = succ[v]
            while u != v:
                cycle.append(u)
                u = succ[u]
            cycles.append(cycle)
    return cycles


def find_cycles(P: Portrait) -> list[list[int]]:
    """All cycles of P's vertices, each listed in successor order; discovery
    order is by smallest vertex, so the output is deterministic."""
    return [[v + 1 for v in c] for c in successor_cycles([t - 1 for t in P.image])]


def cycle_structure(P: Portrait) -> CycleStructure:
    return CycleStructure.of(len(c) for c in find_cycles(P))


def vertex_depths(P: Portrait, cycles: list[list[int]] | None = None) -> list[int]:
    """Distance from each vertex to its cycle (0 on the cycle); depth[v] for
    v in 1..n.  cycles, when given, are P's find_cycles, so a caller that
    has them already does not find them twice."""
    depth = [-1] * (P.n + 1)
    for cyc in find_cycles(P) if cycles is None else cycles:
        for v in cyc:
            depth[v] = 0
    for start in range(1, P.n + 1):
        if depth[start] >= 0:
            continue
        chain = []
        v = start
        while depth[v] < 0:
            chain.append(v)
            v = P.successor(v)
        base = depth[v]
        for i, u in enumerate(reversed(chain), start=1):
            depth[u] = base + i
    return depth


def relabel(P: Portrait, perm: tuple[int, ...]) -> Portrait:
    """Apply a vertex relabeling; perm[i-1] is the new name of vertex i."""
    img = [0] * P.n
    for v in range(1, P.n + 1):
        img[perm[v - 1] - 1] = perm[P.image[v - 1] - 1]
    return Portrait(P.n, tuple(img))


# ------------------------------------------------------------------ validation


@dataclass(frozen=True)
class Violation:
    rule: str  # InDegree | CycleCount | FixedPointPair
    detail: str


@dataclass
class GenericityReport:
    is_generic: bool
    violations: list[Violation] = field(default_factory=list)


def validate_generic(P: Portrait) -> GenericityReport:
    """Check the three generic-quadratic rules; the empty portrait is generic."""
    violations = []
    for v, d in enumerate(indegrees(P), start=1):
        if d not in (0, 2):
            violations.append(Violation("InDegree", f"vertex {v} has in-degree {d}"))
    sigma = cycle_structure(P)
    for length in sorted(set(sigma.lengths)):
        cap = degree_d0(length)
        have = sigma.count(length)
        if have > cap:
            violations.append(
                Violation("CycleCount", f"{have} cycles of length {length}, max {cap}")
            )
    fixed = sigma.count(1)
    if fixed not in (0, 2):
        violations.append(Violation("FixedPointPair", f"{fixed} fixed points"))
    return GenericityReport(is_generic=not violations, violations=violations)


def is_generic(P: Portrait) -> bool:
    return validate_generic(P).is_generic


# -------------------------------------------------------------- canonical form


def _tree_children(P: Portrait, depth: list[int]) -> list[list[int]]:
    """children[v-1]: preimages of v off the cycles, in increasing order (the
    cycle predecessor is not part of the hanging tree)."""
    children: list[list[int]] = [[] for _ in range(P.n)]
    for u in range(1, P.n + 1):
        if depth[u] > 0:
            children[P.successor(u) - 1].append(u)
    return children


def _ahu_encode(P: Portrait, depths: list[int]) -> tuple[list, list[list[int]]]:
    """AHU encodings of the hanging trees; enc[v-1] is a nested tuple."""
    children = _tree_children(P, depths)
    enc: list = [None] * P.n
    order = sorted(range(1, P.n + 1), key=lambda v: -depths[v])
    for v in order:
        enc[v - 1] = tuple(sorted(enc[u - 1] for u in children[v - 1]))
    return enc, children


def _min_rotation(seq: list) -> tuple[int, tuple]:
    best_r, best = 0, tuple(seq)
    for r in range(1, len(seq)):
        rot = tuple(seq[r:] + seq[:r])
        if rot < best:
            best_r, best = r, rot
    return best_r, best


def canonical_form(P: Portrait) -> Portrait:
    """The canonical representative of the isomorphism class of P.

    Two portraits have equal canonical forms exactly when they are
    isomorphic, and canonical_form is idempotent.
    """
    if P.n == 0:
        return P
    cycles = find_cycles(P)
    enc, children = _ahu_encode(P, vertex_depths(P, cycles))
    comps = []
    for cyc in cycles:
        seq = [enc[v - 1] for v in cyc]
        r, best = _min_rotation(seq)
        rotated = cyc[r:] + cyc[:r]
        comps.append((-len(cyc), best, rotated))
    comps.sort(key=lambda t: (t[0], t[1]))

    label: dict[int, int] = {}

    def assign(v: int) -> None:
        label[v] = len(label) + 1
        for u in sorted(children[v - 1], key=lambda u: enc[u - 1]):
            assign(u)

    img = []
    for _, _, rotated in comps:
        for v in rotated:
            label[v] = len(label) + 1
        for v in rotated:
            for u in sorted(children[v - 1], key=lambda u: enc[u - 1]):
                assign(u)
    new_img = [0] * P.n
    for v in range(1, P.n + 1):
        new_img[label[v] - 1] = label[P.successor(v)]
    return Portrait(P.n, tuple(new_img))


def isomorphic(P: Portrait, Q: Portrait) -> bool:
    return canonical_form(P) == canonical_form(Q)


# ------------------------------------------------- embeddings and automorphisms


def map_search(P: Portrait):
    """The search for injective edge-preserving maps of P into a functional
    graph G, with P's cycles, depths and tree-vertex order computed once.

    Returns maps(cycles, preimages_of), a generator of every such map phi as
    a tuple, phi[v-1] the G-vertex of v, where G is given by its cycles, each
    in successor order, and preimages_of(y) lists the G-vertices with
    successor y.  Each P-cycle takes an unused G-cycle of the same length,
    with a rotation; then each tree vertex, by increasing depth, takes an
    unused preimage of its successor's image.  Injectivity is the only other
    constraint: a preimage already used, such as a cycle predecessor, is
    skipped.
    """
    p_cycles = find_cycles(P)
    depth = vertex_depths(P, p_cycles)
    tree = sorted((v for v in range(1, P.n + 1) if depth[v]), key=depth.__getitem__)
    image = P.image

    def maps(cycles: list[list[int]], preimages_of):
        phi = [0] * P.n
        used: set[int] = set()

        def place_trees(i: int):
            if i == len(tree):
                yield tuple(phi)
                return
            v = tree[i]
            for y in preimages_of(phi[image[v - 1] - 1]):
                if y not in used:
                    phi[v - 1] = y
                    used.add(y)
                    yield from place_trees(i + 1)
                    used.remove(y)

        def place_cycles(i: int):
            if i == len(p_cycles):
                yield from place_trees(0)
                return
            cyc = p_cycles[i]
            n = len(cyc)
            for g in cycles:
                if len(g) != n or g[0] in used:  # cycles are placed whole, before any tree
                    continue
                used.update(g)
                for r in range(n):
                    for off, v in enumerate(cyc):
                        phi[v - 1] = g[(r + off) % n]
                    yield from place_cycles(i + 1)
                used.difference_update(g)

        return place_cycles(0)

    return maps


def embeddings(P: Portrait, Q: Portrait) -> list[tuple[int, ...]]:
    """All injective edge-preserving vertex maps from P into Q, by map_search.

    Each result psi is a tuple with psi[i-1] the Q-vertex assigned to i.
    Distinct maps are counted separately.
    """
    if P.n > Q.n:
        return []
    if max(P.n, Q.n) > AUT_BUDGET:
        raise BudgetExceeded(f"embedding search limited to {AUT_BUDGET} vertices")
    pre = preimages(Q)
    return sorted(map_search(P)(find_cycles(Q), lambda y: pre[y - 1]))


def automorphism_group(P: Portrait) -> list[tuple[int, ...]]:
    """All graph automorphisms of P, as permutation tuples."""
    if P.n > AUT_BUDGET:
        raise BudgetExceeded(f"automorphism search limited to {AUT_BUDGET} vertices")
    return embeddings(P, P)


# ------------------------------------------------------------------ enumeration


def minimal_portrait(sigma: CycleStructure) -> Portrait:
    """The smallest generic portrait with the given cycle structure:
    the cycles plus exactly one extra preimage per cycle vertex."""
    if not sigma.admissible():
        raise InadmissibleCycleStructure(f"cycle structure {sigma} is not admissible")
    img: list[int] = []
    base = 0
    for length in sigma.lengths:
        for i in range(length):
            img.append(base + (i + 1) % length + 1)  # cycle edge c_i -> c_{i+1}
        for i in range(length):
            img.append(base + (i + 1) % length + 1)  # tail t_i -> c_{i+1}
        base += 2 * length
    # interleave: vertices were appended cycle-first then tails per component;
    # image values already refer to cycle vertices, so the layout is consistent.
    return canonical_form(Portrait(len(img), tuple(img)))


def attach_pair(P: Portrait, v: int) -> Portrait:
    """P with a new preimage pair pointing at vertex v (which had in-degree 0)."""
    img = list(P.image) + [v, v]
    return Portrait(P.n + 2, tuple(img))


def indegree_zero_vertices(P: Portrait) -> list[int]:
    return [v for v, d in enumerate(indegrees(P), start=1) if d == 0]


def enumerate_generic(n: int, sigma: CycleStructure) -> list[Portrait]:
    """All isomorphism classes of generic quadratic portraits with exactly n
    vertices and the given cycle structure, as canonical representatives.
    ValueError when n < 0."""
    if not sigma.admissible():
        raise InadmissibleCycleStructure(f"cycle structure {sigma} is not admissible")
    if n < 0:
        raise ValueError(f"vertex count must be >= 0, got {n}")
    if n % 2:
        raise InadmissibleCycleStructure("generic portraits have even vertex count")
    if n > ENUM_BUDGET:
        raise BudgetExceeded(f"enumeration limited to {ENUM_BUDGET} vertices")
    if n == 0:
        return [EMPTY] if not sigma.lengths else []
    base = minimal_portrait(sigma)
    if base.n > n:
        return []
    level = {base.image: base}
    size = base.n
    while size < n:
        nxt: dict[tuple[int, ...], Portrait] = {}
        for P in level.values():
            for v in indegree_zero_vertices(P):
                grown = canonical_form(attach_pair(P, v))
                nxt[grown.image] = grown
        level = nxt
        size += 2
    return [level[key] for key in sorted(level)]


def disjoint_union(P: Portrait, Q: Portrait) -> Portrait:
    img = list(P.image) + [t + P.n for t in Q.image]
    return Portrait(P.n + Q.n, tuple(img))


def minimal_extensions(P: Portrait, B: int) -> list[Portrait]:
    """All generic classes P' strictly containing P with no generic class
    strictly between, and no cycle longer than B.

    They are the candidates of the two growth moves, with no search:
    attach one preimage pair, or adjoin a block K, a new
    minimally-decorated cycle of length L <= B (a first fixed point brings
    its required twin along).  No generic Q lies strictly between P and a
    candidate:

    * an attached pair gives |P| + 2 vertices, and generic portraits have
      even size;
    * let P < Q < P + K.  An embedding sends components to distinct
      components with equal cycle lengths.  If Q has the cycles of P + K,
      the cycles that P's image misses need their own tails, so
      |Q| >= |P| + |K|.  Otherwise Q has P's cycles (one fixed point alone
      is not generic), so it misses K's component with its L-cycle (both
      fixed-point components when L = 1) and |Q| <= |P|.
    """
    if B < 1:
        raise ValueError("cycle bound B must be >= 1")
    report = validate_generic(P)
    if not report.is_generic:
        raise NotGeneric(f"portrait is not generic: {report.violations[0].detail}")
    if P.n + 2 * B > ENUM_BUDGET + 2 or B > 8:
        raise BudgetExceeded("minimal-extension search out of budget")

    sigma = cycle_structure(P)
    candidates: dict[tuple[int, ...], Portrait] = {}
    for v in indegree_zero_vertices(P):
        grown = canonical_form(attach_pair(P, v))
        candidates[grown.image] = grown
    for length in range(1, B + 1):
        if length == 1:
            if sigma.count(1) != 0:
                continue  # a generic portrait already has both fixed points or none
            block = minimal_portrait(CycleStructure.of([1, 1]))
        else:
            if sigma.count(length) + 1 > degree_d0(length):
                continue
            block = minimal_portrait(CycleStructure.of([length]))
        grown = canonical_form(disjoint_union(P, block))
        candidates[grown.image] = grown
    return sorted(candidates.values(), key=lambda p: (p.n, p.image))
