"""Outside-in tracing: wrap each layer's public functions from the
benchmark's own files and record one span per call.

A span is (parent, name, start, end); spans stay in memory and are written
out when the traced run ends.  A wrapper is installed at every import site
of the wrapped function (``dynw.classify.canonical_form`` as well as
``dynw.portraits.canonical_form``), and ``restore`` puts every original
back.  Methods are wrapped on their class.

Per-call counts (output bytes, small operands, assignments tried, orbit
steps) are taken by hooks that run after the call returns.  A hook runs
inside a ``trace.hooks`` span, so its cost is not charged to the caller's
self time.
"""

from __future__ import annotations

import importlib
import statistics
import sys
from array import array
from collections import defaultdict
from time import perf_counter

from dynw._packed import cx_nnz

# _packed.cx_mul takes the slot-wise path when the smaller operand has at
# most this many nonzero x-slots (its _SLOTWISE_LIMIT); fixed here so that a
# change to the limit does not redefine the counter.
SMALL_OPERAND_SLOTS = 8
MIB = 1024 * 1024


def _cx_bytes(A) -> int:
    """Bytes of the coefficients of a cx form, from their bit sizes."""
    return sum((abs(c).bit_length() + 7) // 8 for slot in A if slot for c in slot)


def _hook_square(counts, args, kwargs, result):
    counts["out_bytes"] += _cx_bytes(result)


def _hook_mul(counts, args, kwargs, result):
    A, B = args[0], args[1]
    if min(cx_nnz(A), cx_nnz(B)) <= SMALL_OPERAND_SLOTS:
        counts["small_operand_calls"] += 1
    counts["out_bytes"] += _cx_bytes(result)


def _hook_solutions(counts, args, kwargs, result):
    model, ctx = args[0], args[1]
    outer = kwargs.get("outer_range", args[3] if len(args) > 3 else None)
    free = len(model.enumeration_variables())
    outer_size = (outer[1] - outer[0]) if outer else ctx.q
    counts["assignments"] += outer_size * ctx.q ** (free - 1)
    counts["solutions"] += len(result)


def _hook_orbit(counts, args, kwargs, result):
    # iterations of x -> x^2 + c: an escaping value is appended to the orbit,
    # a repeating one is not
    counts["steps"] += len(result.orbit) - 1 if result.escaped else len(result.orbit)


def _hook_classify(counts, args, kwargs, result):
    counts["points"] += result.point_count


def _hook_candidates(counts, args, kwargs, result):
    counts["candidates"] += len(result)


# (module, attribute path, metric prefix, drain a generator, count hook)
TARGETS = (
    ("dynw._packed", "cx_square", "packed.cx_square", False, _hook_square),
    ("dynw._packed", "cx_mul", "packed.cx_mul", False, _hook_mul),
    ("dynw._packed", "cx_divexact", "packed.cx_divexact", False, None),
    ("dynw._packed", "fc_iterate", "packed.fc_iterate", False, None),
    ("dynw.dynatomic", "dynatomic_cx", "dynatomic.dynatomic_cx", False, None),
    ("dynw.dynatomic", "dynatomic", "dynatomic.dynatomic", False, None),
    ("dynw.dynatomic", "product_identity_holds", "dynatomic.product_identity_holds", False, None),
    ("dynw.dynatomic", "generalized_dynatomic", "dynatomic.generalized_dynatomic", False, None),
    ("dynw.models", "full_model", "models.full_model", False, None),
    ("dynw.models", "reduced_model", "models.reduced_model", False, None),
    ("dynw.models", "multi_level_model", "models.multi_level_model", False, None),
    ("dynw.models", "plane_model", "models.plane_model", False, None),
    ("dynw.fflab", "iter_solutions", "fflab.iter_solutions", True, _hook_solutions),
    ("dynw.fflab", "count_points", "fflab.count_points", False, None),
    ("dynw.fflab", "max_period_mod", "fflab.max_period_mod", False, None),
    ("dynw.multipoly", "MultiPoly.evaluate", "multipoly.MultiPoly.evaluate", False, None),
    ("dynw.ff", "FFContext.__init__", "ff.FFContext", False, None),
    ("dynw.classify", "classify", "classify.classify", False, _hook_classify),
    ("dynw.classify", "orbit", "classify.orbit", False, _hook_orbit),
    ("dynw.classify", "preperiodic_candidates", "classify.preperiodic_candidates", False, _hook_candidates),
    ("dynw.classify", "write_records_csv", "classify.write_records_csv", False, None),
    ("dynw.classify", "sweep", "classify.sweep", False, None),
    ("dynw.portraits", "canonical_form", "portraits.canonical_form", False, None),
    ("dynw.portraits", "validate_generic", "portraits.validate_generic", False, None),
    ("dynw.catalog", "match", "catalog.match", False, None),
)

HOOKS = "trace.hooks"


class Tracer:
    """Span recorder; ``install`` wraps the targets, ``restore`` unwraps.

    Spans are kept in flat arrays, which the cyclic garbage collector does
    not track, so hundreds of thousands of them do not slow the program.
    """

    def __init__(self, targets=TARGETS):
        self.targets = targets
        self.names: list[str] = []
        self.parent = array("l")
        self.name = array("l")
        self.start = array("d")
        self.end = array("d")
        self.counts: dict = defaultdict(lambda: defaultdict(int))
        self._stack: list[int] = []
        self._patches: list = []  # (owner, attribute, original)

    @property
    def spans(self) -> list[tuple[int, str, float, float]]:
        """(parent, name, start, end) of every span, in opening order."""
        names = self.names
        return [
            (p, names[n], s, e)
            for p, n, s, e in zip(self.parent, self.name, self.start, self.end)
        ]

    # ------------------------------------------------------------ recording

    def wrap(self, fn, name: str, drain: bool = False, hook=None):
        counts = self.counts[name]
        code = self._code(name)
        hooks = self._code(HOOKS)
        parents, codes, starts, ends, stack = (
            self.parent, self.name, self.start, self.end, self._stack
        )

        def open_span(code: int) -> int:
            sid = len(starts)
            parents.append(stack[-1] if stack else -1)
            codes.append(code)
            ends.append(0.0)
            stack.append(sid)
            starts.append(perf_counter())
            return sid

        def close_span(sid: int) -> None:
            ends[sid] = perf_counter()
            stack.pop()

        def traced(*args, **kwargs):
            sid = open_span(code)
            try:
                result = fn(*args, **kwargs)
                if drain:
                    result = list(result)
            finally:
                close_span(sid)
            counts["calls"] += 1
            if hook is not None:
                hid = open_span(hooks)
                try:
                    hook(counts, args, kwargs, result)
                finally:
                    close_span(hid)
            return iter(result) if drain else result

        traced.__wrapped__ = fn
        return traced

    def _code(self, name: str) -> int:
        if name not in self.names:
            self.names.append(name)
        return self.names.index(name)

    # --------------------------------------------------------- installation

    def install(self) -> None:
        for module_name, path, name, drain, hook in self.targets:
            owner = importlib.import_module(module_name)
            *outer, attr = path.split(".")
            for part in outer:
                owner = getattr(owner, part)
            original = owner.__dict__[attr]
            wrapper = self.wrap(original, name, drain, hook)
            sites = [owner]
            if not outer:  # a module-level function: every module that imported it
                sites = [
                    m for key, m in list(sys.modules.items())
                    if (key == "dynw" or key.startswith("dynw.")) and m is not None
                ]
            for site in sites:
                for key, value in list(vars(site).items()):
                    if value is original:
                        self._patches.append((site, key, original))
                        setattr(site, key, wrapper)

    def restore(self) -> None:
        while self._patches:
            site, key, original = self._patches.pop()
            setattr(site, key, original)

    # ------------------------------------------------------------- analysis

    def write(self, path) -> None:
        """Write the spans as tab-separated lines: id, parent, name, and start
        and end in microseconds from the first span's start."""
        origin = self.start[0] if self.start else 0.0
        with open(path, "w") as out:
            out.write("id\tparent\tname\tstart_us\tend_us\n")
            for sid, (parent, name, start, end) in enumerate(self.spans):
                out.write(
                    f"{sid}\t{parent}\t{name}\t"
                    f"{(start - origin) * 1e6:.3f}\t{(end - origin) * 1e6:.3f}\n"
                )

    def metrics(self) -> dict:
        """Per-layer metrics from the spans and counts of one traced run."""
        spans = self.spans
        selfs = self_times(spans)
        classify_ms = []
        verify = 0.0
        for parent, name, start, end in spans:
            if name == "classify.classify":
                classify_ms.append((end - start) * 1000)
            elif name == "packed.cx_mul" and parent >= 0 and spans[parent][1] == "packed.cx_divexact":
                verify += end - start
        c = self.counts
        out = {}
        for _, _, name, _, _ in self.targets:
            out[f"{name}.calls"] = c[name]["calls"]
            out[f"{name}.self_s"] = selfs.get(name, 0.0)
        out["packed.cx_square.out_mb"] = c["packed.cx_square"]["out_bytes"] / MIB
        out["packed.cx_mul.out_mb"] = c["packed.cx_mul"]["out_bytes"] / MIB
        out["packed.cx_mul.small_operand_calls"] = c["packed.cx_mul"]["small_operand_calls"]
        out["packed.cx_divexact.verify_s"] = verify
        sol = c["fflab.iter_solutions"]
        out["fflab.iter_solutions.assignments"] = sol["assignments"]
        out["fflab.iter_solutions.solutions"] = sol["solutions"]
        out["fflab.iter_solutions.yield_ratio"] = (
            sol["solutions"] / sol["assignments"] if sol["assignments"] else 0.0
        )
        p50 = p99 = 0.0
        if len(classify_ms) >= 2:
            pct = statistics.quantiles(classify_ms, n=100)
            p50, p99 = pct[49], pct[98]
        out["classify.classify.p50_ms"] = p50
        out["classify.classify.p99_ms"] = p99
        out["classify.orbit.steps"] = c["classify.orbit"]["steps"]
        candidates = c["classify.preperiodic_candidates"]["candidates"]
        out["classify.points_per_candidate"] = (
            c["classify.classify"]["points"] / candidates if candidates else 0.0
        )
        out[f"{HOOKS}.self_s"] = selfs.get(HOOKS, 0.0)
        return out


def self_times(spans) -> dict:
    """Total self time per span name: each span's duration minus the
    durations of its direct children.  Children of one span never overlap,
    because calls on one thread nest."""
    covered = [0.0] * len(spans)
    for parent, _, start, end in spans:
        if parent >= 0:
            covered[parent] += end - start
    totals: dict = defaultdict(float)
    for sid, (_, name, start, end) in enumerate(spans):
        totals[name] += (end - start) - covered[sid]
    return dict(totals)
