"""The four benchmark workloads: inputs from a seed, the timed computation,
and the result gate that checks it against recorded exact values.

Every workload runs serially with the library's default configuration
(`RunConfig()`, one job).  A workload is three functions:

* ``setup(seed) -> (inputs, keys)`` builds the inputs before timing starts
  and names the checks the run must pass;
* ``run(inputs) -> observed`` is the timed computation; it returns a dict
  from check key to a JSON value;
* ``reference_inputs()`` returns inputs covering every check key any seed
  can produce, for recording the references.
"""

from __future__ import annotations

import hashlib
import io
import json
import random
from pathlib import Path
from typing import Callable, NamedTuple

from dynw import catalog, classify, dynatomic, fflab, models
from dynw.ff import FFContext

REFERENCES = Path(__file__).with_name("references.json")


class Workload(NamedTuple):
    setup: Callable
    run: Callable
    reference_inputs: Callable


# ------------------------------------------------------------------ digests


def poly_digest(poly) -> str:
    """sha256 of a polynomial's variables and sorted exact terms."""
    h = hashlib.sha256(repr(poly.variables).encode())
    for exps, coef in sorted(poly.terms.items()):
        h.update(f"{exps}:{coef.numerator}/{coef.denominator};".encode())
    return h.hexdigest()


def model_digest(model) -> str:
    """sha256 of a model's variables, equations and inequations."""
    h = hashlib.sha256(repr(model.variables).encode())
    for group in (model.equations, model.inequations):
        h.update(b"|")
        for poly in group:
            h.update(poly_digest(poly).encode())
    return h.hexdigest()


# ----------------------------------------------------------- dynatomic-build

DYNATOMIC_LEVELS = tuple(range(1, 10))


def setup_dynatomic(seed: int):
    dynatomic.clear_caches()
    levels = DYNATOMIC_LEVELS
    keys = [f"identity:{n}" for n in levels] + [f"degrees:{n}" for n in levels]
    return levels, keys + [f"digest:{levels[-1]}"]


def run_dynatomic(levels) -> dict:
    observed = {}
    for n in levels:
        observed[f"identity:{n}"] = dynatomic.product_identity_holds(n)
        table = dynatomic.dynatomic(n)
        observed[f"degrees:{n}"] = [table.degree_x, 2 * table.degree_c]
    observed[f"digest:{levels[-1]}"] = poly_digest(table.phi)
    return observed


# --------------------------------------------------------- preperiodic-build

# (preperiod m, period n) of the single generator; (8, 2) takes 36 s and
# m + n = 9 takes 80 s, so they are left out.
ORBIT_TYPES = ((2, 6), (3, 5), (4, 4), (5, 3), (6, 2), (7, 2))


def _chain(depth: int) -> tuple:
    """Tree shorthand for a chain of preimage pairs of the given depth."""
    tree: tuple = ()
    for _ in range(depth - 1):
        tree = (tree, ())
    return tree


def setup_preperiodic(seed: int):
    dynatomic.clear_caches()
    portraits = [
        (m, n, catalog.build_portrait([(n, [_chain(m)] + [()] * (n - 1))]))
        for m, n in ORBIT_TYPES
    ]
    keys = [f"{kind}:{m},{n}" for m, n in ORBIT_TYPES for kind in ("orbit-type", "reduced")]
    return portraits, keys


def run_preperiodic(portraits) -> dict:
    observed = {}
    for m, n, P in portraits:
        model = models.reduced_model(P)
        observed[f"orbit-type:{m},{n}"] = sorted(model.meta["orbit_types"].values())
        observed[f"reduced:{m},{n}"] = model_digest(model)
    return observed


# ------------------------------------------------------------------ ff-count

# Extension fields for max_period_mod whose counts cost the same to within
# a few percent; the default seed uses the first.
MAX_PERIOD_BAND = ((7, 3), (19, 2))


def _ff_jobs(max_period_field) -> list:
    """(key, kind, argument, p, k) for every count the workload makes."""
    jobs = [
        (f"full:{e.label}:F_7", "full", e.portrait, 7, 1)
        for e in catalog.generic_entries()
        if 0 < e.portrait.n <= 12
    ]
    jobs.append(("multilevel:3,3:F_13", "multilevel", (3, 3), 13, 1))
    jobs.append(("plane:3:F_49", "plane", 3, 7, 2))
    jobs.append(("plane:4:F_25", "plane", 4, 5, 2))
    p, k = max_period_field
    jobs.append((f"max-period:F_{p ** k}", "max-period", None, p, k))
    return jobs


def setup_ff(seed: int):
    """Seed 0 gives the default inputs in their default order; any other
    seed draws the max-period field from the band and shuffles the jobs,
    which are independent."""
    if seed == 0:
        jobs = _ff_jobs(MAX_PERIOD_BAND[0])
    else:
        rng = random.Random(seed)
        jobs = _ff_jobs(rng.choice(MAX_PERIOD_BAND))
        rng.shuffle(jobs)
    return jobs, [job[0] for job in jobs]


_MODEL_BUILDERS = {
    "full": models.full_model,
    "multilevel": models.multi_level_model,
    "plane": models.plane_model,
}


def run_ff(jobs) -> dict:
    observed = {}
    for key, kind, arg, p, k in jobs:
        if kind == "max-period":
            report = fflab.max_period_mod(FFContext(p, k))
            observed[key] = [report.max_period, list(report.witness_c.coeffs)]
        else:
            r = fflab.count_points(_MODEL_BUILDERS[kind](arg), p, k)
            observed[key] = [r.affine_count, r.nonsingular_count, r.cross_count, r.violations]
    return observed


def reference_ff():
    jobs = _ff_jobs(MAX_PERIOD_BAND[0])
    jobs += [job for field in MAX_PERIOD_BAND[1:] for job in _ff_jobs(field)[-1:]]
    return jobs


# ------------------------------------------------------------ classify-sweep

SWEEP_HEIGHT = 200


def setup_sweep(seed: int):
    return SWEEP_HEIGHT, ["records", "csv-sha256", "tally", "anomalies"]


def run_sweep(height: int) -> dict:
    out = io.StringIO()
    summary = classify.sweep(height, out=out)
    return {
        "records": len(summary.records),
        "csv-sha256": hashlib.sha256(out.getvalue().encode()).hexdigest(),
        "tally": summary.tally,
        "anomalies": [r.portrait.to_text() for r in summary.anomalies],
    }


WORKLOADS = {
    "dynatomic-build": Workload(
        setup_dynatomic, run_dynatomic, lambda: setup_dynatomic(0)[0]
    ),
    "preperiodic-build": Workload(
        setup_preperiodic, run_preperiodic, lambda: setup_preperiodic(0)[0]
    ),
    "ff-count": Workload(setup_ff, run_ff, reference_ff),
    "classify-sweep": Workload(setup_sweep, run_sweep, lambda: setup_sweep(0)[0]),
}


# ---------------------------------------------------------------- the gate


def load_references() -> dict:
    return json.loads(REFERENCES.read_text())


def gate(observed: dict, expected: dict, keys) -> list[str]:
    """Keys whose observed value is missing or differs from the reference.

    Values are compared after a JSON round trip, so tuples and lists, or
    int and str dict keys, compare the way they were recorded.
    """
    observed = json.loads(json.dumps(observed))
    return [
        key
        for key in keys
        if key not in observed or key not in expected or observed[key] != expected[key]
    ]
