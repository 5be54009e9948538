"""Self-tests of the benchmark: the result gate, self-time arithmetic, the
tracer's install/restore, and the refusal to run without a source tree.

Run from the root of a checkout: python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import tracer  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402

FAST_FF_KEYS = ("full:4(1,1):F_7", "full:6(3):F_7", "max-period:F_343")


def run_worker(capsys, *argv) -> dict:
    assert worker.main(list(argv)) == 0
    return json.loads(capsys.readouterr().out.strip().splitlines()[-1])


def test_gate_passes_recorded_values_and_trips_on_a_corrupted_one():
    expected = workloads.load_references()["ff-count"]
    jobs = [job for job in workloads.setup_ff(0)[0] if job[0] in FAST_FF_KEYS]
    keys = [job[0] for job in jobs]
    observed = workloads.run_ff(jobs)
    assert workloads.gate(observed, expected, keys) == []

    corrupted = dict(expected)
    affine, *rest = corrupted["full:6(3):F_7"]
    corrupted["full:6(3):F_7"] = [affine + 1, *rest]
    assert workloads.gate(observed, corrupted, keys) == ["full:6(3):F_7"]
    assert workloads.gate({}, expected, keys) == keys


@pytest.fixture
def tiny_preperiodic(monkeypatch):
    """preperiodic-build cut down to its cheapest orbit type, (6, 2)."""
    monkeypatch.setattr(workloads, "ORBIT_TYPES", ((6, 2),))


def test_corrupted_reference_is_a_failed_check_not_a_crash(capsys, monkeypatch, tiny_preperiodic):
    references = workloads.load_references()
    references["preperiodic-build"]["reduced:6,2"] = "0" * 64
    monkeypatch.setattr(workloads, "load_references", lambda: references)
    record = run_worker(capsys, "preperiodic-build", "0", "run")
    assert record["attempted"] == 2
    assert record["failed"] == ["reduced:6,2"]


def test_library_error_fails_every_check(capsys, monkeypatch, tiny_preperiodic):
    def broken(P, config=None):
        raise ArithmeticError("injected")

    monkeypatch.setattr(workloads.models, "reduced_model", broken)
    record = run_worker(capsys, "preperiodic-build", "0", "run")
    assert record["failed"] == ["orbit-type:6,2", "reduced:6,2"]


def test_self_time_on_a_nested_span_tree():
    # a(0..10) holds b(1..4), which holds c(2..3), and c(5..9); b(11..12) is a root
    spans = [
        (-1, "a", 0.0, 10.0),
        (0, "b", 1.0, 4.0),
        (1, "c", 2.0, 3.0),
        (0, "c", 5.0, 9.0),
        (-1, "b", 11.0, 12.0),
    ]
    assert tracer.self_times(spans) == {"a": 3.0, "b": 3.0, "c": 5.0}


def _dynw_attributes() -> dict:
    from dynw import ff, multipoly

    out = {}
    for name, module in sys.modules.items():
        if name == "dynw" or name.startswith("dynw."):
            out.update({(name, k): v for k, v in vars(module).items()})
    for cls in (multipoly.MultiPoly, ff.FFContext):
        out.update({(cls.__name__, k): v for k, v in vars(cls).items()})
    return out


def test_wrappers_cover_every_import_site_and_are_removed(capsys, tmp_path, tiny_preperiodic):
    from dynw import catalog, classify, dynatomic, models, portraits

    before = _dynw_attributes()
    t = tracer.Tracer()
    t.install()
    try:
        for site in (classify.canonical_form, portraits.canonical_form, catalog.canonical_form,
                     models.dynatomic, dynatomic.dynatomic, models.validate_generic):
            assert hasattr(site, "__wrapped__")
        dynatomic.clear_caches()
        dynatomic.dynatomic(3)
    finally:
        t.restore()
    assert _dynw_attributes() == before
    assert t.counts["packed.cx_square"]["calls"] == 3
    parents = {name: parent for parent, name, _, _ in t.spans}
    assert t.spans[parents["packed.cx_square"]][1] == "packed.fc_iterate"

    record = run_worker(capsys, "preperiodic-build", "0", "trace", str(tmp_path / "spans.tsv"))
    assert _dynw_attributes() == before
    assert record["failed"] == []
    assert record["layers"]["models.reduced_model.calls"] == 1
    assert record["layers"]["fflab.iter_solutions.calls"] == 0
    assert (tmp_path / "spans.tsv").read_text().startswith("id\tparent\tname")


def test_run_refuses_a_directory_without_the_source_tree(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "ff-count",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
    assert not (tmp_path / ".perfbench").exists()
