"""dynw benchmark: run one workload for a fixed time and print its metrics.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Every repetition runs in a fresh worker process (perfbench/worker.py), so
its memory peak and cache state belong to it alone.  Repetitions run one
after another until the next would end past --seconds; at least one runs.
End-to-end metrics are medians over the repetitions.  ``setup_s`` is the
median over at least SETUP_SAMPLES set-ups, topped up by set-up-only
workers.

With --trace 1 each repetition is an untraced worker followed by a traced
one, and the per-layer metrics of the traced workers are reported instead.
``trace.overhead_ratio`` is the traced ``run_s`` over the untraced one,
minus 1.

The last line of stdout is the result as one JSON object.  A full record
(machine, backend, seed, every sample) is written to .perfbench/runs/, and
with --trace 1 the spans of the last traced worker go to .perfbench/spans/.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench"
WORKER = HERE / "worker.py"
WORKLOADS = ("dynatomic-build", "preperiodic-build", "ff-count", "classify-sweep")
SETUP_SAMPLES = 7
WORKER_TIMEOUT_S = 160
END_TO_END = {"run_s": "s", "peak_rss_mb": "MiB", "setup_s": "s"}


class WorkerFailed(RuntimeError):
    pass


def spawn(workload: str, seed: int, mode: str, spans: Path | None = None) -> dict:
    """Run one worker to completion and return its record."""
    cmd = [sys.executable, str(WORKER), workload, str(seed), mode]
    if spans is not None:
        cmd.append(str(spans))
    started = time.perf_counter()
    proc = subprocess.run(
        cmd, cwd=ROOT, capture_output=True, text=True, timeout=WORKER_TIMEOUT_S
    )
    if proc.returncode != 0 or not proc.stdout.strip():
        raise WorkerFailed(
            f"worker {workload} {mode} exited with {proc.returncode}:\n{proc.stderr}"
        )
    record = json.loads(proc.stdout.strip().splitlines()[-1])
    record["wall_s"] = time.perf_counter() - started
    return record


def measure(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    """Repetitions until the next would end past the time budget."""
    modes = ("run", "trace") if trace else ("run",)
    spans = OUT / "spans" / f"{workload}-seed{seed}.tsv"
    if trace:
        spans.parent.mkdir(parents=True, exist_ok=True)
    samples = {mode: [] for mode in modes}
    start = time.perf_counter()
    while True:
        began = time.perf_counter()
        for mode in modes:
            samples[mode].append(spawn(workload, seed, mode, spans if mode == "trace" else None))
        per_rep = time.perf_counter() - began
        if time.perf_counter() - start + per_rep > seconds:
            break
    setups = [r for mode in modes for r in samples[mode]]
    while len(setups) < SETUP_SAMPLES:
        setups.append(spawn(workload, seed, "setup"))
    return {"samples": samples, "setups": setups}


def summarize(measured: dict, trace: bool) -> tuple[dict, dict]:
    """(result line, full record) from the worker records."""
    samples = measured["samples"]
    reps = [r for rs in samples.values() for r in rs]
    attempted = sum(r["attempted"] for r in reps)
    failed = sum(len(r["failed"]) for r in reps)
    untraced = samples["run"]
    values = {
        "run_s": statistics.median(r["run_s"] for r in untraced),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in untraced),
        "setup_s": statistics.median(r["setup_s"] for r in measured["setups"]),
    }
    if trace:
        traced = samples["trace"]
        names = traced[0]["layers"]
        # median_low keeps each layer figure one that a traced worker measured
        layers = {n: statistics.median_low(r["layers"][n] for r in traced) for n in names}
        layers["trace.run_s"] = statistics.median(r["run_s"] for r in traced)
        layers["trace.overhead_ratio"] = layers["trace.run_s"] / values["run_s"] - 1
        layers["gate.fail_ratio"] = failed / attempted
        metrics = {n: {"value": v, "unit": layer_unit(n)} for n, v in layers.items()}
    else:
        metrics = {n: {"value": values[n], "unit": u} for n, u in END_TO_END.items()}
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }
    record = {
        "env": reps[0]["env"],
        "end_to_end": values,
        "fail_ratio": failed / attempted,
        "failed_checks": sorted({k for r in reps for k in r["failed"]}),
        "samples": samples,
        "setup_samples": [r["setup_s"] for r in measured["setups"]],
    }
    return result, record


def layer_unit(name: str) -> str:
    stat = name.rsplit(".", 1)[-1]
    if stat.endswith("_s"):
        return "s"
    if stat.endswith("_ms"):
        return "ms"
    if stat.endswith("_mb"):
        return "MiB"
    if stat.endswith("ratio") or stat == "points_per_candidate":
        return "ratio"
    return "count"


def shares(layers: dict) -> list[tuple[str, float]]:
    """Self-time share of each traced function in the traced run_s."""
    total = layers["trace.run_s"]["value"]
    rows = [
        (n[: -len(".self_s")], m["value"] / total)
        for n, m in layers.items()
        if n.endswith(".self_s") and m["value"] > 0
    ]
    return sorted(rows, key=lambda row: -row[1])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if not (ROOT / "src" / "dynw" / "__init__.py").is_file():
        print(f"no dynw source tree under {ROOT / 'src'}", file=sys.stderr)
        return 1

    try:
        # the first import compiles the sources; keep that out of set-up time
        spawn(args.workload, args.seed, "setup")
        measured = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    except (WorkerFailed, subprocess.TimeoutExpired) as exc:
        print(exc, file=sys.stderr)
        return 1
    result, record = summarize(measured, bool(args.trace))
    record.update(workload=args.workload, seed=args.seed, seconds=args.seconds, trace=args.trace)

    runs = OUT / "runs"
    runs.mkdir(parents=True, exist_ok=True)
    stamp = time.strftime("%Y%m%dT%H%M%S")
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}-{stamp}-{time.perf_counter_ns()}.json"
    (runs / name).write_text(json.dumps(record, indent=1) + "\n")

    env = record["env"]
    print(f"# {args.workload} seed={args.seed} python={env['python']} nproc={env['nproc']} "
          f"gmpy2_fallback={env['gmpy2_fallback']} reps={len(measured['samples']['run'])}")
    if record["failed_checks"]:
        print(f"# failed checks: {', '.join(record['failed_checks'])}")
    if args.trace:
        for fn, share in shares(result["metrics"]):
            print(f"# self share {share:7.2%}  {fn}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
