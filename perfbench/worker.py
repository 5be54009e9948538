"""One cold repetition of one workload, in a fresh process.

Usage: python3 perfbench/worker.py WORKLOAD SEED MODE [SPANS_PATH]

MODE is ``setup`` (set up and stop), ``run`` (set up, then the timed
region) or ``trace`` (the same with the tracer installed around the timed
region; spans go to SPANS_PATH).  Prints one JSON record on stdout.

The set-up time runs from before ``import dynw`` to the end of input
building.  The timed region runs from the first library call to the end of
the result gate, so ``run_s`` is the time to a verified result.
"""

from __future__ import annotations

import json
import os
import platform
import resource
import sys
import traceback
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
SOURCE = ROOT / "src"


def main(argv: list[str]) -> int:
    workload_name, seed, mode = argv[0], int(argv[1]), argv[2]
    sys.path.insert(0, str(SOURCE))

    t0 = perf_counter()
    import dynw
    import workloads

    workload = workloads.WORKLOADS[workload_name]
    inputs, keys = workload.setup(seed)
    setup_s = perf_counter() - t0

    if Path(dynw.__file__).resolve().parent != SOURCE / "dynw":
        print(f"dynw imported from {dynw.__file__}, not from {SOURCE}", file=sys.stderr)
        return 2
    from dynw import _packed

    record = {
        "setup_s": setup_s,
        "env": {
            "python": platform.python_version(),
            "implementation": platform.python_implementation(),
            "machine": platform.machine(),
            "nproc": os.cpu_count(),
            "gmpy2_fallback": _packed.mpz is int,
        },
    }
    if mode == "setup":
        print(json.dumps(record))
        return 0

    expected = workloads.load_references()[workload_name]
    tracer = None
    if mode == "trace":
        import tracer as tracing

        tracer = tracing.Tracer()
        tracer.install()
    start = perf_counter()
    try:
        observed = workload.run(inputs)
    except Exception:  # a failed library call fails its checks, not the run
        traceback.print_exc()
        observed = {}
    finally:
        if tracer is not None:
            tracer.restore()
    failed = workloads.gate(observed, expected, keys)
    record["run_s"] = perf_counter() - start
    record["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    record["attempted"] = len(keys)
    record["failed"] = failed
    if tracer is not None:
        record["layers"] = tracer.metrics()
        tracer.write(argv[3])
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
