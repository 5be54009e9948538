"""Compare two sets of benchmark runs, metric by metric and workload by workload.

Usage (from the root of a checkout):

    python3 perfbench/compare.py BASE_DIR CHANGE_DIR

Each directory holds run records written by perfbench/run.py (the files of
.perfbench/runs/).  Untraced records are grouped by workload; for each
end-to-end metric the medians and quartiles of both sides are printed with
the change relative to the base median and the metric's bound from
BENCHMARK.json.  A metric whose base spread (quartile distance over median)
is wider than its bound is reported as unresolved.

Results from different backends are not compared: the gmpy2 engine and its
plain-int fallback differ by large factors, and so can two interpreters.
Exit code 0 when nothing regressed, 1 when some metric is worse by more
than its bound, 2 when the comparison is refused.
"""

from __future__ import annotations

import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BACKEND_KEYS = ("implementation", "python", "gmpy2_fallback")


def load(directory: Path) -> tuple[dict, set]:
    """{workload: [end-to-end values]} of the untraced runs, and their backends."""
    runs = defaultdict(list)
    backends = set()
    for path in sorted(directory.glob("*.json")):
        record = json.loads(path.read_text())
        if record.get("trace"):
            continue
        runs[record["workload"]].append(record["end_to_end"])
        backends.add(tuple(record["env"][k] for k in BACKEND_KEYS))
    return dict(runs), backends


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    base, base_backends = load(Path(argv[0]))
    change, change_backends = load(Path(argv[1]))
    if not base or not change:
        print("no untraced run records on one side", file=sys.stderr)
        return 2
    backends = base_backends | change_backends
    if len(backends) != 1:
        named = [dict(zip(BACKEND_KEYS, b)) for b in sorted(backends, key=str)]
        print(f"refusing to compare results from different backends: {named}", file=sys.stderr)
        return 2

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    regressed = False
    print(f"{'workload':18} {'metric':12} {'base median [q1, q3]':>30} "
          f"{'change median [q1, q3]':>30} {'change':>8} {'bound':>6}  verdict")
    for workload in sorted(set(base) & set(change)):
        for metric in spec["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            b1, b2, b3 = quartiles([r[name] for r in base[workload]])
            c1, c2, c3 = quartiles([r[name] for r in change[workload]])
            delta = (c2 - b2) / b2
            worse = -delta if metric["better"] == "higher" else delta
            if (b3 - b1) / b2 > bound:
                verdict = "unresolved"
            elif worse > bound:
                verdict = "WORSE"
                regressed = True
            else:
                verdict = "ok"
            print(f"{workload:18} {name:12} {b2:12.4f} [{b1:.4f}, {b3:.4f}] "
                  f"{c2:12.4f} [{c1:.4f}, {c3:.4f}] {delta:+8.1%} {bound:6.2f}  {verdict}")
    return 1 if regressed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
