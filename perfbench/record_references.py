"""Record the exact reference values the result gate checks.

Usage (from the root of a checkout): python3 perfbench/record_references.py

Runs every workload once on inputs that cover every check key any seed can
produce, and writes perfbench/references.json.  Run it only on code whose
results are trusted; the references were recorded from the code the
benchmark was defined on.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import workloads  # noqa: E402


def main() -> int:
    references = {}
    for name, workload in workloads.WORKLOADS.items():
        workload.setup(0)  # resets the construction caches
        observed = workload.run(workload.reference_inputs())
        references[name] = json.loads(json.dumps(observed))
        print(f"{name}: {len(observed)} values", file=sys.stderr)
    workloads.REFERENCES.write_text(json.dumps(references, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
