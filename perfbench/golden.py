"""
Regenerate golden.json, the digests of the level-laws records and of the
exact-series records and CLI outputs:

    python3 perfbench/golden.py

Run it only on a commit whose outputs are known good; every later run of
the benchmark compares against these digests.
"""
from __future__ import annotations

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import workloads  # noqa: E402


def main() -> int:
    digests = {}
    for workload in ("level-laws", "exact-series"):
        result = workloads.run_pass(workload, seed=0)
        if result.failed:
            print(f"error: {workload} failed checks: {result.failures}", file=sys.stderr)
            return 1
        digests.update(result.digests)
    workloads.GOLDEN_PATH.write_text(json.dumps(digests, indent=2, sort_keys=True) + "\n")
    print(json.dumps(digests, indent=2, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
