"""Check that the traced run's exact counts repeat: two traced runs, same seed.

Usage, from the root of a checkout:

    python3 perfbench/selfcheck.py --workload heavy --seed 1

Compares every count-valued per-layer metric (calls, cells, multiplies,
growth, misses, entries) and the hit ratios of two `run.py --trace 1` runs,
prints any that differ, and exits 1 if one does.  A later change can rest a
claim on a count only when this passes for the workload concerned.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

RUN = Path(__file__).resolve().parent / "run.py"


def traced_counts(workload: str, seed: int) -> dict:
    out = subprocess.run(
        [sys.executable, str(RUN), "--workload", workload, "--seed", str(seed),
         "--seconds", "1", "--trace", "1"],
        capture_output=True, text=True, check=True,
    )
    metrics = json.loads(out.stdout.splitlines()[-1])["metrics"]
    return {name: m["value"] for name, m in metrics.items() if m["unit"] in ("count", "ratio")
            and not name.startswith("trace.")}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args()
    first = traced_counts(args.workload, args.seed)
    second = traced_counts(args.workload, args.seed)
    differ = sorted(k for k in first.keys() | second.keys() if first.get(k) != second.get(k))
    for name in differ:
        print(f"{name}: {first.get(name)} != {second.get(name)}")
    print(f"{args.workload}: {len(first) - len(differ)} of {len(first)} counts repeat exactly")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
