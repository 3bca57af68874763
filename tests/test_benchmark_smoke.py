"""Each benchmark workload runs briefly against this checkout and checks out.

perfbench/worker.py imports bernint from ./src and calls names the library
tests do not otherwise pin down (for example `active_backend` and the `cache`
argument of the verification suites), so a short timed run per workload
catches a change that would break the benchmark.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = [w["name"] for w in json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_workload_runs_without_failures(workload):
    proc = subprocess.run(
        [sys.executable, "perfbench/worker.py", "--workload", workload, "--seed", "1",
         "--mode", "timed", "--seconds", "0.2"],
        cwd=ROOT, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["attempted"] > 0
    assert result["failed"] == 0, proc.stderr
