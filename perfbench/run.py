"""bernint benchmark: end-to-end metrics per workload, or per-layer metrics traced.

Usage, from the root of a checkout (the directory holding src/bernint):

    python3 perfbench/run.py --workload {sweep,heavy,bigk,cli} --seed N \\
        --seconds S --trace {0,1}

--trace 0 measures the end-to-end metrics with tracing off:
  evals_per_s      evaluations completed per second of the timed phase
  latency_p50_ms   median time per request
  latency_tail_ms  a fixed high percentile per workload (named in the record)
  setup_s          launch of a workload process until its inputs are ready,
                   median over several launches
  peak_rss_mib     peak RSS of the workload process (of its CLI children for cli)
--trace 1 runs the workload's fixed traced-run request count twice, each in a
fresh process: untraced, then with every layer boundary wrapped in spans.  It
reports per-layer counts and self times, and the tracing overhead.

Each workload process is a fresh interpreter (perfbench/worker.py), because
every cache in bernint is process-global.  The last line on stdout is the
result {"correct", "attempted", "failed", "metrics"}; the line before it is a
record of the environment, inputs and sample counts, also written with the
spans to .perfbench_out/ in the checkout.  failed/attempted is the share of
evaluations that raised or disagreed with the reference.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
WORKER = HERE / "worker.py"
OUT_DIR = ".perfbench_out"
# set-up-only launches, half before and half after the measuring launch, so
# the median spans the run's changes in machine speed; the measuring launch
# adds one more sample
SETUP_LAUNCHES = 8
WORKER_TIMEOUT_S = 170
WORKLOADS = ("sweep", "heavy", "bigk", "cli")  # defined in workloads.py


def launch(args, mode: str, trace: int = 0, spans: str | None = None) -> tuple[float, dict | None]:
    """Run one worker; return (seconds from launch to "ready", its result or None)."""
    cmd = [sys.executable, str(WORKER), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--mode", mode, "--trace", str(trace)]
    if spans:
        cmd += ["--spans", spans]
    start = time.perf_counter()
    with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True) as proc:
        try:
            ready = proc.stdout.readline()
            setup = time.perf_counter() - start
            rest, _ = proc.communicate(timeout=WORKER_TIMEOUT_S)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
    if ready.strip() != "ready" or proc.returncode != 0:
        raise RuntimeError(f"worker {mode} run failed (exit {proc.returncode})")
    return setup, (json.loads(rest.splitlines()[-1]) if mode != "setup" else None)


def percentile(samples: list[float], p: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(samples)
    return ordered[max(math.ceil(p / 100 * len(ordered)) - 1, 0)]


def end_to_end(args) -> tuple[dict, dict]:
    setups = [launch(args, "setup")[0] for _ in range(SETUP_LAUNCHES // 2)]
    setup, res = launch(args, "timed")
    setups.append(setup)
    setups += [launch(args, "setup")[0] for _ in range(SETUP_LAUNCHES - SETUP_LAUNCHES // 2)]
    lat = res["latencies_s"]
    p = res["tail_percentile"]
    metrics = {
        "evals_per_s": (res["evaluations"] / res["elapsed_s"], "1/s"),
        "latency_p50_ms": (statistics.median(lat) * 1e3, "ms"),
        "latency_tail_ms": (percentile(lat, p) * 1e3, "ms"),
        "setup_s": (statistics.median(setups), "s"),
        "peak_rss_mib": (res["peak_rss_kib"] / 1024, "MiB"),
    }
    record = {
        "latency_tail": {"percentile": p, "samples": len(lat),
                         "beyond": len(lat) - math.ceil(p / 100 * len(lat))},
        "setup_samples_s": setups,
        "peak_rss_after_requests": res["rss_after_requests"],
    }
    return metrics, {**res_summary(res), **record}


def res_summary(res: dict) -> dict:
    keys = ("requests", "evaluations", "attempted", "failed", "elapsed_s",
            "inputs_digest", "inputs", "backend", "python")
    return {k: res[k] for k in keys}


def _calls(name):
    return lambda L: L["calls"].get(name, 0), "count"


def _self(name):
    return lambda L: L["self_s"].get(name, 0.0), "s"


def _counter(name):
    return lambda L: L["counters"].get(name, 0), "count"


def _hit_ratio(layer):
    def value(L):
        hits = L["counters"].get(f"{layer}.hits", 0)
        total = hits + L["counters"].get(f"{layer}.misses", 0)
        return hits / total if total else 0.0
    return value, "ratio"


# per-layer metric -> (value from the merged trace, unit); the layer
# whose boundary a metric needs is the name up to its last dot
PER_LAYER = {
    "kernels.closed_form_sum.calls": _calls("kernels.closed_form_sum"),
    "kernels.closed_form_sum.self_s": _self("kernels.closed_form_sum"),
    "kernels.closed_form_sum.cells": _counter("kernels.closed_form_sum.cells"),
    "kernels.convolve.calls": _calls("kernels.convolve"),
    "kernels.convolve.self_s": _self("kernels.convolve"),
    "kernels.convolve.mults": _counter("kernels.convolve.mults"),
    "integrals.oracle_build.calls": _calls("integrals.oracle_build"),
    "integrals.oracle_build.self_s": _self("integrals.oracle_build"),
    "integrals.oracle_build.misses": _counter("integrals.oracle_build.misses"),
    "integrals.oracle_build.hit_ratio": _hit_ratio("integrals.oracle_build"),
    "bernoulli.poly_eval.calls": _calls("bernoulli.poly_eval"),
    "bernoulli.poly_eval.self_s": _self("bernoulli.poly_eval"),
    "integrals.tables.calls": _calls("integrals.tables"),
    "integrals.tables.self_s": _self("integrals.tables"),
    "integrals.tables.misses": _counter("integrals.tables.misses"),
    "integrals.tables.hit_ratio": _hit_ratio("integrals.tables"),
    "integrals.tables.entries": _counter("integrals.tables.entries"),
    "bernoulli.number.calls": _counter("bernoulli.number.calls"),
    "bernoulli.number.grown": _counter("bernoulli.number.grown"),
    "bernoulli.number.grow_s": _self("bernoulli.number"),
    "bernoulli.polynomial.calls": _calls("bernoulli.polynomial"),
    "bernoulli.polynomial.self_s": _self("bernoulli.polynomial"),
    "integrals.closed_form.calls": _calls("integrals.closed_form"),
    "integrals.closed_form.self_s": _self("integrals.closed_form"),
    "integrals.formulas.calls": _calls("integrals.formulas"),
    "integrals.formulas.self_s": _self("integrals.formulas"),
    "verify.oracle.self_s": _self("verify.oracle"),
    "verify.carlitz4.self_s": _self("verify.carlitz4"),
}


def per_layer(args) -> tuple[dict, dict]:
    spans = str(Path(OUT_DIR) / f"spans-{args.workload}-seed{args.seed}.json")
    _, plain = launch(args, "fixed")
    _, traced = launch(args, "fixed", trace=1, spans=spans)
    layers = traced["layers"]
    absent = set(layers["absent"])
    metrics = {}
    missing = []
    for name, (value, unit) in PER_LAYER.items():
        if name in absent or name.rsplit(".", 1)[0] in absent:
            missing.append(name)
        else:
            metrics[name] = (value(layers), unit)

    times = plain["cli_times_s"]  # (process seconds, in-process seconds) per CLI call
    for name, values in (
        ("cli.process_ms", [s for s, _ in times]),
        ("cli.in_process_ms", [t for _, t in times]),
        ("cli.startup_ms", [s - t for s, t in times]),
    ):
        metrics[name] = (statistics.median(values) * 1e3 if values else 0.0, "ms")

    untraced = plain["evaluations"] / plain["elapsed_s"]
    traced_rate = traced["evaluations"] / traced["elapsed_s"]
    metrics["trace.evals_per_s_untraced"] = (untraced, "1/s")
    metrics["trace.evals_per_s_traced"] = (traced_rate, "1/s")
    metrics["trace.overhead_ratio"] = (untraced / traced_rate, "ratio")

    record = {"untraced": res_summary(plain), "traced": res_summary(traced),
              "absent_metrics": missing, "spans_file": spans}
    totals = {"attempted": plain["attempted"] + traced["attempted"],
              "failed": plain["failed"] + traced["failed"],
              "evaluations": plain["evaluations"] + traced["evaluations"]}
    return metrics, {**record, **totals}


def git_revision() -> str | None:
    """HEAD of the checkout, or None where the checkout is not a git repository."""
    if not Path(".git").exists():
        return None
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True, text=True,
                             timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not Path("src/bernint/__init__.py").is_file():
        print("error: run from the root of a bernint checkout (no src/bernint here)",
              file=sys.stderr)
        return 2
    os.makedirs(OUT_DIR, exist_ok=True)

    metrics, record = (per_layer if args.trace else end_to_end)(args)
    attempted, failed = record["attempted"], record["failed"]
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "git_revision": git_revision(),
        "nproc": os.cpu_count(),
        "failed_ratio": failed / attempted if attempted else None,
        **record,
    }
    path = Path(OUT_DIR) / f"record-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(record, indent=1) + "\n")
    result = {
        "correct": attempted > 0 and failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(record))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
