"""One workload process: import bernint from ./src, make the inputs, run, check.

Started by run.py in a fresh interpreter, because every cache in the package
is process-global and only grows.  Protocol on stdout: the line "ready" as
soon as the inputs exist (run.py times set-up up to that line), then one JSON
line with the raw measurements once the checks are done.

    --mode setup   stop after "ready"
    --mode timed   send requests until --seconds have passed
    --mode fixed   send the workload's fixed traced-run request count

Run from the root of a checkout; see run.py.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
import time
import traceback
from pathlib import Path


def import_bernint(root: Path):
    src = (root / "src").resolve()
    sys.path.insert(0, str(src))
    import bernint

    if not Path(bernint.__file__).resolve().is_relative_to(src):
        sys.exit(f"bernint was imported from {bernint.__file__}, not from {src}")
    return bernint


def digest(requests) -> str:
    return hashlib.sha256(repr(requests).encode()).hexdigest()[:16]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--mode", choices=("setup", "timed", "fixed"), required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spans", help="file the traced run writes its spans to")
    args = parser.parse_args()

    root = Path.cwd()
    bernint = import_bernint(root)
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload](args.seed)
    print("ready", flush=True)
    if args.mode == "setup":
        return 0

    tracer = None
    if args.trace:
        import tracing

        tracer = tracing.Tracer()
        workload.trace_children()
        tracing.install(tracer)

    requests = workload.requests
    limit = workload.trace_requests if args.mode == "fixed" else None
    done: list = []  # (request, result or None, seconds)
    rss_kib = 0
    errors = 0
    start = time.perf_counter()
    for i in range(limit if limit is not None else sys.maxsize):
        request = requests[i % len(requests)]
        if tracer is not None:
            tracer.request_id = i
        t0 = time.perf_counter()
        try:
            result = workload.run(request)
        except Exception:
            result = None
            errors += 1
            if errors == 1:
                traceback.print_exc()
        t1 = time.perf_counter()
        done.append((request, result, t1 - t0))
        if i + 1 == workload.rss_after:
            rss_kib = workload.peak_rss_kib()
        if limit is None and t1 - start >= args.seconds:
            break
    elapsed = time.perf_counter() - start
    if len(done) < workload.rss_after:
        rss_kib = workload.peak_rss_kib()

    layers = None
    if tracer is not None:
        tracing.table_entries(tracer)
        processes = [{"request": -1, "raw": tracer.raw(), **tracer.spans()}]
        for i, (_, result, _) in enumerate(done):
            child = workload.child_trace(result) if result is not None else None
            if child is not None:
                processes.append({"request": i, **child})
        layers = tracing.merge_raw([p["raw"] for p in processes])
        with open(args.spans, "w") as fh:
            json.dump({"layers": layers, "processes": processes}, fh)

    evaluations = attempted = failed = 0
    latencies = []
    cli_times = []  # (process seconds, in-process seconds) where the program reports both
    for request, result, seconds in done:
        if result is None:
            a, f = workload.failed_request()
        else:
            evaluations += workload.evaluations(result)
            latencies.append(seconds)
            a, f = workload.check(request, result)
            inside = workload.in_process_seconds(result)
            if f == 0 and inside is not None:
                cli_times.append((seconds, inside))
        attempted += a
        failed += f

    out = {
        "requests": len(done),
        "evaluations": evaluations,
        "attempted": attempted,
        "failed": failed,
        "elapsed_s": elapsed,
        "latencies_s": latencies,
        "tail_percentile": workload.tail_percentile,
        "peak_rss_kib": rss_kib,
        "rss_after_requests": min(workload.rss_after, len(done)),
        "inputs_digest": digest(requests),
        "inputs": len(requests),
        "backend": bernint.active_backend(),
        "python": sys.version.split()[0],
        "layers": layers,
        "cli_times_s": cli_times,
    }
    print(json.dumps(out), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
