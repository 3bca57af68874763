"""The benchmark's workloads: seeded inputs, the request each one sends, and its check.

Every workload is a closed loop with one client: the next request is sent
only after the previous one returned.  A request is run by `run` inside the
timed phase; `check` runs after the timed phase and compares the result with
a reference, so checking costs nothing in the timings.

Inputs are drawn in blocks that hold one request from each size stratum, in a
seeded order.  Any prefix of the request stream then holds about the same mix
of sizes whatever the seed, so runs with different seeds measure the same
thing.  The streams are longer than a run at the baseline speed needs; a run
that gets through a whole stream starts it again.
"""

from __future__ import annotations

import itertools
import json
import math
import os
import random
import resource
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import bernint


def _upper(rng: random.Random, q: int) -> Fraction:
    """A seeded upper limit p/q in lowest terms with 0 < |p| < 2q, never 1/2.

    B_odd vanishes at 0, 1/2 and 1, which would let the kernel skip cells.
    """
    while True:
        x = Fraction(rng.randint(1, 2 * q - 1) * rng.choice((-1, 1)), q)
        if x.denominator == q and x != Fraction(1, 2):
            return x


class Workload:
    name = ""
    evals_per_request = 1
    # latency_tail_ms is this percentile: the highest that has at least ten
    # samples beyond it in a baseline run of the benchmark's run length
    tail_percentile = 90.0
    # peak_rss_mib is read once this many requests are done, so that a faster
    # program, which gets through more requests and grows its caches further,
    # is not charged for the extra cache entries
    rss_after = 1
    # request count of the traced run, fixed so its counts repeat exactly
    trace_requests = 1

    def __init__(self, seed: int) -> None:
        self.requests = self.make_requests(random.Random(seed))

    def make_requests(self, rng: random.Random) -> list:
        raise NotImplementedError

    def run(self, request):
        raise NotImplementedError

    def evaluations(self, result) -> int:
        """Values a finished request returned."""
        return 1

    def check(self, request, result) -> tuple[int, int]:
        """(evaluations attempted, evaluations failed) for one finished request."""
        raise NotImplementedError

    def failed_request(self) -> tuple[int, int]:
        """(attempted, failed) for a request that raised."""
        return self.evals_per_request, self.evals_per_request

    def peak_rss_kib(self) -> int:
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss

    def trace_children(self) -> None:
        """Make child processes trace themselves (the traced run calls this)."""

    def child_trace(self, result) -> dict | None:
        """The trace a traced child process reported for this request, if any."""
        return None

    def in_process_seconds(self, result) -> float | None:
        """Time the request took inside the program, where it reports it."""
        return None


class Sweep(Workload):
    """The exhaustive verification suites as `bernint verify` runs them.

    One request is one pass of `verify_oracle` plus `verify_carlitz4`, with a
    fresh `BernoulliCache`, so every pass rebuilds the oracle polynomials the
    way a new `bernint verify` process does.  The suites are exhaustive, so
    the seed is not used.
    """

    name = "sweep"
    ORACLE_MAX_SUM = 6
    ORACLE_MAX_R = 4
    ORACLE_MAX_ENTRY = 6
    CARLITZ4_MAX_SUM = 6
    tail_percentile = 75.0
    rss_after = 20
    trace_requests = 8

    def make_requests(self, rng):
        # imported here: only this workload's set-up pays for bernint.verify
        from bernint import verify

        self.verify = verify
        cap = min(self.ORACLE_MAX_ENTRY, self.ORACLE_MAX_SUM)
        tuples = sum(
            1
            for r in range(1, self.ORACLE_MAX_R + 1)
            for ks in itertools.product(range(cap + 1), repeat=r)
            if sum(ks) <= self.ORACLE_MAX_SUM
        )
        self.expected_oracle = tuples * len(verify.SWEEP_UPPERS)
        self.expected_carlitz4 = sum(
            math.comb(total + 3, 3) for total in range(0, self.CARLITZ4_MAX_SUM + 1, 2)
        )
        self.evals_per_request = self.expected_oracle + self.expected_carlitz4
        return [("pass", i) for i in range(64)]

    def run(self, request):
        cache = bernint.BernoulliCache()
        oracle = self.verify.verify_oracle(
            max_sum=self.ORACLE_MAX_SUM,
            max_r=self.ORACLE_MAX_R,
            max_entry=self.ORACLE_MAX_ENTRY,
            cache=cache,
        )
        carlitz4 = self.verify.verify_carlitz4(max_sum=self.CARLITZ4_MAX_SUM, cache=cache)
        return oracle, carlitz4

    def evaluations(self, result) -> int:
        return sum(report.attempted for report in result)

    def check(self, request, result):
        attempted = failed = 0
        for report, expected in zip(result, (self.expected_oracle, self.expected_carlitz4)):
            attempted += report.attempted
            failed += report.attempted - report.passed
            if not report.ok and report.attempted == report.passed:
                failed += 1
            if report.attempted != expected or expected == 0:
                failed += max(abs(expected - report.attempted), 1)
        return attempted, failed


class _Evaluations(Workload):
    """Requests of (ks, upper) answered by `closed_form_integral`, checked by the oracle."""

    def run(self, request):
        ks, upper = request
        return bernint.closed_form_integral(ks, upper)

    def check(self, request, result):
        ks, upper = request
        return 1, int(result != bernint.oracle_integral(ks, upper))


class Heavy(_Evaluations):
    """Many-factor tuples: r 4..9, entries 1..9, head box 2e3..4e4 cells.

    The head box prod_{j<r}(k_j + 1) is the closed-form kernel's cell count;
    its log range is cut into strata, one tuple per stratum per block.  Four
    seeded uppers with fixed denominators keep the rational sizes alike
    across seeds.
    """

    name = "heavy"
    BOX = (2_000, 40_000)
    STRATA = 8
    BLOCKS = 64
    tail_percentile = 95.0
    rss_after = 100
    trace_requests = 96

    def make_requests(self, rng):
        uppers = [_upper(rng, q) for q in (3, 4, 5, 7)]
        lo, hi = (math.log(b) for b in self.BOX)
        edges = [math.exp(lo + (hi - lo) * s / self.STRATA) for s in range(self.STRATA + 1)]
        requests = []
        for _ in range(self.BLOCKS):
            for s in rng.sample(range(self.STRATA), self.STRATA):
                while True:
                    ks = tuple(rng.randint(1, 9) for _ in range(rng.randint(4, 9)))
                    if edges[s] <= math.prod(k + 1 for k in ks[:-1]) < edges[s + 1]:
                        break
                requests.append((ks, rng.choice(uppers)))
        return requests


class BigK(_Evaluations):
    """Index sums 100..250 with r = 2, or r = 3 with one head of at most 3.

    Every request has an upper limit no other request uses, so the scaled
    table cache misses and grows on every request.  Sums are stratified in
    blocks; denominators are drawn from one range so table sizes are alike.
    """

    name = "bigk"
    SUMS = (100, 250)
    STRATA = 10
    BLOCKS = 102
    DENOMINATORS = (16, 40)
    tail_percentile = 75.0
    rss_after = 30
    trace_requests = 24

    def make_requests(self, rng):
        lo, hi = self.SUMS
        width = (hi - lo) / self.STRATA
        seen: set[Fraction] = set()
        requests = []
        for _ in range(self.BLOCKS):
            for s in rng.sample(range(self.STRATA), self.STRATA):
                total = rng.randint(int(lo + s * width), int(lo + (s + 1) * width))
                if rng.random() < 0.5:
                    k = rng.randint(1, total - 1)
                    ks = (k, total - k)
                else:
                    head = rng.randint(1, 3)
                    k = rng.randint(1, total - head - 1)
                    heads = (head, k) if rng.random() < 0.5 else (k, head)
                    ks = heads + (total - head - k,)
                while True:
                    upper = _upper(rng, rng.randint(*self.DENOMINATORS))
                    if upper not in seen:
                        seen.add(upper)
                        break
                requests.append((ks, upper))
        return requests


class Cli(Workload):
    """Small `bernint integral --format json` calls, one fresh interpreter each.

    Methods cycle closed, oracle, auto; a third of each method's calls
    integrate over [0, 1], where `auto` takes the specialized formulas.
    """

    name = "cli"
    METHODS = ("closed", "oracle", "auto")
    tail_percentile = 90.0
    rss_after = 1
    trace_requests = 30

    def __init__(self, seed: int) -> None:
        super().__init__(seed)
        src = os.path.join(os.getcwd(), "src")
        path = os.environ.get("PYTHONPATH")
        self._env = dict(os.environ, PYTHONPATH=src + (os.pathsep + path if path else ""))
        self._child = [sys.executable, "-m", "bernint.cli"]

    def make_requests(self, rng):
        from bernint import cli  # noqa: F401  (the CLI imports verify; set-up pays for it)

        requests = []
        for i in range(512):
            ks = tuple(rng.randint(0, 6) for _ in range(rng.randint(1, 4)))
            upper = Fraction(1) if i // 3 % 3 == 0 else _upper(rng, rng.randint(2, 9))
            requests.append((ks, upper, self.METHODS[i % len(self.METHODS)]))
        return requests

    def run(self, request):
        ks, upper, method = request
        argv = ["integral", "--ks", ",".join(map(str, ks)), f"--upper={upper}",
                "--method", method, "--format", "json"]
        return subprocess.run(self._child + argv, capture_output=True, text=True,
                              env=self._env, timeout=60)

    def _record(self, result) -> dict | None:
        if result.returncode != 0 or not result.stdout:
            return None
        try:
            return json.loads(result.stdout.splitlines()[-1])
        except ValueError:
            return None

    def check(self, request, result):
        from bernint.cli import parse_rational

        ks, upper, _ = request
        record = self._record(result)
        try:
            value = parse_rational(record["value"])
        except (TypeError, KeyError, ValueError):
            return 1, 1
        return 1, int(value != bernint.closed_form_integral(ks, upper))

    def peak_rss_kib(self) -> int:
        """The largest CLI child's peak RSS."""
        return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss

    def trace_children(self) -> None:
        self._child = [sys.executable, str(Path(__file__).resolve().parent / "cli_child.py")]

    def child_trace(self, result):
        try:
            return json.loads(result.stderr.splitlines()[-1])
        except (IndexError, ValueError):
            return None

    def in_process_seconds(self, result):
        record = self._record(result)
        return record["time_us"] / 1e6 if record else None


WORKLOADS = {w.name: w for w in (Sweep, Heavy, BigK, Cli)}
