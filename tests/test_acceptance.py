"""Acceptance criteria, one test per criterion, each printing a PASS/FAIL line.

All comparisons are exact rational equalities (tolerance 0).  Run with
`pytest -s tests/test_acceptance.py` to see the per-criterion lines live.
"""

import json
import random
import subprocess
import sys
import time
from fractions import Fraction

from bernint import bernoulli_number, closed_form_integral, norlund_value, oracle_integral
from bernint.verify import (
    TABLE_ROWS,
    evaluate_table_expression,
    verify_identities,
    verify_mu,
    verify_oracle,
    verify_parity,
    verify_symmetry,
    verify_table,
)

F = Fraction


def report(number: int, label: str, ok: bool, elapsed: float, budget: float) -> None:
    status = "PASS" if ok else "FAIL"
    print(f"criterion {number} ({label}): {status} in {elapsed:.2f}s (budget {budget:.0f}s)")


def test_criterion_1_table_reproduction():
    start = time.perf_counter()
    known = {1: F(-1, 2), 2: F(1, 6), 4: F(-1, 30), 6: F(1, 42), 8: F(-1, 30)}
    ok = all(bernoulli_number(k) == v for k, v in known.items())

    for ks, variants in TABLE_ROWS:
        want = oracle_integral(ks)
        values = {evaluate_table_expression(terms) for terms in variants.values()}
        ok = ok and values == {want}  # each variant matches the oracle, so all agree

    ok = ok and oracle_integral((1, 1, 1, 1)) == F(1, 80)
    ok = ok and evaluate_table_expression(TABLE_ROWS[0][1]["a"]) == F(1, 80)
    rep = verify_table()
    ok = ok and rep.ok and rep.attempted == 10

    elapsed = time.perf_counter() - start
    report(1, "table reproduction", ok and elapsed < 1, elapsed, 1)
    assert ok
    assert elapsed < 1


def test_criterion_2_oracle_equivalence_sweep():
    start = time.perf_counter()
    rep = verify_oracle(max_sum=14, max_r=5, max_entry=6, r_values=(2, 3, 4, 5))
    elapsed = time.perf_counter() - start
    # 9796 tuples (r = 2..5, entries <= 6, sum <= 14) at four upper limits
    ok = rep.ok and rep.attempted == 9796 * 4
    report(2, "oracle equivalence sweep", ok and elapsed < 60, elapsed, 60)
    assert rep.ok, rep.first_failure
    assert rep.attempted == 9796 * 4
    assert elapsed < 60


def test_criterion_3_norlund_mordell_check():
    start = time.perf_counter()
    ok = True
    for k in range(1, 20):
        for l in range(1, 21 - k):
            if oracle_integral((k, l)) != norlund_value(k, l):
                ok = False
    elapsed = time.perf_counter() - start
    report(3, "two-factor classical value", ok and elapsed < 5, elapsed, 5)
    assert ok
    assert elapsed < 5


def test_criterion_4_mu_independence():
    start = time.perf_counter()
    rep = verify_mu(max_sum=10, max_r=4, samples=50)
    elapsed = time.perf_counter() - start
    ok = rep.ok and rep.attempted == 50
    report(4, "mu independence", ok and elapsed < 30, elapsed, 30)
    assert rep.ok, rep.first_failure
    assert rep.attempted == 50
    assert elapsed < 30


def test_criterion_5_symmetry_and_parity():
    start = time.perf_counter()
    sym = verify_symmetry(max_r=4, max_entry=4)
    par = verify_parity(max_sum=11, max_r=5)
    elapsed = time.perf_counter() - start
    ok = sym.ok and par.ok
    report(5, "permutation symmetry and parity", ok and elapsed < 30, elapsed, 30)
    assert sym.ok, sym.first_failure
    assert par.ok, par.first_failure
    assert elapsed < 30


def test_criterion_6_four_factor_adjudication():
    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-m", "bernint.cli", "verify", "--suite", "carlitz4",
         "--max-sum", "16", "--format", "json"],
        capture_output=True,
        text=True,
    )
    elapsed = time.perf_counter() - start
    record = json.loads(proc.stdout) if proc.stdout else {}
    # 2685 even-sum 4-tuples with index sum <= 16
    ok = (
        proc.returncode == 0
        and record.get("ok") is True
        and record.get("attempted") == 2685
        and any("corrected variant matches everywhere" in n for n in record.get("notes", []))
    )
    report(6, "four-factor adjudication (carlitz4 exits 0)", ok and elapsed < 30, elapsed, 30)
    assert proc.returncode == 0, proc.stderr
    assert ok
    assert elapsed < 30


def test_criterion_7_bernoulli_identity_suite():
    start = time.perf_counter()
    rep = verify_identities(max_index=12)
    elapsed = time.perf_counter() - start
    ok = rep.ok
    report(7, "Bernoulli identity suite", ok and elapsed < 2, elapsed, 2)
    assert rep.ok, rep.first_failure
    assert elapsed < 2


def test_criterion_8_cli_contract():
    start = time.perf_counter()

    def run(*args):
        return subprocess.run(
            [sys.executable, "-m", "bernint.cli", *args], capture_output=True, text=True
        )

    value = run("integral", "--ks", "1,1,1,1")
    table = run("verify", "--suite", "table")
    malformed = run("integral", "--ks", "1,,oops")
    as_json = run("integral", "--ks", "1,1,1,1", "--format", "json")
    record = json.loads(as_json.stdout)

    ok = (
        value.returncode == 0
        and value.stdout == "1/80\n"
        and table.returncode == 0
        and malformed.returncode == 2
        and as_json.returncode == 0
        and record["value"] == "1/80"
        and F(record["value"].split("/")[0]) / F(record["value"].split("/")[1]) == F(1, 80)
        and record["ks"] == [1, 1, 1, 1]
    )
    elapsed = time.perf_counter() - start
    report(8, "CLI contract", ok, elapsed, 10)
    assert ok


def large_index_tuples(count: int, seed: int) -> list:
    """Seeded (ks, upper): r = 2 or 3, index sums 200..700, uppers p/q with q <= 40."""
    rng = random.Random(seed)
    out = []
    for _ in range(count):
        total = rng.randint(200, 700)
        cuts = sorted(rng.sample(range(1, total), rng.choice((1, 2))))
        ks = tuple(b - a for a, b in zip([0, *cuts], [*cuts, total]))
        q = rng.randint(2, 40)
        out.append((ks, F(rng.choice((-1, 1)) * rng.randint(1, 2 * q), q)))
    return out


def test_criterion_9_large_index_sweep():
    start = time.perf_counter()
    cases = large_index_tuples(20, seed=2012)
    mismatches = [
        (ks, upper)
        for ks, upper in cases
        if closed_form_integral(ks, upper) != oracle_integral(ks, upper)
    ]
    elapsed = time.perf_counter() - start
    ok = not mismatches and len(cases) == 20
    report(9, "large-index closed form vs oracle", ok and elapsed < 30, elapsed, 30)
    assert not mismatches
    assert elapsed < 30
