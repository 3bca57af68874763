"""The verification suites themselves: all green, and reports well-formed."""

from fractions import Fraction

import pytest

from bernint import oracle_integral
from bernint.verify import (
    SUITES,
    TABLE_ROWS,
    VerificationReport,
    evaluate_table_expression,
    run_suite,
    verify_carlitz4,
    verify_identities,
    verify_mu,
    verify_oracle,
    verify_parity,
    verify_symmetry,
    verify_table,
)

F = Fraction


def check_report(report, suite):
    assert report.suite == suite
    assert report.ok, report.first_failure
    assert report.passed == report.attempted > 0
    assert report.first_failure is None
    assert report.elapsed_s >= 0
    d = report.to_dict()
    assert d["ok"] and d["passed"] == d["attempted"] and d["time_us"] >= 0


def test_identities():
    check_report(verify_identities(max_index=10), "identities")


def test_oracle():
    report = verify_oracle(max_sum=6, max_r=3)
    check_report(report, "oracle")
    # r in 1..3, entries <= 6, sum <= 6, 4 uppers
    assert report.attempted == (7 + 28 + 84) * 4


def test_symmetry():
    check_report(verify_symmetry(max_r=3, max_entry=3), "symmetry")


def test_parity():
    report = verify_parity(max_sum=7, max_r=4)
    check_report(report, "parity")
    # compositions of odd totals 1,3,5,7 into r parts, r = 1..4
    assert report.attempted == 4 + (2 + 4 + 6 + 8) + (3 + 10 + 21 + 36) + (
        4 + 20 + 56 + 120
    )


def test_mu():
    report = verify_mu(max_sum=6, max_r=3, samples=12)
    check_report(report, "mu")
    assert report.attempted == 12


def test_mu_is_deterministic():
    a = verify_mu(max_sum=6, max_r=3, samples=5)
    b = verify_mu(max_sum=6, max_r=3, samples=5)
    assert a.attempted == b.attempted == 5


def test_table():
    report = verify_table()
    check_report(report, "table")
    assert report.attempted == 10  # expression variants across the five rows
    assert any("agree" in note for note in report.notes)
    assert not any("DISAGREE" in note for note in report.notes)


def test_table_rows_match_oracle_directly():
    for ks, variants in TABLE_ROWS:
        want = oracle_integral(ks)
        for terms in variants.values():
            assert evaluate_table_expression(terms) == want, ks


def test_table_known_value():
    (ks, variants) = TABLE_ROWS[0]
    assert ks == (1, 1, 1, 1)
    assert evaluate_table_expression(variants["a"]) == F(1, 80)


def test_carlitz4():
    report = verify_carlitz4(max_sum=8)
    check_report(report, "carlitz4")
    assert any("corrected variant matches everywhere" in n for n in report.notes)
    assert any("case terms A-D match" in n for n in report.notes)


@pytest.mark.parametrize("term", ["A", "B", "C", "D"])
def test_carlitz4_case_decomposition_can_fail(monkeypatch, term):
    import bernint.verify as verify

    case_sums = verify._four_factor_case_sums

    def off_by_one(*args, **kwargs):
        sums, den = case_sums(*args, **kwargs)
        return {**sums, term: sums[term] + 1}, den

    monkeypatch.setattr(verify, "_four_factor_case_sums", off_by_one)
    report = verify_carlitz4(max_sum=6)
    assert not report.ok
    assert report.first_failure["got"] == "case decomposition mismatch"


def test_empty_sweep_does_not_pass():
    assert not VerificationReport("oracle").ok
    report = verify_oracle(max_sum=-3)
    assert report.attempted == 0
    assert not report.ok and not report.to_dict()["ok"]


def test_run_suite_dispatch():
    assert set(SUITES) == {
        "identities",
        "oracle",
        "symmetry",
        "parity",
        "mu",
        "table",
        "carlitz4",
    }
    report = run_suite("parity", max_sum=5, max_r=3)
    check_report(report, "parity")
    with pytest.raises(ValueError):
        run_suite("nope")
