"""The verification suites themselves: all green, and reports well-formed."""

import itertools
from fractions import Fraction

import pytest

from bernint import Polynomial, oracle_integral, verify
from bernint.verify import (
    SUITES,
    TABLE_ROWS,
    VerificationReport,
    _tuples_with_sum_at_most,
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


def product_and_filter(r, max_sum, max_entry=None):
    """The walk `_tuples_with_sum_at_most` replaced, kept as its reference."""
    cap = max_sum if max_entry is None else min(max_entry, max_sum)
    return [ks for ks in itertools.product(range(cap + 1), repeat=r) if sum(ks) <= max_sum]


def test_tuples_with_sum_at_most_keeps_the_product_order():
    # the mu suite samples from this pool by position, so the order matters
    for r in range(6):
        for max_sum in range(-3, 10):
            for max_entry in (None, 0, 2, 6):
                got = list(_tuples_with_sum_at_most(r, max_sum, max_entry))
                assert got == product_and_filter(r, max_sum, max_entry), (r, max_sum, max_entry)


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


def off_by(monkeypatch, route, wrong_on, delta=1):
    """Make `bernint.verify.<route>` off by `delta` on the calls `wrong_on` picks."""
    right = getattr(verify, route)

    def wrong(*args, **kwargs):
        value = right(*args, **kwargs)
        return value + delta if wrong_on(*args, **kwargs) else value

    monkeypatch.setattr(verify, route, wrong)


def break_table_row(monkeypatch):
    """Add 1 to variant "b" of the golden row for (1, 1, 2, 2)."""
    rows = tuple(
        (ks, {**variants, "b": variants["b"] + ((F(1), ()),)}) if ks == (1, 1, 2, 2)
        else (ks, variants)
        for ks, variants in TABLE_ROWS
    )
    monkeypatch.setattr(verify, "TABLE_ROWS", rows)


# suite -> (make the route it checks wrong on one instance, what its
# first_failure must then say); each runs at max_sum = max_r = 3
BROKEN_ROUTES = {
    "identities": (
        lambda mp: off_by(mp, "bernoulli_polynomial", lambda k, *_: k == 3,
                          Polynomial([0, 0, 0, 1])),
        {"identity": "derivative", "k": 3},
    ),
    # the closed form's wrong value is what the report shows
    "oracle": (
        lambda mp: off_by(mp, "closed_form_integral", lambda ks, *_, **__: ks == (1, 2)),
        {"ks": [1, 2], "upper": "1", "got": "1"},
    ),
    # asymmetric: the in-order evaluation of (2, 1) is wrong and the public
    # value of its sorted base (1, 2) is not
    "symmetry": (
        lambda mp: off_by(mp, "_closed_form_in_order", lambda ks, *_, **__: ks == (2, 1)),
        {"ks": [1, 2], "got": "permutation (2, 1) differs"},
    ),
    "parity": (
        lambda mp: off_by(mp, "closed_form_integral", lambda ks, *_, **__: ks == (1, 2)),
        {"ks": [1, 2], "upper": 1},
    ),
    # the pool at these bounds holds 31 tuples, under the 50 samples, so
    # every tuple is checked
    "mu": (
        lambda mp: off_by(mp, "recurrence_integral", lambda ks, upper, mu, cache: ks == (1, 2)),
        {"ks": [1, 2], "got": "mu=1 disagrees"},
    ),
    "table": (break_table_row, {"ks": [1, 1, 2, 2], "variant": "b"}),
    "carlitz4": (
        lambda mp: off_by(mp, "four_factor_at_one",
                          lambda *ks, **kw: ks == (0, 1, 0, 1) and "variant" not in kw),
        {"ks": [0, 1, 0, 1], "got": "corrected/triple-sum mismatch"},
    ),
}


@pytest.mark.parametrize("suite", sorted(SUITES))
def test_every_suite_can_fail(monkeypatch, suite):
    assert suite in BROKEN_ROUTES, f"suite {suite!r} has no broken-route case"
    break_route, named = BROKEN_ROUTES[suite]
    break_route(monkeypatch)
    report = run_suite(suite, max_sum=3, max_r=3)
    assert report.ok is False
    assert report.first_failure is not None
    assert report.first_failure.items() >= named.items(), report.first_failure


def spy_closed_form(monkeypatch):
    """Record the index tuple of every `verify.closed_form_integral` call."""
    calls = []
    right = verify.closed_form_integral

    def spy(ks, *args, **kwargs):
        calls.append(ks)
        return right(ks, *args, **kwargs)

    monkeypatch.setattr(verify, "closed_form_integral", spy)
    return calls


def test_oracle_evaluates_the_closed_form_once_per_multiset_and_upper(monkeypatch):
    calls = spy_closed_form(monkeypatch)
    report = verify_oracle(max_sum=6, max_r=3)
    check_report(report, "oracle")
    assert report.attempted == 476  # every order at every upper is still an instance
    assert len(calls) == 46 * 4  # 7 + 16 + 23 multisets, 4 uppers
    assert all(list(ks) == sorted(ks) for ks in calls)


def test_parity_evaluates_the_closed_form_once_per_multiset(monkeypatch):
    calls = spy_closed_form(monkeypatch)
    report = verify_parity(max_sum=7, max_r=4)
    check_report(report, "parity")
    multisets = {
        tuple(sorted(ks))
        for r in range(1, 5)
        for ks in itertools.product(range(8), repeat=r)
        if sum(ks) <= 7 and sum(ks) % 2
    }
    assert sorted(calls) == sorted(multisets)


@pytest.mark.parametrize("suite", [verify_oracle, verify_parity])
def test_each_order_reaches_its_own_oracle(monkeypatch, suite):
    # the oracle is wrong on the descending order only: a suite that built
    # it once per multiset, from (1, 2), would pass
    off_by(monkeypatch, "oracle_integral_poly", lambda ks, *_: ks == (2, 1), Polynomial([1]))
    report = suite(max_sum=3, max_r=3)
    assert not report.ok
    assert report.first_failure["ks"] == [2, 1]


@pytest.mark.parametrize(
    "formula",
    ["norlund_value", "three_factor_at_one", "four_factor_at_one", "four_factor_even_sum"],
)
def test_oracle_names_the_formula_that_disagrees(monkeypatch, formula):
    off_by(monkeypatch, formula, lambda *_, **__: True)
    report = verify_oracle(max_sum=4, max_r=4)
    assert not report.ok
    assert report.first_failure["got"] == formula
