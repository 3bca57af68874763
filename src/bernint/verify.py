"""Verification suites: exhaustive sweeps of every identity the package ships.

Each suite returns a `VerificationReport`; all comparisons are exact rational
equalities.  The suites are the library-level counterpart of the CLI's
`verify` subcommand:

* identities -- Bernoulli polynomial identities (derivative, difference,
  antiderivative, reflection, value at 1, odd vanishing) plus a power-series
  expansion of the generating function as an independent construction.
* oracle     -- closed form against brute-force expansion, at several upper
  limits including points outside [0, 1], and the two-, three- and
  four-factor formulas over [0, 1].
* symmetry   -- invariance of the closed form under permutations of the
  index tuple.
* parity     -- vanishing over [0, 1] for odd index sums.
* mu         -- independence of the reduction depth in `recurrence_integral`,
  and emptiness of the residual sum at the maximal depth.
* table      -- golden Bernoulli-number expressions for small four-factor
  integrals over [0, 1], each variant checked against the oracle and the
  variants against each other.
* carlitz4   -- adjudication of the four-factor parity-case formula: both
  variants against the oracle, plus a cell-by-cell decomposition matching
  each case term to its parity class.
"""

from __future__ import annotations

import itertools
import math
import random
import time
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Iterator, Sequence

from .bernoulli import DEFAULT_CACHE, BernoulliCache, Polynomial, bernoulli_polynomial
from .exact import compositions
from .integrals import (
    _factorial_product,
    _four_factor_case_sums,
    _triple_class_sums,
    closed_form_integral,
    four_factor_at_one,
    four_factor_even_sum,
    norlund_value,
    oracle_integral_poly,
    recurrence_integral,
    recurrence_residual_indices,
    three_factor_at_one,
)

# Upper limits used by the sweeps; the closed form is a polynomial identity
# in x, so values outside [0, 1] are fair game and catch more.
SWEEP_UPPERS = (Fraction(1), Fraction(1, 2), Fraction(2), Fraction(-1, 3))

__all__ = [
    "SUITES",
    "SWEEP_UPPERS",
    "TABLE_ROWS",
    "VerificationReport",
    "evaluate_table_expression",
    "run_suite",
    "verify_carlitz4",
    "verify_identities",
    "verify_mu",
    "verify_oracle",
    "verify_parity",
    "verify_symmetry",
    "verify_table",
]


@dataclass
class VerificationReport:
    """Outcome of one verification sweep."""

    suite: str
    attempted: int = 0
    passed: int = 0
    first_failure: dict | None = None
    elapsed_s: float = 0.0
    notes: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        """Every instance passed and there was one; an empty sweep checks nothing."""
        return self.attempted > 0 and self.passed == self.attempted

    def check(self, condition: bool, **failure_info) -> None:
        """Record one instance; on the first failure keep its description."""
        self.attempted += 1
        if condition:
            self.passed += 1
        elif self.first_failure is None:
            self.first_failure = {
                k: v if isinstance(v, (int, str, list)) else str(v)
                for k, v in failure_info.items()
            }

    def to_dict(self) -> dict:
        return {
            "suite": self.suite,
            "attempted": self.attempted,
            "passed": self.passed,
            "ok": self.ok,
            "first_failure": self.first_failure,
            "time_us": int(self.elapsed_s * 1_000_000),
            "notes": self.notes,
        }


def _tuples_with_sum_at_most(
    r: int, max_sum: int, max_entry: int | None = None
) -> Iterator[tuple[int, ...]]:
    """Every r-tuple with entries <= max_entry and sum <= max_sum, in product order.

    A last, slack part takes up what the r entries leave of max_sum, so the
    walk visits only the tuples it yields.
    """
    cap = max_sum if max_entry is None else min(max_entry, max_sum)
    for ks in compositions(max_sum, (cap,) * r + (max_sum,)):
        yield ks[:-1]


# ---------------------------------------------------------------------------
# identities
# ---------------------------------------------------------------------------


def _series_bernoulli_polynomials(order: int) -> list[Polynomial]:
    """B_0(x)..B_order(x) from the generating function t*e^{xt}/(e^t - 1).

    Exact power-series division: with E_m = x^m/m! (coefficients of e^{xt})
    and D_m = 1/(m+1)! (coefficients of (e^t - 1)/t), solve Q * D = E term
    by term; then B_m(x) = m! * Q_m.  Independent of the binomial expansion
    used by `bernoulli_polynomial`.
    """
    e_coeffs = [
        Polynomial([Fraction(0)] * m + [Fraction(1, math.factorial(m))])
        for m in range(order + 1)
    ]
    d_coeffs = [Fraction(1, math.factorial(m + 1)) for m in range(order + 1)]
    q: list[Polynomial] = []
    for m in range(order + 1):
        acc = e_coeffs[m]
        for j in range(m):
            acc = acc - q[j] * d_coeffs[m - j]
        q.append(acc)
    return [poly * math.factorial(m) for m, poly in enumerate(q)]


def verify_identities(
    max_index: int = 12, cache: BernoulliCache | None = None
) -> VerificationReport:
    """Bernoulli polynomial identity sweep for k = 0..max_index."""
    cache = cache or DEFAULT_CACHE
    report = VerificationReport("identities")
    start = time.perf_counter()

    polys = [bernoulli_polynomial(k, cache) for k in range(max_index + 2)]
    x_plus_1 = Polynomial([1, 1])
    one_minus_x = Polynomial([1, -1])

    for k in range(1, max_index + 1):
        got = polys[k].derivative()
        want = polys[k - 1] * k
        report.check(got == want, identity="derivative", k=k, expected=want, got=got)

    for k in range(1, max_index + 1):
        got = polys[k].compose(x_plus_1) - polys[k]
        want = Polynomial([Fraction(0)] * (k - 1) + [Fraction(k)])
        report.check(got == want, identity="difference", k=k, expected=want, got=got)

    for k in range(max_index + 1):
        got = polys[k].antiderivative()
        want = (polys[k + 1] - cache.number(k + 1)) * Fraction(1, k + 1)
        report.check(got == want, identity="antiderivative", k=k, expected=want, got=got)
        for lo, hi in ((Fraction(0), Fraction(1)), (Fraction(1, 3), Fraction(5, 2))):
            got_v = polys[k].integrate(lo, hi)
            want_v = (polys[k + 1](hi) - polys[k + 1](lo)) / (k + 1)
            report.check(
                got_v == want_v,
                identity="definite-integral",
                k=k,
                upper=f"[{lo},{hi}]",
                expected=want_v,
                got=got_v,
            )

    for k in range(max_index + 1):
        got = polys[k].compose(one_minus_x)
        want = polys[k] if k % 2 == 0 else -polys[k]
        report.check(got == want, identity="reflection", k=k, expected=want, got=got)

    for k in range(max_index + 1):
        got = polys[k](1)
        want = -cache.number(1) if k == 1 else cache.number(k)
        report.check(got == want, identity="value-at-one", k=k, expected=want, got=got)

    for j in range(1, 11):
        got = cache.number(2 * j + 1)
        report.check(got == 0, identity="odd-vanishing", k=2 * j + 1, expected=0, got=got)

    series = _series_bernoulli_polynomials(max_index)
    for k in range(max_index + 1):
        report.check(
            series[k] == polys[k],
            identity="generating-function",
            k=k,
            expected=polys[k],
            got=series[k],
        )

    report.elapsed_s = time.perf_counter() - start
    return report


# ---------------------------------------------------------------------------
# oracle equivalence (master sweep)
# ---------------------------------------------------------------------------


def verify_oracle(
    max_sum: int = 12,
    max_r: int = 4,
    max_entry: int = 6,
    r_values: Sequence[int] | None = None,
    cache: BernoulliCache | None = None,
) -> VerificationReport:
    """Closed form and the formulas over [0, 1] against brute-force expansion."""
    report = VerificationReport("oracle")
    start = time.perf_counter()
    rs = tuple(r_values) if r_values is not None else tuple(range(1, max_r + 1))

    for r in rs:
        for ks in _tuples_with_sum_at_most(r, max_sum, max_entry):
            anti = oracle_integral_poly(ks, cache)
            scale = _factorial_product(ks)
            for upper in SWEEP_UPPERS:
                expected = anti(upper)
                ok = closed_form_integral(ks, upper, cache=cache) == expected
                # two_factor_formula and three_factor_formula are the closed form
                # itself; the r = 2 and 3 formulas below are other sums
                if ok and r == 2 and upper == 1 and min(ks) >= 1:
                    ok = norlund_value(ks[0], ks[1], cache) == expected
                if ok and r == 3 and upper == 1 and min(ks) >= 1:
                    ok = three_factor_at_one(*ks, cache=cache) == expected
                if ok and r == 4 and upper == 1:
                    ok = four_factor_at_one(*ks, cache=cache) == expected
                    if ok and sum(ks) % 2 == 0:
                        ok = four_factor_even_sum(ks, cache) * scale == expected
                report.check(
                    ok, ks=list(ks), upper=upper, expected=expected, got="formula mismatch"
                )
    report.notes.append(
        f"r in {rs}, entries <= {max_entry}, index sum <= {max_sum}, "
        f"uppers {[str(u) for u in SWEEP_UPPERS]}"
    )
    report.elapsed_s = time.perf_counter() - start
    return report


# ---------------------------------------------------------------------------
# permutation symmetry and parity vanishing
# ---------------------------------------------------------------------------


def verify_symmetry(
    max_r: int = 4, max_entry: int = 4, cache: BernoulliCache | None = None
) -> VerificationReport:
    """Closed form is invariant under every permutation of the index tuple."""
    report = VerificationReport("symmetry")
    start = time.perf_counter()
    uppers = (Fraction(1), Fraction(2, 3))
    for r in range(2, max_r + 1):
        for base in itertools.combinations_with_replacement(range(max_entry + 1), r):
            perms = set(itertools.permutations(base))
            for upper in uppers:
                reference = closed_form_integral(base, upper, cache=cache)
                bad = next(
                    (
                        p
                        for p in perms
                        if closed_form_integral(p, upper, cache=cache) != reference
                    ),
                    None,
                )
                report.check(
                    bad is None,
                    ks=list(base),
                    upper=upper,
                    expected=reference,
                    got=f"permutation {bad} differs",
                )
    report.elapsed_s = time.perf_counter() - start
    return report


def verify_parity(
    max_sum: int = 11, max_r: int = 5, cache: BernoulliCache | None = None
) -> VerificationReport:
    """Integral over [0, 1] vanishes whenever the index sum is odd."""
    report = VerificationReport("parity")
    start = time.perf_counter()
    for r in range(1, max_r + 1):
        for total in range(1, max_sum + 1, 2):
            for ks in compositions(total, (total,) * r):
                anti = oracle_integral_poly(ks, cache)
                ok = anti(1) == 0 and closed_form_integral(ks, cache=cache) == 0
                report.check(ok, ks=list(ks), upper=1, expected=0, got=anti(1))
    report.elapsed_s = time.perf_counter() - start
    return report


# ---------------------------------------------------------------------------
# mu-independence of the recurrence
# ---------------------------------------------------------------------------


def verify_mu(
    max_sum: int = 10,
    max_r: int = 4,
    samples: int = 50,
    seed: int = 20240,
    cache: BernoulliCache | None = None,
) -> VerificationReport:
    """recurrence_integral(ks, x, mu) equals the closed form for every mu."""
    report = VerificationReport("mu")
    start = time.perf_counter()

    pool = [
        ks
        for r in range(1, max_r + 1)
        for ks in _tuples_with_sum_at_most(r, max_sum)
        if sum(ks) > 0
    ]
    rng = random.Random(seed)
    chosen = rng.sample(pool, min(samples, len(pool)))

    for ks in chosen:
        upper = rng.choice(SWEEP_UPPERS)
        expected = closed_form_integral(ks, upper, scaled=True, cache=cache)
        mu_max = sum(ks[:-1]) + 1
        bad = next(
            (
                mu
                for mu in range(1, mu_max + 1)
                if recurrence_integral(ks, upper, mu, cache) != expected
            ),
            None,
        )
        ok = bad is None and recurrence_residual_indices(ks, mu_max) == []
        report.check(
            ok,
            ks=list(ks),
            upper=upper,
            expected=expected,
            got=f"mu={bad} disagrees" if bad is not None else "residual not empty",
        )
    report.notes.append(f"{len(chosen)} tuples, mu swept up to k_1+...+k_(r-1)+1")
    report.elapsed_s = time.perf_counter() - start
    return report


# ---------------------------------------------------------------------------
# golden table of four-factor values over [0, 1]
# ---------------------------------------------------------------------------

# Each expression is a list of (coefficient, monomial) terms, a monomial
# being ((index, power), ...) over Bernoulli numbers; e.g.
# (Fraction(3, 2), ((1, 2), (2, 1))) encodes (3/2) * B_1^2 * B_2.
TableExpression = tuple[tuple[Fraction, tuple[tuple[int, int], ...]], ...]

TABLE_ROWS: tuple[tuple[tuple[int, ...], dict[str, TableExpression]], ...] = (
    (
        (1, 1, 1, 1),
        {
            "a": (
                (Fraction(3, 2), ((1, 2), (2, 1))),
                (Fraction(1, 4), ((4, 1),)),
                (Fraction(-1, 4), ((2, 1),)),
            ),
        },
    ),
    (
        (1, 1, 1, 3),
        {
            "a": (
                (Fraction(3, 4), ((1, 2), (4, 1))),
                (Fraction(1, 20), ((6, 1),)),
                (Fraction(-1, 8), ((4, 1),)),
            ),
            "b": (
                (Fraction(1, 2), ((2, 1), (4, 1))),
                (Fraction(3, 4), ((1, 2), (4, 1))),
                (Fraction(1, 6), ((6, 1),)),
                (Fraction(-1, 8), ((4, 1),)),
            ),
        },
    ),
    (
        (1, 1, 1, 5),
        {
            "a": (
                (Fraction(1, 2), ((1, 2), (6, 1))),
                (Fraction(1, 56), ((8, 1),)),
                (Fraction(-1, 12), ((6, 1),)),
            ),
            "b": (
                (Fraction(5, 6), ((4, 2),)),
                (Fraction(1, 2), ((1, 2), (6, 1))),
                (Fraction(2, 3), ((2, 1), (6, 1))),
                (Fraction(1, 8), ((8, 1),)),
                (Fraction(-1, 12), ((6, 1),)),
            ),
        },
    ),
    (
        (1, 1, 2, 2),
        {
            "a": (
                (Fraction(-1, 6), ((2, 1), (4, 1))),
                (Fraction(-1, 2), ((1, 2), (4, 1))),
                (Fraction(-1, 15), ((6, 1),)),
                (Fraction(1, 12), ((4, 1),)),
            ),
            "b": (
                (Fraction(1, 2), ((2, 3),)),
                (Fraction(1, 2), ((2, 1), (4, 1))),
                (Fraction(1), ((1, 2), (4, 1))),
                (Fraction(1, 6), ((6, 1),)),
                (Fraction(-1, 6), ((4, 1),)),
            ),
        },
    ),
    (
        (1, 1, 2, 4),
        {
            "a": (
                (Fraction(-1, 15), ((2, 1), (6, 1))),
                (Fraction(-1, 5), ((1, 2), (6, 1))),
                (Fraction(-1, 70), ((8, 1),)),
                (Fraction(1, 30), ((6, 1),)),
            ),
            "b": (
                (Fraction(-1, 6), ((4, 2),)),
                (Fraction(-1, 5), ((1, 2), (6, 1))),
                (Fraction(-1, 5), ((2, 1), (6, 1))),
                (Fraction(-1, 28), ((8, 1),)),
                (Fraction(1, 30), ((6, 1),)),
            ),
            "c": (
                (Fraction(1), ((2, 2), (4, 1))),
                (Fraction(1, 4), ((4, 2),)),
                (Fraction(23, 30), ((2, 1), (6, 1))),
                (Fraction(4, 5), ((1, 2), (6, 1))),
                (Fraction(1, 8), ((8, 1),)),
                (Fraction(-2, 15), ((6, 1),)),
            ),
        },
    ),
)


def evaluate_table_expression(
    terms: TableExpression, cache: BernoulliCache | None = None
) -> Fraction:
    """Evaluate a Bernoulli-number expression exactly."""
    cache = cache or DEFAULT_CACHE
    total = Fraction(0)
    for coeff, monomial in terms:
        value = coeff
        for index, power in monomial:
            value *= cache.number(index) ** power
        total += value
    return total


def verify_table(cache: BernoulliCache | None = None) -> VerificationReport:
    """Golden expressions against the oracle, and the variants against each other."""
    report = VerificationReport("table")
    start = time.perf_counter()
    for ks, variants in TABLE_ROWS:
        reference = oracle_integral_poly(ks, cache)(1)
        values = {}
        for label, terms in sorted(variants.items()):
            value = evaluate_table_expression(terms, cache)
            values[label] = value
            report.check(
                value == reference,
                ks=list(ks),
                upper=1,
                variant=label,
                expected=reference,
                got=value,
            )
        if len(values) > 1:
            agree = len(set(values.values())) == 1
            report.notes.append(
                f"I_{ks}: variants {'/'.join(sorted(values))} "
                + ("agree" if agree else f"DISAGREE: {values}")
            )
    report.elapsed_s = time.perf_counter() - start
    return report


# ---------------------------------------------------------------------------
# four-factor case-formula adjudication
# ---------------------------------------------------------------------------


def verify_carlitz4(
    max_sum: int = 12, cache: BernoulliCache | None = None
) -> VerificationReport:
    """Adjudicate the four-factor parity-case formula against the oracle.

    For every even-sum 4-tuple the corrected `four_factor_at_one` and the
    symmetrized triple sum are compared with brute-force expansion.  The
    printed variant differs from the corrected one only when k_4 = 0, so it
    is evaluated and compared with the oracle there.  On tuples with
    k_4 >= 1 each case term A-D that `four_factor_at_one` sums is matched to
    its parity class in the triple sum instead (each of A/B/C absorbs the
    all-odd class once, so the closed D term must equal -2 times that class,
    and the boundary class must vanish): the cases then sum to the triple
    sum, which equals the oracle, and that proves the printed value there.
    """
    cache = cache or DEFAULT_CACHE
    report = VerificationReport("carlitz4")
    start = time.perf_counter()

    printed_bad: list[tuple[int, ...]] = []
    count = 0

    for total in range(0, max_sum + 1, 2):
        for ks in compositions(total, (total,) * 4):
            count += 1
            expected = oracle_integral_poly(ks, cache)(1)

            corrected = four_factor_at_one(*ks, cache=cache)
            classes, class_den = _triple_class_sums(ks, cache)
            triple = Fraction(sum(classes.values()) * _factorial_product(ks), class_den)

            if ks[3] == 0:  # elsewhere the printed variant is the corrected one
                if four_factor_at_one(*ks, variant="printed", cache=cache) != expected:
                    printed_bad.append(ks)

            ok = corrected == expected and triple == expected
            detail = "corrected/triple-sum mismatch"
            if ok and ks[3] >= 1:
                # the two sums have different denominators: compare across
                cases, case_den = _four_factor_case_sums(ks, cache)
                ok = (
                    all(
                        cases[c] * class_den == (classes[c] + classes["D"]) * case_den
                        for c in "ABC"
                    )
                    and cases["D"] * class_den == -2 * classes["D"] * case_den
                    and classes["boundary"] == 0
                )
                detail = "case decomposition mismatch"
            report.check(ok, ks=list(ks), upper=1, expected=expected, got=detail)

    report.notes.append(
        f"printed variant disagrees with the oracle on {len(printed_bad)} of {count} "
        "even-sum tuples, all with k4 = 0 (the dropped a = 0 boundary cell); "
        "the corrected variant matches everywhere"
    )
    report.notes.append(
        "case terms A-D match their parity classes on every tuple with k4 >= 1"
    )
    report.elapsed_s = time.perf_counter() - start
    return report


# ---------------------------------------------------------------------------
# suite registry
# ---------------------------------------------------------------------------

# name -> call with (max_sum, max_r), forwarding the bounds each suite understands
SUITES: dict[str, Callable[[int, int], VerificationReport]] = {
    "identities": lambda max_sum, max_r: verify_identities(max_sum),
    "oracle": lambda max_sum, max_r: verify_oracle(max_sum, max_r),
    "symmetry": lambda max_sum, max_r: verify_symmetry(max_r),
    "parity": lambda max_sum, max_r: verify_parity(max_sum, max_r),
    "mu": lambda max_sum, max_r: verify_mu(max_sum, max_r),
    "table": lambda max_sum, max_r: verify_table(),
    "carlitz4": lambda max_sum, max_r: verify_carlitz4(max_sum),
}


def run_suite(name: str, max_sum: int = 12, max_r: int = 4) -> VerificationReport:
    """Run a named suite, forwarding the bounds it understands."""
    if name not in SUITES:
        raise ValueError(f"unknown suite {name!r}; choose from {', '.join(sorted(SUITES))}")
    return SUITES[name](max_sum, max_r)
