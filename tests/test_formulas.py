"""Specialized two/three/four-factor formulas against the oracle."""

import itertools
import math
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings, strategies as st

from bernint import (
    bernoulli_number,
    closed_form_integral,
    four_factor_at_one,
    four_factor_even_sum,
    norlund_value,
    oracle_integral,
    oracle_integral_poly,
    three_factor_at_one,
    three_factor_formula,
    two_factor_formula,
)

F = Fraction


def scale(ks):
    out = 1
    for k in ks:
        out *= math.factorial(k)
    return out


class TestTwoFactor:
    def test_known_values(self):
        assert two_factor_formula(1, 1, 1) == F(1, 12)
        assert two_factor_formula(2, 2, 1) == F(1, 180)
        x0 = F(5, 8)
        assert two_factor_formula(0, 0, x0) == x0

    def test_matches_oracle_and_closed_form(self):
        for k, m in itertools.product(range(7), repeat=2):
            anti = oracle_integral_poly((k, m))
            for upper in (F(1), F(1, 2), F(2), F(-1, 3)):
                want = anti(upper)
                assert two_factor_formula(k, m, upper) == want, (k, m, upper)
                assert closed_form_integral((k, m), upper) == want


class TestNorlund:
    def test_known_values(self):
        assert norlund_value(1, 1) == F(1, 12)
        assert norlund_value(2, 2) == F(1, 180)
        assert norlund_value(1, 2) == 0  # odd total index

    def test_closed_expression(self):
        for k, l in itertools.product(range(1, 8), repeat=2):
            want = (
                F(math.factorial(k) * math.factorial(l), math.factorial(k + l))
                * bernoulli_number(k + l)
            )
            if k % 2 == 0:
                want = -want
            assert norlund_value(k, l) == want

    def test_matches_oracle(self):
        for k, l in itertools.product(range(1, 9), repeat=2):
            assert norlund_value(k, l) == oracle_integral((k, l)), (k, l)

    def test_rejects_indices_below_one(self):
        with pytest.raises(ValueError):
            norlund_value(0, 2)
        with pytest.raises(ValueError):
            norlund_value(1, 0)


class TestThreeFactor:
    def test_known_values(self):
        x0 = F(-2, 5)
        assert three_factor_formula(0, 0, 0, x0) == x0
        assert three_factor_formula(1, 1, 2, 1) == oracle_integral((1, 1, 2))
        assert three_factor_formula(1, 1, 1, 1) == 0

    def test_matches_oracle(self):
        for t in itertools.product(range(5), repeat=3):
            anti = oracle_integral_poly(t)
            for upper in (F(1), F(1, 2), F(-1, 3)):
                assert three_factor_formula(*t, upper) == anti(upper), (t, upper)


class TestThreeFactorAtOne:
    def test_known_values(self):
        assert three_factor_at_one(1, 1, 1) == 0
        assert three_factor_at_one(2, 2, 2) == oracle_integral((2, 2, 2)) == F(1, 3780)
        assert three_factor_at_one(1, 1, 2) == oracle_integral((1, 1, 2)) == F(1, 180)

    def test_matches_oracle(self):
        for t in itertools.product(range(1, 7), repeat=3):
            assert three_factor_at_one(*t) == oracle_integral(t), t

    def test_rejects_indices_below_one(self):
        with pytest.raises(ValueError):
            three_factor_at_one(0, 1, 1)


class TestFourFactorAtOne:
    def test_known_values(self):
        assert four_factor_at_one(1, 1, 1, 1) == F(1, 80)
        assert four_factor_at_one(1, 1, 1, 2) == 0  # odd index sum
        assert four_factor_at_one(1, 1, 1, 3) == F(-1, 1120)

    def test_variants_and_oracle(self):
        """The case formula as printed is wrong exactly on k4 == 0 tuples.

        The printed derivation drops the a = 0 cell of the symmetrized sum
        (its trailing scaled Bernoulli factor is B_1, the one odd index with
        a nonzero Bernoulli number).  The corrected variant replaces that
        cell with its true value and must match the oracle everywhere.
        """
        printed_failures = []
        for t in itertools.product(range(5), repeat=4):
            if sum(t) % 2:
                assert four_factor_at_one(*t) == 0
                assert four_factor_at_one(*t, variant="printed") == 0
                continue
            want = oracle_integral(t)
            assert four_factor_at_one(*t) == want, t
            if four_factor_at_one(*t, variant="printed") != want:
                printed_failures.append(t)
        assert printed_failures, "expected the printed variant to disagree somewhere"
        assert all(t[3] == 0 for t in printed_failures)
        # k4 == 0 tuples whose boundary cell vanishes are unaffected
        assert (3, 1, 0, 0) not in printed_failures
        assert (2, 0, 0, 0) in printed_failures

    def test_printed_discrepancy_is_the_boundary_cell(self):
        # corrected - printed == (true a=0 cell) - (formula's own a=0 cell);
        # spot-check the pure product part on tuples where the formula's
        # case machinery is silent at a = 0 (no index equals 1)
        for t in [(2, 0, 0, 0), (2, 2, 0, 0), (4, 2, 2, 0), (0, 0, 0, 0)]:
            delta = four_factor_at_one(*t) - four_factor_at_one(*t, variant="printed")
            product = F(1)
            for k in t[:3]:
                product *= bernoulli_number(k) / math.factorial(k)
            assert delta == product * scale(t)

    def test_rejects_unknown_variant(self):
        with pytest.raises(ValueError):
            four_factor_at_one(1, 1, 1, 1, variant="fixed")


class TestFourFactorEvenSum:
    def test_known_values(self):
        assert four_factor_even_sum((1, 1, 1, 1)) == F(1, 80)
        assert four_factor_even_sum((2, 0, 0, 0)) == 0
        want = oracle_integral((1, 1, 2, 2))
        assert four_factor_even_sum((1, 1, 2, 2)) * scale((1, 1, 2, 2)) == want

    def test_matches_oracle_including_trailing_zero(self):
        for t in itertools.product(range(5), repeat=4):
            if sum(t) % 2:
                continue
            assert four_factor_even_sum(t) * scale(t) == oracle_integral(t), t

    def test_rejects_odd_sum_and_wrong_arity(self):
        with pytest.raises(ValueError):
            four_factor_even_sum((1, 1, 1, 2))
        with pytest.raises(ValueError):
            four_factor_even_sum((1, 1, 1))


# the bounded settings of tests/test_integrals.py
bounded = settings(derandomize=True, database=None, max_examples=100, deadline=None)
uppers = st.builds(F, st.integers(-80, 80), st.integers(1, 40))


def entries(top, size, low=0):
    return st.tuples(*[st.integers(low, top)] * size)


class TestFormulaProperties:
    """Rational uppers and indices beyond the exhaustive sweeps' box."""

    @bounded
    @given(entries(25, 2), uppers)
    def test_two_factor(self, ks, upper):
        assert two_factor_formula(*ks, upper) == oracle_integral(ks, upper)

    @bounded
    @given(entries(10, 3), uppers)
    def test_three_factor(self, ks, upper):
        assert three_factor_formula(*ks, upper) == oracle_integral(ks, upper)

    @bounded
    @given(entries(8, 3, low=1))
    def test_three_factor_at_one(self, ks):
        assert three_factor_at_one(*ks) == oracle_integral(ks)

    @bounded
    @given(entries(8, 4))
    def test_four_factor_at_one(self, ks):
        want = oracle_integral(ks)
        assert four_factor_at_one(*ks) == want
        if ks[3] >= 1:
            assert four_factor_at_one(*ks, variant="printed") == want

    @bounded
    @given(entries(8, 4))
    def test_four_factor_even_sum(self, ks):
        assume(sum(ks) % 2 == 0)
        assert four_factor_even_sum(ks) * scale(ks) == oracle_integral(ks)
