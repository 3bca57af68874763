"""Combinatorial coefficients and the extended-zero convention."""

import itertools
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from bernint.exact import binomial, compositions, multinomial


class TestBinomial:
    def test_standard_value(self):
        assert binomial(5, 2) == 10

    def test_negative_lower_index_is_zero(self):
        assert binomial(5, -1) == 0

    def test_lower_exceeding_upper_is_zero(self):
        assert binomial(3, 5) == 0

    def test_negative_upper_index_is_zero(self):
        assert binomial(-2, 0) == 0
        assert binomial(-2, -2) == 0

    def test_matches_multinomial_pairs(self):
        for n in range(9):
            for k in range(n + 1):
                assert binomial(n, k) == multinomial(n, (k, n - k))


class TestMultinomial:
    def test_all_ones(self):
        assert multinomial(3, (1, 1, 1)) == 6

    def test_standard_value(self):
        assert multinomial(4, (2, 1, 1)) == 12

    def test_negative_part_is_zero(self):
        assert multinomial(2, (-1, 3)) == 0

    def test_part_above_mu_is_zero(self):
        assert multinomial(2, (3, 0)) == 0

    def test_wrong_sum_is_a_caller_bug(self):
        with pytest.raises(ValueError):
            multinomial(5, (2, 2))

    def test_empty_parts(self):
        assert multinomial(0, ()) == 1

    def test_recurrence_exhaustive(self):
        # peeling one unit off any slot, summed over slots, reproduces the
        # coefficient; negative entries drop out via the zero convention
        for r in range(1, 6):
            for mu in range(1, 11):
                for parts in compositions(mu, (mu,) * r):
                    total = sum(
                        multinomial(
                            mu - 1, parts[:j] + (parts[j] - 1,) + parts[j + 1 :]
                        )
                        for j in range(r)
                    )
                    assert total == multinomial(mu, parts), (mu, parts)

    def test_symmetry_exhaustive(self):
        for r in range(1, 5):
            for mu in range(9):
                for parts in compositions(mu, (mu,) * r):
                    value = multinomial(mu, parts)
                    for perm in itertools.permutations(parts):
                        assert multinomial(mu, perm) == value


class TestCompositions:
    def test_single_empty_composition(self):
        assert list(compositions(0, (0, 0, 0))) == [(0, 0, 0)]

    def test_lexicographic_order(self):
        assert list(compositions(2, (2, 2))) == [(0, 2), (1, 1), (2, 0)]

    def test_stars_and_bars_count(self):
        for total in range(8):
            for parts in range(1, 5):
                got = list(compositions(total, (total,) * parts))
                assert len(got) == binomial(total + parts - 1, parts - 1)
                assert len(set(got)) == len(got)
                assert all(len(c) == parts and sum(c) == total for c in got)
                assert got == sorted(got)

    def test_count_example(self):
        assert len(list(compositions(4, (4, 4, 4)))) == 15

    def test_degenerate_zero_parts(self):
        assert list(compositions(0, ())) == [()]
        assert list(compositions(3, ())) == []

    def test_caps_bound_each_part(self):
        assert list(compositions(3, (1, 2, 1))) == [(0, 2, 1), (1, 1, 1), (1, 2, 0)]
        assert list(compositions(5, (1, 2, 1))) == []
        assert list(compositions(-1, (3, 3))) == []

    def test_many_parts(self):
        # far more parts than Python's recursion limit allows frames
        caps = (1,) + (0,) * 1998 + (1,)
        assert list(compositions(1, caps)) == [(0,) * 1999 + (1,), (1,) + (0,) * 1999]
        assert list(compositions(0, (0,) * 2000)) == [(0,) * 2000]

    @given(st.integers(-2, 12), st.lists(st.integers(0, 5), max_size=5))
    def test_equals_the_filtered_product(self, total, caps):
        # the walk visits only what it yields, and yields what the product
        # of the ranges 0..cap, filtered by sum, holds, in the same order
        want = [
            c for c in itertools.product(*(range(cap + 1) for cap in caps)) if sum(c) == total
        ]
        assert list(compositions(total, caps)) == want


small_fractions = st.fractions(
    min_value=-100, max_value=100, max_denominator=50
)


class TestRationalAlgebra:
    """Fraction, the package's rational type: reduced, positive denominator, exact."""

    @given(small_fractions, small_fractions, small_fractions)
    def test_field_laws(self, a, b, c):
        assert a + b == b + a
        assert a * b == b * a
        assert (a + b) + c == a + (b + c)
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c

    @given(small_fractions)
    def test_canonical_form(self, a):
        assert a.denominator > 0
        from math import gcd

        assert gcd(abs(a.numerator), a.denominator) == 1

    @given(small_fractions, small_fractions)
    def test_exact_division_roundtrip(self, a, b):
        if b != 0:
            assert (a / b) * b == a

    def test_equality_is_canonical(self):
        assert Fraction(2, 4) == Fraction(1, 2)
        assert Fraction(-1, 2) == Fraction(1, -2)
