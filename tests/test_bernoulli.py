"""Bernoulli numbers, polynomials and the polynomial ring operations."""

import gc
import math
import threading
import weakref
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from bernint import bernoulli
from bernint.bernoulli import (
    BernoulliCache,
    Polynomial,
    bernoulli_number,
    bernoulli_polynomial,
)

F = Fraction


def akiyama_tanigawa(n):
    """Independent construction of B_0..B_n (yields B_1 = +1/2 convention)."""
    a = [F(0)] * (n + 1)
    out = []
    for m in range(n + 1):
        a[m] = F(1, m + 1)
        for j in range(m, 0, -1):
            a[j - 1] = j * (a[j - 1] - a[j])
        out.append(a[0])
    return out


def recurrence(n):
    """B_0..B_n from sum_{j=0}^{m} C(m+1, j) B_j = 0 (B_1 = -1/2 convention).

    The classical recurrence, O(n^2) Fraction operations: a reference that
    shares nothing with the tangent-number construction.
    """
    values = [F(1)]
    for m in range(1, n + 1):
        s = sum(math.comb(m + 1, j) * values[j] for j in range(m))
        values.append(F(-s, m + 1))
    return values


def primes_upto(n):
    return [p for p in range(2, n + 1) if all(p % d for d in range(2, math.isqrt(p) + 1))]


class TestBernoulliNumbers:
    def test_first_values(self):
        assert bernoulli_number(0) == 1
        assert bernoulli_number(1) == F(-1, 2)
        assert bernoulli_number(2) == F(1, 6)
        assert bernoulli_number(12) == F(-691, 2730)

    def test_against_akiyama_tanigawa(self):
        reference = akiyama_tanigawa(24)
        for k in range(25):
            want = -reference[k] if k == 1 else reference[k]
            assert bernoulli_number(k) == want, k

    def test_against_recurrence(self):
        cache = BernoulliCache()
        assert [cache.number(k) for k in range(301)] == recurrence(300)

    def test_von_staudt_clausen(self):
        # the denominator of B_2k is the product of the primes p with (p - 1) | 2k
        cache = BernoulliCache()
        primes = primes_upto(501)
        for k in range(1, 251):
            want = math.prod(p for p in primes if (2 * k) % (p - 1) == 0)
            assert cache.number(2 * k).denominator == want, 2 * k

    def test_odd_vanishing(self):
        for j in range(1, 11):
            assert bernoulli_number(2 * j + 1) == 0

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            bernoulli_number(-1)

    def test_cache_grow_only(self):
        cache = BernoulliCache()
        first = [cache.number(k) for k in range(8)]
        cache.number(30)
        assert [cache.number(k) for k in range(8)] == first
        assert len(cache) == 31

    def test_cache_concurrent_growth(self):
        cache = BernoulliCache()
        errors = []

        def worker(upto):
            try:
                for k in range(upto):
                    assert cache.number(k) == bernoulli_number(k)
            except Exception as exc:  # pragma: no cover - failure path
                errors.append(exc)

        threads = [threading.Thread(target=worker, args=(60,)) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not errors


class TestIndexContract:
    ENTRIES = {
        "bernoulli_number": bernoulli_number,
        "BernoulliCache.number": lambda k: BernoulliCache().number(k),
        "bernoulli_polynomial": bernoulli_polynomial,
    }

    @pytest.mark.parametrize("k", [True, 2.0, -1], ids=["bool", "float", "negative"])
    @pytest.mark.parametrize("entry", sorted(ENTRIES))
    def test_rejects_non_index(self, entry, k):
        # True is an int to Python: unchecked, it would read B_1
        with pytest.raises(ValueError, match="nonnegative ints"):
            self.ENTRIES[entry](k)


class TestBernoulliPolynomials:
    def test_degree_zero(self):
        assert bernoulli_polynomial(0) == Polynomial([1])

    def test_degree_one(self):
        assert bernoulli_polynomial(1) == Polynomial([F(-1, 2), 1])

    def test_degree_three(self):
        assert bernoulli_polynomial(3) == Polynomial([0, F(1, 2), F(-3, 2), 1])

    def test_monic(self):
        for k in range(10):
            assert bernoulli_polynomial(k).coeffs[-1] == 1

    def test_constant_term_is_bernoulli_number(self):
        for k in range(12):
            assert bernoulli_polynomial(k)(0) == bernoulli_number(k)

    def test_derivative_identity(self):
        for k in range(1, 13):
            assert bernoulli_polynomial(k).derivative() == k * bernoulli_polynomial(k - 1)

    def test_reflection_identity(self):
        one_minus_x = Polynomial([1, -1])
        for k in range(13):
            p = bernoulli_polynomial(k)
            want = p if k % 2 == 0 else -p
            assert p.compose(one_minus_x) == want

    def test_difference_identity(self):
        x_plus_1 = Polynomial([1, 1])
        for k in range(1, 13):
            p = bernoulli_polynomial(k)
            got = p.compose(x_plus_1) - p
            assert got == Polynomial([0] * (k - 1) + [k])

    def test_value_at_one(self):
        assert bernoulli_polynomial(1)(1) == F(1, 2)
        for k in (0, 2, 3, 4, 5, 6, 7, 8):
            assert bernoulli_polynomial(k)(1) == bernoulli_number(k)

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            bernoulli_polynomial(-2)

    def test_memo_is_bounded(self):
        cache = BernoulliCache()
        bound = bernoulli._POLYNOMIAL_MEMO
        for k in range(bound + 40):
            assert bernoulli_polynomial(k, cache) is bernoulli_polynomial(k, cache)
        assert cache._polynomials.cache_info().currsize == bound
        assert bernoulli_polynomial(7, cache) == bernoulli_polynomial(7, BernoulliCache())

    def test_dropped_cache_is_freed_without_gc(self):
        # the polynomial memo must not hold its cache in a reference cycle
        gc.disable()
        try:
            cache = BernoulliCache()
            bernoulli_polynomial(9, cache)
            ref = weakref.ref(cache)
            del cache
            assert ref() is None
        finally:
            gc.enable()


class TestPolynomialOps:
    def test_eval_examples(self):
        assert Polynomial([F(-1, 2), 1])(1) == F(1, 2)
        assert Polynomial([1])(F(7, 3)) == 1
        assert Polynomial([0, F(1, 2), F(-3, 2), 1])(1) == 0

    def test_mul_examples(self):
        b1 = Polynomial([F(-1, 2), 1])
        assert b1 * b1 == Polynomial([F(1, 4), -1, 1])
        p = Polynomial([3, 0, F(2, 7)])
        assert p * Polynomial([1]) == p
        assert Polynomial([0, 1]) * Polynomial([0, 1]) == Polynomial([0, 0, 1])

    def test_mul_degree(self):
        p = Polynomial([1, 2, 3])
        q = Polynomial([F(1, 3), 0, 0, 5])
        assert (p * q).degree == p.degree + q.degree

    def test_derivative_examples(self):
        assert Polynomial([7]).derivative() == Polynomial()
        assert Polynomial([0, 0, 1]).derivative() == Polynomial([0, 2])

    def test_definite_integral_examples(self):
        assert bernoulli_polynomial(2).integrate(0, 1) == 0
        x0 = F(13, 4)
        assert Polynomial([1]).integrate(0, x0) == x0
        assert Polynomial([F(1, 4), -1, 1]).integrate(0, 1) == F(1, 12)

    def test_antiderivative_examples(self):
        assert Polynomial([1]).antiderivative() == Polynomial([0, 1])
        assert Polynomial([0, 2]).antiderivative() == Polynomial([0, 0, 1])
        got = Polynomial([F(1, 4), -1, 1]).antiderivative()
        assert got == Polynomial([0, F(1, 4), F(-1, 2), F(1, 3)])
        assert got(0) == 0
        assert got.derivative() == Polynomial([F(1, 4), -1, 1])

    def test_canonical_form(self):
        assert Polynomial([1, 2, 0, 0]).coeffs == (1, 2)
        assert Polynomial([0, 0]).coeffs == ()
        assert Polynomial().degree == -1
        assert not Polynomial([0])
        assert Polynomial([1, 2, 0]) == Polynomial([1, 2])

    def test_scalar_arithmetic(self):
        p = Polynomial([1, 1])
        assert p + F(1, 2) == Polynomial([F(3, 2), 1])
        assert 2 * p == Polynomial([2, 2])
        assert p - 1 == Polynomial([0, 1])
        assert 1 - p == Polynomial([0, -1])

    def test_compose(self):
        p = Polynomial([0, 0, 1])  # x^2
        inner = Polynomial([1, 1])  # x + 1
        assert p.compose(inner) == Polynomial([1, 2, 1])


coeff_lists = st.lists(
    st.fractions(min_value=-9, max_value=9, max_denominator=6), max_size=6
)
bounded = settings(derandomize=True, database=None, max_examples=100, deadline=None)


class FractionPolynomial:
    """Test-only reference: one reduced Fraction per coefficient, no common denominator."""

    def __init__(self, coeffs=()):
        cs = [F(c) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        self.coeffs = tuple(cs)

    def __call__(self, x):
        out = F(0)
        for c in reversed(self.coeffs):
            out = out * x + c
        return out

    def __add__(self, other):
        a, b = sorted((self.coeffs, other.coeffs), key=len, reverse=True)
        return FractionPolynomial(c + (b[i] if i < len(b) else 0) for i, c in enumerate(a))

    def __neg__(self):
        return FractionPolynomial(-c for c in self.coeffs)

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        if not isinstance(other, FractionPolynomial):
            return FractionPolynomial(other * c for c in self.coeffs)
        out = [F(0)] * (len(self.coeffs) + len(other.coeffs))
        for i, a in enumerate(self.coeffs):
            for j, b in enumerate(other.coeffs):
                out[i + j] += a * b
        return FractionPolynomial(out)

    def derivative(self):
        return FractionPolynomial(i * c for i, c in enumerate(self.coeffs) if i > 0)

    def antiderivative(self):
        return FractionPolynomial([0] + [c / (i + 1) for i, c in enumerate(self.coeffs)])

    def compose(self, inner):
        out = FractionPolynomial()
        for c in reversed(self.coeffs):
            out = out * inner + FractionPolynomial([c])
        return out


class TestPolynomialRingLaws:
    @given(coeff_lists, coeff_lists, coeff_lists)
    def test_ring_laws(self, a, b, c):
        p, q, r = Polynomial(a), Polynomial(b), Polynomial(c)
        assert p + q == q + p
        assert p * q == q * p
        assert (p * q) * r == p * (q * r)
        assert p * (q + r) == p * q + p * r

    @given(coeff_lists, coeff_lists, st.fractions(min_value=-5, max_value=5, max_denominator=4))
    def test_evaluation_is_a_homomorphism(self, a, b, x):
        p, q = Polynomial(a), Polynomial(b)
        assert (p * q)(x) == p(x) * q(x)
        assert (p + q)(x) == p(x) + q(x)

    @given(coeff_lists)
    def test_derivative_inverts_antiderivative(self, a):
        p = Polynomial(a)
        assert p.antiderivative().derivative() == p


rationals = st.builds(F, st.integers(-24, 24), st.integers(1, 12))


class TestIntegerStorage:
    """The integer-over-one-denominator Polynomial against the Fraction reference."""

    @bounded
    @given(coeff_lists, coeff_lists, rationals, st.lists(rationals, max_size=4))
    def test_matches_fraction_reference(self, a, b, c, points):
        p, q = Polynomial(a), Polynomial(b)
        rp, rq = FractionPolynomial(a), FractionPolynomial(b)
        pairs = [
            (p, rp),
            (p + q, rp + rq),
            (p - q, rp - rq),
            (-p, -rp),
            (p * q, rp * rq),
            (p * c, rp * c),
            (p.derivative(), rp.derivative()),
            (p.antiderivative(), rp.antiderivative()),
            (p.compose(q), rp.compose(rq)),
        ]
        for got, want in pairs:
            assert got.coeffs == want.coeffs
            assert got.degree == len(want.coeffs) - 1
            for x in (0, -1, F(-7, 3), *points):
                assert got(x) == want(x)

    def test_canonical_storage(self):
        p = Polynomial([F(1, 6), F(-1, 4), 0, F(2, 3)])
        q = Polynomial([F(1, 2), F(1, 3)])
        routes = [
            (p + q, q + p, Polynomial([F(2, 3), F(1, 12), 0, F(2, 3)])),
            (p * q, q * p, (p * 2) * (q * F(1, 2))),
            (p - p, p * 0, Polynomial([0, 0])),
            (p * 6, Polynomial([1, F(-3, 2), 0, 4]), p + p + p + p + p + p),
        ]
        for first, *others in routes:
            for other in others:
                assert other == first
                assert hash(other) == hash(first)
                assert other.coeffs == first.coeffs
            assert all(type(c) is F for c in first.coeffs)
            assert not first.coeffs or first.coeffs[-1] != 0
        assert (p - p).coeffs == () and (p - p).degree == -1

    @pytest.mark.parametrize("x", [0.5, True, "1/2"], ids=["float", "bool", "str"])
    def test_evaluation_rejects_non_rationals(self, x):
        with pytest.raises(ValueError, match="int or a Fraction"):
            Polynomial([1, 2])(x)
