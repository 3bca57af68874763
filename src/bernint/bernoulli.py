"""Bernoulli numbers and polynomials over exact rationals.

A polynomial is dense and stored as integer numerators over one common
denominator: the coefficient of x^i is nums[i]/den, in canonical form (den > 0,
gcd(den, *nums) = 1, no trailing zero; the zero polynomial is () over 1), so
equal polynomials have equal storage and each operation reduces once.
Bernoulli numbers use the B_1 = -1/2 convention and come from the recurrence
sum_{j=0}^{n-1} C(n+1, j) B_j = -(n+1) B_n; the polynomials from the
expansion B_n(x) = sum_j C(n, j) B_j x^{n-j}.  Both constructions are
cross-checked in the test suite against an exact power-series expansion of
t*e^{xt}/(e^t - 1), which is the defining generating function.
"""

from __future__ import annotations

import math
import threading
from fractions import Fraction
from typing import Iterable, Sequence, Union

from . import kernels

Scalar = Union[int, Fraction]

__all__ = [
    "DEFAULT_CACHE",
    "BernoulliCache",
    "Polynomial",
    "bernoulli_number",
    "bernoulli_polynomial",
]


def _check_upper(x: Scalar) -> Fraction:
    """x as a Fraction; only an int or a Fraction is accepted.

    A float is rejected rather than converted: Fraction(0.1) is the binary
    float's exact value, not 1/10.
    """
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int) and not isinstance(x, bool):
        return Fraction(x)
    raise ValueError(f"the upper limit or point must be an int or a Fraction, got {x!r}")


class Polynomial:
    """Immutable dense polynomial with rational coefficients, lowest degree first.

    Held as integer numerators `_nums` over one denominator `_den`, in the
    canonical form of the module docstring; `coeffs` gives reduced Fractions.
    """

    __slots__ = ("_nums", "_den")

    def __init__(self, coeffs: Iterable[Scalar] = ()):
        cs = [Fraction(c) for c in coeffs]
        den = math.lcm(*(c.denominator for c in cs))
        p = self._from_ints([c.numerator * (den // c.denominator) for c in cs], den)
        self._nums, self._den = p._nums, p._den

    @classmethod
    def _from_ints(cls, nums: Sequence[int], den: int) -> Polynomial:
        """The polynomial with coefficients nums[i]/den (den > 0), reduced once."""
        end = len(nums)
        while end and not nums[end - 1]:
            end -= 1
        g = math.gcd(den, *nums[:end])
        p = cls.__new__(cls)
        p._nums, p._den = tuple(n // g for n in nums[:end]), den // g
        return p

    @property
    def coeffs(self) -> tuple[Fraction, ...]:
        return tuple(Fraction(n, self._den) for n in self._nums)

    @property
    def degree(self) -> int:
        """Degree of the polynomial; -1 for the zero polynomial."""
        return len(self._nums) - 1

    def __bool__(self) -> bool:
        return bool(self._nums)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, Polynomial):
            return self._den == other._den and self._nums == other._nums
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self._nums, self._den))

    def __repr__(self) -> str:
        return f"Polynomial({list(self.coeffs)!r})"

    def __call__(self, x: Scalar) -> Fraction:
        """Evaluate at x = p/q by integer Horner's rule, reducing once."""
        x = _check_upper(x)
        p, q = x.numerator, x.denominator
        out, qk = 0, 1  # out = (Horner partial sum at x) * qk / q
        for n in reversed(self._nums):
            out = out * p + n * qk
            qk *= q
        return Fraction(out * q, self._den * qk)

    def __add__(self, other: Polynomial | Scalar) -> Polynomial:
        if not isinstance(other, Polynomial):
            other = Polynomial([other])
        den = math.lcm(self._den, other._den)
        a = [n * (den // self._den) for n in self._nums]
        b = [n * (den // other._den) for n in other._nums]
        if len(a) < len(b):
            a, b = b, a
        for i, n in enumerate(b):
            a[i] += n
        return Polynomial._from_ints(a, den)

    __radd__ = __add__

    def __neg__(self) -> Polynomial:
        return Polynomial._from_ints([-n for n in self._nums], self._den)

    def __sub__(self, other: Polynomial | Scalar) -> Polynomial:
        return self + (-other)

    def __rsub__(self, other: Scalar) -> Polynomial:
        return -self + other

    def __mul__(self, other: Polynomial | Scalar) -> Polynomial:
        if not isinstance(other, Polynomial):
            other = Polynomial([other])
        nums = kernels.convolve(self._nums, other._nums)
        return Polynomial._from_ints(nums, self._den * other._den)

    __rmul__ = __mul__

    def derivative(self) -> Polynomial:
        """Formal derivative."""
        return Polynomial._from_ints([i * n for i, n in enumerate(self._nums)][1:], self._den)

    def antiderivative(self) -> Polynomial:
        """The antiderivative P with P(0) = 0."""
        scale = math.lcm(*range(1, len(self._nums) + 1))
        nums = [n * (scale // (i + 1)) for i, n in enumerate(self._nums)]
        return Polynomial._from_ints([0, *nums], self._den * scale)

    def integrate(self, lo: Scalar, hi: Scalar) -> Fraction:
        """Exact definite integral over [lo, hi]."""
        anti = self.antiderivative()
        return anti(hi) - anti(lo)

    def compose(self, inner: Polynomial) -> Polynomial:
        """The polynomial self(inner(x))."""
        out = Polynomial()
        for n in reversed(self._nums):
            out = out * inner + n
        return out * Fraction(1, self._den)


class BernoulliCache:
    """Grow-only memo of Bernoulli numbers B_0, B_1, ... as Fractions.

    Extending the table never changes existing entries, so concurrent reads
    are safe; growth itself is serialized by an internal lock.  One shared
    instance (`DEFAULT_CACHE`) backs the whole package by default.
    """

    def __init__(self) -> None:
        self._values: list[Fraction] = [Fraction(1)]
        self._lock = threading.Lock()

    def __len__(self) -> int:
        return len(self._values)

    def number(self, k: int) -> Fraction:
        """Return B_k, growing the table if needed."""
        if k < 0:
            raise ValueError(f"Bernoulli numbers are indexed by k >= 0 (got {k})")
        values = self._values
        if k < len(values):
            return values[k]
        with self._lock:
            while len(values) <= k:
                n = len(values)
                s = sum(math.comb(n + 1, j) * values[j] for j in range(n))
                values.append(Fraction(-s, n + 1))
        return values[k]


DEFAULT_CACHE = BernoulliCache()


def bernoulli_number(k: int, cache: BernoulliCache | None = None) -> Fraction:
    """The Bernoulli number B_k (B_1 = -1/2 convention)."""
    return (cache or DEFAULT_CACHE).number(k)


def bernoulli_polynomial(k: int, cache: BernoulliCache | None = None) -> Polynomial:
    """The Bernoulli polynomial B_k(x) with exact rational coefficients."""
    if k < 0:
        raise ValueError(f"Bernoulli polynomials are indexed by k >= 0 (got {k})")
    cache = cache or DEFAULT_CACHE
    bs = [cache.number(j) for j in range(k, -1, -1)]  # coefficient of x^i uses B_{k-i}
    den = math.lcm(*(b.denominator for b in bs))
    return Polynomial._from_ints(
        [math.comb(k, i) * b.numerator * (den // b.denominator) for i, b in enumerate(bs)], den
    )
