"""Bernoulli numbers and polynomials over exact rationals.

A polynomial is dense and stored as integer numerators over one common
denominator: the coefficient of x^i is nums[i]/den, in canonical form (den > 0,
gcd(den, *nums) = 1, no trailing zero; the zero polynomial is () over 1), so
equal polynomials have equal storage and each operation reduces once.
Bernoulli numbers use the B_1 = -1/2 convention and come from the tangent
numbers T_k (tan x = sum_k T_k x^{2k-1}/(2k-1)!) by Brent and Harvey's
integer algorithm, "Fast computation of Bernoulli, tangent and secant
numbers" (2011): B_{2k} = (-1)^(k-1) 2k T_k / (4^k (4^k - 1)), and the odd
numbers above B_1 vanish.  The polynomials come from the expansion
B_n(x) = sum_j C(n, j) B_j x^{n-j}.  The test suite keeps the classical
recurrence sum_{j=0}^{n} C(n+1, j) B_j = 0 and the Akiyama-Tanigawa
algorithm as references for the numbers, and an exact power-series
expansion of t*e^{xt}/(e^t - 1), the defining generating function, for the
polynomials.
"""

from __future__ import annotations

import functools
import math
import threading
import weakref
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
    raise ValueError(
        "an upper limit, point, coefficient or scalar operand must be an int or a "
        f"Fraction, got {x!r}"
    )


class Polynomial:
    """Immutable dense polynomial with rational coefficients, lowest degree first.

    Held as integer numerators `_nums` over one denominator `_den`, in the
    canonical form of the module docstring; `coeffs` gives reduced Fractions.
    Coefficients and scalar operands of + and * must be ints or Fractions,
    as for `_check_upper`.
    """

    __slots__ = ("_nums", "_den")

    def __init__(self, coeffs: Iterable[Scalar] = ()):
        cs = [_check_upper(c) for c in coeffs]
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
        return -(-self + other)  # a scalar reaches __add__'s check unnegated

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


def _check_index(k: int) -> int:
    """k, if it is a nonnegative int; a bool or a float is rejected too."""
    if isinstance(k, bool) or not isinstance(k, int) or k < 0:
        raise ValueError(f"Bernoulli indices must be nonnegative ints (got {k!r})")
    return k


def _tangent_bernoulli(m: int) -> list[Fraction]:
    """B_0..B_m from the tangent numbers T_1..T_{m//2}.

    Brent and Harvey's algorithm: start from T_k = (k-1)!, then sweep
    T_j <- (j-k) T_{j-1} + (j-k+2) T_j for k = 2..n and j = k..n.  It takes
    O(n^2) operations on integers and no gcd until each B_{2k} is reduced.
    """
    n = m // 2
    t = [0] * (n + 1)
    if n:
        t[1] = 1
    for k in range(2, n + 1):
        t[k] = (k - 1) * t[k - 1]
    for k in range(2, n + 1):
        for j in range(k, n + 1):
            t[j] = (j - k) * t[j - 1] + (j - k + 2) * t[j]
    values = [Fraction(0)] * (m + 1)
    values[0] = Fraction(1)
    if m:
        values[1] = Fraction(-1, 2)
    for k in range(1, n + 1):
        four_k = 4**k
        b = Fraction(2 * k * t[k], four_k * (four_k - 1))
        values[2 * k] = b if k & 1 else -b
    return values


# polynomials each BernoulliCache memoizes, the most recently used kept
_POLYNOMIAL_MEMO = 128


def _build_polynomial(cache_ref: weakref.ref, k: int) -> Polynomial:
    """B_k(x) from the numbers of the cache that `cache_ref` refers to."""
    cache = cache_ref()
    bs = [cache.number(j) for j in range(k, -1, -1)]  # coefficient of x^i uses B_{k-i}
    den = math.lcm(*(b.denominator for b in bs))
    return Polynomial._from_ints(
        [math.comb(k, i) * b.numerator * (den // b.denominator) for i, b in enumerate(bs)],
        den,
    )


class BernoulliCache:
    """Grow-only memo of Bernoulli numbers B_0, B_1, ... as Fractions.

    A request past the end recomputes B_0..B_m, with m = max(k, twice the
    current length), aside and publishes the new list in one assignment, so
    a reader sees the old list or the new one and existing entries never
    change; growth is serialized by an internal lock.  The cache also keeps
    the last `_POLYNOMIAL_MEMO` polynomials `bernoulli_polynomial` built
    from it, and the oracle memoizes its antiderivatives per cache.  That is
    all a cache scopes: the value tables behind the closed form and the
    specialized formulas are process-wide and grow from the numbers of the
    shared instance `DEFAULT_CACHE`, which also serves every call that
    passes no cache.
    """

    def __init__(self) -> None:
        self._values: list[Fraction] = [Fraction(1)]
        self._lock = threading.Lock()
        # the memo reaches the cache through a weak reference, so the two form
        # no cycle and a dropped cache is freed without the cyclic collector
        self._polynomials = functools.lru_cache(maxsize=_POLYNOMIAL_MEMO)(
            functools.partial(_build_polynomial, weakref.ref(self))
        )

    def __len__(self) -> int:
        return len(self._values)

    def number(self, k: int) -> Fraction:
        """Return B_k, growing the table if needed."""
        values = self._values
        if type(k) is int and 0 <= k < len(values):
            return values[k]
        _check_index(k)
        with self._lock:
            if k >= len(self._values):
                self._values = _tangent_bernoulli(max(k, 2 * len(self._values)))
        return self._values[k]


DEFAULT_CACHE = BernoulliCache()


def bernoulli_number(k: int, cache: BernoulliCache | None = None) -> Fraction:
    """The Bernoulli number B_k (B_1 = -1/2 convention).

    Unbounded: a k past the cache grows it to B_0..B_max(k, 2 len) with
    O(k^2) integer operations (B_1000 from a cold cache: about 0.15 s).
    """
    return (cache or DEFAULT_CACHE).number(k)


def bernoulli_polynomial(k: int, cache: BernoulliCache | None = None) -> Polynomial:
    """The Bernoulli polynomial B_k(x) with exact rational coefficients.

    Memoized per cache: the cache keeps the polynomials of its 128 most
    recently used indices.
    """
    return (cache or DEFAULT_CACHE)._polynomials(_check_index(k))
