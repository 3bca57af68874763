"""Exact integer and rational building blocks.

Rational values throughout the package are `fractions.Fraction` (always
reduced, positive denominator, exact arithmetic).  Index tuples such as
(k_1, ..., k_r) or (i_1, ..., i_{r-1}) are plain tuples of ints.

The combinatorial coefficients use the extended-zero convention: a binomial
or multinomial coefficient is 0 whenever any lower index is negative or
exceeds the upper index.  This convention is what makes the closed-form
integral sums total functions -- terms that would reference a Bernoulli
polynomial of negative index come with a zero coefficient instead.
"""

from __future__ import annotations

import math
from typing import Iterator, Sequence

__all__ = ["binomial", "compositions", "multinomial"]


def binomial(n: int, k: int) -> int:
    """Binomial coefficient C(n, k) with the extended-zero convention.

    Returns 0 when k < 0 or k > n, so the function is total over all
    integer pairs (including negative n).
    """
    if k < 0 or k > n:
        return 0
    return math.comb(n, k)


def multinomial(mu: int, parts: Sequence[int]) -> int:
    """Multinomial coefficient mu! / (k_1! ... k_r!) over `parts`.

    Extended-zero convention: returns 0 if any part is negative or larger
    than mu.  Otherwise the parts must sum to mu; a nonnegative tuple with
    the wrong sum is a caller bug and raises ValueError.
    """
    for p in parts:
        if p < 0 or p > mu:
            return 0
    if sum(parts) != mu:
        raise ValueError(
            f"nonnegative parts {tuple(parts)} must sum to {mu}, got {sum(parts)}"
        )
    out = math.factorial(mu)
    for p in parts:
        out //= math.factorial(p)
    return out


def compositions(total: int, parts: int) -> Iterator[tuple[int, ...]]:
    """Yield every tuple of `parts` nonnegative ints summing to `total`.

    Enumeration is lexicographic, e.g. (0,2), (1,1), (2,0); the number of
    tuples is C(total + parts - 1, parts - 1).  The degenerate case
    parts == 0 yields the empty tuple when total == 0 and nothing
    otherwise (the convention the r = 1 integral formulas rely on).
    """
    if total < 0:
        return
    if parts == 0:
        if total == 0:
            yield ()
        return
    if parts == 1:
        yield (total,)
        return
    for first in range(total + 1):
        for rest in compositions(total - first, parts - 1):
            yield (first,) + rest
