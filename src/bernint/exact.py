"""Exact integer and rational building blocks.

Rational values throughout the package are `fractions.Fraction` (always
reduced, positive denominator, exact arithmetic).  Index tuples such as
(k_1, ..., k_r) or (i_1, ..., i_{r-1}) are plain tuples of ints.

The combinatorial coefficients use the extended-zero convention: a binomial
or multinomial coefficient is 0 whenever any lower index is negative or
exceeds the upper index.  This convention is what makes the closed-form
integral sums total functions -- terms that would reference a Bernoulli
polynomial of negative index come with a zero coefficient instead.

`compositions(total, caps)` is the package's one walk over index tuples:
the recurrence's box, the CLI's recurrence work estimate and the oracle,
parity, mu and carlitz4 sweeps enumerate through it, and it visits only
the tuples it yields.
"""

from __future__ import annotations

import itertools
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


def compositions(total: int, caps: Sequence[int]) -> Iterator[tuple[int, ...]]:
    """Yield every composition i of `total` with 0 <= i_j <= caps[j], and no other.

    Enumeration is lexicographic, e.g. compositions(2, (2, 2)) yields (0, 2),
    (1, 1), (2, 0).  With every cap at `total` the r parts are free and there
    are C(total + r - 1, r - 1) tuples.  Part j ranges only over the values
    that leave parts j+1.. room to make up the rest, so every step of the
    walk ends in a yielded tuple.  With no caps the walk yields the empty
    tuple when total == 0 and nothing otherwise (the convention the r = 1
    integral formulas rely on).  The walk is a loop over one list of parts,
    so any number of parts works.
    """
    room = list(itertools.accumulate(reversed(caps), initial=0))[::-1]  # sum(caps[j:])
    if not caps:
        if total == 0:
            yield ()
        return
    if not 0 <= total <= room[0]:
        return
    last = len(caps) - 1
    parts = [0] * len(caps)
    j, left = 0, total  # fill parts j.. with the smallest tail that sums to left
    while True:
        for i in range(j, last):
            parts[i] = max(0, left - room[i + 1])
            left -= parts[i]
        parts[last] = left  # the last part is what is left
        yield tuple(parts)
        # the successor raises the rightmost part j that is below its cap and
        # has something after it to take from, then refills the parts after j
        left = parts[last]
        j = last - 1
        while j >= 0 and (left == 0 or parts[j] == caps[j]):
            left += parts[j]
            j -= 1
        if j < 0:
            return
        parts[j] += 1
        j, left = j + 1, left - 1
