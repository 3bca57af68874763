"""The integer kernels against plain references written from the paper's formula."""

import itertools
import math
import random
from fractions import Fraction

from bernint import closed_form_integral, kernels, multinomial, oracle_integral_poly
from bernint.bernoulli import DEFAULT_CACHE
from bernint.integrals import _scaled_tables

F = Fraction


def box_walk(ks, xnum, xden, onum, oden):
    """The closed-form sum cell by cell, as the paper states it.

    Over the box 0 <= i_j <= k_j (j < r), with a = i_1 + ... + i_{r-1}, add
    (-1)^a * multinomial(a; i) * (prod_j T_{k_j - i_j} * T_{k_r + a + 1})
    for the table at x minus the same for the table at 0.
    """
    top = sum(ks) + 2  # the cached tables may run much further
    at_x = [F(n, d) for n, d in zip(xnum[:top], xden[:top])]
    at_0 = [F(n, d) for n, d in zip(onum[:top], oden[:top])]
    heads, kr = ks[:-1], ks[-1]
    total = F(0)
    for comp in itertools.product(*(range(k + 1) for k in heads)):
        a = sum(comp)
        idx = [k - i for k, i in zip(heads, comp)] + [kr + a + 1]
        term = math.prod(at_x[m] for m in idx) - math.prod(at_0[m] for m in idx)
        total += (-1) ** a * multinomial(a, comp) * term
    return total.numerator, total.denominator


def assert_matches_box_walk(ks, upper):
    tables = _scaled_tables(upper, sum(ks) + 1, DEFAULT_CACHE)
    got = kernels.closed_form_sum(ks, *tables)
    assert Fraction(*got) == Fraction(*box_walk(ks, *tables)), (ks, upper)
    assert got[1] > 0


def test_convolve_basics():
    assert kernels.convolve([], [1, 2]) == []
    assert kernels.convolve([3], [4]) == [12]
    assert kernels.convolve([1, 1], [1, 1]) == [1, 2, 1]
    assert kernels.convolve([0, 1], [0, 1]) == [0, 0, 1]
    assert kernels.convolve([1, -2, 3], [5, 7]) == [5, -3, 1, 21]


def test_closed_form_sum_matches_box_walk():
    rng = random.Random(23)
    for _ in range(150):
        r = rng.randint(1, 5)
        ks = tuple(rng.randint(0, 5) for _ in range(r))
        upper = F(rng.randint(-4, 4), rng.randint(1, 5))
        assert_matches_box_walk(ks, upper)


def test_closed_form_sum_matches_box_walk_on_heavy_shapes():
    # r and entries as in the benchmark's heavy tuples; heads are halved until
    # the box is small enough for the Fraction reference to walk quickly
    rng = random.Random(29)
    for _ in range(100):
        ks = [rng.randint(1, 9) for _ in range(rng.randint(4, 9))]
        while math.prod(k + 1 for k in ks[:-1]) > 500:
            j = rng.randrange(len(ks) - 1)
            ks[j] = max(1, ks[j] // 2)
        upper = F(rng.randint(-13, 13), rng.choice((3, 4, 5, 7)))
        assert_matches_box_walk(tuple(ks), upper)


def test_integrals_through_kernel():
    assert closed_form_integral((1, 1, 1, 1)) == F(1, 80)
    assert closed_form_integral((2, 3, 1), F(-1, 3)) == oracle_integral_poly((2, 3, 1))(
        F(-1, 3)
    )

