"""The two hot loops: integer polynomial products and the closed-form sum.

Both work on plain Python ints, exact at any size; the caller reduces
once.  A value table is two int lists, num[k]/den[k] = B_k(x)/k! unreduced
with den[k] dividing den[k + 1] (the format of `integrals._taylor_table`).
"""

from __future__ import annotations

from math import factorial
from typing import Sequence

__all__ = ["active_backend", "closed_form_sum", "convolve"]


def active_backend() -> str:
    """Name of the kernel implementation; there is only the pure-Python one.

    Kept only because the benchmark's worker (`perfbench/worker.py`) records
    it; ROADMAP item 5 deletes it once item 1 stops that call.
    """
    return "pure"


def convolve(a: list[int], b: list[int]) -> list[int]:
    """Coefficient convolution of two integer polynomials."""
    la, lb = len(a), len(b)
    if la == 0 or lb == 0:
        return []
    out = [0] * (la + lb - 1)
    for i, ai in enumerate(a):
        if ai == 0:
            continue
        for j, bj in enumerate(b):
            if bj != 0:
                out[i + j] += ai * bj
    return out


def _boundary_sum(
    heads: tuple[int, ...], kr: int, num: Sequence[int], den: Sequence[int]
) -> tuple[int, int]:
    """(n, d) with n/d = sum_a (-1)^a a! [t^a] prod_j P_j(t) * T_{kr+a+1}.

    T_m = num[m]/den[m] is one scaled value table and
    P_j(t) = sum_{i <= k_j} T_{k_j-i} t^i / i!.  Each P_j is scaled to
    integers by k_j! den[k_j], and the tail T_{kr+a+1} by the last
    denominator it reads.
    """
    prod = [1]
    d = 1
    for k in heads:
        if k == 0:
            continue  # P_j = T_0 = 1
        scale = den[k]
        coeffs = [0] * (k + 1)
        w = 1  # k!/i!, built from i = k downwards
        for i in range(k, -1, -1):
            m = k - i
            coeffs[i] = num[m] * (scale // den[m]) * w
            w *= i
        prod = convolve(prod, coeffs) if len(prod) > 1 else coeffs  # [1] * P = P
        d *= scale * factorial(k)
    scale = den[kr + len(prod)]  # the last tail denominator
    n = 0
    fa = 1  # a!
    for a, q in enumerate(prod):
        if a:
            fa *= a
        m = kr + a + 1
        if q and num[m]:
            term = fa * q * num[m] * (scale // den[m])
            n += -term if a & 1 else term
    return n, d * scale


def closed_form_sum(
    ks: tuple[int, ...],
    xnum: Sequence[int],
    xden: Sequence[int],
    onum: Sequence[int],
    oden: Sequence[int],
) -> tuple[int, int]:
    """Scaled integral of B_{k_1}(z)...B_{k_r}(z) from 0 to x as (num, den), den > 0.

    The tables give B_k(x)/k! (xnum/xden) and B_k/k! (onum/oden) for
    k = 0 .. sum(ks) + 1, unreduced, each denominator dividing the next.
    The closed form sums, over a = 0..k_1+...+k_{r-1} and compositions
    (i_1, ..., i_{r-1}) of a inside the box i_j <= k_j, (-1)^a times
    multinomial(a; i) times the scaled boundary term with indices
    (k_1 - i_1, ..., k_{r-1} - i_{r-1}, k_r + a + 1).  As multinomial(a; i)
    = a!/(i_1!...i_{r-1}!), the sum over compositions is a! [t^a] of a
    product of r - 1 polynomials, one per head index, at x and again at 0.
    Unreduced: `integrals.closed_form_integral` reduces it once, as a Fraction.
    """
    heads, kr = ks[:-1], ks[-1]
    xn, xd = _boundary_sum(heads, kr, xnum, xden)
    on, od = _boundary_sum(heads, kr, onum, oden)
    return xn * od - on * xd, xd * od
