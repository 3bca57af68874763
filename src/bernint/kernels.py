"""The two hot loops: integer polynomial products and the closed-form sum.

Both work on plain Python ints (tables as num, den pairs with den > 0), so
the arithmetic stays exact at arbitrary precision and one gcd at the end
gives the reduced result.
"""

from __future__ import annotations

from math import factorial, gcd, lcm
from typing import Sequence

__all__ = ["active_backend", "closed_form_sum", "convolve"]


def active_backend() -> str:
    """Name of the kernel implementation; there is only the pure-Python one."""
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
    integers by k_j! and the lcm of the denominators it uses, so its
    coefficient of t^i is T_{k_j-i} * k_j!/i! times that lcm.
    """
    prod = [1]
    d = 1
    for k in heads:
        if k == 0:
            continue  # P_j = T_0 = 1
        scale = lcm(*den[: k + 1])
        coeffs = [0] * (k + 1)
        w = 1  # k!/i!, built from i = k downwards
        for i in range(k, -1, -1):
            m = k - i
            coeffs[i] = num[m] * (scale // den[m]) * w
            w *= i
        prod = convolve(prod, coeffs) if len(prod) > 1 else coeffs  # [1] * P = P
        d *= scale * factorial(k)
    tail = den[kr + 1 : kr + len(prod) + 1]
    scale = lcm(*tail)
    n = 0
    fa = 1  # a!
    for a, q in enumerate(prod):
        if a:
            fa *= a
        m = kr + a + 1
        if q and num[m]:
            term = fa * q * num[m] * (scale // tail[a])
            n += -term if a & 1 else term
    return n, d * scale


def closed_form_sum(
    ks: tuple[int, ...],
    xnum: Sequence[int],
    xden: Sequence[int],
    onum: Sequence[int],
    oden: Sequence[int],
) -> tuple[int, int]:
    """Scaled integral of B_{k_1}(z)...B_{k_r}(z) from 0 to x as reduced (num, den).

    The tables give B_k(x)/k! (xnum/xden) and B_k/k! (onum/oden) for
    k = 0 .. sum(ks) + 1.  The closed form sums, over a = 0..k_1+...+k_{r-1}
    and compositions (i_1, ..., i_{r-1}) of a inside the box i_j <= k_j,
    (-1)^a times multinomial(a; i) times the scaled boundary term with
    indices (k_1 - i_1, ..., k_{r-1} - i_{r-1}, k_r + a + 1).  Since
    multinomial(a; i) = a!/(i_1!...i_{r-1}!), the inner sum over
    compositions is a! times the coefficient of t^a in a product of r - 1
    polynomials, one per head index, for the values at x and again at 0.
    """
    heads, kr = ks[:-1], ks[-1]
    xn, xd = _boundary_sum(heads, kr, xnum, xden)
    on, od = _boundary_sum(heads, kr, onum, oden)
    num = xn * od - on * xd
    den = xd * od
    g = gcd(num, den)
    return num // g, den // g
