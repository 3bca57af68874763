"""Integrals of products of Bernoulli polynomials.

Central object:  I_{k_1,...,k_r}(x) = integral_0^x B_{k_1}(z)...B_{k_r}(z) dz,
with the scaled variants I~ = I / (k_1! ... k_r!) and the boundary terms
C_{k_1,...,k_r}(x) = B_{k_1}(x)...B_{k_r}(x) - B_{k_1}...B_{k_r} (C~ scaled
the same way).

Two independent evaluation routes are kept side by side:

* `oracle_integral` expands the product polynomial and integrates it
  termwise -- no theorem involved, so it serves as ground truth.
* `closed_form_integral` evaluates the finite double sum over weighted
  boundary terms; `recurrence_integral` evaluates the integration-by-parts
  family it telescopes from, with the residual integrals handed to the
  oracle so the comparison is a genuine cross-check.

`two_factor_formula` and `three_factor_formula` are the closed form at
r = 2 and r = 3, named for the classical sums they state, and call
`closed_form_integral`.  The other specialized formulas (`norlund_value`,
`three_factor_at_one`, `four_factor_at_one`, `four_factor_even_sum`) are
different expressions for the value over [0, 1], swept against the oracle
by the verification suites.  They read the cached table of B_n/n! as
integers over one common denominator, sum in ints and reduce once per
result.  Everything is exact: index tuples hold nonnegative ints, upper
limits are ints or Fractions (a float or a bool is rejected with
ValueError), and results are Fractions.

The value tables are process-wide and grow from the Bernoulli numbers of
`DEFAULT_CACHE`, so the closed form, `c_term` and the specialized formulas
take no cache.  A `BernoulliCache` passed to the oracle,
`closed_form_integral_poly` or `recurrence_integral` scopes the Bernoulli
polynomials they build from its own Bernoulli numbers and the oracle's
memoized antiderivatives, and nothing else.
"""

from __future__ import annotations

import functools
import itertools
import math
import threading
from fractions import Fraction
from typing import Iterator, Sequence

from . import exact, kernels
from .bernoulli import DEFAULT_CACHE, BernoulliCache, Polynomial, bernoulli_polynomial
from .bernoulli import _check_index, _check_upper
from .exact import binomial, multinomial

Scalar = int | Fraction

__all__ = [
    "c_term",
    "closed_form_integral",
    "closed_form_integral_poly",
    "four_factor_at_one",
    "four_factor_even_sum",
    "norlund_value",
    "oracle_integral",
    "oracle_integral_poly",
    "recurrence_integral",
    "recurrence_residual_indices",
    "three_factor_at_one",
    "three_factor_formula",
    "two_factor_formula",
]


def _check_indices(ks: Sequence[int]) -> tuple[int, ...]:
    ks = tuple(ks)
    if not ks:
        raise ValueError("need at least one polynomial index")
    for k in ks:
        _check_index(k)
    return ks


def _check_mu(mu: int) -> None:
    if isinstance(mu, bool) or not isinstance(mu, int) or mu < 1:
        raise ValueError(f"mu must be an int >= 1 (got {mu!r})")


def _factorial_product(ks: Sequence[int]) -> int:
    out = 1
    for k in ks:
        out *= math.factorial(k)
    return out


# ---------------------------------------------------------------------------
# cached scaled value tables
# ---------------------------------------------------------------------------

_TABLE_LOCK = threading.Lock()
# upper -> (xnum, xden), lists with xnum[k]/xden[k] = B_k(upper)/k!, grown in
# place by `_grown`.  Unbounded on purpose: a caller that cycles through many
# uppers (the bigk benchmark's 1,020) would turn every hit into a rebuild under
# any LRU smaller than its cycle; there a request takes a median 0.28 ms with
# its table cached and 3.4 ms with a rebuild (Python 3.11, 2 x86-64 vCPUs)
_tables_at: dict[Fraction, tuple[list[int], list[int]]] = {}
# onum[k]/oden[k] = B_k/k!, the table at 0, grown the same way
_zero_table: tuple[list[int], list[int]] = ([], [])


def _taylor_table(
    upper: Fraction, n: int, cache: BernoulliCache
) -> tuple[list[int], list[int]]:
    """B_k(upper)/k! for k = 0..n as (nums, dens), from one Taylor shift.

    Every value table has this format: with upper = p/q and L_k the lcm of
    the denominators of B_0..B_k, entry k is the integer L_k q^k B_k(upper)
    over the fixed denominator L_k q^k k!, unreduced.  dens[k] divides
    dens[k+1], so tables grown to different lengths agree entry by entry,
    and dens[n] is a common denominator of entries 0..n.

    The polynomial R(s) = L_n q^n B_n(s/q) has the integer coefficient
    C(n, i) L_n B_{n-i} q^{n-i} at s^i.  Since B_n(x + h) = sum_m C(n, m)
    B_{n-m}(x) h^m, its shift R(s + p) = L_n q^n B_n(upper + s/q) has
    L_n q^k C(n, k) B_k(upper) at s^{n-k}, and one exact division by
    C(n, k) L_n/L_k leaves nums[k].  The shift is O(n^2) additions of p
    times a coefficient (repeated synthetic division).
    """
    p, q = upper.numerator, upper.denominator
    bs = [cache.number(j) for j in range(n, -1, -1)]  # B_{n-i}, from the top: one growth
    lcms = list(itertools.accumulate((b.denominator for b in reversed(bs)), math.lcm))
    coeffs = [0] * (n + 1)
    binom, q_pow = 1, q**n  # C(n, i) and q^(n-i)
    for i, b in enumerate(bs):
        coeffs[i] = binom * b.numerator * (lcms[n] // b.denominator) * q_pow
        binom = binom * (n - i) // (i + 1)
        q_pow //= q
    if p:
        for i in range(n):
            for j in range(n - 1, i - 1, -1):
                coeffs[j] += p * coeffs[j + 1]
    nums, dens = [], []
    binom, scale = 1, 1  # C(n, k) and q^k k!
    for k, lcm in enumerate(lcms):
        nums.append(coeffs[n - k] // (binom * (lcms[n] // lcm)))
        dens.append(lcm * scale)
        binom = binom * (n - k) // (k + 1)
        scale *= q * (k + 1)
    return nums, dens


def _grown(
    table: tuple[list[int], list[int]], upper: Fraction, n: int, cache: BernoulliCache
) -> tuple[list[int], list[int]]:
    """`table`, the (nums, dens) of B_k(upper)/k!, holding k = 0..n at least.

    A short table is extended in place while the lock is held, up to
    max(n, twice its old length), numerators first and denominators last:
    a reader that finds enough denominators finds whole entries, unlocked.
    """
    nums, dens = table
    if len(dens) <= n:
        with _TABLE_LOCK:
            if len(dens) <= n:
                new_nums, new_dens = _taylor_table(upper, max(n, 2 * len(dens)), cache)
                nums.extend(new_nums[len(nums) :])
                dens.extend(new_dens[len(dens) :])
    return table


def _scaled_tables(
    upper: Fraction, n: int, cache: BernoulliCache
) -> tuple[list[int], list[int], list[int], list[int]]:
    """Tables of B_k(upper)/k! and B_k/k! for k = 0..n at least, as int lists.

    Each table is grown by `_grown` from one integer Taylor shift of B_N
    (`_taylor_table` gives the format), so no polynomial is built or
    evaluated per entry.  At upper 0 both tables are the zero table.
    `cache` supplies the Bernoulli numbers a growth reads; the package
    passes `DEFAULT_CACHE`, so every table grows from one number store.
    """
    zero = _grown(_zero_table, Fraction(0), n, cache)
    if not upper:
        return (*zero, *zero)
    table = _tables_at.get(upper)
    if table is None:
        with _TABLE_LOCK:
            table = _tables_at.setdefault(upper, ([], []))
    return (*_grown(table, upper, n, cache), *zero)


def _zero_ints(n: int) -> tuple[list[int], int]:
    """Entries 0..n of the table at 0 as (ints, D): ints[k]/D = B_k/k!.

    D = dens[n] is a multiple of dens[0..n], so a product of j entries is an
    integer over D^j and a sum of such products needs no reduction.
    """
    nums, dens = _grown(_zero_table, Fraction(0), n, DEFAULT_CACHE)
    return [num * (dens[n] // d) for num, d in zip(nums[: n + 1], dens[: n + 1])], dens[n]


# ---------------------------------------------------------------------------
# brute-force oracle
# ---------------------------------------------------------------------------


# oracle antiderivatives memoized across all caches, the most recently used
# kept; above the 329 distinct tuples that one pass of the oracle and carlitz4
# suites at max-sum 6 builds, so such a pass never evicts its own entries
_ORACLE_MEMO = 512


@functools.lru_cache(maxsize=_ORACLE_MEMO)
def _oracle_poly_cached(ks: tuple[int, ...], cache: BernoulliCache) -> Polynomial:
    product = bernoulli_polynomial(ks[0], cache)
    for k in ks[1:]:
        product = product * bernoulli_polynomial(k, cache)
    return product.antiderivative()


def oracle_integral_poly(
    ks: Sequence[int], cache: BernoulliCache | None = None
) -> Polynomial:
    """The function x -> I_{k_1,...,k_r}(x) as an exact polynomial.

    Built by direct expansion: multiply the Bernoulli polynomials and take
    the antiderivative that vanishes at 0.  No closed-form theorem is
    involved, which is what makes this the package's ground truth.
    Unbounded: r - 1 products up to degree k_1 + ... + k_r (index sum 1,000:
    0.1-0.4 s on one x86-64 core).
    """
    ks = _check_indices(ks)
    return _oracle_poly_cached(ks, cache or DEFAULT_CACHE)


def oracle_integral(
    ks: Sequence[int],
    upper: Scalar = Fraction(1),
    cache: BernoulliCache | None = None,
) -> Fraction:
    """Brute-force value of the integral from 0 to `upper`."""
    return oracle_integral_poly(ks, cache)(upper)


# ---------------------------------------------------------------------------
# boundary terms and the general closed form
# ---------------------------------------------------------------------------


def c_term(ks: Sequence[int], upper: Scalar = Fraction(1), scaled: bool = False) -> Fraction:
    """Boundary term C (or C~ when scaled) for the given index tuple."""
    ks = _check_indices(ks)
    upper = _check_upper(upper)
    xnum, xden, onum, oden = _scaled_tables(upper, max(ks), DEFAULT_CACHE)
    # the products at x and at 0, as xn/xd and on/od
    xn, xd = math.prod(xnum[k] for k in ks), math.prod(xden[k] for k in ks)
    on, od = math.prod(onum[k] for k in ks), math.prod(oden[k] for k in ks)
    scale = 1 if scaled else _factorial_product(ks)
    return Fraction((xn * od - on * xd) * scale, xd * od)


def closed_form_integral(
    ks: Sequence[int], upper: Scalar = Fraction(1), scaled: bool = False
) -> Fraction:
    """Closed-form value of the integral from 0 to `upper`.

    Evaluates the finite double sum: over a = 0..k_1+...+k_{r-1} and over
    compositions (i_1,...,i_{r-1}) of a, add (-1)^a times the multinomial
    coefficient of the composition times the scaled boundary term with
    indices (k_1-i_1, ..., k_{r-1}-i_{r-1}, k_r+a+1).  Compositions with
    any i_j > k_j carry weight 0 by the extended-zero convention, so the
    sum is really over the box 0 <= i_j <= k_j.  For r = 1 the box is
    empty and the sum degenerates to (B_{k+1}(x) - B_{k+1})/(k+1)!.
    `kernels.closed_form_sum` evaluates the sum without walking the box, as
    a product of one integer polynomial per head index k_1, ..., k_{r-1}.
    The integrand is symmetric in the indices, so the sum is taken over the
    ascending tuple: the largest index is k_r and the head product has the
    least degree, d = k_1 + ... + k_r - max(ks).
    Unbounded: the table at `upper` grows to k_1 + ... + k_r + 1 entries and
    the head product to degree d.  At index sum 1,000, cold, on one x86-64
    core: 0.3 s for r = 1 and for (500,499,1) at upper 1, 0.4 s at 1/5;
    equal indices are slowest, (200,)*5 (d = 800) taking 1.9 s at upper 1
    and 4.3 s at 1/5.
    """
    return _closed_form_in_order(tuple(sorted(_check_indices(ks))), upper, scaled)


def _closed_form_in_order(ks: tuple[int, ...], upper: Scalar, scaled: bool = False) -> Fraction:
    """`closed_form_integral` with the indices taken in the given order.

    Each order is a different sum of boundary terms with the same value;
    the symmetry checks compare them.  `ks` must hold nonnegative ints.
    """
    upper = _check_upper(upper)
    num, den = kernels.closed_form_sum(ks, *_scaled_tables(upper, sum(ks) + 1, DEFAULT_CACHE))
    scale = 1 if scaled else _factorial_product(ks)
    return Fraction(num * scale, den)


def closed_form_integral_poly(
    ks: Sequence[int], cache: BernoulliCache | None = None
) -> Polynomial:
    """The closed form assembled symbolically as a polynomial in x.

    With Q = B~_{k_1}...B~_{k_{r-1}} (B~_n = B_n(x)/n!), the closed form's
    inner sum over compositions i of a, weighted by multinomial(a; i), is the
    Leibniz rule for the a-th derivative Q^(a).  So the scaled integral is
    F(x) - F(0) with

        F = sum_{a=0}^{deg Q} (-1)^a Q^(a) B~_{k_r+a+1},

    which is repeated integration by parts of Q B~_{k_r}, using
    B~'_{n+1} = B~_n.  F(0), F's constant term, is the -B~_{k_1}...B~_{k_r}
    half of every boundary term.
    For r = 1, Q = 1.  Coefficient-wise equal to `oracle_integral_poly`,
    which multiplies all r polynomials and integrates term by term instead.
    Like `closed_form_integral` it takes the indices in ascending order.
    Unbounded: about d^2 k_r/2 + d^3/6 coefficient products with
    d = deg Q = k_1 + ... + k_r - max(ks), cubic in d ((30,)*8: 0.6 s;
    (60,)*12: about 70 s; (5,300,5), d = 10: 0.05 s).
    """
    ks = tuple(sorted(_check_indices(ks)))
    cache = cache or DEFAULT_CACHE
    *heads, kr = ks
    q = Polynomial([1])
    for k in heads:
        q = q * bernoulli_polynomial(k, cache) * Fraction(1, math.factorial(k))
    f = Polynomial()
    for a in range(q.degree + 1):
        n = kr + a + 1
        term = q * bernoulli_polynomial(n, cache) * Fraction(1, math.factorial(n))
        f = f + (-term if a & 1 else term)
        q = q.derivative()
    return (f - f(0)) * _factorial_product(ks)


# ---------------------------------------------------------------------------
# integration-by-parts recurrence (one identity per mu >= 1)
# ---------------------------------------------------------------------------


def _reduced_heads(
    heads: tuple[int, ...], a: int
) -> Iterator[tuple[tuple[int, ...], int]]:
    """Reduced heads (k_j - i_j)_j and multinomial(a; i) per composition i of a.

    Only compositions inside the box i_j <= k_j are enumerated (the zero
    convention removes the others), so a > sum(heads) yields nothing at once.
    """
    for comp in exact.compositions(a, heads):
        yield tuple(h - i for h, i in zip(heads, comp)), multinomial(a, comp)


def recurrence_residual_indices(ks: Sequence[int], mu: int) -> list[tuple[int, ...]]:
    """Index tuples of the residual integrals left after mu reduction steps.

    Empty exactly when mu reaches k_1 + ... + k_{r-1} + 1: every composition
    of mu then drives some head index negative and the zero convention
    removes the term.
    """
    ks = _check_indices(ks)
    _check_mu(mu)
    heads, kr = ks[:-1], ks[-1]
    return [idx + (kr + mu,) for idx, _ in _reduced_heads(heads, mu)]


def recurrence_integral(
    ks: Sequence[int],
    upper: Scalar = Fraction(1),
    mu: int = 1,
    cache: BernoulliCache | None = None,
) -> Fraction:
    """Scaled integral via the mu-step reduction; independent of mu.

    The first mu rounds of integration by parts leave a signed sum of scaled
    boundary terms plus (-1)^mu times a sum of residual scaled integrals.
    The residuals are evaluated with the brute-force oracle rather than
    recursively, so agreement with `closed_form_integral` across mu values
    checks the identity instead of assuming it.
    Unbounded: one boundary term per cell i of the box i_j <= k_j (j < r)
    with i_1 + ... + i_{r-1} < mu and one oracle integral per cell with sum
    mu, so a deep mu over many heads costs up to the whole box, prod (k_j + 1).
    """
    ks = _check_indices(ks)
    _check_mu(mu)
    upper = _check_upper(upper)
    cache = cache or DEFAULT_CACHE
    heads, kr = ks[:-1], ks[-1]

    acc = Fraction(0)
    for a in range(min(mu, sum(heads) + 1)):  # no composition of a larger a fits
        sign = -1 if a & 1 else 1
        for idx, w in _reduced_heads(heads, a):
            acc += sign * w * c_term(idx + (kr + a + 1,), upper, scaled=True)

    sign = -1 if mu & 1 else 1
    for idx, w in _reduced_heads(heads, mu):
        residual = idx + (kr + mu,)
        value = oracle_integral(residual, upper, cache) / _factorial_product(residual)
        acc += sign * w * value
    return acc


# ---------------------------------------------------------------------------
# specialized formulas for r = 2, 3, 4
# ---------------------------------------------------------------------------


def two_factor_formula(k: int, m: int, upper: Scalar = Fraction(1)) -> Fraction:
    """I_{k,m}(x) as the single alternating sum over boundary pairs.

        I_{k,m}(x) = k! m! sum_{j=0}^{k} (-1)^j C~_{k-j, m+j+1}(x)

    with C~ the scaled boundary term.  This is the closed form at r = 2,
    where every multinomial weight is 1, so `closed_form_integral`
    evaluates it.
    """
    return closed_form_integral((k, m), upper)


def norlund_value(k: int, l: int) -> Fraction:
    """The classical value of the two-factor integral over [0, 1].

    (-1)^(k-1) * k! l! / (k+l)! * B_{k+l}, valid for k, l >= 1.
    """
    k, l = _check_indices((k, l))
    if k < 1 or l < 1:
        raise ValueError(f"both indices must be >= 1 (got k={k}, l={l})")
    value = Fraction(math.factorial(k) * math.factorial(l), math.factorial(k + l))
    value *= DEFAULT_CACHE.number(k + l)
    return -value if k % 2 == 0 else value


def three_factor_formula(n: int, m: int, k: int, upper: Scalar = Fraction(1)) -> Fraction:
    """I_{n,m,k}(x) as the double binomial sum over boundary triples.

        I_{n,m,k}(x) = n! m! k! sum_{a=0}^{n+m} (-1)^a sum_i C(a, i) C~_{n-a+i, m-i, k+a+1}(x)

    with C~ the scaled boundary term and i over the cells with n - a + i and
    m - i nonnegative.  This is the closed form at r = 3, where
    multinomial(a; (a - i, i)) = C(a, i), so `closed_form_integral`
    evaluates it.
    """
    return closed_form_integral((n, m, k), upper)


def three_factor_at_one(k: int, l: int, m: int) -> Fraction:
    """I_{k,l,m}(1) for k, l, m >= 1; zero when k+l+m is odd."""
    k, l, m = _check_indices((k, l, m))
    if k < 1 or l < 1 or m < 1:
        raise ValueError(f"all indices must be >= 1 (got {(k, l, m)})")
    if (k + l + m) % 2:
        return Fraction(0)
    o, lo = _zero_ints(k + l + m)
    acc = 0  # over lo^2
    for a in range(k + l):  # a = k + l would read B~_{-1} = 0
        w = binomial(a, l - 1) + binomial(a, k - 1)
        if w == 0:
            continue
        acc += w * o[m + a + 1] * o[k + l - a - 1]
    sign = 1 if (m + 1) % 2 == 0 else -1
    return Fraction(sign * _factorial_product((k, l, m)) * acc, lo**2)


def four_factor_even_sum(ks: Sequence[int]) -> Fraction:
    """Scaled I~_{k_1,k_2,k_3,k_4}(1) via the symmetrized triple sum.

    This is the intermediate form obtained by evaluating the boundary terms
    at 1 with the reflection identity, before any parity case analysis; it
    requires an even index sum (the odd case vanishes identically).
    """
    ks = _check_indices(ks)
    if len(ks) != 4:
        raise ValueError(f"need exactly four indices (got {len(ks)})")
    if sum(ks) % 2:
        raise ValueError(f"index sum must be even (got {ks}); the odd case is 0")
    sums, den = _triple_class_sums(ks)
    return Fraction(sum(sums.values()), den)


# parity class of a cell of the triple sum, by the parities of its three
# reduced leading indices
_TRIPLE_CLASSES = {(1, 0, 0): "A", (0, 1, 0): "B", (0, 0, 1): "C", (1, 1, 1): "D"}


def _triple_class_sums(ks: tuple[int, int, int, int]) -> tuple[dict[str, int], int]:
    """Cells of the symmetrized triple sum, for an even index sum, by parity class.

    The cell (i_1, i_2, i_3) of the box i_j <= k_j is
    2 (-1)^(a+1) multinomial(a; i) B~_{k_1-i_1} B~_{k_2-i_2} B~_{k_3-i_3} B~_{k_4+a+1}
    with a = i_1 + i_2 + i_3 and B~_n = B_n/n!.  Classes A/B/C: exactly one
    of the three reduced leading indices is odd (first/second/third); D: all
    three odd; boundary: the trailing index k_4 + a + 1 is odd (nonzero only
    for k_4 = 0, a = 0 since B_1 != 0).  The classes sum to
    `four_factor_even_sum`.  With the zero table read as integers N_n over
    one common denominator D (N_n / D = B~_n), each class is an integer sum
    over D^4; returns (sums, D^4).
    """
    k1, k2, k3, k4 = ks
    table, den = _zero_ints(k1 + k2 + k3 + k4 + 1)
    out = dict.fromkeys(("A", "B", "C", "D", "boundary"), 0)
    for i1 in range(k1 + 1):
        b1 = table[k1 - i1]
        if b1 == 0:
            continue
        for i2 in range(k2 + 1):
            b2 = table[k2 - i2]
            if b2 == 0:
                continue
            for i3 in range(k3 + 1):
                a = i1 + i2 + i3
                b3 = table[k3 - i3]
                bt = table[k4 + a + 1]
                if b3 == 0 or bt == 0:
                    continue
                value = 2 * multinomial(a, (i1, i2, i3)) * b1 * b2 * b3 * bt
                if a % 2 == 0:
                    value = -value
                if (k4 + a + 1) % 2:
                    label = "boundary"
                else:
                    label = _TRIPLE_CLASSES[((k1 - i1) % 2, (k2 - i2) % 2, (k3 - i3) % 2)]
                out[label] += value
    return out, den**4


def _four_factor_case_sums(
    ks: tuple[int, int, int, int], corrected: bool = False
) -> tuple[dict[str, int], int]:
    """The parity-case terms A-D of the four-factor formula, evaluated separately.

    A, B and C are the case sums in which the first, second or third reduced
    index is the odd one (pinned to 1); D is the closed term for the all-odd
    cell.  `four_factor_at_one` adds them up.  When `corrected` and k4 == 0,
    the case sums skip a = 0 and an extra term "a0" holds that cell's true
    value B~_{k1} B~_{k2} B~_{k3}.  With the zero table read as integers
    N_n over one common denominator E (N_n / E = B~_n), the case sums are
    integers over E^3 and D over 2 E; returns (terms, 2 E^3).
    """
    k1, k2, k3, k4 = ks
    table, den = _zero_ints(k1 + k2 + k3 + k4 + 1)
    replace_a0 = corrected and k4 == 0

    def case_sum(lead: int, pair_hi: int, other: int) -> int:
        # lead plays the role of the index pinned to 1; the inner binomial
        # sum runs over the split of the remaining budget a - lead + 1.
        # Returns the sum over E^3.
        acc = 0
        for a in range(int(replace_a0), k1 + k2 + k3 + 1):
            bt = table[k4 + a + 1]
            if bt == 0:
                continue
            w = binomial(a, lead - 1)
            if w == 0:
                continue
            inner = 0
            # B~ of a negative index is 0: i runs where both indices are >= 0
            for i in range(max(0, a + 1 - pair_hi), min(a - lead + 2, other + 1)):
                inner += binomial(a - lead + 1, i) * table[other - i] * table[pair_hi + i - a - 1]
            acc += (bt if a % 2 == 0 else -bt) * w * inner
        return acc

    d_sign = 1 if (k1 + k2 + k3) % 2 == 0 else -1
    d_index = k1 + k2 + k3 + k4 - 2
    d_term = (  # over 2 E
        d_sign
        * binomial(k1 + k2 + k3 - 3, k1 - 1)
        * binomial(k2 + k3 - 2, k2 - 1)
        * (table[d_index] if d_index >= 0 else 0)
    )
    out = {
        "A": 2 * case_sum(k1, k1 + k2, k3),
        "B": 2 * case_sum(k2, k2 + k3, k1),
        "C": 2 * case_sum(k3, k2 + k3, k1),
        "D": d_term * den**2,
    }
    if replace_a0:
        out["a0"] = 2 * table[k1] * table[k2] * table[k3]
    return out, 2 * den**3


def four_factor_at_one(
    k1: int, k2: int, k3: int, k4: int, variant: str = "corrected"
) -> Fraction:
    """I_{k1,k2,k3,k4}(1) by the parity-case formula; zero for odd index sums.

    The case analysis splits the symmetrized triple sum by which of the
    first three reduced indices is odd (an odd reduced index contributes
    only when it equals 1), plus a closed term for the all-odd cell; see
    `_four_factor_case_sums`.  The `variant` flag selects:

    * "printed": the case formula exactly as classically stated.  Its
      derivation assumes the trailing scaled Bernoulli factor vanishes for
      odd index, which fails for index 1: the a = 0 cell (reachable only
      when k4 == 0) is then misattributed by the parity cases, and the
      formula disagrees with the oracle on tuples like (2, 0, 0, 0) or
      (1, 1, 2, 0).
    * "corrected" (default): replaces the formula's a = 0 contribution by
      the cell's true value B_{k1}/k1! * B_{k2}/k2! * B_{k3}/k3! when
      k4 == 0.  Matches the oracle on every even-sum tuple.

    The `carlitz4` verification suite adjudicates both variants against the
    oracle and attributes the discrepancy cell by cell.
    """
    if variant not in ("printed", "corrected"):
        raise ValueError(f"variant must be 'printed' or 'corrected' (got {variant!r})")
    ks = _check_indices((k1, k2, k3, k4))
    if sum(ks) % 2:
        return Fraction(0)
    sums, den = _four_factor_case_sums(ks, variant == "corrected")
    return Fraction(sum(sums.values()) * _factorial_product(ks), den)
