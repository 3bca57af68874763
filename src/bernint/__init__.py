"""Exact integrals of products of Bernoulli polynomials.

Closed-form and recurrence evaluation of integral_0^x B_{k_1}(z)...B_{k_r}(z) dz
over exact rationals, verified against a brute-force polynomial-expansion
oracle.  The package is pure Python: the closed form runs on one exact
integer kernel (`bernint.kernels`) that multiplies one small polynomial per
index, so no compiler or extension is involved.
"""

from .bernoulli import (
    DEFAULT_CACHE,
    BernoulliCache,
    Polynomial,
    bernoulli_number,
    bernoulli_polynomial,
)
from .exact import MultiIndex, Rational, binomial, compositions, factorial, multinomial
from .integrals import (
    IntegralSpec,
    ScaledValue,
    c_term,
    closed_form_integral,
    closed_form_integral_poly,
    four_factor_at_one,
    four_factor_even_sum,
    norlund_value,
    oracle_integral,
    oracle_integral_poly,
    recurrence_integral,
    recurrence_residual_indices,
    three_factor_at_one,
    three_factor_formula,
    two_factor_formula,
)
from .kernels import active_backend

__version__ = "0.1.0"

__all__ = [
    "DEFAULT_CACHE",
    "BernoulliCache",
    "IntegralSpec",
    "MultiIndex",
    "Polynomial",
    "Rational",
    "ScaledValue",
    "active_backend",
    "bernoulli_number",
    "bernoulli_polynomial",
    "binomial",
    "c_term",
    "closed_form_integral",
    "closed_form_integral_poly",
    "compositions",
    "factorial",
    "four_factor_at_one",
    "four_factor_even_sum",
    "multinomial",
    "norlund_value",
    "oracle_integral",
    "oracle_integral_poly",
    "recurrence_integral",
    "recurrence_residual_indices",
    "three_factor_at_one",
    "three_factor_formula",
    "two_factor_formula",
]
