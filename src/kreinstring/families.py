"""Closed-form coefficient families and reference mass curves.

Three KREIN-form families with known characteristic functions:

* ``tanh_coefficients``: the unit-impedance string, W(z) = tanh(r)/r with
  r = sqrt(-z); coefficients 0, 1, 3, 5, ...
* ``bessel_drift_coefficients``: the Bessel-with-drift family,
  W(z) = (alpha/gamma) / ((1 - z/beta)^alpha - 1), whose coefficients are
  ratios of rising factorials.
* ``log_limit_coefficients``: the alpha -> 0 limit of the previous family
  with gamma pinned to 1/2, W(z) = 2 / log(1 - z/beta).

``REFERENCES`` maps the name of each closed-form mass curve used to judge
reconstructions to the curve itself: ``bm-drift`` is M(x) = 2x/(1+4x), the
drifted-Brownian-motion string, and ``uniform`` is M(x) = x up to 1, infinite
beyond.  The command line takes its families and references from
``FAMILIES`` and ``REFERENCES``.
"""

from __future__ import annotations

import math
import sys
from itertools import count, islice
from typing import Iterator

from .continued import ContinuedFraction, Form


def tanh_coefficients(n: int) -> ContinuedFraction:
    """Coefficients 0, 1, 3, ..., 2n-1 of the unit-impedance string (n+1 entries)."""
    if n < 1:
        raise ValueError("need n >= 1 (the leading coefficient alone is zero)")
    return ContinuedFraction(Form.KREIN, (0.0,) + tuple(float(2 * k - 1) for k in range(1, n + 1)))


def bessel_drift_coefficients(alpha: float, beta: float, c_const: float, n: int) -> ContinuedFraction:
    """First n+1 coefficients of the Bessel-with-drift family.

    With gamma = c_const * Gamma(1-alpha) * beta**alpha, the pair at index j is

        s_{2j}   = (beta/gamma) * (1-alpha)_j / (1+alpha)_j * (2j+1)
        s_{2j+1} = 2*gamma * (1+alpha)_j / (1-alpha)_{j+1}

    where (a)_k is the rising factorial.  Certified against an exact-rational
    expansion of the closed form: for alpha = 1/2, beta = 2, gamma = 1 the
    sequence is the periodic 2, 4, 2, 4, ...  A generator yields s_0, s_1, ...
    with the two ratios as running products (each factor is O(1), so nothing
    overflows even though the factorials would); the only special-function
    call is the single Gamma(1-alpha).  Raises OverflowError naming the
    parameters when gamma or a coefficient falls outside double range, or
    below its normal numbers.
    """
    if not 0.0 < alpha < 1.0:
        raise ValueError("alpha must lie in (0, 1)")
    if not 0.0 < beta < math.inf:
        raise ValueError("beta must be finite and positive")
    if not 0.0 < c_const < math.inf:
        raise ValueError("the constant must be finite and positive")
    if n < 0:
        raise ValueError("need n >= 0")
    params = f"alpha = {alpha:g}, beta = {beta:g}, c_const = {c_const:g}"
    gamma = c_const * math.gamma(1.0 - alpha) * beta**alpha
    formula = "gamma = c_const * Gamma(1-alpha) * beta**alpha"
    if not 0.0 < gamma < math.inf:
        raise OverflowError(f"{formula} is outside double range at {params}")
    # a subnormal gamma leaves every coefficient a few digits; an infinite s_0 = beta/gamma is named instead
    if gamma < sys.float_info.min and beta / gamma < math.inf:
        raise OverflowError(f"{formula} = {gamma:.3g} is below the normal double range at {params}")

    def values():  # s_0, s_1, ...: the pair s_2j, s_2j+1 at each j
        ratio_even = 1.0  # (1-alpha)_j / (1+alpha)_j
        ratio_odd = 1.0 / (1.0 - alpha)  # (1+alpha)_j / (1-alpha)_{j+1}
        for j in count():
            yield beta / gamma * ratio_even * (2 * j + 1)
            yield 2.0 * gamma * ratio_odd
            ratio_even *= (1.0 - alpha + j) / (1.0 + alpha + j)
            ratio_odd *= (1.0 + alpha + j) / (2.0 - alpha + j)
    return _fraction_in_double_range(values(), n, params)


def log_limit_coefficients(beta: float, n: int) -> ContinuedFraction:
    """Termwise alpha -> 0 limit of the Bessel-with-drift coefficients.

    s_{2j} = 2*beta*(2j+1) and s_{2j+1} = 1/(j+1).  The corresponding
    characteristic function is 2 / log(1 - z/beta); the coefficients agree
    with an exact-rational expansion of that closed form; a generator yields
    them.  Raises OverflowError naming beta when a coefficient leaves double
    range or falls below its normal numbers.
    """
    if not 0.0 < beta < math.inf:
        raise ValueError("beta must be finite and positive")
    if n < 0:
        raise ValueError("need n >= 0")

    def values():  # s_0, s_1, ...: the pair s_2j, s_2j+1 at each j
        for j in count():
            yield 2.0 * beta * (2 * j + 1)
            yield 1.0 / (j + 1)
    return _fraction_in_double_range(values(), n, f"beta = {beta:g}")


def _fraction_in_double_range(values: Iterator[float], n: int, params: str) -> ContinuedFraction:
    """The KREIN-form fraction of the first n+1 values, each of which must be
    a positive normal double; a 0 or an inf is a coefficient the parameters
    push out of double range, and a 0 for s_0 would even mean another string.
    A subnormal coefficient keeps only the few digits left below the normal
    range."""
    coeffs = list(islice(values, n + 1))
    if not (0.0 < min(coeffs) and max(coeffs) < math.inf):
        j = next(j for j, s in enumerate(coeffs) if not 0.0 < s < math.inf)
        raise OverflowError(f"s_{j} is outside double range at {params}")
    if min(coeffs) < sys.float_info.min:
        j = next(j for j, s in enumerate(coeffs) if s < sys.float_info.min)
        raise OverflowError(f"s_{j} = {coeffs[j]:.3g} is below the normal double range at {params}")
    return ContinuedFraction(Form.KREIN, tuple(coeffs))


# family name -> (builder, the parameters it takes before the order n)
FAMILIES = {
    "tanh": (tanh_coefficients, ()),
    "bessel-drift": (bessel_drift_coefficients, ("alpha", "beta", "c_const")),
    "log-limit": (log_limit_coefficients, ("beta",)),
}

# reference name -> closed-form cumulative mass M(x), for x >= 0
REFERENCES = {
    # the quotient is exactly 0.5 long before 4x overflows
    "bm-drift": lambda x: 2.0 * x / (1.0 + 4.0 * x) if x < 1e300 else 0.5,
    "uniform": lambda x: x if x < 1.0 else math.inf,
}

# The paper's parameters: alpha = 1/2, beta = 2, c = 1/sqrt(2 pi), so that
# gamma = c * Gamma(1/2) * sqrt(2) = 1 and the drift family is 2, 4, 2, 4, ...
PAPER_PARAMETERS = {"alpha": 0.5, "beta": 2.0, "c_const": 1.0 / math.sqrt(2.0 * math.pi)}
