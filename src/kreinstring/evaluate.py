"""Characteristic functions on the negative real axis.

``char_function`` evaluates the characteristic function of a discrete string
by sweeping the Riccati jump rule backwards from the right end;
``eval_fraction`` evaluates a finite continued fraction bottom-up in whichever
layout it is tagged with.  Both are restricted to real z < 0, where every
quantity involved is positive and the recursions are stable.
"""

from __future__ import annotations

import math

from .continued import ContinuedFraction, Form
from .strings import DiscreteString


def char_function(s: DiscreteString, z: float) -> float:
    """Characteristic function of a discrete string at z < 0.

    Backward sweep: seed with the tail gap L - x_last when a terminal point
    exists (reciprocal 0 otherwise), then alternate the point-mass update
    w <- 1/(-m z + 1/w) and the gap shift w <- w + (x_j - x_{j-1}).  A
    quantity that underflows to 0 has a reciprocal of inf.
    """
    if not z < 0.0:  # NaN included
        raise ValueError("characteristic function is evaluated at z < 0 only")
    last_x, last_y = s.jumps[-1]
    if s.terminal is None and last_y == 0.0:
        raise ValueError("massless string without terminal point has no characteristic function")
    w = math.inf if s.terminal is None else s.terminal - last_x
    for j in range(len(s.jumps) - 1, -1, -1):
        x, y = s.jumps[j]
        m = y - (s.jumps[j - 1][1] if j > 0 else 0.0)
        if m > 0.0:
            d = -m * z + (0.0 if math.isinf(w) else 1.0 / w)
            w = 1.0 / d if d else math.inf
        w += x - (s.jumps[j - 1][0] if j > 0 else 0.0)
    return w


def eval_fraction(cf: ContinuedFraction, z: float) -> float:
    """Evaluate a finite continued fraction at z < 0, innermost term first.

    Even-indexed coefficients enter as s/(-z) (KREIN) or -s*z (STIELTJES);
    odd-indexed ones enter as plain additive terms in both layouts.  A term
    that underflows to 0 has a reciprocal of inf.
    """
    if not z < 0.0:  # NaN included
        raise ValueError("fractions are evaluated at z < 0 only")
    s = cf.coefficients
    n = len(s) - 1
    if cf.form is Form.KREIN:
        w = s[n] / -z if n % 2 == 0 else s[n]
        for i in range(n - 1, -1, -1):
            w = (s[i] / -z if i % 2 == 0 else s[i]) + (1.0 / w if w else math.inf)
        return w
    u = -s[n] * z if n % 2 == 0 else s[n]
    for i in range(n - 1, -1, -1):
        u = (-s[i] * z if i % 2 == 0 else s[i]) + (1.0 / u if u else math.inf)
    return math.inf if u == 0.0 else 1.0 / u


def levy_exponent(cf: ContinuedFraction, lam: float) -> float:
    """Laplace exponent of the inverse local time: 1 / W(-lambda).

    A vanishing W(-lambda) gives inf, as in ``eval_fraction``.
    """
    if cf.form is not Form.KREIN:
        raise ValueError("the exponent is defined for KREIN-form coefficients")
    if not lam > 0.0:
        raise ValueError("lambda must be positive")
    w = eval_fraction(cf, -lam)
    return math.inf if w == 0.0 else 1.0 / w
