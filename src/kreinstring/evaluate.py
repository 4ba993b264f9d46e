"""Characteristic functions on the negative real axis.

One loop, ``_fold``, evaluates every finite continued fraction: a tagged
coefficient list in ``eval_fraction``, and a string read as its STIELTJES list
of masses and gaps (Stieltjes' fraction of the string) in ``char_function``.
Both are restricted to real z < 0, where every term is positive and the
recursion is stable.
"""

from __future__ import annotations

import math
from typing import Sequence, Union

from .continued import ContinuedFraction, Form
from .strings import DiscreteString


def _fold(s: Sequence[float], z: float, form: Form) -> float:
    """Value of the fraction with coefficients s in the given layout at z < 0.

    Folds t_i = e_i + 1/t_{i+1} from the innermost term outwards, where e_i is
    s_i/(-z) (KREIN) or -s_i z (STIELTJES) at even i and s_i at odd i.  KREIN
    returns t_0; STIELTJES returns 1/t_0, or t_1 itself when s_0 = 0, since
    1/(0 + 1/t_1) is exactly t_1.  A term that is 0 has a reciprocal of inf.
    """
    nz = -z
    krein = form is Form.KREIN
    e = list(s)
    e[::2] = [v / nz for v in e[::2]] if krein else [v * nz for v in e[::2]]
    t = math.inf
    for v in reversed(e[1:]):
        t = v + (1.0 / t if t else math.inf)
    if not krein and s[0] == 0.0:
        return t
    t = e[0] + (1.0 / t if t else math.inf)
    return t if krein else (1.0 / t if t else math.inf)


def char_function(s: DiscreteString, z: float) -> float:
    """Characteristic function of a discrete string at z < 0.

    The string is read as the STIELTJES list of its masses and gaps,
    [m_0, x_1 - x_0, m_1, ..., m_k], followed by the gap L - x_k to the
    terminal point when there is one.
    """
    if not z < 0.0:  # NaN included
        raise ValueError("characteristic function is evaluated at z < 0 only")
    jumps = s.jumps
    if s.terminal is None and jumps[-1][1] == 0.0:
        raise ValueError("massless string without terminal point has no characteristic function")
    terms = [jumps[0][1]]
    for (x0, y0), (x1, y1) in zip(jumps, jumps[1:]):
        terms += (x1 - x0, y1 - y0)
    if s.terminal is not None:
        terms.append(s.terminal - jumps[-1][0])
    return _fold(terms, z, Form.STIELTJES)


def eval_fraction(cf: ContinuedFraction, z: float) -> float:
    """Evaluate a finite continued fraction at z < 0 in the layout it is tagged with."""
    if not z < 0.0:  # NaN included
        raise ValueError("fractions are evaluated at z < 0 only")
    return _fold(cf.coefficients, z, cf.form)


def levy_exponent(source: Union[ContinuedFraction, DiscreteString], lam: float) -> float:
    """Laplace exponent of the inverse local time: 1 / W(-lambda).

    W is ``char_function`` of a string or ``eval_fraction`` of a fraction in
    either layout.  A vanishing W(-lambda) gives inf.
    """
    if not lam > 0.0:
        raise ValueError("lambda must be positive")
    w = (char_function if isinstance(source, DiscreteString) else eval_fraction)(source, -lam)
    return math.inf if w == 0.0 else 1.0 / w
