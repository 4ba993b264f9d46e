"""Continued-fraction coefficients from power moments, plus a determinacy check.

The coefficient extraction runs the Euclid step of the Stieltjes fraction on
the asymptotic expansion of the characteristic function at z -> -infinity,
kept as a ratio num/den of two truncated series (Viskovatov's two-row form).
Each row is a list of Python ints over one positive int denominator, with the
moments' alternating signs folded into the first num row.  A step emits
s = (den[0]/d_den) / (num[0]/d_num) and replaces the rows by

    num <- (den[1:]*num[0] - den[0]*num[1:]) / (d_den*num[0]),
    den <- num[:-1] / d_num,

one term shorter, then divides the new num row and its denominator by their
gcd.  N moments take O(N^2) integer operations; the only Fractions are the
emitted coefficients.  The arithmetic is exact so that a moment sequence
coming from a finite atomic measure terminates with a recognisable all-zero
remainder instead of drowning in roundoff.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import List, Sequence, Tuple

from .continued import ContinuedFraction, Form, to_double


def stieltjes_from_moments_exact(moments: Sequence[Fraction]) -> Tuple[List[Fraction], bool]:
    """Exact Stieltjes-form coefficients from the moments c_k = integral of x^k.

    Returns (coefficients, terminated).  ``terminated`` means the remainder
    vanished identically: the moments belong to a finite atomic measure and the
    coefficient list is complete rather than truncated.  Raises ValueError if
    the sequence is not a valid moment sequence as far as the data can tell
    (a required leading coefficient comes out nonpositive).
    """
    if len(moments) == 0:
        raise ValueError("need at least one moment")
    for c in moments:
        if isinstance(c, bool) or not isinstance(c, (Fraction, int)):
            raise ValueError("moments must be exact rationals, got %r" % type(c).__name__)
    if moments[0] <= 0:
        raise ValueError("zeroth moment (total mass) must be positive")
    # Rows as in the module docstring: num/d_num and den/d_den.  The new den row
    # is the old num row, already reduced, so one gcd per step suffices.
    # den[0] stays positive, so the sign of num[0] is the sign of the leading
    # term of num/den.
    d_num = math.lcm(*(c.denominator for c in moments))
    num = [(c.numerator * (d_num // c.denominator)) * (-1) ** k for k, c in enumerate(moments)]
    den, d_den = [1] + [0] * (len(num) - 1), 1
    coeffs: List[Fraction] = []
    while num:
        if not any(num):
            return coeffs, True
        n0, d0 = num[0], den[0]
        if n0 <= 0:
            raise ValueError(
                "not a moment sequence: nonpositive divisor at coefficient %d" % len(coeffs)
            )
        coeffs.append(Fraction(d0 * d_num, d_den * n0))
        num, den = [d * n0 - d0 * v for d, v in zip(den[1:], num[1:])], num[:-1]
        d_num, d_den = d_den * n0, d_num
        g = math.gcd(d_num, *num)
        num, d_num = [v // g for v in num], d_num // g
    return coeffs, False


def coefficients_from_moments(moments: Sequence[Fraction]) -> ContinuedFraction:
    """Float boundary over the exact extraction; Stieltjes form.

    Every exact coefficient is positive; ``to_double`` raises OverflowError
    naming s_j when one is too large for a double or would round to 0.0.
    """
    exact, terminated = stieltjes_from_moments_exact(moments)
    coeffs = tuple(to_double(j, v) for j, v in enumerate(exact))
    return ContinuedFraction(Form.STIELTJES, coeffs, terminated=terminated)


@dataclass(frozen=True)
class DeterminacyReport:
    """Partial sums of the coefficient sequence and the verdict they support."""

    partial_sums: Tuple[float, ...]
    horizon: int
    verdict: str  # "terminating (determinate)" | "divergence observed up to N" | "inconclusive"


def determinacy_diagnostic(cf: ContinuedFraction, partial_sums: int) -> DeterminacyReport:
    """Report partial sums s_0 + ... + s_i; divergence of the full series is
    the classical criterion for a determinate moment problem.

    Only finitely many coefficients are available, so apart from the
    terminating case the verdict is a heuristic: "divergence observed" when the
    partial sums still grow markedly over the second half of the horizon,
    "inconclusive" otherwise.
    """
    if partial_sums < 0:
        raise ValueError("partial_sums must be nonnegative")
    horizon = min(partial_sums, len(cf.coefficients) - 1)
    sums: List[float] = []
    acc = 0.0
    for s in cf.coefficients[: horizon + 1]:
        acc += s
        sums.append(acc)
    if cf.terminated or len(cf.coefficients) == 1:
        verdict = "terminating (determinate)"
    else:
        half = sums[horizon // 2]
        last = sums[horizon]
        growing = last >= 1.5 * half if half > 0.0 else last > 0.0
        if horizon >= 2 and growing:
            verdict = "divergence observed up to %d" % horizon
        else:
            verdict = "inconclusive"
    return DeterminacyReport(tuple(sums), horizon, verdict)
