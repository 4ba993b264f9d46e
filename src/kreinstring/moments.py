"""Continued-fraction coefficients from power moments, plus a determinacy check.

The coefficient extraction runs the Euclid step of the Stieltjes fraction on
the asymptotic expansion of the characteristic function at z -> -infinity,
kept as a ratio of two truncated series (Viskovatov's two-row form): each
coefficient costs one pass over rows one term shorter than the last, so N
moments take O(N^2) operations.  It is carried out in exact rational
arithmetic so that a moment sequence coming from a finite atomic measure
terminates with a recognisable all-zero remainder instead of drowning in
roundoff.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import List, Sequence, Tuple

from .continued import ContinuedFraction, Form

MomentSequence = Sequence[Fraction]


def stieltjes_from_moments_exact(moments: MomentSequence) -> Tuple[List[Fraction], bool]:
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
        if not isinstance(c, (Fraction, int)):
            raise ValueError("moments must be exact rationals, got %r" % type(c).__name__)
    c0 = Fraction(moments[0])
    if c0 <= 0:
        raise ValueError("zeroth moment (total mass) must be positive")
    # Expansion of the characteristic function in powers of 1/z, alternating
    # signs folded in, held as a ratio num/den of truncated series.  Each step
    # reads off s = (1/g)(0) = den[0]/num[0] and continues with
    # (1/g - s)/t = (den - s*num)[1:] / num, one term shorter.  den[0] stays
    # positive, so the sign of num[0] is the sign of g(0).
    num = [Fraction(c) if k % 2 == 0 else -Fraction(c) for k, c in enumerate(moments)]
    den = [Fraction(1)] + [Fraction(0)] * (len(num) - 1)
    coeffs: List[Fraction] = []
    while num:
        if all(v == 0 for v in num):
            return coeffs, True
        if num[0] <= 0:
            raise ValueError(
                "not a moment sequence: nonpositive divisor at coefficient %d" % len(coeffs)
            )
        s = den[0] / num[0]
        coeffs.append(s)
        num, den = [d - s * v for d, v in zip(den[1:], num[1:])], num[:-1]
    return coeffs, False


def coefficients_from_moments(moments: MomentSequence) -> ContinuedFraction:
    """Float boundary over the exact extraction; Stieltjes form.

    Every exact coefficient is positive.  Raises OverflowError naming s_j when
    one lies outside double range: too large for a double, or so small that
    it would round to 0.0.
    """
    exact, terminated = stieltjes_from_moments_exact(moments)
    coeffs = []
    for j, v in enumerate(exact):
        try:
            f = float(v)
        except OverflowError:  # the exact division exceeds the largest double
            f = math.inf
        if f == 0.0 or math.isinf(f):
            decade = math.floor(math.log10(v.numerator) - math.log10(v.denominator))
            raise OverflowError("s_%d is about 1e%d, outside double range" % (j, decade))
        coeffs.append(f)
    return ContinuedFraction(Form.STIELTJES, tuple(coeffs), terminated=terminated)


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
