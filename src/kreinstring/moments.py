"""Continued-fraction coefficients from power moments, plus a determinacy check.

The coefficient extraction runs the Euclid step of the Stieltjes fraction on
the asymptotic expansion of the characteristic function at z -> -infinity,
kept as a ratio num/den of two truncated series (Viskovatov's two-row form).
Each row is a list of Python ints over one positive int denominator, with the
moments' alternating signs folded into the first num row.  A step divides
the pivots n0 = num[0] and d0 = den[0] by h = gcd(n0, d0), emits
s = (d0/d_den) / (n0/d_num) as the integer pair (d0*d_num, d_den*n0) and
replaces the rows by

    num <- (den[1:]*n0 - d0*num[1:]) / (d_den*n0),
    den <- num[:-1] / d_num,

one term shorter.  Taking h out of the pivots first is exact: with the
undivided pivots, h divides every entry of the new num row and its
denominator, so the row gcd removes it anyway and the reduced rows are the
same integers; the products are only formed without it.

The new num row and its denominator are then divided by their gcd, the row
content, except at the two steps right after a reduction whose content was
below 2**30, one digit of a Python int; at most two rows in a row go
unreduced.  This is exact too.  A row left unreduced is its reduced form
times a positive integer, so it stands for the same rational row: the sign of
num[0], the all-zero test and each coefficient, a ratio that does not depend
on scale, come out the same, and the next reduction gives the same integers
as reducing at every step, since a reduced row over a positive denominator is
unique.  The skip keys on the content just measured: the rows of Lebesgue or
drift moments take out a few bits a step, which buys little for a gcd chain
and a division pass, while those of an atomic measure take out hundreds of
bits a step, which compound when left in.  Two is the limit: on 96 Lebesgue
moments the widest integer is 147 bits with two rows, 160 with three.

One core runs the recurrence and two boundaries read its pairs.
``stieltjes_from_moments_exact`` makes each pair a normalised Fraction.
``coefficients_from_moments`` rounds each pair once, by the int true division
p / q, which Python rounds correctly: the double is the one the Fraction
would give, without the gcd that normalises it.  The pairs are not in lowest
terms, so ``to_double`` normalises one only to name it out of range.

N moments take O(N^2) integer operations; fractions is imported only where
rationals are built.  The arithmetic is exact so that a moment sequence
coming from a finite atomic measure terminates with a recognisable all-zero
remainder instead of drowning in roundoff; fixed-precision variants of this
recursion lose all significant digits beyond roughly fifteen moments.  A zero
leading term never becomes a divisor, where the quotient-difference table,
which computes the same coefficients, divides by entries that are 0/0 for
any measure with an atom at zero.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, List, Sequence, Tuple

from .continued import ContinuedFraction, Form, to_double

if TYPE_CHECKING:
    from fractions import Fraction


# A row content below one 30-bit digit of a Python int leaves the next two rows unreduced.
_SMALL_CONTENT = 1 << 30


def _stieltjes_pairs(moments: Sequence[Fraction]) -> Tuple[List[Tuple[int, int]], bool]:
    """The recurrence of the module docstring, shared by both boundaries: each
    coefficient as an integer pair (p, q), p/q = s_j with p, q > 0 and not in
    lowest terms, and the terminated flag.  Checks the moments as
    ``stieltjes_from_moments_exact`` documents."""
    from fractions import Fraction

    if len(moments) == 0:
        raise ValueError("need at least one moment")
    for c in moments:
        if isinstance(c, bool) or not isinstance(c, (Fraction, int)):
            raise ValueError("moments must be exact rationals, got %r" % type(c).__name__)
    if moments[0] <= 0:
        raise ValueError("zeroth moment (total mass) must be positive")
    # Rows as in the module docstring: num/d_num and den/d_den.  The new den row
    # is the old num row, so only the new num row is reduced, and not while
    # ``skip`` counts down the rows after a reduction that took out less than
    # _SMALL_CONTENT.  den[0] stays positive, so the sign of num[0] is the sign
    # of the leading term of num/den.
    d_num = math.lcm(*(c.denominator for c in moments))
    num = [(c.numerator * (d_num // c.denominator)) * (-1) ** k for k, c in enumerate(moments)]
    den, d_den = [1] + [0] * (len(num) - 1), 1
    pairs: List[Tuple[int, int]] = []
    skip = 0
    while num:
        if not any(num):
            return pairs, True
        n0, d0 = num[0], den[0]
        if n0 <= 0:
            raise ValueError(
                "not a moment sequence: nonpositive divisor at coefficient %d" % len(pairs)
            )
        h = math.gcd(n0, d0)
        n0, d0 = n0 // h, d0 // h
        pairs.append((d0 * d_num, d_den * n0))
        tail = zip(den[1:], num[1:])
        row = [d - d0 * v for d, v in tail] if n0 == 1 else [d * n0 - d0 * v for d, v in tail]
        num, den = row, num[:-1]
        d_num, d_den = d_den * n0, d_num
        if skip:
            skip -= 1
        else:
            g = math.gcd(d_num, *num)
            if g > 1:
                num, d_num = [v // g for v in num], d_num // g
            skip = 2 if g < _SMALL_CONTENT else 0
    return pairs, False


def stieltjes_from_moments_exact(moments: Sequence[Fraction]) -> Tuple[List[Fraction], bool]:
    """Exact Stieltjes-form coefficients from the moments c_k = integral of x^k.

    Returns (coefficients, terminated).  ``terminated`` means the remainder
    vanished identically: the moments belong to a finite atomic measure and the
    coefficient list is complete rather than truncated.  Raises ValueError if
    the sequence is not a valid moment sequence as far as the data can tell
    (a required leading coefficient comes out nonpositive).
    """
    from fractions import Fraction

    pairs, terminated = _stieltjes_pairs(moments)
    return [Fraction(p, q) for p, q in pairs], terminated


def coefficients_from_moments(moments: Sequence[Fraction]) -> ContinuedFraction:
    """Float boundary over the exact extraction; Stieltjes form.

    Each double is rounded once from its integer pair.  Every exact
    coefficient is positive; ``to_double`` raises OverflowError naming s_j
    when one is too large for a double or would round to 0.0.
    """
    pairs, terminated = _stieltjes_pairs(moments)
    coeffs = tuple(to_double(j, p, q) for j, (p, q) in enumerate(pairs))
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
