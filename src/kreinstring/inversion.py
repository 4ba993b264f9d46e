"""Reconstruction of a discrete string from KREIN-form coefficients.

The string for coefficients s_0, ..., s_n is built level by level: level m
holds the string of the trailing coefficients s_{n-m}, ..., s_n, and level
m+1 follows from level m by dualizing and applying an exact piecewise-linear
time change.  Only the previous level is kept.

Two numerical measures protect the computation.

First, the level state is stored in difference form (individual masses and
gaps between jump positions) rather than as cumulative arrays.  The
recurrences then involve only products and quotients of positive quantities,
never the subtraction of nearly equal numbers: cumulative values saturate
toward 1/c within a level, and differencing them in floating point silently
zeroes out every mass below the rounding threshold, freezing the fine
structure of the string near its right end.  In difference form each mass
keeps full relative precision no matter how small it is.

Second, the levels run in extended precision (numpy longdouble) purely for
exponent range.  Truncating the expansion of a string whose mass cap is
approached only as x grows without bound produces finite strings whose last
records sit at genuinely astronomical positions, and the intermediate levels
stretch further still, roughly one extra decade every two levels.  Exact
rational arithmetic confirms these magnitudes, so they are the answer, not a
defect; doubles simply cannot hold them past n of a few hundred.  On output,
records beyond the double range (their remaining mass is correspondingly
negligible) are folded into the last representable record, and
``strings.build_string`` merges records whose positions round to one double.
"""

from __future__ import annotations

from .continued import ContinuedFraction, Form
from .strings import DiscreteString, build_string

# Output records past this position are folded into the previous one; keeps
# the materialized string inside double range with headroom for the terminal.
_LUMP_BOUND = 1e305


def invert(cf: ContinuedFraction) -> DiscreteString:
    """Discrete string whose KREIN-form expansion has exactly cf's coefficients.

    The reconstruction has about n/2 point masses for n+1 coefficients.  When
    s_0 > 0 the final plateau value is exactly 1/s_0; when s_0 = 0 the
    would-be infinite final value is encoded as a terminal point at the last
    computed position.  Rejects s_0 = 0 with n = 0 (the zero function is the
    characteristic function of no string).

    Raises OverflowError when even extended precision cannot hold the
    intermediate scales (growing lists like 0,1,3,5,... past n of several
    thousand, geometrically decaying ones far earlier), or when a terminal
    position itself exceeds double range.
    """
    if cf.form is not Form.KREIN:
        raise ValueError("inversion expects KREIN-form coefficients")
    import numpy as np  # here, not at module level: no other command needs arrays

    s = np.asarray(cf.coefficients, dtype=np.longdouble)
    n = len(s) - 1
    if n == 0:
        if s[0] == 0.0:
            raise ValueError("s_0 = 0 with no further coefficients matches no string")
        return DiscreteString(((0.0, float(1.0 / s[0])),))

    one = np.longdouble(1.0)
    # level 0: the constant string of the last coefficient
    y0 = one / s[n]
    gaps = np.zeros(0, dtype=np.longdouble)
    masses = np.zeros(0, dtype=np.longdouble)
    # overflow past extended range is detected per level and raised below;
    # silence the intermediate inf arithmetic rather than warning on it
    with np.errstate(over="ignore", invalid="ignore"):
        for m in range(1, n + 1):
            c = s[n - m]
            odd = m % 2 == 1
            x_tail = np.cumsum(gaps)  # previous-level positions past the origin
            f = one + c * x_tail
            dx = f * f * masses  # time-changed gaps
            if m == n:
                scaled = x_tail / f if x_tail.size else x_tail
                if odd:
                    positions = np.concatenate(([np.longdouble(0.0), y0], y0 + np.cumsum(dx)))
                    head = np.concatenate(([np.longdouble(0.0)], scaled))
                else:
                    positions = np.concatenate(([np.longdouble(0.0)], np.cumsum(dx)))
                    head = scaled
                if c == 0.0:
                    terminal = float(positions[-1])
                    if not np.isfinite(terminal):
                        raise OverflowError(
                            "terminal position exceeds double range; the string "
                            "for these coefficients is too long to materialize"
                        )
                    return build_string(zip(positions[:-1], head), terminal)
                # fold records past the bound into the last kept one, whose
                # value is the exact plateau 1/s_0: mass moves inward, none is lost
                keep = int(np.searchsorted(positions, np.longdouble(_LUMP_BOUND), side="right"))
                return build_string(zip(positions[:keep], [*head[: keep - 1], 1.0 / float(c)]))
            # interior level: next difference state
            mid = gaps[1:] / (f[:-1] * f[1:])
            tail_mass = one / c if gaps.size == 0 else one / (c * f[-1])
            head_mass = gaps[:1] / f[:1]  # new first scaled value, empty at level 1
            if odd:
                gaps = np.concatenate(([y0], dx))
                masses = np.concatenate((head_mass, mid, [tail_mass]))
                y0 = np.longdouble(0.0)
            else:
                gaps = dx
                masses = np.concatenate((mid, [tail_mass]))
                y0 = head_mass[0]
            if not np.isfinite(np.sum(gaps)):
                raise OverflowError(
                    "intermediate string length exceeds extended range at level "
                    "%d of %d; the coefficient scales are too extreme for this "
                    "truncation order" % (m, n)
                )
    raise AssertionError("unreachable")
