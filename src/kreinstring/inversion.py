"""Reconstruction of a discrete string from KREIN-form coefficients.

The string for coefficients s_0, ..., s_n is built level by level: level m
holds the string of the trailing coefficients s_{n-m}, ..., s_n, and level
m+1 follows from level m by dualizing and applying an exact piecewise-linear
time change.  Only the previous level is kept.

The level state is float64 natural logarithms of the gaps between jump
positions, of the individual masses and of the first gap y0.

Logarithms give exponent range.  Truncating the expansion of a string whose
mass cap is approached only as x grows without bound produces strings whose
last records sit at genuinely astronomical positions, and the intermediate
levels stretch further still: about 1e+-2460 at Bessel-drift order 4095.
Exact rational arithmetic confirms these magnitudes, so they are the answer,
not a defect.  Their logarithms are ordinary doubles on every host.

Difference form keeps relative precision.  Cumulative values saturate toward
1/c within a level, and differencing them would zero out every mass below
the rounding threshold.  Updates of gaps and masses are products and
quotients, sums of logs here; the one sum a level needs, log(1 + c x) at
every position x, is a single ``logaddexp`` accumulation.  A value v held as
its logarithm has relative error about eps*|ln v|, about 1e-14 where values
span 1e+-100.

On output, records past ``_LUMP_BOUND`` (their remaining mass is
correspondingly negligible) fold into the last record kept, whose value is
the exact plateau 1/s_0; values x/(1 + c x) are taken as -expm1(-log f)/c,
which keeps near-cap records apart, and ``strings.build_string`` merges
records whose positions round to one double.
"""

from __future__ import annotations

import math
import sys

from .continued import ContinuedFraction, Form
from .strings import DiscreteString, build_string

# Output records past this position are folded into the previous one; keeps
# the materialized string inside double range with headroom for the terminal.
_LUMP_BOUND = 1e305
_LOG_MAX = math.log(sys.float_info.max)


def invert(cf: ContinuedFraction) -> DiscreteString:
    """Discrete string whose KREIN-form expansion has exactly cf's coefficients.

    The reconstruction has about n/2 point masses for n+1 coefficients.  When
    s_0 > 0 the final plateau value is exactly 1/s_0; when s_0 = 0 the
    would-be infinite final value is encoded as a terminal point at the last
    computed position.  Positions and values agree with exact arithmetic to
    a relative error of about eps*|ln v| for a value v.  Rejects s_0 = 0 with
    n = 0 (the zero function is the characteristic function of no string).

    Raises OverflowError when 1/s_0, or for s_0 = 0 a position or a value of
    the string, lies outside double range.
    """
    if cf.form is not Form.KREIN:
        raise ValueError("inversion expects KREIN-form coefficients")
    s = cf.coefficients
    n = len(s) - 1
    if s[0] > 0.0 and math.isinf(1.0 / s[0]):
        decade = -math.log10(s[0])
        raise OverflowError("the final plateau 1/s_0 is about 1e%.0f, outside double range" % decade)
    if n == 0:
        if s[0] == 0.0:
            raise ValueError("s_0 = 0 with no further coefficients matches no string")
        return DiscreteString(((0.0, 1.0 / s[0]),))
    import numpy as np  # here, not at module level: no other command needs arrays

    # level 0: the constant string of the last coefficient
    ly0 = -math.log(s[n])
    lg = lm = np.zeros(0)
    for m in range(1, n + 1):
        c = s[n - m]
        lc = math.log(c) if c > 0.0 else -math.inf
        # log f at the origin and at every previous-level position
        lf = np.logaddexp.accumulate(np.concatenate(([0.0], lc + lg)))
        ldx = 2.0 * lf[1:] + lm  # time-changed gaps f^2 * mass
        if m == n:
            break
        # new masses: gap/(f_left f_right) per old gap, then the tail 1/(c f)
        lm = np.append(lg - lf[:-1] - lf[1:], -lc - lf[-1])
        if m % 2 == 1:
            lg = np.concatenate(([ly0], ldx))
        else:
            lg, ly0, lm = ldx, lm[0], lm[1:]

    odd = n % 2 == 1
    lpos = np.logaddexp.accumulate(np.concatenate(([ly0], ldx)) if odd else ldx)
    if c == 0.0:
        # values are the previous level's positions; the last position is the terminal
        lx = np.logaddexp.accumulate(lg)
        peak = max(lpos[-1], lx[-1]) if lx.size else lpos[-1]
        if peak > _LOG_MAX:
            decade = peak / math.log(10.0)
            raise OverflowError("the string reaches about 1e%.0f, outside double range" % decade)
        positions = [0.0, *np.exp(lpos).tolist()]
        values = np.exp(lx).tolist()
        head = [0.0, *values] if odd else values
        return build_string(zip(positions[:-1], head), positions[-1])
    # fold records past the bound into the last kept one, whose value is the
    # exact plateau 1/s_0: mass moves inward, none is lost
    keep = int(np.searchsorted(lpos, math.log(_LUMP_BOUND), side="right"))
    positions = [0.0, *np.exp(lpos[:keep]).tolist()]
    values = (-np.expm1(-lf[1:]) / c).tolist()
    head = [0.0, *values] if odd else values
    return build_string(zip(positions, [*head[:keep], 1.0 / c]))
