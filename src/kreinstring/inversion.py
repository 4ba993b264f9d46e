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

Entry k of a level depends only on entries up to k of the level before: the
``logaddexp`` accumulation runs left to right, and the entry an odd level
prepends (y0) is taken off again by the next even level (its first mass
becomes y0).  Cutting every level to its first C entries therefore leaves
the first C - 2 final records bit for bit as they are.

The string ends at the plateau 1/s_0: at its first record whose value is
1/s_0, else at its last record.  With s_0 = 0 the plateau 1/s_0 = inf is the
terminal, and the levels run uncut.  With s_0 > 0 the end comes early,
record 196 or so of 2048 for the Bessel-drift and log-limit families at n
near 4000: ``invert`` runs the levels cut to ``_CAP`` entries, checks that
the end falls among the exact records, and otherwise runs them again uncut.

On output, a value x/f with f = 1 + s_0 x is -expm1(-log f)/s_0, which keeps
near-plateau records apart, or exp(log x - log f) where log f is below the
normal range (always when s_0 = 0) and that quotient keeps no digits.
``strings.build_string`` merges records whose positions round to one double.
The records after the first one at 1/s_0 add no value and are dropped,
however far out they lie.  A string whose values still fall short of 1/s_0
past ``_LUMP_BOUND`` does not fit in doubles; its remaining mass is not
folded inward.
"""

from __future__ import annotations

import math
import sys

from .continued import ContinuedFraction, Form
from .strings import DiscreteString, build_string

# A string with s_0 > 0 must reach 1/s_0 by this position; keeps the
# materialized string inside double range with headroom for transforms.
_LUMP_BOUND = 1e305
# A string with s_0 = 0 must fit in doubles, its positions and values alike.
_LOG_MAX = math.log(sys.float_info.max)
# While s_0 > 0 the levels first run cut to this many entries (at least 4).
_CAP = 256


def invert(cf: ContinuedFraction) -> DiscreteString:
    """Discrete string whose KREIN-form expansion has exactly cf's coefficients.

    The reconstruction has about n/2 point masses for n+1 coefficients and
    ends at the plateau 1/s_0.  When s_0 > 0 the last value is exactly 1/s_0;
    when s_0 = 0 the plateau is 1/s_0 = inf and its position is the terminal.
    Positions and values agree with exact arithmetic to a relative error of
    about eps*|ln v| for a value v, also where s_0 v is below the normal range.
    Rejects s_0 = 0 with n = 0 (the zero function is the characteristic
    function of no string).

    Raises OverflowError when 1/s_0, or for s_0 = 0 a position or a value of
    the string, lies outside double range, and for s_0 > 0 when the values
    have not reached 1/s_0 by position 1e305.
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

    c = s[0]
    plateau, bound = (1.0 / c, math.log(_LUMP_BOUND)) if c > 0.0 else (math.inf, _LOG_MAX)
    # run cut first (a cut near the n/2 entries of a level saves little), and
    # run again uncut when the end of the string is not among the exact records
    for cap in (_CAP, n) if c > 0.0 and 4 * _CAP < n else (n,):
        lpos, lf, lx = _levels(s, cap)
        if c == 0.0 and (peak := max([lpos[-1], *lx[-1:]])) > _LOG_MAX:
            decade = peak / math.log(10.0)
            raise OverflowError("the string reaches about 1e%.0f, outside double range" % decade)
        # record i > 0 sits at exp(lpos[i - 1]) and takes the value x/f with
        # f = 1 + c x; below the normal range -expm1(-log f)/c keeps no digits
        low = lf < sys.float_info.min
        values = np.exp(lx - lf, where=low, out=np.zeros_like(lf))
        np.divide(-np.expm1(-lf), c, where=~low, out=values)
        head = np.concatenate(([0.0], values)) if n % 2 == 1 else values
        # the string ends at its first record whose value is the plateau,
        # else at record len(head), which takes it
        hits = np.flatnonzero(head == plateau)
        end = int(hits[0]) if hits.size else len(head)
        keep = int(np.searchsorted(lpos, bound, side="right"))
        if cap == n or min(end, keep + 1) < cap - 2:
            break  # uncut, or the end or the first record past the bound is exact
    if end > keep:
        decade = lpos[keep] / math.log(10.0)
        raise OverflowError(
            "the string reaches about 1e%.0f before its values reach 1/s_0, outside double range" % decade
        )
    positions = [0.0, *np.exp(lpos[:end]).tolist()]
    records = [*zip(positions, head[:end].tolist()), (positions[-1], plateau)]
    # the plateau 1/s_0 = inf is the terminal
    terminal = records.pop()[0] if c == 0.0 else None
    return build_string(records, terminal)


def _levels(s, cap):
    """Final-level logs: the positions, log f = log(1 + s_0 x) and log x at
    every previous-level position x.

    Every level keeps at most its first ``cap`` entries, which changes no bit
    of the first cap - 2 records (see the module docstring).
    """
    import numpy as np

    n = len(s) - 1
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
        lm = np.concatenate((lg - lf[:-1] - lf[1:], [-lc - lf[-1]]))
        if m % 2 == 1:
            lg, lm = np.concatenate(([ly0], ldx))[:cap], lm[:cap]
        else:
            lg, ly0, lm = ldx, lm[0], lm[1:]
    lpos = np.logaddexp.accumulate(np.concatenate(([ly0], ldx)) if n % 2 == 1 else ldx)
    return lpos, lf[1:], np.logaddexp.accumulate(lg)
