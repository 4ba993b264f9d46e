"""Reconstruction of a discrete string from KREIN-form coefficients.

README's "Numerical design" states what a caller relies on (error bound,
range rule, pass rule); this docstring derives the level recursion.

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
not a defect.  Their logarithms are ordinary doubles on every platform;
numpy's longdouble, a plain double on some, would not do.

Difference form keeps relative precision.  Cumulative values saturate toward
1/c within a level, and differencing them would zero out every mass below
the rounding threshold.  Updates of gaps and masses are products and
quotients, sums of logs here.  Each level rounds its logs to about eps times
their size, and a record passes through up to n levels, so its error grows
with n (``invert`` states the bound).

The one sum a level needs is log f = log(1 + c x) at every position x, the
prefix sums of exp(a) with a = [0, log(c * gap), ...].  Every level but the
last takes them linearly, as log(cumsum(exp(a))), up to the first sum that
overflows, and from the last finite one on as a ``logaddexp`` accumulation.
Since a[0] = 0, every linear sum is at least 1: its log is accurate to
about eps absolutely, and an exp that underflows loses less than 2**-1074
of it.  An intermediate level needs only that absolute accuracy, which is
relative accuracy in its gaps and masses.  The last level keeps
``logaddexp`` for all of log f, which then is accurate relative to itself
also where c x < eps, as -expm1(-log f)/s_0 needs.  Linear sums run at SIMD
speed, where ``logaddexp.accumulate`` pays a scalar exp and log1p per entry.

Entry k of a level depends only on entries up to k of the level before:
both sums run left to right, the switch between them comes at the first
overflowing sum, which only a prefix decides, and the entry an odd level
prepends (y0) is taken off again by the next even level (its first mass
becomes y0).  Cutting every level to its first C entries therefore leaves
the first C - 2 final records bit for bit as they are.  The levels live in
buffers of the largest level's size, allocated once per pass.

Dualizing swaps gaps and masses, and so do the two level buffers: a level
rewrites the gaps of the level before in place into its own masses, and
those masses into its gaps.  A level's parity picks which buffer holds its
masses, and the other holds its gaps.  The first mass of an even level is
the y0 of the next, so it stays in slot 0 as that level's first gap.

Up to a few hundred entries, a level costs its eight ufunc calls, not its
entries.  A level cut to C entries differs from the one two before only in
its numbers: its views into the buffers depend on the parity of the level
alone.  So two view sets, built the first time a level reaches the cut,
serve every cut level, and a cut level costs little more than its eight
calls.

The string ends at the plateau 1/s_0: at its first record whose value is
1/s_0, else at its last record.  The records after it add nothing at double
resolution and are dropped, however far out they lie.  With s_0 = 0 the
plateau 1/s_0 = inf is the terminal, and the levels run uncut.  With s_0 > 0
the end comes early: Bessel-drift keeps 98 of the 512 records it would
compute at order 1023 and 195 of 2048 at order 4095.  So wherever an uncut
level would be longer than ``_CAP`` entries (n // 2 > _CAP), ``invert`` runs
the levels cut to ``_CAP`` entries, checks that the end falls among the exact
records, and otherwise runs them again uncut, as at order 8191, which keeps
274 records.  ``invert`` takes the coefficient logs once per call, with
log s_0 = -inf for s_0 = 0, and both passes run on them.

On output, a value x/f with f = 1 + s_0 x comes from one of two formulas,
whichever has the smaller error.  -expm1(-log f)/s_0 carries the error of
log(s_0 x), shrunk by 1/f, and so keeps near-plateau records apart.
exp(log x - log f) carries the error of log x, which is smaller where s_0 x
is small and x is not: at s_0 = 1e-237 and x = 9 the first formula is off
by 1.1e-13 and this one by 1e-16.  Where log f is below the normal range
(always when s_0 = 0) the first formula keeps no digits at all.
``strings.build_string`` merges records whose positions round to one double.
"""

from __future__ import annotations

import math
import sys

from .continued import ContinuedFraction, Form
from .strings import DiscreteString, build_string

# Every position up to the end of a string, and for s_0 = 0 every value, must
# fit in doubles.
_LOG_MAX = math.log(sys.float_info.max)
# While s_0 > 0 the levels first run cut to this many entries (at least 4).
_CAP = 256


def invert(cf: ContinuedFraction) -> DiscreteString:
    """Discrete string whose KREIN-form expansion has exactly cf's coefficients.

    The reconstruction has about n/2 point masses for n+1 coefficients and
    ends at the plateau 1/s_0.  When s_0 > 0 the last value is exactly 1/s_0;
    when s_0 = 0 the plateau is 1/s_0 = inf and its position is the terminal.
    Positions, values and the terminal agree with exact arithmetic to a
    relative error below n*eps*max(1, Lambda), Lambda the largest |ln| of a
    coefficient, gap, mass or position at any level (measured, not proven;
    see the module docstring), also where s_0 v is below the normal range.
    Rejects s_0 = 0 with n = 0 (the zero function is the characteristic
    function of no string).

    Raises OverflowError when 1/s_0, a position up to the end of the string,
    or for s_0 = 0 a value, lies outside double range.
    """
    if cf.form is not Form.KREIN:
        raise ValueError("inversion expects KREIN-form coefficients")
    s = cf.coefficients
    n = len(s) - 1
    c = s[0]
    plateau = 1.0 / c if c > 0.0 else math.inf
    if c > 0.0 and math.isinf(plateau):
        decade = -math.log10(c)
        raise OverflowError("the final plateau 1/s_0 is about 1e%.0f, outside double range" % decade)
    if n == 0:
        if c == 0.0:
            raise ValueError("s_0 = 0 with no further coefficients matches no string")
        return build_string([(0.0, plateau)])
    import numpy as np  # here, not at module level: no other command needs arrays

    logs = [math.log(c) if c > 0.0 else -math.inf, *map(math.log, s[1:])]
    # run cut first wherever the cut is shorter than the uncut level, and
    # uncut again if the end is not among the exact records
    for cap in (_CAP, n) if c > 0.0 and _CAP < n // 2 else (n,):
        lpos, lf, lx = _levels(logs, cap)
        if c == 0.0 and (peak := max([lpos[-1], *lx[-1:]])) > _LOG_MAX:
            decade = peak / math.log(10.0)
            raise OverflowError("the string reaches about 1e%.0f, outside double range" % decade)
        # record i > 0 sits at exp(lpos[i - 1]) and takes the value x/f with
        # f = 1 + c x from the formula with the smaller error: exp(log x - log f)
        # carries that of log x, -expm1(-log f)/c that of log(c x) over f, and
        # no digit at all where log f is below the normal range
        ratio = (lf < sys.float_info.min) | (np.abs(lx) < np.abs(logs[0] + lx) * np.exp(-lf))
        values = np.exp(lx - lf, where=ratio, out=np.zeros_like(lf))
        np.divide(-np.expm1(-lf), c, where=~ratio, out=values)
        head = np.concatenate(([0.0], values)) if n % 2 == 1 else values
        # the string ends at its first record whose value is the plateau,
        # else at record len(head), which takes it
        hits = np.flatnonzero(head == plateau)
        end = int(hits[0]) if hits.size else len(head)
        keep = int(np.searchsorted(lpos, _LOG_MAX, side="right"))
        if cap == n or min(end, keep + 1) < cap - 2:
            break  # uncut, or the end or the first record past double range is exact
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


def _levels(logs, cap):
    """Final-level logs: the positions, log f = log(1 + s_0 x) and log x at
    every previous-level position x, from the coefficient logs log s_0
    (-inf for s_0 = 0), ..., log s_n.  Needs n >= 1.

    Every level keeps at most its first ``cap`` entries, which changes no bit
    of the first cap - 2 records (see the module docstring).
    """
    import numpy as np

    n = len(logs) - 1
    # a level holds at most min(cap, n // 2) + 1 entries; a[0] stays 0
    size = min(cap, n // 2) + 1
    a, lf = np.zeros(size), np.empty(size)
    # level m keeps its masses in buffers[m % 2] and its gaps, from slot 0
    # on, in the other (module docstring).  Level 0 is the constant string of
    # the last coefficient, y0 alone.
    buffers = (np.empty(size), np.empty(size))
    buffers[0][0] = -logs[n]
    # level m has k = min(m // 2, cap) gaps, so once k reaches the cap a level
    # differs from the one two before only in its numbers: its views are kept
    capped = [None, None]
    # a level costs its eight ufunc calls and little else (module docstring)
    add, subtract, exp, log, cumsum = np.add, np.subtract, np.exp, np.log, np.add.accumulate
    with np.errstate(over="ignore"):  # linear sums past double range are inf
        for m in range(1, n + 1):
            odd = m % 2
            views = capped[odd]
            if views is None:
                k = min(m // 2, cap)  # keeps its value from here on once capped
                lg, lm = buffers[odd], buffers[1 - odd]
                views = (lg[:k], lg, a[: k + 1], a[1 : k + 1], lf[: k + 1], lf[:k], lf[1 : k + 1],
                         lm[odd : odd + k])
                if k == cap:
                    capped[odd] = views
            lg_k, lg, a_k, a1, lf_k, lf0, lf1, lm_k = views
            lc = logs[n - m]
            # log f at the origin and at every previous-level position
            add(lg_k, lc, a1)
            if m == n:
                # -expm1(-log f)/c needs log f accurate relative to itself
                np.logaddexp.accumulate(a_k, out=lf_k)
                lx = np.logaddexp.accumulate(lg_k)
            else:
                # linear prefix sums (they never decrease) up to the first
                # that overflows, then logaddexp on from the last finite one
                exp(a_k, lf_k)
                cumsum(lf_k, out=lf_k)
                if lf.item(k) < math.inf:
                    log(lf_k, lf_k)
                else:
                    j = int(lf_k.searchsorted(math.inf))
                    log(lf[:j], lf[:j])
                    a[j - 1] = lf[j - 1]
                    np.logaddexp.accumulate(a[j - 1 : k + 1], out=lf[j - 1 : k + 1])
                # the gaps become masses: gap/(f_left f_right) per gap, then the tail 1/(c f)
                subtract(lg_k, lf0, lg_k)
                subtract(lg_k, lf1, lg_k)
                lg[k] = -lc - lf.item(k)
            # the masses become gaps f^2 * mass, 2 log f in the spent a; an odd
            # level's first gap is y0, which stays in slot 0
            add(lf1, lf1, a1)
            add(a1, lm_k, lm_k)
        return np.logaddexp.accumulate(buffers[1 - odd][: odd + k]), lf1, lx
