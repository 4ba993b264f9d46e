"""Error measurement against closed-form references and rate studies.

Errors are evaluated at the jump positions of the approximation only (the
reconstruction is exact in the large-x limit by construction, so a uniform
grid would mostly sample plateaus).  ``averaged_error`` replaces the jump
value by the midpoint of the two adjacent plateau heights, which empirically
gains one order of convergence.  Both are one plain-Python loop over the jumps;
numpy serves only the least-squares slope of ``convergence_study``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Iterable, Sequence, Tuple

from .continued import ContinuedFraction
from .inversion import invert
from .strings import DiscreteString

MassFunction = Callable[[float], float]


@dataclass(frozen=True)
class ErrorReport:
    """Worst discrepancy over the jumps inside the comparison window."""

    metric: str  # "sup" or "averaged"
    window: float
    value: float
    index: int  # jump index attaining the maximum
    position: float  # its coordinate
    compared: int  # number of jumps inside the window


@dataclass(frozen=True)
class ConvergenceStudy:
    """(n, error) samples with the fitted log-log slope."""

    metric: str
    window: float
    entries: Tuple[Tuple[int, float], ...]
    slope: float


def _max_error(approx: DiscreteString, reference: MassFunction, window: float, averaged: bool) -> ErrorReport:
    """The body of ``sup_error`` (averaged false) and ``averaged_error`` (true).

    The first maximum wins a tie; a NaN from the reference raises ValueError.
    """
    if not window > 0.0:
        raise ValueError("window must be positive")
    value, index, position, compared = -1.0, 0, 0.0, 0
    for j in range(1 if averaged else 0, len(approx.jumps)):
        x, y = approx.jumps[j]
        if not x < window:  # positions increase, so the window is a prefix
            break
        if averaged:
            y = 0.5 * y + 0.5 * approx.jumps[j - 1][1]  # halved first: the sum may overflow
        err = abs(y - reference(x))  # y is finite, so only the reference makes a NaN
        if math.isnan(err):
            raise ValueError("the reference mass is NaN at position %r" % x)
        compared += 1
        if err > value:
            value, index, position = err, j, x
    if compared == 0:
        raise ValueError("no jumps inside the comparison window")
    return ErrorReport("averaged" if averaged else "sup", window, value, index, position, compared)


def sup_error(approx: DiscreteString, reference: MassFunction, window: float) -> ErrorReport:
    """max_j |y_j - M(x_j)| over jumps with x_j < window."""
    return _max_error(approx, reference, window, averaged=False)


def averaged_error(approx: DiscreteString, reference: MassFunction, window: float) -> ErrorReport:
    """max_j |(y_{j-1}+y_j)/2 - M(x_j)| over jumps with x_j < window, j >= 1."""
    return _max_error(approx, reference, window, averaged=True)


def convergence_study(
    family: Callable[[int], ContinuedFraction],
    n_list: Sequence[int],
    reference: MassFunction,
    window: float,
    averaged: bool = False,
) -> ConvergenceStudy:
    """Invert the family at each truncation order and fit error ~ n^slope.

    ``n_list`` must be strictly increasing with at least three positive
    entries; the slope is the ordinary least-squares fit of log(error) against
    log(n), so every error must be finite and positive.
    """
    if len(n_list) < 3:
        raise ValueError("need at least three truncation orders")
    if any(b <= a for a, b in zip(n_list, n_list[1:])):
        raise ValueError("truncation orders must be strictly increasing")
    if n_list[0] < 1:
        raise ValueError("truncation orders must be positive")
    entries = []
    for n in n_list:
        report = _max_error(invert(family(n)), reference, window, averaged)
        if not 0.0 < report.value < math.inf:
            raise ValueError("cannot fit a slope: the error at n=%d is %s" % (n, report.value))
        entries.append((int(n), report.value))
    import numpy as np  # the least-squares fit is the only array work here

    ns = np.array([n for n, _ in entries], dtype=float)
    errs = np.array([e for _, e in entries], dtype=float)
    slope = float(np.polyfit(np.log(ns), np.log(errs), 1)[0])
    return ConvergenceStudy("averaged" if averaged else "sup", window, tuple(entries), slope)
