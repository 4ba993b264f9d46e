"""Discrete mass distributions (strings) as right-continuous step functions.

A string is a non-decreasing, right-continuous cumulative mass function
M : [0, inf) -> [0, inf], stored as its finitely many jumps plus an optional
"terminal" coordinate beyond which the mass is infinite.  The jumps are a plain
tuple, read without numpy: ``eval_mass`` is a binary search on it.

Canonical form comes from one record loop with two entry points:
``validate_string`` checks rows from outside the program strictly and passes
their terminal on unchanged, while ``build_string`` takes records the library
computed, where rounding may land distinct jumps on one double: those merge,
and a terminal on or before the last position moves to the next double.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass
from typing import Iterable, Optional, Tuple


@dataclass(frozen=True)
class DiscreteString:
    """Piecewise-constant cumulative mass distribution in canonical form.

    ``jumps`` holds (position, cumulative value) pairs; the value at a
    position x_j is M(x_j), i.e. the mass of [0, x_j].  Canonical form always
    starts at position 0 (with value 0 when there is no atom at the origin)
    and every later entry adds strictly positive mass.  ``terminal``, when
    present, is the coordinate L with M(x) = inf for x >= L.
    """

    jumps: Tuple[Tuple[float, float], ...]
    terminal: Optional[float] = None

    def __post_init__(self) -> None:
        if not self.jumps:
            raise ValueError("a string needs at least one jump record")
        if self.jumps[0][0] != 0.0:
            raise ValueError("canonical form starts at position 0")
        _check_records(self.jumps, "jump")
        for i, ((_, y), (_, next_y)) in enumerate(zip(self.jumps, self.jumps[1:]), 1):
            if next_y == y:
                raise ValueError(f"zero mass increment at jump {i}")
        if self.terminal is not None:
            last_x, last_y = self.jumps[-1]
            if not math.isfinite(self.terminal) or self.terminal < 0.0:
                raise ValueError("terminal must be a finite non-negative position")
            if self.terminal < last_x:
                raise ValueError("terminal precedes the last jump")
            if self.terminal == last_x and last_y > (
                self.jumps[-2][1] if len(self.jumps) > 1 else 0.0
            ):
                raise ValueError("terminal coincides with a mass-carrying jump")


def _check_records(records, label: str) -> None:
    """Reject (position, value) records unless every entry is finite and
    non-negative, positions strictly increase and values never decrease."""
    prev_x = prev_y = -math.inf
    for i, (x, y) in enumerate(records):
        if not (math.isfinite(x) and math.isfinite(y)):
            raise ValueError(f"non-finite entry at {label} {i}: ({x}, {y})")
        if x < 0.0 or y < 0.0:
            raise ValueError(f"negative entry at {label} {i}: ({x}, {y})")
        if x <= prev_x:
            raise ValueError(
                f"positions not increasing at {label} {i}: they must be strictly increasing"
            )
        if y < prev_y:
            raise ValueError(f"values decrease at {label} {i}")
        prev_x, prev_y = x, y


def _canonical_jumps(records: Iterable[Tuple[float, float]]) -> Tuple[Tuple[float, float], ...]:
    """Merge records at one position and drop those that add no value.

    Starts from (0, 0); a merged record keeps the larger value.
    """
    jumps = [(0.0, 0.0)]
    for x, y in records:
        if x == jumps[-1][0]:
            jumps[-1] = (x, max(y, jumps[-1][1]))
        elif y > jumps[-1][1]:
            jumps.append((x, y))
    return tuple(jumps)


def validate_string(
    raw: Iterable[Tuple[float, float]], terminal: Optional[float] = None
) -> DiscreteString:
    """Check raw (position, cumulative value) rows and canonicalize them.

    Raises ValueError on non-increasing positions, decreasing values,
    negative or non-finite entries, or a terminal before the last position.
    """
    pairs = [(float(x), float(y)) for x, y in raw]
    if terminal is not None:
        terminal = float(terminal)
    _check_records(pairs, "row")
    return DiscreteString(_canonical_jumps(pairs), terminal)


def build_string(
    records: Iterable[Tuple[float, float]], terminal: Optional[float] = None
) -> DiscreteString:
    """Canonical string from records the library computed, in position order."""
    jumps = _canonical_jumps((float(x), float(y)) for x, y in records)
    if terminal is not None and terminal <= jumps[-1][0]:
        terminal = math.nextafter(jumps[-1][0], math.inf)
    return DiscreteString(jumps, terminal)


def eval_mass(s: DiscreteString, x: float) -> float:
    """M(x): right-continuous step lookup, inf at and beyond the terminal."""
    if not x >= 0.0:
        raise ValueError("mass is defined for x >= 0 only")
    if s.terminal is not None and x >= s.terminal:
        return math.inf
    # the first jump sits at 0 <= x, so the index is never -1
    return s.jumps[bisect.bisect_right(s.jumps, x, key=lambda jump: jump[0]) - 1][1]
