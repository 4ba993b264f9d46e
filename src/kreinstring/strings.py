"""Discrete mass distributions (strings) as right-continuous step functions.

A string is a non-decreasing, right-continuous cumulative mass function
M : [0, inf) -> [0, inf], stored as its finitely many jumps plus an optional
"terminal" coordinate beyond which the mass is infinite.  The jumps are a plain
tuple, read without numpy: ``eval_mass`` is a binary search on it.

Canonical form comes from one record loop with two ways in, and only this
module builds a string in it; each record is checked once.
``validate_string`` takes rows from outside the program, checks them
strictly, then builds the string without checking its jumps again: jumps
merged from checked rows cannot fail.  ``build_string`` takes the records of
every string the library computes (``invert``, ``dual``, ``hat``), where
rounding may land distinct jumps on one double: records at one position
merge to the larger value, a record that adds no value is dropped, and
``DiscreteString`` checks the jumps once, as for any string.  Its terminal
moves to the next double after the last position only where
``DiscreteString`` would refuse it: before the last position, or on it when
the last jump carries mass.  So a terminal at 0 on the massless origin stays.
A merged record keeps the kept record's position, and its value on a tie,
so the origin is always +0.0, whatever sign a file gives its zeros; a
terminal is made +0.0 too, on both ways in, so that ``dual`` cannot pass on
the -0.0 of a hand-built string's value.
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
        _check_terminal(self.jumps, self.terminal)


def _check_records(records, label: str) -> list:
    """The (position, value) records as a list, unless an entry is non-finite
    or negative, positions do not strictly increase or values decrease; each
    "jump" must add mass, and a "row" is made floats first where it is not."""
    checked = []
    rows = label == "row"
    prev_x = prev_y = -math.inf
    for i, (x, y) in enumerate(records):
        if rows and not (type(x) is float and type(y) is float):  # ints, Fractions, numeric strings, np.float64
            x, y = float(x), float(y)
        if not (math.isfinite(x) and math.isfinite(y)):
            raise ValueError(f"non-finite entry at {label} {i}: ({x}, {y})")
        if x < 0.0 or y < 0.0:
            raise ValueError(f"negative entry at {label} {i}: ({x}, {y})")
        if x <= prev_x:
            raise ValueError(f"positions not increasing at {label} {i}: they must be strictly increasing")
        if y <= prev_y and (y < prev_y or not rows):
            raise ValueError(f"values decrease at {label} {i}" if y < prev_y else f"zero mass increment at jump {i}")
        checked.append((x, y))
        prev_x, prev_y = x, y
    return checked


def _check_terminal(jumps, terminal: Optional[float]) -> None:
    """Reject a terminal that is not finite and non-negative, lies before the
    last jump, or sits on a last jump that carries mass: canonical jumps add
    mass at every position after the origin, so the last carries mass unless
    it is a massless origin (``last_y > 0.0``)."""
    if terminal is not None:
        last_x, last_y = jumps[-1]
        if not math.isfinite(terminal) or terminal < 0.0:
            raise ValueError("terminal must be a finite non-negative position")
        if terminal < last_x:
            raise ValueError("terminal precedes the last jump")
        if terminal == last_x and last_y > 0.0:
            raise ValueError("terminal coincides with a mass-carrying jump")


def _canonical_jumps(records: Iterable[Tuple[float, float]]) -> Tuple[Tuple[float, float], ...]:
    """Merge records at one position and drop those that add no value.

    Starts from (0, 0); a merged record keeps the kept record's position and
    the larger value, the kept one winning a tie.
    """
    jumps = [(0.0, 0.0)]
    for x, y in records:
        if x == jumps[-1][0]:
            jumps[-1] = (jumps[-1][0], max(jumps[-1][1], y))
        elif y > jumps[-1][1]:
            jumps.append((x, y))
    return tuple(jumps)


def validate_string(
    raw: Iterable[Tuple[float, float]], terminal: Optional[float] = None
) -> DiscreteString:
    """Check raw (position, cumulative value) rows and canonicalize them.

    Raises ValueError on non-increasing positions, decreasing values,
    negative or non-finite entries, or a terminal before the last position.
    Each row is checked once, here: its canonical jumps are not checked again.
    """
    if terminal is not None:
        terminal = float(terminal) + 0.0  # -0.0 + 0.0 is +0.0
    jumps = _canonical_jumps(_check_records(raw, "row"))
    _check_terminal(jumps, terminal)
    s = object.__new__(DiscreteString)  # skips __post_init__: checked rows give valid jumps
    object.__setattr__(s, "jumps", jumps)
    object.__setattr__(s, "terminal", terminal)
    return s


def build_string(
    records: Iterable[Tuple[float, float]], terminal: Optional[float] = None
) -> DiscreteString:
    """Canonical string from records the library computed as floats, in
    position order; ``DiscreteString`` checks the merged jumps once."""
    jumps = _canonical_jumps(records)
    last_x, last_y = jumps[-1]
    if terminal is not None and (terminal < last_x or terminal == last_x and last_y > 0.0):
        terminal = math.nextafter(last_x, math.inf)  # where _check_terminal would refuse it
    # -0.0 + 0.0 is +0.0, as for a terminal from outside
    return DiscreteString(jumps, None if terminal is None else terminal + 0.0)


def eval_mass(s: DiscreteString, x: float) -> float:
    """M(x): right-continuous step lookup, inf at and beyond the terminal."""
    if not x >= 0.0:
        raise ValueError("mass is defined for x >= 0 only")
    if s.terminal is not None and x >= s.terminal:
        return math.inf
    # the first jump sits at 0 <= x, so the index is never -1
    return s.jumps[bisect.bisect_right(s.jumps, x, key=lambda jump: jump[0]) - 1][1]
