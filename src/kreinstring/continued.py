"""Positive continued fractions in the two Stieltjes-type layouts.

The same coefficient list s_0, ..., s_n can be read in two ways:

* KREIN form:      s_0/(-z) + 1/(s_1 + 1/(s_2/(-z) + ...))
* STIELTJES form:  1/(-s_0 z + 1/(s_1 + 1/(-s_2 z + ...)))

The two evaluations are exchanged by the involution w(z) -> 1/w(1/z), so a
fraction is a coefficient tuple tagged with the layout it should be read in.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Iterable, Tuple


class Form(Enum):
    KREIN = "krein"
    STIELTJES = "stieltjes"


@dataclass(frozen=True)
class ContinuedFraction:
    """Coefficients s_0 >= 0, s_j > 0 (j >= 1), tagged with their layout.

    ``terminated`` marks a list that is the complete expansion rather than a
    truncation of an infinite one (set by the moment-expansion routine when
    the remainder vanishes identically).
    """

    form: Form
    coefficients: Tuple[float, ...]
    terminated: bool = False

    def __post_init__(self) -> None:
        if not self.coefficients:
            raise ValueError("coefficient list must be non-empty")
        for j, s in enumerate(self.coefficients):
            if not math.isfinite(s):
                raise ValueError(f"non-finite coefficient s_{j} = {s}")
            if j == 0 and s < 0.0:
                raise ValueError(f"s_0 must be >= 0, got {s}")
            if j > 0 and s <= 0.0:
                raise ValueError(f"s_{j} must be > 0, got {s}")


def to_double(j: int, p: int, q: int = 1) -> float:
    """The exact coefficient s_j = p/q, q > 0, as a double, rounded once by
    int true division.  Raises OverflowError naming s_j and its decade when p
    is nonzero and p/q lies past the largest double or rounds to 0.0, which
    for s_0 would mean another string."""
    try:
        f = p / q
    except OverflowError:  # the exact division exceeds the largest double
        f = math.inf
    if (f == 0.0 or math.isinf(f)) and p:
        from fractions import Fraction

        v = Fraction(p, q)  # lowest terms, so the decade does not depend on how p/q was written
        decade = math.floor(math.log10(abs(v.numerator)) - math.log10(v.denominator))
        raise OverflowError("s_%d is about 1e%d, outside double range" % (j, decade))
    return f


def krein_fraction(coefficients: Iterable[float], terminated: bool = False) -> ContinuedFraction:
    return ContinuedFraction(Form.KREIN, tuple(float(s) for s in coefficients), terminated)


def stieltjes_fraction(coefficients: Iterable[float], terminated: bool = False) -> ContinuedFraction:
    return ContinuedFraction(Form.STIELTJES, tuple(float(s) for s in coefficients), terminated)
