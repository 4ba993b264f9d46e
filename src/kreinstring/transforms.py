"""String transforms.

* ``dual``: the right-continuous inverse of the mass function.  Plateau
  heights become jump positions and vice versa; it is an exact involution
  because it only rearranges the stored numbers.
* ``remove_zero_atom``: the string whose spectral measure is the original one
  with the atom at zero deleted, realized by an exact piecewise-linear time
  change.
"""

from __future__ import annotations

import math

from .strings import DiscreteString, build_string


def dual(s: DiscreteString) -> DiscreteString:
    """Right-continuous inverse M*(x) = inf{t : M(t) > x} of a string.

    A finite-total-mass string with no terminal point maps to a string with a
    terminal at its total mass; a terminal point of the input becomes the
    final plateau height of the output.
    """
    records, level = [], 0.0
    for x, y in s.jumps:
        records.append((level, x))  # the plateau before the jump, and the jump's position
        level = y
    if s.terminal is None:
        return build_string(records, terminal=level)
    return build_string([*records, (level, s.terminal)])


def remove_zero_atom(s: DiscreteString) -> DiscreteString:
    """Delete the zero-frequency atom of the spectral measure.

    Under the time change x(t) = integral of (1 - M/m_tot)^2, which is linear
    on each plateau, the rescaled mass M/(1 - M/m_tot) is again a string.  On
    the final plateau the integrand vanishes, so the result carries a terminal
    point at x(t_last).  Near the cap the increments of x can fall below one
    ulp, so the records go through ``build_string``'s merge policy.  Requires
    finite positive total mass, no terminal point, and at least one
    mass-carrying jump after the origin.  Raises OverflowError when the
    rescaled mass of a jump exceeds double range.
    """
    if s.terminal is not None:
        raise ValueError("string with a terminal point has infinite total mass")
    m_tot = s.jumps[-1][1]
    if m_tot <= 0.0:
        raise ValueError("string carries no mass")
    if len(s.jumps) == 1:
        raise ValueError("single atom at the origin degenerates to a point")
    pairs = []
    x_new = 0.0
    prev_t = 0.0
    prev_y = 0.0
    last = len(s.jumps) - 1
    for j, (t, y) in enumerate(s.jumps):
        x_new += (1.0 - prev_y / m_tot) ** 2 * (t - prev_t)
        if j < last:
            rescaled = y / (1.0 - y / m_tot)
            if math.isinf(rescaled):
                raise OverflowError(f"rescaled mass of jump {j} ({t}, {y}) exceeds double range")
            pairs.append((x_new, rescaled))
        prev_t, prev_y = t, y
    return build_string(pairs, terminal=x_new)

