"""String transforms.

* ``dual``: the right-continuous inverse of the mass function.  Plateau
  heights become jump positions and vice versa; it is an exact involution
  because it only rearranges the stored numbers.
* ``remove_zero_atom``: the string whose spectral measure is the original one
  with the atom at zero deleted, realized by an exact piecewise-linear time
  change.  One loop walks the jumps in consecutive pairs.  Each jump gets one
  deficit d = (m_tot - y)/m_tot, which gives both its rescaled mass y/d and
  the factor d**2 of the time change on the gap after it.  Its subtraction
  is exact for y >= m_tot/2 (Sterbenz's lemma), so near the plateau, where
  1 - y/m_tot would keep only the digits y/m_tot rounds to, every record
  stays within a few ulps of exact arithmetic on the input's doubles.
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
    pairs, x = [], 0.0
    for j, ((t, y), (t_next, _)) in enumerate(zip(s.jumps, s.jumps[1:])):
        deficit = (m_tot - y) / m_tot
        rescaled = y / deficit
        if math.isinf(rescaled):
            raise OverflowError(f"rescaled mass of jump {j} ({t}, {y}) exceeds double range")
        pairs.append((x, rescaled))
        x += deficit**2 * (t_next - t)
    return build_string(pairs, terminal=x)
