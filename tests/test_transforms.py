import math
import random
import sys
from fractions import Fraction

import numpy as np
import pytest
from exact_oracles import dual_oracle, hat_exact
from hypothesis import example, given
from hypothesis import strategies as st

from kreinstring.continued import krein_fraction
from kreinstring.evaluate import char_function
from kreinstring.families import PAPER_PARAMETERS, bessel_drift_coefficients
from kreinstring.inversion import invert
from kreinstring.strings import DiscreteString, eval_mass
from kreinstring.transforms import dual, remove_zero_atom

Z_GRID = (-0.5, -1.0, -2.0, -5.0)


@st.composite
def strings(draw, allow_terminal=True, require_mass=False):
    k = draw(st.integers(min_value=2 if require_mass else 1, max_value=6))
    gaps = draw(st.lists(st.floats(0.01, 3.0), min_size=k, max_size=k))
    xs = [0.0] + np.cumsum(gaps).tolist()[:-1]
    inc = draw(st.lists(st.floats(0.01, 3.0), min_size=k, max_size=k))
    ys = np.cumsum(inc).tolist()
    if not require_mass and draw(st.booleans()):
        ys = [y - ys[0] for y in ys]  # massless origin record
        if k == 1:
            xs, ys = [0.0], [0.0]
    terminal = None
    if allow_terminal and draw(st.booleans()):
        terminal = xs[-1] + draw(st.floats(0.01, 2.0))
    if terminal is None and ys[-1] == 0.0:
        ys[-1] = 1.0  # keep a characteristic function defined
    return DiscreteString(tuple(zip(xs, ys)), terminal)


@st.composite
def wide_strings(draw):
    """Canonical strings anywhere in double range, subnormals and a massless
    origin included."""
    k = draw(st.integers(min_value=1, max_value=6))
    numbers = st.lists(st.floats(0.0, 1e308), min_size=k, max_size=k, unique=True)
    xs = [0.0, *sorted(draw(numbers))[1:]]
    ys = sorted(draw(numbers))
    terminal = draw(st.none() | st.floats(xs[-1], sys.float_info.max, exclude_min=True))
    return DiscreteString(tuple(zip(xs, ys)), terminal)


class TestDual:
    def test_hand_example(self):
        # single atom m at the origin <-> massless string of length m
        s = DiscreteString(((0.0, 0.5),))
        d = dual(s)
        assert d.jumps == ((0.0, 0.0),)
        assert d.terminal == 0.5

    def test_plateaus_swap_roles(self):
        s = DiscreteString(((0.0, 0.0), (1.0, 2.0), (3.0, 2.5)))
        d = dual(s)
        assert d.jumps == ((0.0, 1.0), (2.0, 3.0))
        assert d.terminal == 2.5

    def test_terminal_becomes_final_plateau(self):
        s = DiscreteString(((0.0, 0.0), (1.0, 2.0)), terminal=4.0)
        d = dual(s)
        assert d.jumps == ((0.0, 1.0), (2.0, 4.0))
        assert d.terminal is None

    @given(wide_strings())
    @example(DiscreteString(((0.0, 0.0),)))  # massless, no terminal
    @example(DiscreteString(((0.0, 0.0),), terminal=0.0))
    @example(DiscreteString(((0.0, 0.5),)))  # a lone atom at the origin
    @example(DiscreteString(((0.0, 0.0), (1.0, 2.0), (3.0, 2.5))))  # a massless origin, then jumps
    @example(DiscreteString(((0.0, 1.0), (1.0, 2.0)), terminal=4.0))
    def test_matches_the_hand_built_dual_bit_for_bit(self, s):
        # repr tells every two doubles apart, the signs of zero included
        assert repr(dual(s)) == repr(dual_oracle(s))

    def test_terminal_zero_is_positive(self):
        # a hand-built string may hold -0.0; its plateau height becomes the terminal
        d = dual(DiscreteString(((0.0, -0.0),)))
        assert math.copysign(1.0, d.terminal) == 1.0

    @given(strings())
    def test_involution_is_exact(self, s):
        assert dual(dual(s)) == s

    @given(strings())
    def test_inverse_function_relation(self, s):
        d = dual(s)
        for q in (0.2, 0.7, 1.9, 3.3):
            # M*(q) = inf{t : M(t) > q}; check the defining inequality
            t = eval_mass(d, q)
            if np.isfinite(t):
                assert eval_mass(s, t) >= q or np.isclose(eval_mass(s, t), q)

    @given(strings())
    def test_characteristic_function_identity(self, s):
        for z in Z_GRID:
            w = char_function(s, z)
            w_dual = char_function(dual(s), z)
            assert w_dual == pytest.approx(1.0 / (-z * w), rel=1e-10)


def near_plateau_strings(count, seed):
    """Seeded strings whose total mass is not a power of two, with values
    from near 0 up to a deficit 1 - y/m_tot of about 3e-16; each gap is scaled
    by 1/deficit**2, so that the time change keeps every record apart."""
    rng = random.Random(seed)
    for _ in range(count):
        m_tot = rng.uniform(0.1, 10.0)
        assert math.frexp(m_tot)[0] != 0.5
        depths = sorted(rng.uniform(0.0, 15.5) for _ in range(rng.randint(1, 11)))
        records, x = [], 0.0
        for y in [m_tot * (1.0 - 10.0**-d) for d in depths]:
            if y > (records[-1][1] if records else -1.0) and y < m_tot:
                records.append((x, y))
                x += 10.0 ** rng.uniform(-1.0, 1.0) * (m_tot / (m_tot - y)) ** 2
        yield DiscreteString((*records, (x, m_tot)))


def _assert_matches_hat_exact(s):
    """Every record and the terminal within 4 ulps of the exact hat of the
    same doubles, an ulp taken as eps relative to the exact number."""
    hat = remove_zero_atom(s)
    records, terminal = hat_exact(s)
    assert len(hat.jumps) == len(records)
    got = [*(v for record in hat.jumps for v in record), hat.terminal]
    want = [*(v for record in records for v in record), terminal]
    for g, w in zip(got, want):
        assert abs(Fraction(g) - w) <= 4 * Fraction(sys.float_info.epsilon) * w


class TestRemoveZeroAtom:
    def test_matches_the_exact_hat_near_the_plateau(self):
        """1 - y/m_tot rounds y/m_tot first and keeps few digits near the
        plateau; m_tot - y is exact for y >= m_tot/2 (Sterbenz)."""
        for s in near_plateau_strings(400, seed=19):
            _assert_matches_hat_exact(s)

    @pytest.mark.parametrize("n", [63, 511])
    def test_matches_the_exact_hat_of_an_inverted_string(self, n):
        """Three times the drift coefficients at c_const 0.3: m_tot is
        0.1253..., and the last records lie a few ulps short of it."""
        p = PAPER_PARAMETERS
        cf = bessel_drift_coefficients(p["alpha"], p["beta"], 0.3, n)
        _assert_matches_hat_exact(invert(krein_fraction([3.0 * v for v in cf.coefficients])))

    @given(strings(allow_terminal=False, require_mass=True))
    # near the cap the time-change increments fall below one ulp of 1.25
    @example(DiscreteString(((0.0, 0.0), (1.0, 0.5), (2.0, 0.999999999999), (3.0, 1.0))))
    @example(DiscreteString(((0.0, 0.0), (1.0, 0.5), (2.0, 0.999999999999), (3.0, 0.9999999999999), (4.0, 1.0))))
    def test_characteristic_function_identity(self, s):
        hat = remove_zero_atom(s)
        m_tot = s.jumps[-1][1]
        for z in Z_GRID:
            want = char_function(s, z) + 1.0 / (m_tot * z)
            got = char_function(hat, z)
            assert got == pytest.approx(want, rel=1e-10)

    @pytest.mark.parametrize("n", [15, 63, 255, 511])
    def test_agrees_with_inverting_without_s0(self, n):
        """In KREIN form s_0/(-z) is the spectral atom at 0, so the hat of the
        inverted string is the string of [0, s_1, ...]: a time change against
        the s_0 = 0 recursion.  Their records may merge differently, so W and
        the terminal are compared, not records."""
        p = PAPER_PARAMETERS
        cf = bessel_drift_coefficients(p["alpha"], p["beta"], p["c_const"], n)
        hat = remove_zero_atom(invert(cf))
        direct = invert(krein_fraction([0.0, *cf.coefficients[1:]]))
        for z in (-1e-3, -1.0, -1e3):
            assert char_function(hat, z) == pytest.approx(char_function(direct, z), rel=1e-13, abs=0.0)
        assert hat.terminal == pytest.approx(direct.terminal, rel=1e-13, abs=0.0)

    def test_result_has_terminal(self):
        s = DiscreteString(((0.0, 0.0), (1.0, 1.0), (2.0, 3.0)))
        hat = remove_zero_atom(s)
        assert hat.terminal is not None

    def test_rejects_infinite_mass(self):
        with pytest.raises(ValueError, match="infinite"):
            remove_zero_atom(DiscreteString(((0.0, 1.0),), terminal=2.0))

    def test_rejects_no_mass(self):
        with pytest.raises(ValueError, match="no mass"):
            remove_zero_atom(DiscreteString(((0.0, 0.0),)))

    def test_rejects_single_origin_atom(self):
        with pytest.raises(ValueError, match="degenerates"):
            remove_zero_atom(DiscreteString(((0.0, 2.0),)))

