import math
from fractions import Fraction

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from exact_oracles import char_function_sweep, eval_krein_exact, eval_stieltjes_exact
from kreinstring.continued import krein_fraction, stieltjes_fraction
from kreinstring.evaluate import char_function, eval_fraction, levy_exponent
from kreinstring.families import tanh_coefficients
from kreinstring.serialization import parse_string
from kreinstring.strings import DiscreteString

coeff_lists = st.lists(
    st.floats(0.1, 10.0, allow_nan=False), min_size=1, max_size=12
)


class TestEvalFraction:
    def test_hand_value(self):
        # 1/(-z) + 1/(1 + 1/(1/(-z))) at z=-1 is 1 + 1/2
        assert eval_fraction(krein_fraction([1.0, 1.0, 1.0]), -1.0) == 1.5

    def test_single_coefficient_forms(self):
        assert eval_fraction(krein_fraction([2.0]), -4.0) == 0.5
        assert eval_fraction(stieltjes_fraction([2.0]), -4.0) == 0.125

    def test_matches_exact_arithmetic(self):
        s = [Fraction(1, 2), Fraction(3), Fraction(2, 7), Fraction(5)]
        cf = krein_fraction([float(v) for v in s])
        for z in (Fraction(-1), Fraction(-1, 3), Fraction(-7, 2)):
            want = float(eval_krein_exact(s, z))
            got = eval_fraction(cf, float(z))
            assert got == pytest.approx(want, rel=1e-14)

    def test_tanh_closed_form(self):
        w = eval_fraction(tanh_coefficients(60), -1.0)
        assert w == pytest.approx(math.tanh(1.0), abs=1e-9)

    def test_tanh_closed_form_general_z(self):
        for z in (-0.25, -2.0, -7.5):
            r = math.sqrt(-z)
            w = eval_fraction(tanh_coefficients(80), z)
            assert w == pytest.approx(math.tanh(r) / r, rel=1e-12)

    def test_rejects_nonnegative_z(self):
        with pytest.raises(ValueError, match="z < 0"):
            eval_fraction(krein_fraction([1.0]), 0.0)
        with pytest.raises(ValueError, match="z < 0"):
            eval_fraction(krein_fraction([1.0]), 1.0)


@given(coeff_lists, st.floats(-8.0, -0.05))
def test_form_exchange_identity(coeffs, z):
    """The two layouts of one list are exchanged by w(z) -> 1/w(1/z)."""
    kr = eval_fraction(krein_fraction(coeffs), 1.0 / z)
    stl = eval_fraction(stieltjes_fraction(coeffs), z)
    assert stl == pytest.approx(1.0 / kr, rel=1e-12)


@given(coeff_lists, st.floats(-8.0, -0.05))
def test_values_are_positive(coeffs, z):
    assert eval_fraction(krein_fraction(coeffs), z) > 0.0
    assert eval_fraction(stieltjes_fraction(coeffs), z) > 0.0


def test_stieltjes_exact_oracle_agrees():
    s = [Fraction(2), Fraction(1, 3), Fraction(5, 2)]
    cf = stieltjes_fraction([float(v) for v in s])
    for z in (Fraction(-1), Fraction(-3, 4)):
        assert eval_fraction(cf, float(z)) == pytest.approx(
            float(eval_stieltjes_exact(s, z)), rel=1e-14
        )


class TestCharFunction:
    def test_single_atom(self):
        # one mass m at the origin: W(z) = 1/(-m z)
        s = DiscreteString(((0.0, 0.5),))
        assert char_function(s, -1.0) == pytest.approx(2.0)
        assert char_function(s, -4.0) == pytest.approx(0.5)

    def test_terminal_seeds_the_sweep(self):
        # massless string of length L: W(z) = L
        s = DiscreteString(((0.0, 0.0),), terminal=1.0)
        assert char_function(s, -1.0) == 1.0
        assert char_function(s, -9.0) == 1.0

    def test_massless_without_terminal_rejected(self):
        with pytest.raises(ValueError, match="massless"):
            char_function(DiscreteString(((0.0, 0.0),)), -1.0)

    def test_rejects_nonnegative_z(self):
        with pytest.raises(ValueError, match="z < 0"):
            char_function(DiscreteString(((0.0, 1.0),)), 0.0)

    def test_uniform_string_limit(self):
        # many small masses along [0, 1] with terminal 1: approaches tanh(r)/r
        k = 2000
        jumps = ((0.0, 0.0),) + tuple(((j + 0.5) / k, (j + 1.0) / k) for j in range(k))
        s = DiscreteString(jumps, terminal=1.0)
        r = math.sqrt(2.0)
        assert char_function(s, -2.0) == pytest.approx(math.tanh(r) / r, rel=1e-3)


class TestLevyExponent:
    def test_tanh_family_value(self):
        # exponent of the reflected unit string: sqrt(l)*coth(sqrt(l))
        got = levy_exponent(tanh_coefficients(60), 2.0)
        r = math.sqrt(2.0)
        assert got == pytest.approx(r / math.tanh(r), rel=1e-12)

    def test_single_coefficient_scales_linearly(self):
        cf = krein_fraction([4.0])
        assert levy_exponent(cf, 1.0) == pytest.approx(0.25)
        assert levy_exponent(cf, 3.0) == pytest.approx(0.75)

    def test_stieltjes_form_is_the_reciprocal_of_the_exact_value(self):
        s = [Fraction(2), Fraction(1, 3), Fraction(5, 2), Fraction(7)]
        cf = stieltjes_fraction([float(v) for v in s])
        for lam in (Fraction(1), Fraction(3, 4), Fraction(9)):
            want = float(1 / eval_stieltjes_exact(s, -lam))
            assert levy_exponent(cf, float(lam)) == pytest.approx(want, rel=1e-14)

    def test_string_is_the_reciprocal_of_its_char_function(self):
        s = DiscreteString(((0.0, 0.25), (1.0, 0.75)), terminal=3.0)
        assert levy_exponent(s, 2.0) == 1.0 / char_function(s, -2.0)
        assert levy_exponent(parse_string("x,y\n0,inf\n"), 1.0) == math.inf

    def test_requires_positive_argument(self):
        with pytest.raises(ValueError, match="positive"):
            levy_exponent(krein_fraction([1.0]), 0.0)


# positive magnitudes: log-uniform from 1e-300 to 1e300, subnormals, and the ends of that range
MAGNITUDES = st.one_of(
    st.builds(lambda e: 10.0 ** e, st.floats(-300.0, 300.0)),
    st.floats(5e-324, 2.2e-308),
    st.sampled_from([1e-300, 1e300, 1.0]),
)
# z from -1e-300 to -1e300: -m*z underflows or overflows at the ends
POINTS = st.one_of(st.builds(lambda e: -(10.0 ** e), st.floats(-300.0, 300.0)), st.sampled_from([-1e-300, -1e300]))


@st.composite
def strings(draw):
    """Strings with and without a terminal and an origin atom, with values from 1e-300 to 1e300."""
    origin = draw(st.one_of(st.just(0.0), MAGNITUDES))
    records = [(0.0, origin)]
    for gap, mass in draw(st.lists(st.tuples(MAGNITUDES, MAGNITUDES), max_size=12)):
        x, y = records[-1][0] + gap, records[-1][1] + mass
        if math.isinf(x) or math.isinf(y) or x == records[-1][0] or y == records[-1][1]:
            break  # the sums ran out of range or precision
        records.append((x, y))
    last = records[-1][0]
    terminal = last + draw(st.one_of(st.just(math.inf), MAGNITUDES))
    return DiscreteString(tuple(records), None if math.isinf(terminal) or terminal == last else terminal)


def _value_or_error(f, s, z):
    try:
        return f(s, z).hex()
    except ValueError as exc:
        return str(exc)


@given(strings(), POINTS)
@example(parse_string("x,y\n0,inf\n"), -1.0)  # the list [0, 0]: W = 0
@example(DiscreteString(((0.0, 0.0),)), -1.0)  # massless without terminal: no W
@example(DiscreteString(((0.0, 5e-324), (1e-300, 1e-323)), terminal=1.0), -1e-300)
@example(DiscreteString(((0.0, 1e300), (1e300, 1.5e300))), -1e300)
def test_char_function_is_the_sweep_bit_for_bit(s, z):
    assert _value_or_error(char_function, s, z) == _value_or_error(char_function_sweep, s, z)
