import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from exact_oracles import invert_exact
from kreinstring.continued import krein_fraction, stieltjes_fraction
from kreinstring.evaluate import char_function, eval_fraction
from kreinstring.families import PAPER_PARAMETERS, bessel_drift_coefficients, tanh_coefficients
from kreinstring.inversion import invert
from kreinstring.metrics import sup_error
from kreinstring.strings import build_string

Z_GRID = (-0.5, -1.0, -2.0, -5.0)


class TestHandFixtures:
    def test_single_coefficient_is_constant_string(self):
        s = invert(krein_fraction([2.0]))
        assert s.jumps == ((0.0, 0.5),)
        assert s.terminal is None

    def test_two_coefficients(self):
        s = invert(krein_fraction([1.0, 2.0]))
        assert s.jumps == ((0.0, 0.0), (0.5, 1.0))

    def test_three_coefficients(self):
        s = invert(krein_fraction([1.0, 1.0, 1.0]))
        assert s.jumps == ((0.0, 0.5), (4.0, 1.0))

    def test_zero_leading_coefficient_gives_terminal(self):
        s = invert(krein_fraction([0.0, 1.0]))
        assert s.jumps == ((0.0, 0.0),)
        assert s.terminal == 1.0

    def test_zero_leading_longer(self):
        s = invert(krein_fraction([0.0, 1.0, 3.0]))
        assert s.jumps == ((0.0, pytest.approx(1.0 / 3.0, rel=1e-15)),)
        assert s.terminal == pytest.approx(1.0, rel=1e-15)

        s = invert(krein_fraction([0.0, 1.0, 3.0, 5.0]))
        assert s.jumps[0] == (0.0, 0.0)
        assert s.jumps[1][0] == pytest.approx(1.0 / 6.0, rel=1e-15)
        assert s.jumps[1][1] == pytest.approx(12.0 / 25.0, rel=1e-15)
        assert s.terminal == pytest.approx(1.0, rel=1e-15)


class TestErrors:
    def test_requires_krein_form(self):
        with pytest.raises(ValueError, match="KREIN"):
            invert(stieltjes_fraction([1.0, 2.0]))

    def test_zero_alone_matches_no_string(self):
        with pytest.raises(ValueError, match="no string"):
            invert(krein_fraction([0.0]))

    def test_terminal_past_double_range_overflows(self):
        with pytest.raises(OverflowError, match="about 1e310, outside double range"):
            invert(krein_fraction([0.0, 1e-310]))

    def test_plateau_past_double_range_overflows(self):
        with pytest.raises(OverflowError, match="1/s_0 is about 1e310, outside double range"):
            invert(krein_fraction([1e-310, 1.0]))


def test_extreme_scales_round_trip():
    """Geometric decay stretches the intermediate levels a decade or more
    each, past the 1e4932 of 80-bit extended precision well before level
    100; their logarithms stay ordinary doubles."""
    coeffs = [0.5**j for j in range(120)]
    cf = krein_fraction(coeffs)
    s = invert(cf)
    assert len(s.jumps) == 5
    assert s.jumps[-1][1] == 1.0 / coeffs[0]
    for z in Z_GRID:
        assert char_function(s, z) == pytest.approx(eval_fraction(cf, z), rel=1e-14)
    # the exact recurrences take minutes on all 120; a prefix certifies the records
    prefix = [Fraction(1, 2**j) for j in range(16)]
    want_pairs, _ = invert_exact(prefix)
    want = build_string((float(x), float(y)) for x, y in want_pairs)
    got = invert(krein_fraction(float(v) for v in prefix))
    assert len(got.jumps) == len(want.jumps)
    for (gx, gy), (ex, ey) in zip(got.jumps, want.jumps):
        assert gx == pytest.approx(ex, abs=1e-13, rel=1e-13)
        assert gy == pytest.approx(ey, abs=1e-13, rel=1e-13)


def test_levels_do_not_depend_on_extended_precision(monkeypatch):
    """Where numpy.longdouble is a plain double (macOS arm64, Windows), the
    levels of drift n = 511 would overflow at level 263 if held in it."""
    monkeypatch.setattr(np, "longdouble", np.float64)
    p = PAPER_PARAMETERS
    s = invert(bessel_drift_coefficients(p["alpha"], p["beta"], p["c_const"], 511))
    assert len(s.jumps) == 70


coeff_lists = st.lists(st.floats(0.1, 10.0), min_size=1, max_size=13)


@given(coeff_lists, st.booleans())
def test_round_trip_reproduces_the_fraction(coeffs, zero_lead):
    if zero_lead and len(coeffs) > 1:
        coeffs = [0.0] + coeffs[1:]
    cf = krein_fraction(coeffs)
    s = invert(cf)
    for z in Z_GRID:
        want = eval_fraction(cf, z)
        assert char_function(s, z) == pytest.approx(want, rel=1e-9)


@settings(max_examples=300)
@given(st.lists(st.floats(-100.0, 100.0), min_size=1, max_size=40), st.booleans())
def test_log_uniform_scales_round_trip_or_name_double_range(exponents, zero_lead):
    coeffs = [10.0**e for e in exponents]
    if zero_lead and len(coeffs) > 1:
        coeffs[0] = 0.0
    cf = krein_fraction(coeffs)
    try:
        s = invert(cf)
    except OverflowError as exc:
        # only a string whose own positions or masses pass 1e308 is refused
        assert zero_lead and "outside double range" in str(exc)
        return
    for z in Z_GRID:
        assert char_function(s, z) == pytest.approx(eval_fraction(cf, z), rel=1e-9)


@given(coeff_lists)
def test_output_is_canonical_and_plateau_exact(coeffs):
    cf = krein_fraction(coeffs)
    s = invert(cf)
    assert all(b[0] > a[0] and b[1] > a[1] for a, b in zip(s.jumps, s.jumps[1:]))
    # final plateau is the reciprocal of the leading coefficient, bit for bit
    assert s.jumps[-1][1] == 1.0 / coeffs[0]


@settings(max_examples=30)
@given(
    st.lists(
        st.fractions(min_value=Fraction(1, 10), max_value=Fraction(10)),
        min_size=1,
        max_size=9,
    ),
    st.booleans(),
)
def test_matches_exact_rational_recurrences(coeffs, zero_lead):
    if zero_lead and len(coeffs) > 1:
        coeffs = [Fraction(0)] + coeffs[1:]
    if coeffs[0] == 0 and len(coeffs) == 1:
        return
    want_pairs, want_term = invert_exact(coeffs)
    s = invert(krein_fraction([float(v) for v in coeffs]))
    assert len(s.jumps) == len(want_pairs)
    for (gx, gy), (ex, ey) in zip(s.jumps, want_pairs):
        assert gx == pytest.approx(float(ex), abs=1e-13, rel=1e-13)
        assert gy == pytest.approx(float(ey), abs=1e-13, rel=1e-13)
    if want_term is None:
        assert s.terminal is None
    else:
        assert s.terminal == pytest.approx(float(want_term), rel=1e-13)


def test_unit_impedance_truncation_matches_exact_arithmetic():
    """Spot certification at a moderate order against stdlib fractions."""
    n = 41
    exact_coeffs = [Fraction(0)] + [Fraction(2 * k - 1) for k in range(1, n + 1)]
    want_pairs, want_term = invert_exact(exact_coeffs)
    s = invert(tanh_coefficients(n))
    assert len(s.jumps) == len(want_pairs)
    for (gx, gy), (ex, ey) in zip(s.jumps, want_pairs):
        assert gx == pytest.approx(float(ex), abs=1e-14)
        assert gy == pytest.approx(float(ey), abs=1e-14)
    assert s.terminal == pytest.approx(float(want_term), abs=1e-14)


def test_unit_impedance_error_level_is_pinned():
    """Regression pin: the exact worst jump deviation from M(x)=x below 0.9.

    Exact rational arithmetic puts it at 0.0201869914... for 202
    coefficients; the float reconstruction tracks that to full precision.
    """
    s = invert(tanh_coefficients(201))
    rep = sup_error(s, lambda x: x, 0.9)
    assert rep.value == pytest.approx(0.020186991404, abs=5e-10)
    assert s.terminal == pytest.approx(1.0, abs=1e-12)


def test_refinement_settles_the_leading_record():
    """Raising the truncation order perturbs early records less and less.

    Every record after the origin drifts when two more coefficients arrive,
    but the drift of the first mass-carrying record shrinks steadily (about
    an order of magnitude per doubling of n on this family).
    """
    devs = []
    for n in (11, 21, 41, 81):
        a = invert(tanh_coefficients(n))
        b = invert(tanh_coefficients(n + 2))
        devs.append(
            max(
                abs(a.jumps[1][0] - b.jumps[1][0]),
                abs(a.jumps[1][1] - b.jumps[1][1]),
            )
        )
    assert all(lo < hi for lo, hi in zip(devs[1:], devs))
    assert devs[-1] <= 1e-4

def test_long_tail_is_folded_into_double_range():
    """Families whose string approaches its mass cap only at huge x still
    materialize: far records fold into the last representable one."""
    coeffs = [2.0 if j % 2 == 0 else 4.0 for j in range(1024)]
    s = invert(krein_fraction(coeffs))
    assert all(math.isfinite(x) for x, _ in s.jumps)
    assert s.jumps[-1][1] == 0.5  # the cap, bit for bit
    for z in Z_GRID:
        assert char_function(s, z) == pytest.approx(
            eval_fraction(krein_fraction(coeffs), z), rel=1e-9
        )
