import json
import math
import os
import random
import subprocess
import sys
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from exact_oracles import invert_decimal, invert_exact, levels_oracle
import kreinstring
from kreinstring import inversion
from kreinstring.continued import krein_fraction, stieltjes_fraction
from kreinstring.evaluate import char_function, eval_fraction, levy_exponent
from kreinstring.families import (
    PAPER_PARAMETERS,
    bessel_drift_coefficients,
    log_limit_coefficients,
    tanh_coefficients,
)
from kreinstring.inversion import invert
from kreinstring.metrics import sup_error
from kreinstring.strings import DiscreteString, build_string
from kreinstring.transforms import dual, remove_zero_atom

Z_GRID = (-0.5, -1.0, -2.0, -5.0)
SRC = os.path.dirname(os.path.dirname(os.path.abspath(kreinstring.__file__)))


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

    def test_mass_past_the_range_bound_is_not_folded_inward(self):
        # folding the records past the largest double would leave a wrong string
        with pytest.raises(OverflowError, match="1e308 before its values reach 1/s_0, outside double range"):
            invert(krein_fraction([1e300, 1e-300] * 30))

    def test_string_ending_near_the_largest_double_inverts(self):
        """The last record lies past 1e305: positions are judged against the
        largest double whatever s_0 is."""
        cf = krein_fraction([1e-3, 1e-305, 1.0, 1e-2, 1.0, 1e-2, 1.0])
        s = invert(cf)
        assert len(s.jumps) == 4
        assert s.jumps[-1] == (1.0020010000000353e305, 1000.0)
        for z in Z_GRID:
            assert char_function(s, z) == pytest.approx(eval_fraction(cf, z), rel=1e-9)
        assert isinstance(dual(s), DiscreteString)
        assert isinstance(remove_zero_atom(s), DiscreteString)


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


def _outcome(coeffs, cap):
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(inversion, "_CAP", cap)
        try:
            return invert(krein_fraction(coeffs))
        except OverflowError as exc:
            return str(exc)


@settings(max_examples=100, deadline=None)
@given(
    st.lists(st.floats(-100.0, 100.0), min_size=66, max_size=130),
    st.integers(4, 16),
    st.booleans(),
)
@example([300.0, -300.0] * 30, 4, False)  # short of the plateau past the largest double
@example([300.0] + [-300.0, -300.0, 3.0] * 9, 4, False)  # sums overflow past entry 4
@example([0.0] + [-60.0, -60.0, -20.0] * 21 + [-60.0, -60.0], 4, False)  # n = 65, cut pass accepted
@example([0.0] + [-60.0, -60.0, -20.0] * 22, 4, False)  # n = 66, cut pass accepted
def test_capped_levels_give_the_uncapped_string(exponents, cap, zero_lead):
    """Every list has n > 4 * cap, so the first pass runs capped.  Where the
    linear sums of a level overflow only after its first cap entries, the
    uncapped level switches to logaddexp there and the capped one never.
    The last two examples end within the cut, so capped levels of both
    parities decide the string, at odd n and at even n."""
    coeffs = [10.0**e for e in exponents]
    if zero_lead:
        coeffs[0] = 0.0
    assert _outcome(coeffs, cap) == _outcome(coeffs, len(coeffs))


@settings(max_examples=100, deadline=None)
@given(
    st.integers(4, 16).flatmap(
        lambda cap: st.tuples(st.lists(st.floats(-100.0, 100.0), min_size=2 * cap + 3, max_size=4 * cap + 1), st.just(cap))
    )
)
@example(([0.0] * 17, 4))  # n = 16: the end lies past the cut, so the cut pass is refused
@example(([0.0] + [-60.0, -60.0, -20.0] * 3 + [-60.0, -60.0], 4))  # n = 11, cut pass accepted
@example(([0.0] + [-60.0, -60.0, -20.0] * 4, 4))  # n = 12, cut pass accepted
def test_levels_just_longer_than_the_cap_give_the_uncapped_string(drawn):
    """2 * cap + 2 <= n <= 4 * cap, where an uncut level holds n // 2 > cap
    gaps, so the first pass runs cut.  s_0 > 0 throughout, since s_0 = 0
    runs uncut only."""
    exponents, cap = drawn
    coeffs = [10.0**e for e in exponents]
    assert _outcome(coeffs, cap) == _outcome(coeffs, len(coeffs))


def _logs(s):
    """The coefficient logs ``_levels`` takes: log s_0, or -inf for s_0 = 0, then log s_j."""
    return [math.log(s[0]) if s[0] > 0.0 else -math.inf, *map(math.log, s[1:])]


@settings(max_examples=50, deadline=None)
@given(st.lists(st.floats(-100.0, 100.0), min_size=18, max_size=80), st.integers(4, 8))
def test_cut_levels_are_a_prefix_of_the_uncut_levels(exponents, cap):
    """The last level cut to cap holds min(cap, n // 2) gaps, and its first
    cap - 2 entries are bit for bit those of the uncut last level."""
    s = [10.0**e for e in exponents]
    n = len(s) - 1
    k = min(cap, n // 2)
    cut, uncut = inversion._levels(_logs(s), cap), inversion._levels(_logs(s), n)
    for got, want, size in zip(cut, uncut, (k + n % 2, k, k)):
        assert len(got) == size
        assert np.array_equal(got[: cap - 2], want[: cap - 2])


def _drift(n):
    p = PAPER_PARAMETERS
    return bessel_drift_coefficients(p["alpha"], p["beta"], p["c_const"], n)


@settings(max_examples=100, deadline=None)
@given(
    st.lists(st.floats(-80.0, 80.0), min_size=2, max_size=301).map(lambda es: [10.0**e for e in es]),
    st.booleans(),
    st.sampled_from([4, 5, 8, None]),
)
@example(list(tanh_coefficients(2007).coefficients), False, None)  # 954 levels overflow their linear sums
@example(list(_drift(4095).coefficients), False, 256)  # the cut pass of drift-orders
@example(list(_drift(8191).coefficients), False, 256)  # the cut pass invert refuses
@example(list(log_limit_coefficients(2.0, 4000).coefficients), False, 256)  # beta = 2, as in drift-orders
@example([0.0, 1e-3, 10.0, 1e5, 2.0, 7.0], False, None)  # the last level has log c = -inf
def test_levels_match_the_reference_loop_bit_for_bit(coeffs, zero_lead, cap):
    """s_0 and 1 to 300 further log-uniform coefficients (10^+-80); cap None
    runs the levels uncut."""
    s = [0.0, *coeffs[1:]] if zero_lead else coeffs
    cap = len(s) - 1 if cap is None else cap
    with np.errstate(invalid="raise", divide="raise"):
        got, want = inversion._levels(_logs(s), cap), levels_oracle(s, cap)
    for g, w in zip(got, want, strict=True):
        assert np.array_equal(g, w)


@pytest.mark.parametrize(
    "cf, caps",
    [
        pytest.param(_drift(513), [513], id="drift-513"),
        pytest.param(_drift(514), [256], id="drift-514"),
        pytest.param(_drift(1023), [256], id="drift-1023"),
        pytest.param(_drift(2047), [256], id="drift-2047"),
        pytest.param(_drift(4095), [256], id="drift-4095"),
        pytest.param(_drift(8191), [256, 8191], id="drift-8191"),
        pytest.param(krein_fraction([2.0 * k - 1 for k in range(1, 1002)]), [256, 1000], id="tanh-bare-1000"),
        pytest.param(tanh_coefficients(2000), [2000], id="tanh-2000"),
    ],
)
def test_passes_run_at_their_caps(monkeypatch, cf, caps):
    """With s_0 > 0, every order whose uncut level is longer than _CAP
    (n // 2 > _CAP, so from n = 514 on) runs cut first.  Tanh without its
    leading 0 keeps every record, and drift 8191 274 of them, more than the
    cut holds: both run again uncut.  Orders up to 513 and s_0 = 0 run uncut
    only."""
    levels, seen = inversion._levels, []

    def recorded(logs, cap):
        seen.append(cap)
        return levels(logs, cap)

    monkeypatch.setattr(inversion, "_levels", recorded)
    invert(cf)
    assert seen == caps


@pytest.mark.parametrize("n, kept", [(1023, 98), (4095, 195), (8191, 274)])
def test_drift_orders_keep_their_records(n, kept):
    """Every level is cut to its first 256 entries; n = 8191 runs again uncut.
    The counts are the ones the module docstring quotes."""
    p = PAPER_PARAMETERS
    cf = bessel_drift_coefficients(p["alpha"], p["beta"], p["c_const"], n)
    s = invert(cf)
    assert len(s.jumps) == kept
    assert s.jumps[-1][1] == 1.0 / cf.coefficients[0]
    assert s == _outcome(cf.coefficients, n)


def test_cut_pass_short_of_the_plateau_runs_uncut():
    """c * x underflows: log f is 0.0 at every exact record and no value
    reaches 1/s_0 among them, so the cut pass is not accepted."""
    coeffs = [1e-300] + [10.0 ** (40 + k / 10) for k in range(1025)]
    s = invert(krein_fraction(coeffs))
    assert s.jumps[-1][1] == 1.0 / coeffs[0]
    assert s == _outcome(coeffs, len(coeffs))


@pytest.mark.parametrize("s0", [1e-300, 1e-290])
def test_values_below_the_normal_range_come_from_logs(s0):
    """s_0 x is below 2.2e-308 at every record before the plateau, where
    -expm1(-log f)/s_0 would round values to multiples of 4.9e-324/s_0."""
    coeffs = [s0] + [1e30] * 40
    want_pairs, _ = invert_exact([Fraction(v) for v in coeffs])
    want = build_string((float(x), float(y)) for x, y in want_pairs)
    s = invert(krein_fraction(coeffs))
    # the exact 18th and 19th positions are a few ulps apart and merge
    assert len(s.jumps) == len(want.jumps) - 1
    for (gx, gy), (ex, ey) in zip(s.jumps[:-1], want.jumps):
        assert gx == pytest.approx(ex, rel=1e-12, abs=0.0)
        assert gy == pytest.approx(ey, rel=1e-12, abs=0.0)
    assert s.jumps[-1][1] == 1.0 / s0


def test_last_level_keeps_log_f_accurate_relative_to_itself():
    """s_0 x is 1e-19 at the first record and 1e-9 at the second.  A linear
    prefix sum holds log f = log(1 + s_0 x) to about eps, 2e-7 of itself at
    the second record, and -expm1(-log f)/s_0 would pass that on to its value;
    the last level takes log f from logaddexp."""
    _assert_matches_exact([Fraction(1e-20)] + [Fraction(1, 10**k) for k in range(12)])


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
# the values of records 0 and 1 differ by less than the error of their logs,
# and the records merge: the mass they carry is below that error
@example([-34.091, -80.186, 97.225, 14.35, -77.851, 22.013, -48.011, 46.097, 8.318, -23.356, 81.753], False)
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
# the exact value before the plateau is 10 - 5e-16, which rounds onto it
@example([Fraction(1, 10), Fraction(33, 10), Fraction(2, 5), Fraction(2538057, 253810), Fraction(10513949, 1051395),
          Fraction(407635481076455, 40766984081483), Fraction(1, 10), Fraction(1, 10)], False)
# 1/s_0 and 1/float(s_0) round to neighbouring doubles
@example([Fraction(2773810822, 17615526885), Fraction(343, 330), Fraction(3104, 510), Fraction(37188, 3950),
          Fraction(3255718, 626390), Fraction(92247623, 11484780), Fraction(1876571268, 187657127),
          Fraction(881481481, 2249447080), Fraction(1, 10)], False)
def test_matches_exact_rational_recurrences(coeffs, zero_lead):
    if zero_lead and len(coeffs) > 1:
        coeffs = [Fraction(0)] + coeffs[1:]
    if coeffs[0] == 0 and len(coeffs) == 1:
        return
    _assert_matches_exact(coeffs)


@settings(max_examples=100, deadline=None)
@given(
    st.floats(-300.0, -1.0),
    st.lists(st.fractions(min_value=Fraction(1, 10), max_value=Fraction(10)), min_size=1, max_size=9),
)
# s_0 x is 1e-237 at the first record: -expm1(-log f)/s_0 carries the error
# of log(s_0 x), 1.1e-13 of the value, where exp(log x - log f) carries 1e-16
@example(-237.5, [Fraction(1, 10), Fraction(83862373353818411203956355116, 744123288501515640507389136965)])
# the exact records at 10 - 2e-15 and 10 are a few ulps apart and merge
@example(-19.0, [Fraction(1, 10), Fraction(3734, 375), Fraction(7825, 784), Fraction(1, 10),
                 Fraction(11405295241, 1140529525), Fraction(52118528467, 5211852850), Fraction(1, 10), Fraction(1, 10)])
def test_small_leading_coefficient_matches_exact_rational_recurrences(exponent, rest):
    """s_0 from 1e-300 to 1e-1 takes s_0 x from about 1e-302 to order 1,
    through both formulas for a value."""
    _assert_matches_exact([Fraction(10.0**exponent), *rest], merge_close=True)


def _assert_matches_exact(coeffs, merge_close=False):
    want_pairs, want_term = invert_exact(coeffs)
    s = invert(krein_fraction([float(v) for v in coeffs]))
    got, want = list(s.jumps), [(float(x), float(y)) for x, y in want_pairs]
    if merge_close:
        # records a few ulps apart (where the values climb toward a far plateau)
        # may round onto one double on one side only: merge them on both
        got, want = _merge_close(got), _merge_close(want)
    for (gx, gy), (ex, ey) in zip(got, want):
        assert gx == pytest.approx(ex, abs=1e-13, rel=1e-13)
        assert gy == pytest.approx(ey, abs=1e-13, rel=1e-13)
    if coeffs[0] == 0:
        assert len(got) == len(want)
    else:
        # a value within the tolerance of 1/s_0 may round onto it on one side
        # and not on the other: both lists end at the plateau, and the extra
        # records of the longer one may only repeat it
        common = min(len(got), len(want))
        extra = got[common:] + want[common:]
        plateau = pytest.approx(1.0 / float(coeffs[0]), abs=1e-13, rel=1e-13)
        assert all(y == plateau for _, y in [got[-1], want[-1], *extra])
    if want_term is None:
        assert s.terminal is None
    else:
        assert s.terminal == pytest.approx(float(want_term), rel=1e-13)


def _merge_close(records):
    """Records whose positions agree within the tolerance merge into one, with
    the first position and the last value."""
    merged = []
    for x, y in records:
        if merged and x == pytest.approx(merged[-1][0], abs=1e-13, rel=1e-13):
            merged[-1] = (merged[-1][0], y)
        else:
            merged.append((x, y))
    return merged


def _numbers(jumps, terminal):
    """Every position and value of a string, then its terminal (0 for none)."""
    return [*(v for record in jumps for v in record), terminal or 0.0]


def _error_bound(coeffs, numbers):
    """The relative error ``invert`` states for the families, n * eps * max(1, L),
    L the largest |ln| of the nonzero coefficients and numbers of the string."""
    logs = [abs(math.log(abs(v))) for v in [*map(float, coeffs), *numbers] if v]
    return (len(coeffs) - 1) * sys.float_info.epsilon * max(1.0, *logs)


def _tanh_exact(n):
    """The unit-impedance (tanh) coefficients 0, 1, 3, ..., 2n - 1."""
    return [Fraction(0)] + [Fraction(2 * k - 1) for k in range(1, n + 1)]


def _drift_exact(n):
    """Bessel drift at the paper's parameters: coefficients 2, 4, 2, 4, ..."""
    return [Fraction(2 + 2 * (j % 2)) for j in range(n + 1)]


@pytest.mark.parametrize(
    "coeffs", [pytest.param(_tanh_exact(101), id="tanh-101"), pytest.param(_drift_exact(127), id="drift-127")]
)
def test_decimal_oracle_matches_exact_arithmetic(coeffs):
    """Every record and the terminal of ``invert_decimal`` within 1e-30 of
    ``invert_exact``, relative."""
    want_pairs, want_term = invert_exact(coeffs)
    got_pairs, got_term, _ = invert_decimal([float(v) for v in coeffs])
    assert len(got_pairs) == len(want_pairs)
    assert (got_term is None) == (want_term is None)
    got = [*(v for record in got_pairs for v in record), got_term or 0]
    want = [*(v for record in want_pairs for v in record), want_term or 0]
    for g, w in zip(got, want):
        assert abs(Fraction(g) - w) <= abs(w) / 10**30


@pytest.mark.parametrize(
    "coeffs, cap, l_form",
    [
        pytest.param(_tanh_exact(101), None, True, id="tanh-101"),
        pytest.param(_drift_exact(127), None, True, id="drift-127"),
        # the orders the benchmark workloads run, at the cut ``invert`` runs
        pytest.param(_tanh_exact(1001), None, True, id="tanh-1001"),
        pytest.param(_drift_exact(1023), 256, True, id="drift-1023"),
        pytest.param(_drift_exact(4095), 256, True, id="drift-4095"),
        pytest.param(list(log_limit_coefficients(2.0, 4000).coefficients), 256, True, id="log-limit-4000"),
        # a short list spanning 1e-212 to 1e293: its levels hold logs up to
        # Lambda = 2421.6 while L is 688.9, and its error of 1.06e-12 exceeds
        # the L form (9.2e-13), not the stated one (3.2e-12)
        pytest.param(
            [0.0, 6.120970923340596e-212, 5.665447936905421e293, 2.214188679469225e287,
             2.8885137442427325e68, 4.6793774584559806e247, 2.337820766688798e-83],
            None, False, id="wide-7",
        ),
    ],
)
def test_records_keep_the_stated_error_bound(coeffs, cap, l_form):
    """Record by record against 40-digit arithmetic, its levels cut to cap
    entries, within the stated n*eps*max(1, Lambda), Lambda from the oracle.
    Where ``l_form`` is set the records also keep n*eps*max(1, L), L from the
    coefficients and the answer alone, as the families always have.  The
    oracle's records are rounded to doubles and canonicalized as ``invert``
    canonicalizes its own, which drops a record whose value rounds onto the
    one before; then records a few ulps apart are merged on both sides as in
    ``_assert_matches_exact``."""
    floats = [float(v) for v in coeffs]
    want_pairs, want_term, lam = invert_decimal(floats, cap)
    s = invert(krein_fraction(floats))
    bound = (len(coeffs) - 1) * sys.float_info.epsilon * max(1.0, lam)
    if l_form:
        bound = min(bound, _error_bound(coeffs, _numbers(s.jumps, s.terminal)))
    got = _merge_close(list(s.jumps))
    want = _merge_close(list(build_string([(float(x), float(y)) for x, y in want_pairs]).jumps))
    for (gx, gy), (ex, ey) in zip(got, want):
        assert gx == pytest.approx(ex, rel=bound, abs=0.0)
        assert gy == pytest.approx(ey, rel=bound, abs=0.0)
    if want_term is None:
        # the oracle's records past the end, cut or not, only climb further toward 1/s_0
        assert len(got) <= len(want)
        assert all(y == pytest.approx(got[-1][1], rel=bound, abs=0.0) for _, y in want[len(got) - 1 :])
    else:
        assert len(got) == len(want)
        assert s.terminal == pytest.approx(float(want_term), rel=bound, abs=0.0)


# The dual shift: in KREIN form the dual of the string of s_0, ..., s_n is
# the string of 0, s_0, ..., s_n.  It sets the s_0 > 0 path (its cut or
# refused pass and the expm1 value formula) against the s_0 = 0 uncut path.
# Records agreed to 3.5e-15 (tanh, n = 4000) and W to 1.1e-15 (drift, n =
# 506); the bound is about 3 times the larger, and a shift of every log
# position by 1e-12 moves both by 1e-12, 100 times the bound.
DUAL_SHIFT_BOUND = 1e-14


@pytest.mark.parametrize("n", [1000, 4000])
def test_dual_shift_of_tanh_without_its_leading_zero(n):
    """Tanh without its leading 0 keeps every record, so its cut pass is
    refused and the records come from the uncut rerun."""
    coeffs = list(tanh_coefficients(n).coefficients)
    shifted, direct = dual(invert(krein_fraction(coeffs[1:]))), invert(krein_fraction(coeffs))
    assert len(shifted.jumps) == len(direct.jumps)
    for (sx, sy), (dx, dy) in zip(shifted.jumps, direct.jumps):
        assert sx == pytest.approx(dx, rel=DUAL_SHIFT_BOUND, abs=0.0)
        assert sy == pytest.approx(dy, rel=DUAL_SHIFT_BOUND, abs=0.0)
    assert shifted.terminal == pytest.approx(direct.terminal, rel=DUAL_SHIFT_BOUND, abs=0.0)


def test_dual_shift_of_drift():
    """Drift with s_0 = 0 leaves double range by n = 1023.  The two strings
    may merge records differently, so W and the terminal are compared."""
    for n in [*range(3, 511, 7), 511]:
        coeffs = list(_drift(n).coefficients)
        shifted, direct = dual(invert(krein_fraction(coeffs))), invert(krein_fraction([0.0, *coeffs]))
        for z in (-1e-3, -1.0, -1e3):
            assert char_function(shifted, z) == pytest.approx(char_function(direct, z), rel=DUAL_SHIFT_BOUND, abs=0.0)
        assert shifted.terminal == pytest.approx(direct.terminal, rel=DUAL_SHIFT_BOUND, abs=0.0)


@pytest.mark.parametrize("cf", [_drift(255), tanh_coefficients(101)], ids=["drift-255", "tanh-101"])
def test_levy_exponent_is_lambda_times_the_dual(cf):
    """psi(lambda) = 1/W(-lambda) = lambda W*(-lambda), W* the dual's
    characteristic function; the two sides agreed to 4.4e-16."""
    s = invert(cf)
    for lam in (1e-3, 1.0, 1e3):
        want = lam * char_function(dual(s), -lam)
        assert levy_exponent(s, lam) == pytest.approx(want, rel=DUAL_SHIFT_BOUND, abs=0.0)


# inverts each coefficient list read from stdin and writes its records and
# terminal, or its error text, to stdout
INVERT_ALL = """\
import json, sys
from kreinstring.continued import krein_fraction
from kreinstring.inversion import invert

def end(coeffs):
    try:
        s = invert(krein_fraction(coeffs))
    except OverflowError as exc:
        return str(exc)
    return [s.jumps, s.terminal]

json.dump([end(coeffs) for coeffs in json.load(sys.stdin)], sys.stdout)
"""


def _invert_all(lists, disabled=()):
    """What INVERT_ALL writes for lists in a fresh interpreter, with numpy's
    dispatch targets ``disabled`` switched off."""
    env = dict(os.environ, NPY_DISABLE_CPU_FEATURES=" ".join(disabled))
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, "-c", INVERT_ALL], input=json.dumps(lists), env=env,
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout)


def test_answers_agree_across_simd_dispatch():
    """``invert``'s bytes depend on the kernels numpy picks for exp and log.
    A child without the highest SIMD group numpy found (the targets above the
    lowest one it found, or that one alone: AVX512 on a host that also has
    AVX2, AVX2 on an AVX2-only host) must keep every record count and error
    text and move no number by more than twice the stated bound, taken with
    L in place of Lambda (at most Lambda, so the stricter test)."""
    from numpy._core._multiarray_umath import __cpu_dispatch__, __cpu_features__

    found = [target for target in __cpu_dispatch__ if __cpu_features__.get(target)]
    if not found:
        pytest.skip("numpy found no SIMD group above its baseline")
    p = PAPER_PARAMETERS
    families = [tanh_coefficients(1001), tanh_coefficients(2001), log_limit_coefficients(p["beta"], 4000),
                *(_drift(n) for n in (63, 255, 1023, 4095))]
    lists = [list(cf.coefficients) for cf in families]
    rng = random.Random(20261019)
    for _ in range(300):
        coeffs = [10.0 ** rng.uniform(-100.0, 100.0) for _ in range(rng.randint(2, 119))]
        if rng.random() < 0.3:
            coeffs[0] = 0.0
        lists.append(coeffs)
    here, there = _invert_all(lists), _invert_all(lists, found[1:] or found)
    for coeffs, a, b in zip(lists, here, there, strict=True):
        if isinstance(a, str) or isinstance(b, str):
            assert a == b
            continue
        assert len(a[0]) == len(b[0])
        mine, theirs = _numbers(*a), _numbers(*b)
        bound = 2.0 * _error_bound(coeffs, mine)
        for u, v in zip(mine, theirs):
            assert v == pytest.approx(u, rel=bound, abs=0.0)


def test_unit_impedance_truncation_matches_exact_arithmetic():
    """Spot certification at a moderate order against stdlib fractions."""
    n = 41
    want_pairs, want_term = invert_exact(_tanh_exact(n))
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


def test_long_tail_ends_at_its_first_record_on_the_cap():
    """Families whose string approaches its mass cap only at huge x still
    materialize: the string ends at its first record whose value rounds to
    the cap, and the records past it are dropped, however far out they lie."""
    coeffs = [2.0 if j % 2 == 0 else 4.0 for j in range(1024)]
    s = invert(krein_fraction(coeffs))
    assert all(math.isfinite(x) for x, _ in s.jumps)
    assert s.jumps[-1][1] == 0.5  # the cap, bit for bit
    for z in Z_GRID:
        assert char_function(s, z) == pytest.approx(
            eval_fraction(krein_fraction(coeffs), z), rel=1e-9
        )
