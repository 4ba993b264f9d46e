import math
import sys

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from exact_oracles import least_squares_slope_exact
from kreinstring.families import FAMILIES, PAPER_PARAMETERS, REFERENCES, tanh_coefficients
from kreinstring.inversion import invert
from kreinstring.metrics import averaged_error, convergence_study, sup_error
from kreinstring.strings import DiscreteString


bm_drift = REFERENCES["bm-drift"]


class TestSupError:
    def test_perfect_match_scores_zero(self):
        s = DiscreteString(((0.0, 0.0), (1.0, 0.4), (2.0, 4.0 / 9.0)))
        rep = sup_error(s, bm_drift, 5.0)
        assert rep.value == 0.0
        assert rep.metric == "sup"
        assert rep.compared == 3

    def test_single_atom_against_drift_reference(self):
        rep = sup_error(DiscreteString(((0.0, 1.0),)), bm_drift, 1.0)
        assert rep.value == 1.0
        assert rep.index == 0
        assert rep.position == 0.0

    def test_window_is_strict_and_ignores_the_tail(self):
        near = DiscreteString(((0.0, 0.0), (1.0, 0.4)))
        far = DiscreteString(((0.0, 0.0), (1.0, 0.4), (7.0, 9.0)))
        a = sup_error(near, bm_drift, 5.0)
        b = sup_error(far, bm_drift, 5.0)
        assert a.value == b.value
        assert a.compared == b.compared == 2
        # a jump exactly at the window edge is outside
        edge = DiscreteString(((0.0, 0.0), (5.0, 9.0)))
        assert sup_error(edge, bm_drift, 5.0).compared == 1

    def test_rejects_bad_windows(self):
        s = DiscreteString(((0.0, 1.0),))
        with pytest.raises(ValueError, match="window must be positive"):
            sup_error(s, bm_drift, 0.0)
        with pytest.raises(ValueError, match="window must be positive"):
            averaged_error(s, bm_drift, -1.0)
        # the origin record keeps sup_error populated for any window, but the
        # averaged variant skips it and can run out of jumps
        shifted = DiscreteString(((0.0, 0.0), (3.0, 1.0)))
        assert sup_error(shifted, lambda x: x, 1.0).compared == 1
        with pytest.raises(ValueError, match="no jumps inside"):
            averaged_error(shifted, lambda x: x, 1.0)


    def test_nan_from_the_reference_names_its_position(self):
        s = DiscreteString(((0.0, 0.0), (1.0, 0.4), (2.0, 0.5)))
        with pytest.raises(ValueError, match=r"NaN at position 0\.0"):
            sup_error(s, lambda x: math.nan, 5.0)
        late = lambda x: math.nan if x >= 1.0 else 0.0
        with pytest.raises(ValueError, match=r"NaN at position 1\.0"):
            sup_error(s, late, 5.0)
        with pytest.raises(ValueError, match=r"NaN at position 1\.0"):
            averaged_error(s, late, 5.0)
        # an infinite error is a result, as past the terminal of ``uniform``
        assert sup_error(s, lambda x: math.inf, 5.0).value == math.inf


class TestAveragedError:
    def test_midpoint_halves_a_clean_step(self):
        # identity reference: the step at x=1 has plateau midpoint 0.5
        s = DiscreteString(((0.0, 0.0), (1.0, 1.0)))
        rep = averaged_error(s, lambda x: x, 5.0)
        assert rep.value == pytest.approx(0.5)
        assert rep.index == 1
        assert rep.position == 1.0
        assert rep.compared == 1

    def test_never_exceeds_sup_on_a_reconstruction(self):
        s = invert(tanh_coefficients(101))
        sup = sup_error(s, lambda x: x, 0.9)
        avg = averaged_error(s, lambda x: x, 0.9)
        assert avg.value < sup.value

    def test_skips_the_origin_record(self):
        s = DiscreteString(((0.0, 1.0), (1.0, 2.0)))
        rep = averaged_error(s, lambda x: 1.5, 5.0)
        assert rep.compared == 1
        assert rep.value == pytest.approx(0.0)


def numpy_max_error(approx, reference, window, averaged):
    """The array body ``sup_error`` and ``averaged_error`` had: the oracle."""
    xs = np.array([x for x, _ in approx.jumps], dtype=float)
    ys = np.array([y for _, y in approx.jumps], dtype=float)
    offset = 0
    if averaged:
        xs = xs[1:]
        ys = 0.5 * ys[1:] + 0.5 * ys[:-1]
        offset = 1
    inside = xs < window
    if not inside.any():
        return None
    with np.errstate(over="ignore"):  # an error past the double range is inf
        errs = np.abs(ys[inside] - np.array([reference(x) for x in xs[inside]]))
    worst = int(np.argmax(errs))
    return float(errs[worst]), worst + offset, float(xs[inside][worst]), int(errs.size)


# small integers make tied errors common; the rest reach up to the double limit
NUMBERS = st.one_of(
    st.sampled_from([0.0, 1.0, 2.0, 3.0, 1e308, 1.5e308, sys.float_info.max]),
    st.floats(0.0, sys.float_info.max),
)


@st.composite
def error_cases(draw):
    values = sorted(draw(st.lists(NUMBERS, min_size=1, max_size=8, unique=True)))
    k = len(values) - 1
    positions = sorted(draw(st.lists(NUMBERS.filter(lambda x: x > 0.0), min_size=k, max_size=k, unique=True)))
    s = DiscreteString(tuple(zip([0.0, *positions], values)))
    table = {x: draw(st.one_of(NUMBERS, NUMBERS.map(lambda v: -v), st.just(math.inf))) for x in [0.0, *positions]}
    window = draw(st.one_of(st.sampled_from([*positions, 1.0]), st.floats(0.0, math.inf, exclude_min=True)))
    return s, table.__getitem__, window


TIE = DiscreteString(((0.0, 0.0), (1.0, 2.0), (2.0, 3.0), (3.0, 4.0)))
HUGE = DiscreteString(((0.0, 1.5e308), (1.0, sys.float_info.max)))


@given(error_cases(), st.booleans())
@example((TIE, {0.0: 1.0, 1.0: 1.0, 2.0: 2.0, 3.0: 3.0}.__getitem__, 5.0), False)  # errors 1, 1, 1, 1
@example((TIE, {1.0: 0.0, 2.0: 1.5, 3.0: 2.5}.__getitem__, 5.0), True)  # halved 1, 2.5, 3.5: errors 1, 1, 1
@example((HUGE, {0.0: -1e308, 1.0: 0.0}.__getitem__, 2.0), False)  # y - M overflows to inf
@example((HUGE, {1.0: 1.6e308}.__getitem__, 2.0), True)  # the plateaus' sum overflows, their mean does not
def test_errors_match_the_array_oracle(case, averaged):
    s, reference, window = case
    want = numpy_max_error(s, reference, window, averaged)
    measure = averaged_error if averaged else sup_error
    if want is None:
        with pytest.raises(ValueError, match="no jumps inside"):
            measure(s, reference, window)
        return
    rep = measure(s, reference, window)
    assert (rep.value, rep.index, rep.position, rep.compared) == want
    assert rep.metric == ("averaged" if averaged else "sup") and rep.window == window


class TestConvergenceStudy:
    def test_constant_errors_fit_a_flat_line(self):
        # a family whose reconstruction never changes: error is constant in n
        family = lambda n: tanh_coefficients(5)
        study = convergence_study(family, [5, 10, 20], lambda x: x, 0.9)
        assert study.slope == pytest.approx(0.0, abs=1e-12)
        vals = [e for _, e in study.entries]
        assert vals[0] == vals[1] == vals[2]

    def test_unit_impedance_rate_is_about_half(self):
        study = convergence_study(
            tanh_coefficients, [25, 51, 101, 201], lambda x: x, 0.9
        )
        assert -0.8 < study.slope < -0.3
        assert study.metric == "sup"
        # errors actually decrease along the list
        vals = [e for _, e in study.entries]
        assert all(b < a for a, b in zip(vals, vals[1:]))

    def test_averaged_variant_is_faster(self):
        ns = [25, 51, 101, 201]
        sup = convergence_study(tanh_coefficients, ns, lambda x: x, 0.9)
        avg = convergence_study(tanh_coefficients, ns, lambda x: x, 0.9, averaged=True)
        assert avg.slope < sup.slope
        assert avg.metric == "averaged"

    @pytest.mark.parametrize("averaged", [False, True], ids=["raw", "averaged"])
    @pytest.mark.parametrize(
        "ns", [(63, 127, 255, 511, 1023), (63, 127, 255, 511, 1023, 2047, 4095)], ids=["readme", "drift-orders"]
    )
    def test_slope_is_within_an_ulp_of_the_exact_fit(self, ns, averaged):
        # the orders of README's study and of the drift-orders benchmark, at the paper's parameters
        build, params = FAMILIES["bessel-drift"]
        family = lambda n: build(*[PAPER_PARAMETERS[p] for p in params], n)
        study = convergence_study(family, ns, bm_drift, 5.0, averaged=averaged)
        exact = float(least_squares_slope_exact(
            [math.log(n) for n, _ in study.entries], [math.log(e) for _, e in study.entries]
        ))
        assert abs(study.slope - exact) <= math.ulp(exact)

    def test_rejects_short_or_unsorted_orders(self):
        with pytest.raises(ValueError, match="at least three"):
            convergence_study(tanh_coefficients, [5, 10], lambda x: x, 0.9)
        with pytest.raises(ValueError, match="strictly increasing"):
            convergence_study(tanh_coefficients, [5, 10, 10], lambda x: x, 0.9)
