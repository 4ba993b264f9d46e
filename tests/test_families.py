import decimal
import math
from decimal import Decimal
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from exact_oracles import bessel_drift_oracle, drift_family_moments, eval_krein_exact, log_limit_oracle
from kreinstring.evaluate import eval_fraction
from kreinstring.families import (
    FAMILIES,
    PAPER_PARAMETERS,
    REFERENCES,
    bessel_drift_coefficients,
    log_limit_coefficients,
    tanh_coefficients,
)
from kreinstring.continued import Form
from kreinstring.moments import stieltjes_from_moments_exact

HEADLINE_C = 1.0 / math.sqrt(2.0 * math.pi)


class TestRegistry:
    def test_every_family_builds_from_the_paper_parameters(self):
        for build, params in FAMILIES.values():
            cf = build(*(PAPER_PARAMETERS[p] for p in params), 5)
            assert cf.form is Form.KREIN
            assert len(cf.coefficients) == 6

    def test_paper_parameters_give_gamma_one(self):
        build, params = FAMILIES["bessel-drift"]
        cf = build(*(PAPER_PARAMETERS[p] for p in params), 3)
        assert cf.coefficients == pytest.approx([2.0, 4.0, 2.0, 4.0], rel=1e-15)

    def test_every_reference_is_defined(self):
        for name in REFERENCES:
            assert math.isfinite(REFERENCES[name](0.5))


class TestTanh:
    def test_first_coefficients(self):
        cf = tanh_coefficients(3)
        assert cf.form is Form.KREIN
        assert cf.coefficients == (0.0, 1.0, 3.0, 5.0)
        assert not cf.terminated

    def test_needs_positive_order(self):
        with pytest.raises(ValueError, match="n >= 1"):
            tanh_coefficients(0)


class TestBesselDrift:
    def test_headline_parameters_give_the_periodic_sequence(self):
        cf = bessel_drift_coefficients(0.5, 2.0, HEADLINE_C, 11)
        assert cf.form is Form.KREIN
        for j, s in enumerate(cf.coefficients):
            want = 2.0 if j % 2 == 0 else 4.0
            assert s == pytest.approx(want, rel=1e-15)

    def test_matches_exact_moment_expansion(self):
        """Independent derivation: exact rational moments of the spectral
        measure, run through the exact coefficient extraction, must give the
        same numbers as the closed-form ratios."""
        alpha, beta, gamma = Fraction(1, 3), Fraction(3), Fraction(5, 7)
        moments = drift_family_moments(alpha, beta, gamma, 12)
        want, terminated = stieltjes_from_moments_exact(moments)
        assert not terminated
        c_const = float(gamma) / (math.gamma(1.0 - float(alpha)) * float(beta) ** float(alpha))
        got = bessel_drift_coefficients(float(alpha), float(beta), c_const, 11)
        assert len(got.coefficients) == 12
        for g, w in zip(got.coefficients, want):
            assert g == pytest.approx(float(w), rel=1e-14)

    def test_evaluates_to_the_closed_form(self):
        # W(z) = (alpha/gamma) / ((1 - z/beta)**alpha - 1)
        w = eval_fraction(bessel_drift_coefficients(0.5, 2.0, HEADLINE_C, 30), -1.0)
        assert w == pytest.approx(0.5 / (math.sqrt(1.5) - 1.0), rel=1e-12)

        alpha, beta, gamma = 1.0 / 3.0, 3.0, 5.0 / 7.0
        c_const = gamma / (math.gamma(1.0 - alpha) * beta**alpha)
        w = eval_fraction(bessel_drift_coefficients(alpha, beta, c_const, 30), -2.0)
        want = (alpha / gamma) / ((1.0 + 2.0 / beta) ** alpha - 1.0)
        assert w == pytest.approx(want, rel=1e-12)

    @pytest.mark.parametrize(
        "alpha, beta, c_const, message",
        [
            (0.0, 2.0, 1.0, "alpha"),
            (1.0, 2.0, 1.0, "alpha"),
            (0.5, 0.0, 1.0, "beta"),
            (0.5, math.nan, 1.0, "beta"),
            (0.5, math.inf, 1.0, "beta"),
            (0.5, 2.0, -1.0, "constant"),
            (0.5, 2.0, math.nan, "constant"),
            (0.5, 2.0, math.inf, "constant"),
        ],
    )
    def test_parameter_validation(self, alpha, beta, c_const, message):
        with pytest.raises(ValueError, match=message):
            bessel_drift_coefficients(alpha, beta, c_const, 5)

    @pytest.mark.parametrize(
        "beta, c_const, n, message",
        [
            (2.0, 1e308, 0, "gamma = .* is outside double range at alpha = 0.5, beta = 2, c_const = 1e\\+308"),
            (2.0, 1e-320, 0, "s_0 is outside double range"),
            (2.0, 3e307, 2, "s_1 is outside double range at alpha = 0.5, beta = 2, c_const = 3e\\+307"),
            (1e-300, 1e300, 3, "s_0 is outside double range"),
            (1e-300, 1e-170, 3,
             "gamma = .* = 1.77e-320 is below the normal double range at alpha = 0.5, beta = 1e-300, c_const = 1e-170"),
        ],
    )
    def test_parameters_out_of_double_range_are_named(self, beta, c_const, n, message):
        """gamma = inf once gave s_0 = 0, the coefficient of another string."""
        with pytest.raises(OverflowError, match=message):
            bessel_drift_coefficients(0.5, beta, c_const, n)

    def test_subnormal_coefficient_is_named(self):
        """gamma is normal here, but s_5 = 2*gamma*(1+alpha)_2/(1-alpha)_3 is not."""
        assert bessel_drift_coefficients(0.01, 1.0, 3e-308, 4).coefficients[3] == pytest.approx(3.094e-308, rel=1e-3)
        with pytest.raises(OverflowError, match="s_5 = 2.08e-308 is below the normal double range at alpha = 0.01"):
            bessel_drift_coefficients(0.01, 1.0, 3e-308, 5)

    def test_rejects_negative_order(self):
        with pytest.raises(ValueError, match="n >= 0"):
            bessel_drift_coefficients(0.5, 2.0, 1.0, -1)


class TestLogLimit:
    def test_first_coefficients(self):
        cf = log_limit_coefficients(2.0, 5)
        assert cf.coefficients == (4.0, 1.0, 12.0, 0.5, 20.0, 1.0 / 3.0)

    def test_evaluates_to_the_closed_form(self):
        w = eval_fraction(log_limit_coefficients(2.0, 30), -1.0)
        assert w == pytest.approx(2.0 / math.log(1.5), rel=1e-12)

    def test_is_the_small_alpha_limit(self):
        """With the constant pinned so gamma = 1/2, shrinking alpha drives the
        drift family onto the log-limit coefficients termwise."""
        beta = 2.0
        want = log_limit_coefficients(beta, 19).coefficients
        worst = {}
        for alpha in (1e-2, 1e-3):
            c_const = 0.5 / (math.gamma(1.0 - alpha) * beta**alpha)
            got = bessel_drift_coefficients(alpha, beta, c_const, 19).coefficients
            worst[alpha] = max(abs(g - w) / w for g, w in zip(got, want))
        assert worst[1e-3] <= 1e-2
        assert worst[1e-3] < worst[1e-2]

    @pytest.mark.parametrize("alpha", [1e-6, 1e-9])
    def test_tiny_alpha_is_within_ten_alpha_of_the_limit(self, alpha):
        """The gap is about 7.6 alpha: the expansion of the drift family is
        first order in alpha, so it shrinks with alpha all the way down."""
        beta = 2.0
        c_const = 0.5 / (math.gamma(1.0 - alpha) * beta**alpha)
        got = bessel_drift_coefficients(alpha, beta, c_const, 50).coefficients
        want = log_limit_coefficients(beta, 50).coefficients
        assert max(abs(g - w) / w for g, w in zip(got, want)) <= 10.0 * alpha

    def test_parameter_validation(self):
        for beta in (-2.0, math.nan, math.inf):
            with pytest.raises(ValueError, match="beta"):
                log_limit_coefficients(beta, 5)
        with pytest.raises(ValueError, match="n >= 0"):
            log_limit_coefficients(2.0, -1)

    def test_coefficients_past_double_range_name_beta(self):
        with pytest.raises(OverflowError, match="s_0 is outside double range at beta = 1e\\+308"):
            log_limit_coefficients(1e308, 3)
        with pytest.raises(OverflowError, match="s_2 is outside double range at beta = 3e\\+307"):
            log_limit_coefficients(3e307, 5)
        with pytest.raises(OverflowError, match="s_0 = 2e-320 is below the normal double range at beta = 9.99989e-321"):
            log_limit_coefficients(1e-320, 3)


def _outcome(build, *args):
    """The fraction build returns, or the type and text of its error."""
    try:
        return build(*args)
    except (ValueError, OverflowError) as exc:
        return type(exc), str(exc)


DECADES = st.floats(-320.0, 308.0).map(lambda e: 10.0**e)  # log-uniform from 1e-320 to 1e308


class TestGeneratorsAgainstTheLoops:
    """Each builder states its formula as a generator; the oracles append
    the same float operations to a list in a loop."""

    @settings(deadline=None)
    @given(st.floats(0.0, 1.0, exclude_min=True, exclude_max=True), DECADES, DECADES, st.integers(0, 600))
    @example(0.5, 2.0, HEADLINE_C, 4095)
    @example(0.5, 2.0, HEADLINE_C, 0)
    @example(0.5, 2.0, HEADLINE_C, 1)
    @example(0.5, 2.0, HEADLINE_C, 2)
    @example(0.01, 1e-320, 1e-320, 20)
    def test_bessel_drift(self, alpha, beta, c_const, n):
        got = _outcome(bessel_drift_coefficients, alpha, beta, c_const, n)
        assert got == _outcome(bessel_drift_oracle, alpha, beta, c_const, n)

    @settings(deadline=None)
    @given(DECADES, st.integers(0, 600))
    @example(2.0, 4000)
    @example(2.0, 0)
    @example(2.0, 1)
    @example(2.0, 2)
    def test_log_limit(self, beta, n):
        assert _outcome(log_limit_coefficients, beta, n) == _outcome(log_limit_oracle, beta, n)


def _tanh_over_r(z):
    r = (-z).sqrt()
    e = (-2 * r).exp()
    return (1 - e) / (1 + e) / r


# family -> (exact KREIN coefficient j, closed form of W at a Decimal z < 0)
EXACT_FAMILIES = {
    "drift": (lambda j: Fraction(2 + 2 * (j % 2)), lambda z: Decimal("0.5") / ((1 - z / 2).sqrt() - 1)),
    "log-limit": (lambda j: Fraction(2, j + 1) if j % 2 else Fraction(4 * (j + 1)), lambda z: 2 / (1 - z / 2).ln()),
    "tanh": (lambda j: Fraction(max(2 * j - 1, 0)), _tanh_over_r),
}


@pytest.mark.parametrize("family", sorted(EXACT_FAMILIES))
def test_truncations_bracket_the_closed_form(family):
    """Every positive continuation of s_0, ..., s_n has its W(z), z < 0,
    between the convergents of orders n - 1 and n (Stieltjes 1894), so the
    family's closed form lies between them.  The closed form takes 80 digits:
    at 40, s_50 scaled by 1 + 1e-6 stays inside for drift and log-limit."""
    coefficient, closed_form = EXACT_FAMILIES[family]
    s = [coefficient(j) for j in range(129)]
    slack = Decimal("1e-76")
    with decimal.localcontext() as ctx:
        ctx.prec = 80
        for z in (-1, -1000, -(10**6)):
            w = closed_form(Decimal(z))
            for n in (8, 16, 32, 64, 128):
                ends = [eval_krein_exact(s[: k + 1], Fraction(z)) for k in (n - 1, n)]
                lo, hi = sorted(Decimal(v.numerator) / v.denominator for v in ends)
                assert lo * (1 - slack) <= w <= hi * (1 + slack), (n, z)


class TestReferenceMass:
    def test_bm_drift_values(self):
        bm_drift = REFERENCES["bm-drift"]
        assert bm_drift(0.0) == 0.0
        assert bm_drift(1.0) == pytest.approx(0.4)
        assert bm_drift(1e12) == pytest.approx(0.5)

    def test_uniform_values(self):
        assert REFERENCES["uniform"](0.3) == 0.3
        assert REFERENCES["uniform"](1.0) == math.inf
