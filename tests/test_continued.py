import math

import pytest

from kreinstring.continued import ContinuedFraction, Form, krein_fraction, stieltjes_fraction


def test_helpers_tag_the_form():
    assert krein_fraction([1.0]).form is Form.KREIN
    assert stieltjes_fraction([1.0]).form is Form.STIELTJES


def test_leading_coefficient_may_be_zero():
    cf = krein_fraction([0.0, 1.0])
    assert cf.coefficients == (0.0, 1.0)


def test_empty_list_rejected():
    with pytest.raises(ValueError, match="non-empty"):
        krein_fraction([])


def test_negative_leading_rejected():
    with pytest.raises(ValueError, match="s_0"):
        krein_fraction([-1.0, 2.0])


def test_interior_zero_or_negative_rejected():
    with pytest.raises(ValueError, match="s_1"):
        krein_fraction([1.0, 0.0])
    with pytest.raises(ValueError, match="s_2"):
        krein_fraction([1.0, 1.0, -3.0])


def test_nonfinite_rejected():
    with pytest.raises(ValueError, match="non-finite"):
        krein_fraction([1.0, math.nan])
    with pytest.raises(ValueError, match="non-finite"):
        krein_fraction([math.inf])


def test_terminated_flag_defaults_false():
    assert krein_fraction([1.0]).terminated is False
    assert stieltjes_fraction([1.0, 2.0], terminated=True).terminated is True


def test_coefficients_are_frozen():
    cf = krein_fraction([1.0, 2.0])
    with pytest.raises(Exception):
        cf.coefficients = (3.0,)
