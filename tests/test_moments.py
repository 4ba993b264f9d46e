import math
import random
import types
from fractions import Fraction

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from exact_oracles import drift_family_moments, eval_stieltjes_exact, stieltjes_from_moments_oracle
from kreinstring import moments as moments_module
from kreinstring.continued import Form, krein_fraction, to_double
from kreinstring.families import tanh_coefficients
from kreinstring.moments import (
    coefficients_from_moments,
    determinacy_diagnostic,
    stieltjes_from_moments_exact,
)


class TestExactExtraction:
    def test_worked_example(self):
        coeffs, terminated = stieltjes_from_moments_exact(
            [Fraction(2), Fraction(3), Fraction(5), Fraction(9)]
        )
        assert coeffs == [Fraction(1, 2), Fraction(4, 3), Fraction(9, 2), Fraction(1, 6)]
        assert not terminated

    def test_single_atom_terminates(self):
        # all moments of a unit mass at 1
        coeffs, terminated = stieltjes_from_moments_exact([1, 1, 1, 1])
        assert coeffs == [Fraction(1), Fraction(1)]
        assert terminated

        # unit mass at 2
        coeffs, terminated = stieltjes_from_moments_exact([1, 2, 4, 8])
        assert coeffs == [Fraction(1), Fraction(1, 2)]
        assert terminated

    def test_integers_are_accepted_as_exact(self):
        a, _ = stieltjes_from_moments_exact([2, 3, 5, 9])
        b, _ = stieltjes_from_moments_exact([Fraction(2), Fraction(3), Fraction(5), Fraction(9)])
        assert a == b

    def test_rejects_empty_input(self):
        with pytest.raises(ValueError, match="at least one moment"):
            stieltjes_from_moments_exact([])

    def test_rejects_floats(self):
        with pytest.raises(ValueError, match="exact rationals"):
            stieltjes_from_moments_exact([Fraction(1), 0.5])

    def test_rejects_bools(self):
        with pytest.raises(ValueError, match="exact rationals, got 'bool'"):
            stieltjes_from_moments_exact([1, True])
        with pytest.raises(ValueError, match="exact rationals, got 'bool'"):
            stieltjes_from_moments_exact([True, 1])

    def test_rejects_nonpositive_mass(self):
        with pytest.raises(ValueError, match="must be positive"):
            stieltjes_from_moments_exact([0, 1])
        with pytest.raises(ValueError, match="must be positive"):
            stieltjes_from_moments_exact([Fraction(-1), Fraction(1)])

    def test_rejects_a_non_moment_sequence(self):
        # c_1 = 0 with c_2 = 1 violates Cauchy-Schwarz for a positive measure
        with pytest.raises(ValueError, match="nonpositive divisor"):
            stieltjes_from_moments_exact([1, 0, 1])


@st.composite
def atomic_measures(draw, min_atoms=1):
    k = draw(st.integers(min_value=min_atoms, max_value=3))
    lams = draw(
        st.lists(
            st.fractions(min_value=Fraction(1, 4), max_value=Fraction(4)),
            min_size=k,
            max_size=k,
            unique=True,
        )
    )
    ws = draw(
        st.lists(
            st.fractions(min_value=Fraction(1, 4), max_value=Fraction(4)),
            min_size=k,
            max_size=k,
        )
    )
    return list(zip(lams, ws))


@given(atomic_measures())
def test_atomic_measures_terminate_and_reproduce_their_transform(atoms):
    """Moments of a finite atomic measure yield a terminating coefficient list
    whose continued fraction equals the measure's Stieltjes transform exactly.

    A k-atom measure needs 2k moments to pin its 2k coefficients and at least
    one more for the remainder to vanish visibly; two more are supplied.
    """
    count = 2 * len(atoms) + 2
    moments = [sum(w * lam**k for lam, w in atoms) for k in range(count)]
    coeffs, terminated = stieltjes_from_moments_exact(moments)
    assert terminated
    assert len(coeffs) == 2 * len(atoms)
    for z in (Fraction(-1), Fraction(-1, 3), Fraction(-7, 2)):
        want = sum(w / (lam - z) for lam, w in atoms)
        assert eval_stieltjes_exact(coeffs, z) == want


@given(st.fractions(min_value=Fraction(1, 4), max_value=Fraction(4)), atomic_measures(min_atoms=0))
def test_an_atom_at_zero_ends_the_list_one_coefficient_early(w0, atoms):
    """With one of its k atoms at 0, a measure's fraction ends on a -s z term:
    2k - 1 coefficients, and the remainder still vanishes.  A quotient-
    difference table would divide by 0/0 on these moments.
    """
    k = len(atoms) + 1
    moments = [sum(w * lam**j for lam, w in atoms) for j in range(2 * k + 2)]
    moments[0] += w0
    coeffs, terminated = stieltjes_from_moments_exact(moments)
    assert terminated
    assert len(coeffs) == 2 * k - 1
    for z in (Fraction(-1), Fraction(-1, 3), Fraction(-7, 2)):
        want = w0 / -z + sum(w / (lam - z) for lam, w in atoms)
        assert eval_stieltjes_exact(coeffs, z) == want


def lebesgue_moments(count):
    """Moments 1/(k+1) of Lebesgue measure on [0, 1]."""
    return [Fraction(1, k + 1) for k in range(count)]


def thirty_atoms(zero_atom):
    return [(Fraction(j + (not zero_atom), 3), Fraction(1, j + 1)) for j in range(30)]


def sixty_two_moments(atoms):
    return [sum(w * lam**j for lam, w in atoms) for j in range(62)]


@pytest.mark.parametrize("zero_atom", [False, True])
def test_thirty_atoms_from_sixty_two_moments(zero_atom):
    atoms = thirty_atoms(zero_atom)
    coeffs, terminated = stieltjes_from_moments_exact(sixty_two_moments(atoms))
    assert terminated
    assert len(coeffs) == 60 - zero_atom
    z = Fraction(-1, 2)
    assert eval_stieltjes_exact(coeffs, z) == sum(w / (lam - z) for lam, w in atoms)


def _outcome(extract, moments):
    try:
        return extract(moments)
    except ValueError as exc:
        return "ValueError: %s" % exc


@st.composite
def measure_moments(draw):
    """Moments of an atomic measure, perhaps with an atom at 0, cut at a random length."""
    atoms = draw(atomic_measures())
    moments = [sum(w * lam**k for lam, w in atoms) for k in range(2 * len(atoms) + 3)]
    if draw(st.booleans()):
        moments[0] += draw(st.fractions(min_value=Fraction(1, 4), max_value=Fraction(4)))
    return moments[: draw(st.integers(min_value=1, max_value=len(moments)))]


@st.composite
def perturbed_moments(draw):
    """A measure's moments with one entry moved, which often breaks positivity."""
    moments = draw(measure_moments())
    k = draw(st.integers(min_value=0, max_value=len(moments) - 1))
    moments[k] += draw(st.fractions(min_value=-4, max_value=4).filter(bool))
    return moments


@given(
    st.one_of(
        measure_moments(),
        st.lists(st.integers(min_value=-3, max_value=40), min_size=0, max_size=8),
        perturbed_moments(),
    )
)
# pivots sharing large factors, which hypothesis does not draw
@example(lebesgue_moments(96))
@example(drift_family_moments(Fraction(1, 2), Fraction(2), Fraction(1), 40))
@example(sixty_two_moments(thirty_atoms(zero_atom=True)))
def test_integer_rows_match_the_fraction_recurrence(moments):
    """Same coefficients, the same terminated flag and the same error text as
    the Fraction recurrence, on valid, integer and invalid sequences."""
    assert _outcome(stieltjes_from_moments_exact, moments) == _outcome(stieltjes_from_moments_oracle, moments)


def test_lebesgue_moments_give_the_closed_form():
    # an exact oracle at a length the Fraction recurrence cannot reach quickly
    coeffs, terminated = stieltjes_from_moments_exact(lebesgue_moments(400))
    assert coeffs == [Fraction(j + 1) if j % 2 == 0 else Fraction(4, j + 1) for j in range(400)]
    assert not terminated


def widest_gcd_argument(monkeypatch, moments):
    """The extraction's output, the bit length of the widest integer it hands to
    gcd and the number of row reductions: every gcd call but one pivot gcd per
    coefficient."""
    widest = []

    def gcd(*args):
        widest.append(max(abs(a).bit_length() for a in args))
        return math.gcd(*args)

    monkeypatch.setattr(moments_module, "math", types.SimpleNamespace(lcm=math.lcm, gcd=gcd))
    coeffs, terminated = stieltjes_from_moments_exact(moments)
    return coeffs, terminated, max(widest), len(widest) - len(coeffs)


def test_pivots_lose_their_common_factor_before_the_products(monkeypatch):
    # dividing num[0] and den[0] by their gcd first keeps every row half as wide
    # as forming the products and reducing after; the bit count needs no clock.
    # Lebesgue rows take out a few bits a step, so two rows go unreduced after
    # each reduction: 34 reductions in 96 steps (147 bits), where one row gives
    # 49 and three rows reach 160 bits
    coeffs, _, widest, reductions = widest_gcd_argument(monkeypatch, lebesgue_moments(96))
    assert len(coeffs) == 96
    assert widest <= 160
    assert reductions == 34


def test_atomic_rows_stay_reduced(monkeypatch):
    # an atomic measure's rows gain hundreds of bits of content per step, so a
    # row may go unreduced only after a reduction that found almost none: 38 of
    # the 40 rows are reduced and the widest integer stays 1344 bits, where
    # skipping every other reduction reaches 7294 and never reducing 13552
    atoms = [(Fraction(j, j % 5 + 1), Fraction(j % 7 + 1, j % 3 + 1)) for j in range(1, 21)]
    moments = [sum(w * lam**k for lam, w in atoms) for k in range(42)]
    coeffs, terminated, widest, reductions = widest_gcd_argument(monkeypatch, moments)
    assert terminated and len(coeffs) == 40
    assert widest <= 1500
    assert reductions == 38


def seeded_measure_moments(seed, zero_atom):
    """Moments 2k + 2 of a seeded measure of k = 1...8 atoms, one of them at 0 if asked."""
    rng = random.Random(seed)
    k = rng.randint(1, 8)
    nodes = sorted({Fraction(rng.randint(1, 40), rng.randint(1, 12)) for _ in range(k)})
    atoms = [(lam, Fraction(rng.randint(1, 30), rng.randint(1, 10))) for lam in nodes]
    moments = [sum(w * lam**j for lam, w in atoms) for j in range(2 * len(atoms) + 2)]
    if zero_atom:
        moments[0] += Fraction(rng.randint(1, 30), rng.randint(1, 10))
    return moments


BOUNDARY_CASES = {
    "lebesgue": [lebesgue_moments(n) for n in range(1, 201)],
    "drift": [drift_family_moments(Fraction(1, 2), Fraction(2), Fraction(1), 40)],
    "atomic": [seeded_measure_moments(seed, zero_atom=False) for seed in range(40)],
    "atomic-with-zero": [seeded_measure_moments(seed, zero_atom=True) for seed in range(40)],
}


@pytest.mark.parametrize("sequences", list(BOUNDARY_CASES.values()), ids=list(BOUNDARY_CASES))
def test_float_boundary_rounds_the_exact_coefficients(sequences):
    # each double is rounded once from its integer pair, and must be the double
    # of the exact coefficient, bit for bit
    for moments in sequences:
        exact, terminated = stieltjes_from_moments_exact(moments)
        cf = coefficients_from_moments(moments)
        assert [s.hex() for s in cf.coefficients] == [float(v).hex() for v in exact]
        assert cf.terminated == terminated


# a zeroth moment c_0 for which s_1 = c_0**2 / c_1 comes out as an unreduced pair
C0 = 301429049354657038607699680262


@pytest.mark.parametrize(
    "moments, text",
    [
        ([1, Fraction(1, 10**400)], "s_1 is about 1e400, outside double range"),  # past 1.8e308
        ([1, 10**400], "s_1 is about 1e-400, outside double range"),  # rounds to 0
        # s_1 = 10**390 exactly, from a pair with a 390-digit common factor, whose
        # logs would name 1e389
        ([C0, Fraction(C0**2, 10**390)], "s_1 is about 1e390, outside double range"),
    ],
)
def test_float_boundary_names_a_coefficient_outside_double_range(moments, text):
    # the same text as the exact coefficient's own conversion, whatever common
    # factor the integer pair held
    exact, _ = stieltjes_from_moments_exact(moments)
    with pytest.raises(OverflowError) as direct:
        to_double(1, exact[1].numerator, exact[1].denominator)
    with pytest.raises(OverflowError) as converted:
        coefficients_from_moments(moments)
    assert str(converted.value) == str(direct.value) == text


def test_float_boundary_tags_form_and_termination():
    cf = coefficients_from_moments([1, 2, 4, 8])
    assert cf.form is Form.STIELTJES
    assert cf.coefficients == (1.0, 0.5)
    assert cf.terminated


class TestDeterminacy:
    def test_divergence_on_linearly_growing_coefficients(self):
        rep = determinacy_diagnostic(tanh_coefficients(100), 500)
        assert rep.horizon == 100
        assert rep.partial_sums[-1] == pytest.approx(10000.0)
        assert rep.verdict == "divergence observed up to 100"

    def test_inconclusive_on_summable_coefficients(self):
        cf = krein_fraction([0.5**j for j in range(30)])
        rep = determinacy_diagnostic(cf, 29)
        assert rep.verdict == "inconclusive"

    def test_terminating_verdicts(self):
        rep = determinacy_diagnostic(coefficients_from_moments([1, 1, 1, 1]), 10)
        assert rep.verdict == "terminating (determinate)"
        # a lone coefficient is a complete expansion too
        rep = determinacy_diagnostic(krein_fraction([2.0]), 10)
        assert rep.verdict == "terminating (determinate)"

    def test_horizon_is_clamped_to_the_data(self):
        cf = krein_fraction([1.0, 2.0, 3.0])
        rep = determinacy_diagnostic(cf, 1000)
        assert rep.horizon == 2
        assert len(rep.partial_sums) == 3
        assert rep.partial_sums == (1.0, 3.0, 6.0)

    def test_rejects_negative_horizon(self):
        with pytest.raises(ValueError, match="nonnegative"):
            determinacy_diagnostic(krein_fraction([1.0]), -1)
