import math
from fractions import Fraction
from itertools import accumulate

import numpy as np
import pytest
from exact_oracles import validate_string_oracle
from hypothesis import example, given
from hypothesis import strategies as st

from kreinstring.strings import DiscreteString, build_string, eval_mass, validate_string


class TestDiscreteStringInvariants:
    def test_minimal_string(self):
        s = DiscreteString(((0.0, 0.5),))
        assert s.terminal is None
        assert s.jumps == ((0.0, 0.5),)

    def test_requires_at_least_one_record(self):
        with pytest.raises(ValueError, match="at least one jump"):
            DiscreteString(())

    def test_first_position_must_be_zero(self):
        with pytest.raises(ValueError, match="position 0"):
            DiscreteString(((0.5, 1.0),))

    def test_positions_strictly_increase(self):
        with pytest.raises(ValueError, match="strictly increasing"):
            DiscreteString(((0.0, 0.5), (0.0, 1.0)))

    def test_values_never_decrease(self):
        with pytest.raises(ValueError, match="decrease"):
            DiscreteString(((0.0, 1.0), (1.0, 0.5)))

    def test_zero_increment_rejected(self):
        with pytest.raises(ValueError, match="zero mass"):
            DiscreteString(((0.0, 1.0), (1.0, 1.0)))

    def test_negative_and_nonfinite_rejected(self):
        with pytest.raises(ValueError, match="negative"):
            DiscreteString(((0.0, -1.0),))
        with pytest.raises(ValueError, match="non-finite"):
            DiscreteString(((0.0, math.inf),))

    def test_terminal_rules(self):
        DiscreteString(((0.0, 0.0),), terminal=1.0)  # massless with terminal
        with pytest.raises(ValueError, match="precedes"):
            DiscreteString(((0.0, 0.0), (2.0, 1.0)), terminal=1.0)
        with pytest.raises(ValueError, match="coincides"):
            DiscreteString(((0.0, 0.0), (2.0, 1.0)), terminal=2.0)
        with pytest.raises(ValueError, match="finite"):
            DiscreteString(((0.0, 0.5),), terminal=math.inf)


class TestValidateString:
    def test_inserts_leading_origin(self):
        s = validate_string([(1.0, 2.0)])
        assert s.jumps == ((0.0, 0.0), (1.0, 2.0))

    def test_drops_no_mass_rows(self):
        s = validate_string([(0.0, 1.0), (1.0, 1.0), (2.0, 3.0)])
        assert s.jumps == ((0.0, 1.0), (2.0, 3.0))

    def test_empty_input_gives_massless_origin(self):
        assert validate_string([]).jumps == ((0.0, 0.0),)

    def test_duplicate_positions_rejected(self):
        with pytest.raises(ValueError, match="not increasing"):
            validate_string([(1.0, 1.0), (1.0, 2.0)])

    def test_terminal_on_a_jump_is_rejected_not_moved(self):
        with pytest.raises(ValueError, match="coincides"):
            validate_string([(0.0, 0.0), (1.25, 1.0)], terminal=1.25)

    def test_terminal_passthrough(self):
        s = validate_string([(0.0, 1.0)], terminal=2.0)
        assert s.terminal == 2.0

    @pytest.mark.parametrize("row", [(0.0,), (0.0, 1.0, 2.0), ()])
    def test_a_row_that_is_not_a_pair_is_rejected(self, row):
        with pytest.raises(ValueError):
            validate_string([(0.0, 1.0), row])


class TestBuildString:
    """The merge policy for records the library computed."""

    def test_records_at_one_position_merge_to_the_larger_value(self):
        s = build_string([(0.0, 1.0), (1.0, 2.0), (1.0, 3.0), (1.0, 2.5)])
        assert s.jumps == ((0.0, 1.0), (1.0, 3.0))

    def test_records_adding_no_value_are_dropped(self):
        s = build_string([(0.0, 1.0), (1.0, 1.0), (2.0, 0.5), (3.0, 2.0)])
        assert s.jumps == ((0.0, 1.0), (3.0, 2.0))

    def test_positive_first_position_gets_an_origin(self):
        assert build_string([(1.0, 2.0)]).jumps == ((0.0, 0.0), (1.0, 2.0))

    def test_terminal_on_the_last_jump_moves_to_the_next_double(self):
        for terminal in (1.25, 1.0):
            s = build_string([(0.0, 0.0), (1.25, 1.0)], terminal=terminal)
            assert s.terminal == math.nextafter(1.25, math.inf)
        assert build_string([(0.0, 0.0), (1.25, 1.0)], terminal=2.0).terminal == 2.0

    def test_terminal_at_zero_on_the_massless_origin_stays(self):
        # DiscreteString accepts it: the origin carries no mass
        s = build_string([(0.0, 0.0)], terminal=0.0)
        assert (s.jumps, s.terminal) == (((0.0, 0.0),), 0.0)

    def test_terminal_before_the_last_position_moves(self):
        s = build_string([(0.0, 0.0), (1.25, 0.0), (2.0, 1.0)], terminal=1.5)
        assert s.jumps == ((0.0, 0.0), (2.0, 1.0))
        assert s.terminal == math.nextafter(2.0, math.inf)
        assert build_string([(0.0, 0.0)], terminal=-1.0).terminal == 5e-324


class TestEvalMass:
    def test_right_continuous_lookup(self):
        s = DiscreteString(((0.0, 0.0), (1.0, 2.0), (3.0, 5.0)))
        assert eval_mass(s, 0.0) == 0.0
        assert eval_mass(s, 0.999) == 0.0
        assert eval_mass(s, 1.0) == 2.0
        assert eval_mass(s, 2.5) == 2.0
        assert eval_mass(s, 3.0) == 5.0
        assert eval_mass(s, 100.0) == 5.0

    def test_terminal_is_infinite(self):
        s = DiscreteString(((0.0, 0.0),), terminal=1.0)
        assert eval_mass(s, 0.5) == 0.0
        assert eval_mass(s, 1.0) == math.inf
        assert eval_mass(s, 2.0) == math.inf

    def test_negative_argument_rejected(self):
        with pytest.raises(ValueError, match="x >= 0"):
            eval_mass(DiscreteString(((0.0, 1.0),)), -0.1)

    @pytest.mark.parametrize("terminal", [None, 2.0])
    def test_nan_argument_rejected(self, terminal):
        with pytest.raises(ValueError, match="x >= 0"):
            eval_mass(DiscreteString(((0.0, 0.0), (1.0, 1.0)), terminal), math.nan)


@st.composite
def raw_rows(draw):
    k = draw(st.integers(min_value=1, max_value=6))
    xs = sorted(
        draw(
            st.lists(
                st.floats(0.0, 100.0, allow_nan=False),
                min_size=k,
                max_size=k,
                unique=True,
            )
        )
    )
    inc = draw(
        st.lists(st.floats(0.0, 10.0, allow_nan=False), min_size=k, max_size=k)
    )
    ys = np.cumsum(inc).tolist()
    return list(zip(xs, ys))


@given(raw_rows())
def test_validate_is_idempotent(rows):
    s = validate_string(rows)
    again = validate_string(s.jumps, terminal=s.terminal)
    assert again == s


@given(raw_rows())
def test_canonical_masses_are_positive_after_first(rows):
    s = validate_string(rows)
    ys = [y for _, y in s.jumps]
    assert all(b > a for a, b in zip(ys, ys[1:]))
    assert s.jumps[0][0] == 0.0


@given(raw_rows(), st.one_of(st.none(), st.floats(1e-3, 10.0)), st.floats(0.0, math.inf))
def test_eval_mass_agrees_with_a_linear_scan(rows, past_last, extra):
    s = validate_string(rows, terminal=None if past_last is None else rows[-1][0] + past_last)

    def scan(x):
        if s.terminal is not None and x >= s.terminal:
            return math.inf
        value = 0.0
        for p, y in s.jumps:
            if p <= x:
                value = y
        return value

    at = [p for p, _ in s.jumps]
    between = [math.nextafter(p, math.inf) for p in at] + [math.nextafter(p, 0.0) for p in at]
    between += [0.5 * (a + b) for a, b in zip(at, at[1:])]
    terminal = [] if s.terminal is None else [math.nextafter(s.terminal, 0.0), s.terminal, 2.0 * s.terminal]
    for x in at + between + terminal + [math.inf, extra]:
        assert eval_mass(s, x) == scan(x)


# how an entry is spelled: as itself, or as another number type that float() reads back to it
SPELLINGS = {
    "float": lambda v: v,
    "int": lambda v: int(v) if v.is_integer() else v,
    "Fraction": lambda v: Fraction(v) if math.isfinite(v) else v,
    "str": repr,
    "np.float64": np.float64,
}
STEPS = st.one_of(st.integers(0, 3).map(float), st.floats(0.0, 10.0))  # a zero step repeats a position
BAD = st.sampled_from([math.nan, math.inf, -math.inf, -1.0, -5e-324, -0.0])


@st.composite
def faulty_rows(draw):
    """(rows, terminal): increasing rows with up to two faults and the entries spelled in mixed number types.

    A fault is a non-finite or negative entry, a repeated position or a
    decreasing value; the terminal is absent, before, on or past the last
    position, or non-finite or negative itself.
    """
    k = draw(st.integers(0, 6))
    xs = accumulate(draw(st.lists(STEPS, min_size=k, max_size=k)))
    ys = accumulate(draw(st.lists(STEPS, min_size=k, max_size=k)))
    rows = [[x, y] for x, y in zip(xs, ys)]
    for _ in range(draw(st.integers(0, 2)) if rows else 0):
        i = draw(st.integers(0, k - 1))
        kind = draw(st.sampled_from(["bad", "repeat", "decrease"]))
        if kind == "bad":
            rows[i][draw(st.integers(0, 1))] = draw(BAD)
        elif kind == "repeat" and i:
            rows[i][0] = rows[i - 1][0]
        elif i:
            rows[i][1] = rows[i - 1][1] * draw(st.floats(0.0, 1.0, exclude_max=True))
    last = rows[-1][0] if rows else 0.0
    terminal = draw(st.one_of(
        st.none(),
        st.floats(5e-324, 10.0).map(lambda d: last - d),
        st.just(last),
        st.floats(1e-3, 10.0).map(lambda d: last + d),
        BAD,
    ))

    def spell(v):
        return SPELLINGS[draw(st.sampled_from(sorted(SPELLINGS)))](v)

    rows = [(spell(x), spell(y)) for x, y in rows]
    return rows, None if terminal is None else spell(terminal)


def _outcome(validate, rows, terminal):
    """repr of the string validate returns (it shows -0.0), or the type and text of its error."""
    try:
        return repr(validate(iter(rows), terminal))
    except ValueError as exc:
        return type(exc), str(exc)


@given(faulty_rows())
@example(([(0, 1), (Fraction(1, 2), "2"), (np.float64(3.0), Fraction(5, 2))], "3"))
@example(([(0.0, 1.0), (1.0, 1.0), ("1", 2.0)], None))
@example(([(0.0, 2.0), (1.0, 1.0)], None))
@example(([(0.0, 0.0), (1, 1)], 1))
@example(([(0.0, 0.0), (1.0, 1.0), (2.0, 1.0)], 2.0))
@example(([(0.0, math.nan)], None))
@example(([(-0.0, 0.0), (1.0, 2.0)], None))
@example(([(0.0, -0.0)], -0.0))
def test_rows_are_checked_once_as_by_the_oracle(drawn):
    rows, terminal = drawn
    got = _outcome(validate_string, rows, terminal)
    assert got == _outcome(validate_string_oracle, rows, terminal)
    if isinstance(got, str):  # the string was built without __post_init__, which must accept it
        s = validate_string(rows, terminal)
        assert DiscreteString(s.jumps, s.terminal) == s
