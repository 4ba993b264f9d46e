import json
import math
import sys
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from kreinstring.continued import ContinuedFraction, Form, krein_fraction
from kreinstring.families import tanh_coefficients
from kreinstring.inversion import invert
from kreinstring.metrics import convergence_study, sup_error
from kreinstring.serialization import (
    SchemaError,
    fmt,
    parse_coefficients,
    parse_moments,
    parse_string,
    render_coefficients,
    render_report,
    render_string,
    render_study,
    render_study_csv,
)
from kreinstring.strings import DiscreteString


# positive doubles, subnormals and both ends of the range among them
POSITIVE = st.one_of(
    st.sampled_from([5e-324, 1e-310, sys.float_info.min, 1.0, sys.float_info.max]),
    st.floats(min_value=5e-324, max_value=sys.float_info.min),
    st.floats(min_value=5e-324, max_value=sys.float_info.max),
)
ORIGIN = st.sampled_from([0.0, -0.0])


@st.composite
def canonical_strings(draw):
    xs = [draw(ORIGIN)] + sorted(set(draw(st.lists(POSITIVE, max_size=6))))
    ys = sorted(draw(st.lists(st.one_of(ORIGIN, POSITIVE), min_size=len(xs), max_size=len(xs), unique=True)))
    terminal = draw(st.one_of(st.none(), POSITIVE))
    return DiscreteString(tuple(zip(xs, ys)), terminal if terminal is not None and terminal > xs[-1] else None)


@st.composite
def fractions(draw):
    s = [draw(st.one_of(ORIGIN, POSITIVE))] + draw(st.lists(POSITIVE, max_size=6))
    return ContinuedFraction(draw(st.sampled_from(Form)), tuple(s), draw(st.booleans()))


class TestWritersFormatLikeFmt:
    """The writers format a record in one call; the bytes are those of fmt on each number."""

    @given(canonical_strings())
    def test_string(self, s):
        rows = ["x,y"] + ["%s,%s" % (fmt(x), fmt(y)) for x, y in s.jumps]
        if s.terminal is not None:
            rows.append("%s,inf" % fmt(s.terminal))
        text = render_string(s)
        assert text == "\n".join(rows) + "\n"
        back = parse_string(text)
        assert back == s and render_string(back) == text

    @given(fractions())
    def test_coefficients(self, cf):
        tail = ',"terminated":true' if cf.terminated else ""
        text = render_coefficients(cf)
        assert text == '{"form":"%s","s":[%s]%s}\n' % (cf.form.value, ",".join(map(fmt, cf.coefficients)), tail)
        back = parse_coefficients(text)
        assert back == cf and render_coefficients(back) == text


class TestFmt:
    @given(st.floats(allow_nan=False, allow_infinity=False))
    def test_round_trips_any_double(self, v):
        assert float(fmt(v)) == v

    def test_normalizes_negative_zero(self):
        assert fmt(-0.0) == "0"

    def test_infinity_spelling(self):
        assert fmt(math.inf) == "inf"
        assert fmt(-math.inf) == "-inf"


class TestCoefficients:
    def test_render_is_compact_and_stable(self):
        cf = krein_fraction([0.0, 1.0, 3.0])
        text = render_coefficients(cf)
        assert text == '{"form":"krein","s":[0,1,3]}\n'
        assert render_coefficients(cf) == text

    def test_terminated_flag_is_rendered(self):
        cf = parse_coefficients('{"form":"stieltjes","s":[1,0.5],"terminated":true}')
        assert cf.terminated
        assert render_coefficients(cf) == '{"form":"stieltjes","s":[1,0.5],"terminated":true}\n'

    def test_round_trip_preserves_everything(self):
        cf = krein_fraction([0.1, 2.5, 1e-300, 9.999999999999999e2])
        back = parse_coefficients(render_coefficients(cf))
        assert back == cf

    def test_accepts_rational_strings(self):
        cf = parse_coefficients('{"form":"krein","s":["1/3", 2]}')
        assert cf.coefficients == (1.0 / 3.0, 2.0)

    def test_render_output_is_valid_json(self):
        data = json.loads(render_coefficients(tanh_coefficients(4)))
        assert data == {"form": "krein", "s": [0, 1, 3, 5, 7]}

    @pytest.mark.parametrize(
        "text, message",
        [
            ("not json", "not valid JSON"),
            ("[1,2]", 'object with "form" and "s"'),
            ('{"form":"krein"}', 'object with "form" and "s"'),
            ('{"form":"other","s":[1]}', '"form" must be'),
            ('{"form":"krein","s":1}', '"s" must be a list'),
            ('{"form":"krein","s":[true]}', "expected number"),
            ('{"form":"krein","s":[[1]]}', "expected number"),
            ('{"form":"krein","s":["1/0"]}', "cannot parse"),
            ('{"form":"krein","s":["abc"]}', "cannot parse"),
            ('{"form":"krein","s":[1],"terminated":1}', "must be a boolean"),
        ],
    )
    def test_malformed_inputs(self, text, message):
        with pytest.raises(SchemaError, match=message):
            parse_coefficients(text)


class TestMoments:
    def test_integers_and_fraction_strings(self):
        out = parse_moments('{"c":[2, "3/2", 5]}')
        assert out == [Fraction(2), Fraction(3, 2), Fraction(5)]
        assert all(isinstance(v, Fraction) for v in out)

    @pytest.mark.parametrize(
        "text, message",
        [
            ("{", "not valid JSON"),
            ('{"m":[1]}', 'list "c"'),
            ('{"c":3}', 'list "c"'),
            ('{"c":[1.5]}', "integers or"),
            ('{"c":[true]}', "integers or"),
            ('{"c":["1/0"]}', "cannot parse"),
        ],
    )
    def test_malformed_inputs(self, text, message):
        with pytest.raises(SchemaError, match=message):
            parse_moments(text)


class TestStrings:
    def test_render_plain_string(self):
        s = DiscreteString(((0.0, 0.5), (4.0, 1.0)))
        assert render_string(s) == "x,y\n0,0.5\n4,1\n"

    def test_terminal_renders_as_inf_row(self):
        s = DiscreteString(((0.0, 0.0), (0.5, 2.0)), terminal=1.25)
        assert render_string(s) == "x,y\n0,0\n0.5,2\n1.25,inf\n"

    def test_round_trip(self):
        s = invert(tanh_coefficients(31))
        back = parse_string(render_string(s))
        assert back.jumps == s.jumps
        assert back.terminal == s.terminal

    def test_parse_inserts_missing_origin(self):
        s = parse_string("x,y\n1,0.5\n")
        assert s.jumps[0] == (0.0, 0.0)

    def test_blank_lines_are_ignored(self):
        s = parse_string("x,y\n\n0,1\n\n")
        assert s.jumps == ((0.0, 1.0),)

    @pytest.mark.parametrize(
        "text, message",
        [
            ("a,b\n0,1\n", 'must start with header'),
            ("", 'must start with header'),
            ("x,y\n0,1,2\n", "expected two columns"),
            ("x,y\n0,abc\n", "non-numeric entry"),
            ("x,y\n0,1\n2,inf\n3,4\n", "rows after the terminal marker"),
        ],
    )
    def test_malformed_inputs(self, text, message):
        with pytest.raises(SchemaError, match=message):
            parse_string(text)

    def test_invalid_geometry_propagates_from_validation(self):
        with pytest.raises(ValueError, match="decrease"):
            parse_string("x,y\n0,2\n1,1\n")


class TestReportsAndStudies:
    def test_report_json(self):
        rep = sup_error(DiscreteString(((0.0, 0.0), (1.0, 0.5))), lambda x: x, 2.0)
        text = render_report(rep)
        data = json.loads(text)
        assert data["metric"] == "sup"
        assert data["window"] == 2.0
        assert data["value"] == 0.5
        assert data["compared"] == 2
        assert render_report(rep) == text

    def test_study_json_and_csv(self):
        study = convergence_study(tanh_coefficients, [5, 11, 21], lambda x: x, 0.9)
        data = json.loads(render_study(study))
        assert data["metric"] == "sup"
        assert [n for n, _ in data["entries"]] == [5, 11, 21]
        csv_text = render_study_csv(study)
        lines = csv_text.strip().split("\n")
        assert lines[0] == "n,error"
        assert len(lines) == 4
        for (n, e), line in zip(study.entries, lines[1:]):
            sn, se = line.split(",")
            assert int(sn) == n
            assert float(se) == e
