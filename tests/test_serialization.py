import json
import math
import sys
from fractions import Fraction

import pytest
from exact_oracles import parse_string_oracle
from hypothesis import example, given
from hypothesis import strategies as st

from kreinstring import serialization
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


def _outcome(parse, text):
    """repr of what parse returns (it shows -0.0), or the type and text of its error."""
    try:
        return repr(parse(text))
    except (SchemaError, ValueError, OverflowError) as exc:
        return type(exc), str(exc)


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

    @pytest.mark.parametrize(
        "entries, message",
        [
            ("1,1" + "0" * 400, "s_1 is about 1e400, outside double range"),
            ('"1' + "0" * 400 + '/3"', "s_0 is about 1e399, outside double range"),
            ('2,"1/3",1' + "0" * 400, "s_2 is about 1e400, outside double range"),
            ("1" + "0" * 400 + ",true", "s_0 is about 1e400, outside double range"),
            ('"1e-400",1,2', "s_0 is about 1e-400, outside double range"),
            ("1e-400,1,2", "s_0 is about 1e-400, outside double range"),
            ('1,"-1/3' + "0" * 400 + '"', "s_1 is about 1e-401, outside double range"),
        ],
    )
    def test_an_entry_past_double_range_is_named(self, entries, message):
        with pytest.raises(OverflowError, match="^%s$" % message):
            parse_coefficients('{"form":"krein","s":[%s]}' % entries)

    @given(*[st.integers(0, 400).flatmap(lambda k: st.integers(1, 10**k))] * 2)
    @example(1, 10**400)
    @example(10**400, 1)
    def test_a_nonzero_rational_entry_is_never_read_as_zero(self, p, q):
        try:
            got = serialization._parse_entry(0, "%d/%d" % (p, q))
        except OverflowError as exc:
            assert str(exc).endswith(", outside double range")
        else:
            assert got == p / q != 0.0

    @pytest.mark.parametrize("entry", ['"1e-99999999999"', '"1E+4301"', "1e-99999999999", '"-0.5e-4301"'])
    def test_an_exponent_past_the_integer_digit_limit_is_refused(self, entry):
        with pytest.raises(SchemaError, match="^the exponent of '.*' is past 4300, the limit on integer digits$"):
            parse_coefficients('{"form":"krein","s":[%s]}' % entry)

    @given(st.lists(st.one_of(st.integers(), st.integers(10**307, 10**309), st.floats(), st.booleans(),
                              st.sampled_from(["1/3", "1" + "0" * 400 + "/3", "abc", None]))))
    def test_a_number_column_reads_as_entry_by_entry(self, entries):
        def by_entry(entries):
            return tuple(serialization._parse_entry(i, v) for i, v in enumerate(entries))

        assert _outcome(serialization._parse_entries, entries) == _outcome(by_entry, entries)


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
            # errors name the file line, blank lines counted
            ("x,y\n0,1,2\n", "line 2: expected two columns"),
            ("x,y\n0,abc\n", "line 2: non-numeric entry"),
            ("x,y\n0,1\n2,inf\n3,4\n", "line 4: rows after the terminal marker"),
            ("x,y\n\n0,0\n\n1,2,3\n", "line 5: expected two columns"),
            ("x,y\n\n0,0\n\n1,a\n", "line 5: non-numeric entry"),
            ("x,y\n\n1,inf\n\n2,3\n", "line 5: rows after the terminal marker"),
        ],
    )
    def test_malformed_inputs(self, text, message):
        with pytest.raises(SchemaError, match=message):
            parse_string(text)

    @pytest.mark.parametrize("spelling", ["inf", "+inf", "INF", "Infinity", " +infinity "])
    def test_spelled_infinity_marks_the_terminal(self, spelling):
        s = parse_string("x,y\n0,0\n1,1\n2,%s\n" % spelling)
        assert s.jumps[-1] == (1.0, 1.0) and s.terminal == 2.0

    @pytest.mark.parametrize("overflow", ["1e400", "1" + "0" * 400])
    def test_an_infinite_value_that_is_not_spelled_inf_is_no_terminal(self, overflow):
        with pytest.raises(ValueError, match="non-finite entry at row 2"):
            parse_string("x,y\n0,0\n1,1\n2,%s\n" % overflow)

    def test_invalid_geometry_propagates_from_validation(self):
        with pytest.raises(ValueError, match="decrease"):
            parse_string("x,y\n0,2\n1,1\n")

    @given(canonical_strings())
    def test_written_files_are_read_without_the_csv_module(self, s):
        def refuse(*args, **kwargs):
            raise AssertionError("csv.reader called on a file render_string wrote")

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(serialization.csv, "reader", refuse)
            assert parse_string(render_string(s)) == s


# cells that end a parse or mark a terminal
ODD_CELLS = st.sampled_from(["inf", "+Inf", "Infinity", " inf ", "-inf", "1e400", "nan", "abc", "\x00", "", " 1 ", "-1"])
HEADERS = st.sampled_from([" x , y ", "X,Y", "x,y,z", "x", "a,b", '"x","y"', ""])


@st.composite
def mutations(draw, count):
    """One change to a list of `count` lines, the header first: (line index, kind of change, new text)."""
    i = draw(st.integers(0, count - 1))
    kind = draw(st.sampled_from(["header", "blank", "space", "x", "y", "zero", "quote", "short", "long", "end"]))
    return i, kind, draw(HEADERS if kind == "header" else ODD_CELLS if kind in "xy" else st.sampled_from(["\r\n", "\r"]))


@st.composite
def string_texts(draw):
    """Texts of string files: the layout render_string writes, with up to three changes from a grammar.

    Rows are non-decreasing %.17g or repr doubles, so a position may repeat,
    with a terminal row or not.  A change replaces the header, puts in a blank
    or whitespace-only line, a cell that ends a parse or marks a terminal, a
    last cell of 0 (a value that decreases), a quoted field, a missing or an
    extra comma, or a \\r\\n or bare \\r line end.
    """
    spelling = draw(st.sampled_from(["%.17g", "%r"]))
    steps = draw(st.lists(st.tuples(st.floats(0.0, 10.0), st.floats(0.0, 10.0)), max_size=6))
    x = y = 0.0
    rows = []
    for dx, dy in steps:
        x, y = x + dx, y + dy
        rows.append([spelling % x, spelling % y])
    if draw(st.booleans()):
        rows.append([spelling % (x + 1.0), draw(st.sampled_from(["inf", "+Inf", "Infinity"]))])
    lines = [["x", "y"]] + rows
    ends = ["\n"] * len(lines)
    for i, kind, value in draw(st.lists(mutations(len(lines)), max_size=3)):
        if kind == "header":
            lines[0] = value.split(",")
        elif kind in ("blank", "space"):  # before line i
            lines.insert(i, [] if kind == "blank" else [" "])
            ends.insert(i, "\n")
        elif kind in "xy":  # the cell in that column, or a cell of its own on a blank line
            lines[i] = lines[i][:] or [value]
            lines[i][min("xy".index(kind), len(lines[i]) - 1)] = value
        elif kind == "zero":
            lines[i] = lines[i][:-1] + ["0"]
        elif kind == "quote":
            lines[i] = ['"%s"' % c for c in lines[i]]
        elif kind == "short":
            lines[i] = lines[i][:1]
        elif kind == "long":
            lines[i] = lines[i] + ["1"]
        else:
            ends[i] = value
    text = "".join(",".join(line) + end for line, end in zip(lines, ends))
    return text if draw(st.booleans()) else text.rstrip("\r\n")


@given(string_texts())
@example("x,y\n" + "1" * 200000 + ",1\n")  # a field past csv's size limit
@example("x" + " " * 200000 + ",y\n0,1\n")
@example("x,y\n0\r,1\n")  # two rows to csv, one line to a split
@example("x,y\n0,1\n2,inf\n")
@example("x,y\r\n\r\n0,1\r\n2,+Infinity\r\n")
@example("x,y\n0,1\n2,inf\n3,4\n")
@example("x,y\n0,1e400\n2,inf\n")
@example("x,y\n0,1\n2,1e400\n")
@example('x,y\n"0",1\n')
@example("x,y\n")
def test_the_column_reader_agrees_with_the_csv_rows(text):
    assert _outcome(parse_string, text) == _outcome(parse_string_oracle, text)



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
