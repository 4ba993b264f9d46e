"""File formats: coefficient/moment JSON and string CSV.

Writers render numbers with 17 significant digits so a double survives a
round trip bit-for-bit, and build the JSON text by hand so identical inputs
give byte-identical files.  Readers accept rationals written as "p/q" strings
wherever exactness matters, and read all rational text through ``_rational``;
an exact coefficient becomes a double through ``to_double``, as one computed
from moments does.  A string file is CSV: the layout
``render_string`` writes is read a column at a time, and any other text
(quoted fields, a bare carriage return, a misplaced terminal, an error) goes
through the csv module row by row, whose errors name the file line.
"""

from __future__ import annotations

import csv
import io
import json
import math
import re
import sys
from itertools import repeat
from typing import TYPE_CHECKING, List, Optional

from .continued import ContinuedFraction, Form, to_double
from .strings import DiscreteString, validate_string

if TYPE_CHECKING:
    from fractions import Fraction


class SchemaError(Exception):
    """Input file is structurally malformed."""


def fmt(v: float) -> str:
    """17 significant digits, as the bulk writers inline it; + 0.0 turns -0.0 into 0, 'inf' stays."""
    return "%.17g" % (v + 0.0)


# -- coefficients ------------------------------------------------------------


def render_coefficients(cf: ContinuedFraction) -> str:
    body = ",".join(["%.17g"] * len(cf.coefficients)) % tuple(s + 0.0 for s in cf.coefficients)  # fmt, in one call
    tail = ',"terminated":true' if cf.terminated else ""
    return '{"form":"%s","s":[%s]%s}\n' % (cf.form.value, body, tail)


def _parse_entry(i: int, v: object) -> float:
    if isinstance(v, float):
        return v
    from fractions import Fraction

    if isinstance(v, bool) or not isinstance(v, (int, str, Fraction)):
        raise SchemaError("\"s\" entry: expected number or 'p/q' string")
    try:
        r = _rational(v) if isinstance(v, str) else v
        return to_double(i, r.numerator, r.denominator)
    except (ValueError, ZeroDivisionError):
        raise SchemaError('"s" entry: cannot parse %s as a rational' % _quoted(v))


def _parse_entries(s: list) -> tuple:
    if {int, float}.issuperset(map(type, s)):  # JSON numbers and no bools: one conversion
        try:
            return tuple(map(float, s))
        except OverflowError:
            pass  # the entry-by-entry path names the entry
    return tuple(_parse_entry(i, v) for i, v in enumerate(s))


def _quoted(entry: object) -> str:
    """The repr of a rejected entry; a string past 40 characters gives its first 40 and its length."""
    if isinstance(entry, str) and len(entry) > 40:
        return "%r... (%d characters)" % (entry[:40], len(entry))
    return repr(entry)


_EXPONENT = re.compile(r"e([-+]?[\d_]+)\s*\Z", re.IGNORECASE)


def _rational(text: str) -> Fraction:
    """Fraction(text) of "p/q" or decimal text.  An exponent past Python's
    bound on the digits of integer text is refused, as a longer integer is:
    Fraction would build 10**exponent, in time that grows with it."""
    from fractions import Fraction

    exponent = _EXPONENT.search(text)
    limit = sys.get_int_max_str_digits()
    if exponent is not None and 0 < limit < abs(int(exponent[1])):
        raise SchemaError("the exponent of %s is past %d, the limit on integer digits" % (_quoted(text), limit))
    return Fraction(text)


def _json_float(text: str) -> object:
    """A JSON number with a fraction or an exponent, as a float; one that is
    nonzero but rounds to 0.0 or overflows stays exact, so that to_double names it."""
    f = float(text)
    return f if 0.0 < abs(f) < math.inf else _rational(text) or f  # an exact zero stays the float, -0.0 too


def _load_json(text: str, what: str) -> object:
    try:
        return json.loads(text, parse_float=_json_float)
    except ValueError as exc:  # JSONDecodeError, or an integer past int_max_str_digits
        raise SchemaError("%s file is not valid JSON: %s" % (what, exc))
    except RecursionError:
        raise SchemaError("%s file is nested too deeply" % what)


def parse_coefficients(text: str) -> ContinuedFraction:
    data = _load_json(text, "coefficient")
    if not isinstance(data, dict) or "form" not in data or "s" not in data:
        raise SchemaError('coefficient file must be an object with "form" and "s"')
    try:
        form = Form(data["form"])
    except ValueError:
        raise SchemaError('"form" must be "krein" or "stieltjes"')
    if not isinstance(data["s"], list):
        raise SchemaError('"s" must be a list')
    coeffs = _parse_entries(data["s"])
    terminated = data.get("terminated", False)
    if not isinstance(terminated, bool):
        raise SchemaError('"terminated" must be a boolean')
    return ContinuedFraction(form, coeffs, terminated=terminated)


# -- moments -----------------------------------------------------------------


def parse_moments(text: str) -> List[Fraction]:
    from fractions import Fraction

    data = _load_json(text, "moment")
    if not isinstance(data, dict) or "c" not in data or not isinstance(data["c"], list):
        raise SchemaError('moment file must be an object with a list "c"')
    out: List[Fraction] = []
    for v in data["c"]:
        if isinstance(v, bool) or not isinstance(v, (int, str)):
            raise SchemaError('"c" entries must be integers or "p/q" strings')
        try:
            out.append(_rational(v) if isinstance(v, str) else Fraction(v))
        except (ValueError, ZeroDivisionError):
            raise SchemaError("cannot parse moment %s as a rational" % _quoted(v))
    return out


# -- strings -----------------------------------------------------------------


def render_string(s: DiscreteString) -> str:
    lines = ["x,y"]
    lines += ["%.17g,%.17g" % (x + 0.0, y + 0.0) for x, y in s.jumps]  # fmt, per record
    if s.terminal is not None:
        lines.append("%s,inf" % fmt(s.terminal))
    return "\n".join(lines) + "\n"


def _spelled_infinity(cell: str) -> bool:
    # only a spelled infinity marks the terminal; -inf and an overflow like 1e400 fall through to the row checks
    return cell.strip().lstrip("+").lower() in ("inf", "infinity")


def _columns(text: str):
    """(pairs, terminal) of the layout render_string writes, or None for any other text.

    The layout: no carriage return outside a \\r\\n line end, the header on
    the first line, exactly one comma on every other non-blank line, no field
    past csv's size limit, every field a float (so no field is quoted), and a
    spelled infinity in the last row only.  Other text, errors included, is
    left to the csv loop of _rows, so both give the same string or the same
    error.
    """
    if "\r" in text:
        text = text.replace("\r\n", "\n")
        if "\r" in text:  # a bare \r ends a row for csv, not for split
            return None
    header, *lines = text.split("\n")
    head = header.split(",")
    lines = list(filter(None, lines))  # blank lines
    if [c.strip() for c in head] != ["x", "y"] or set(map(str.count, lines, repeat(","))) != {1}:
        return None
    cells = ",".join(lines).split(",")
    limit = csv.field_size_limit()
    if len(text) > limit and max(map(len, head + cells)) > limit:
        return None
    try:
        xs, ys = list(map(float, cells[0::2])), list(map(float, cells[1::2]))
    except ValueError:
        return None
    terminal: Optional[float] = None
    if math.inf in ys:
        if ys.index(math.inf) < len(ys) - 1:
            return None
        if _spelled_infinity(cells[-1]):
            terminal = xs.pop()
            ys.pop()
    return zip(xs, ys), terminal


def _rows(text: str):
    """(pairs, terminal) of any CSV text, row by row; errors name the file line."""
    reader = csv.reader(io.StringIO(text))
    try:
        rows = [(reader.line_num, r) for r in reader if r]  # numbered as in the file, blank lines too
    except csv.Error as exc:
        if str(exc).startswith("new-line character"):  # the only newline a StringIO line holds is a bare \r
            raise SchemaError("line %d: carriage return not followed by a line feed" % reader.line_num)
        raise SchemaError("string file is not valid CSV: %s" % exc)
    if not rows or [c.strip() for c in rows[0][1]] != ["x", "y"]:
        raise SchemaError('string file must start with header "x,y"')
    pairs = []
    terminal: Optional[float] = None
    for i, row in rows[1:]:
        if len(row) != 2:
            raise SchemaError("line %d: expected two columns" % i)
        try:
            x, y = float(row[0]), float(row[1])
        except ValueError:
            raise SchemaError("line %d: non-numeric entry" % i)
        if terminal is not None:
            raise SchemaError("line %d: rows after the terminal marker" % i)
        if y == math.inf and _spelled_infinity(row[1]):
            terminal = x
        else:
            pairs.append((x, y))
    return pairs, terminal


def parse_string(text: str) -> DiscreteString:
    pairs, terminal = _columns(text) or _rows(text)
    return validate_string(pairs, terminal=terminal)


# -- reports and studies -----------------------------------------------------


def _json_num(v: float) -> str:
    """Like fmt but with the JSON spelling of infinities.

    An infinite window and an infinite error (the window reached past a
    reference's terminal point) are meaningful, and json.loads reads Infinity
    back as a float.
    """
    if math.isinf(v):
        return "Infinity" if v > 0 else "-Infinity"
    return fmt(v)


def render_report(r) -> str:
    """One JSON line for a ``metrics.ErrorReport``."""
    return (
        '{"metric":"%s","window":%s,"value":%s,"index":%d,"position":%s,"compared":%d}\n'
        % (r.metric, _json_num(r.window), _json_num(r.value), r.index, fmt(r.position), r.compared)
    )


def render_study(st) -> str:
    """One JSON line for a ``metrics.ConvergenceStudy``."""
    entries = ",".join("[%d,%s]" % (n, _json_num(e)) for n, e in st.entries)
    return '{"metric":"%s","window":%s,"entries":[%s],"slope":%s}\n' % (
        st.metric,
        _json_num(st.window),
        entries,
        _json_num(st.slope),
    )


def render_study_csv(st) -> str:
    lines = ["n,error"]
    for n, e in st.entries:
        lines.append("%d,%s" % (n, fmt(e)))
    return "\n".join(lines) + "\n"
