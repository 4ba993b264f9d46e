"""File formats: coefficient/moment JSON and string CSV.

Writers render numbers with 17 significant digits so a double survives a
round trip bit-for-bit, and build the JSON text by hand so identical inputs
give byte-identical files.  Readers accept rationals written as "p/q" strings
wherever exactness matters.
"""

from __future__ import annotations

import csv
import io
import json
import math
from fractions import Fraction
from typing import List, Optional

from .continued import ContinuedFraction, Form
from .metrics import ConvergenceStudy, ErrorReport
from .strings import DiscreteString, validate_string


class SchemaError(Exception):
    """Input file is structurally malformed."""


def fmt(v: float) -> str:
    """17 significant digits (round-trips a double, not the shortest form); 'inf' for the terminal."""
    v = float(v)
    if v == 0.0:
        v = 0.0  # normalize -0.0
    return format(v, ".17g")


# -- coefficients ------------------------------------------------------------


def render_coefficients(cf: ContinuedFraction) -> str:
    body = ",".join(["%.17g"] * len(cf.coefficients)) % tuple(s + 0.0 for s in cf.coefficients)  # fmt, in one call
    tail = ',"terminated":true' if cf.terminated else ""
    return '{"form":"%s","s":[%s]%s}\n' % (cf.form.value, body, tail)


def _parse_entry(v: object, where: str) -> float:
    if isinstance(v, bool):
        raise SchemaError("%s: expected number or 'p/q' string" % where)
    if isinstance(v, (int, float)):
        return float(v)
    if isinstance(v, str):
        try:
            return float(Fraction(v))
        except (ValueError, ZeroDivisionError):
            raise SchemaError("%s: cannot parse %r as a rational" % (where, v))
    raise SchemaError("%s: expected number or 'p/q' string" % where)


def _load_json(text: str, what: str) -> object:
    try:
        return json.loads(text)
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
    coeffs = tuple(_parse_entry(v, '"s" entry') for v in data["s"])
    terminated = data.get("terminated", False)
    if not isinstance(terminated, bool):
        raise SchemaError('"terminated" must be a boolean')
    return ContinuedFraction(form, coeffs, terminated=terminated)


# -- moments -----------------------------------------------------------------


def parse_moments(text: str) -> List[Fraction]:
    data = _load_json(text, "moment")
    if not isinstance(data, dict) or "c" not in data or not isinstance(data["c"], list):
        raise SchemaError('moment file must be an object with a list "c"')
    out: List[Fraction] = []
    for v in data["c"]:
        if isinstance(v, bool) or not isinstance(v, (int, str)):
            raise SchemaError('"c" entries must be integers or "p/q" strings')
        try:
            out.append(Fraction(v))
        except (ValueError, ZeroDivisionError):
            raise SchemaError('cannot parse moment %r as a rational' % (v,))
    return out


# -- strings -----------------------------------------------------------------


def render_string(s: DiscreteString) -> str:
    lines = ["x,y"]
    lines += ["%.17g,%.17g" % (x + 0.0, y + 0.0) for x, y in s.jumps]  # fmt; + 0.0 turns -0.0 into 0
    if s.terminal is not None:
        lines.append("%s,inf" % fmt(s.terminal))
    return "\n".join(lines) + "\n"


def parse_string(text: str) -> DiscreteString:
    try:
        rows = [r for r in csv.reader(io.StringIO(text)) if r]
    except csv.Error as exc:
        raise SchemaError("string file is not valid CSV: %s" % exc)
    if not rows or [c.strip() for c in rows[0]] != ["x", "y"]:
        raise SchemaError('string file must start with header "x,y"')
    pairs = []
    terminal: Optional[float] = None
    for i, row in enumerate(rows[1:], start=2):
        if len(row) != 2:
            raise SchemaError("line %d: expected two columns" % i)
        try:
            x, y = float(row[0]), float(row[1])
        except ValueError:
            raise SchemaError("line %d: non-numeric entry" % i)
        if terminal is not None:
            raise SchemaError("line %d: rows after the terminal marker" % i)
        if y == math.inf:  # -inf falls through to the row checks
            terminal = x
        else:
            pairs.append((x, y))
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


def render_report(r: ErrorReport) -> str:
    return (
        '{"metric":"%s","window":%s,"value":%s,"index":%d,"position":%s,"compared":%d}\n'
        % (r.metric, _json_num(r.window), _json_num(r.value), r.index, fmt(r.position), r.compared)
    )


def render_study(st: ConvergenceStudy) -> str:
    entries = ",".join("[%d,%s]" % (n, _json_num(e)) for n, e in st.entries)
    return '{"metric":"%s","window":%s,"entries":[%s],"slope":%s}\n' % (
        st.metric,
        _json_num(st.window),
        entries,
        _json_num(st.slope),
    )


def render_study_csv(st: ConvergenceStudy) -> str:
    lines = ["n,error"]
    for n, e in st.entries:
        lines.append("%d,%s" % (n, fmt(e)))
    return "\n".join(lines) + "\n"
