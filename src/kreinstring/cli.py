"""Command-line front end.

Exit codes: 0 success, 1 precondition violation (bad flags or values, or a
result outside double range), 2 malformed or unreadable input files.  Errors
are one line on stderr.  All numeric output uses 17 significant digits;
writers are deterministic, so identical inputs give identical files.
"""

from __future__ import annotations

import argparse
import functools
import math
import sys
from typing import Callable, List, Optional

from .continued import Form
from .evaluate import char_function, eval_fraction
from .families import FAMILIES, PAPER_PARAMETERS, REFERENCES, reference_mass
from .inversion import invert
from .metrics import averaged_error, convergence_study, sup_error
from .moments import coefficients_from_moments
from .serialization import (
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
from .transforms import dual, remove_zero_atom


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message: str) -> None:  # exit code 1, not argparse's 2
        raise _UsageError(message)


def _read(path: str) -> str:
    with open(path, "r", encoding="utf-8") as f:
        try:
            return f.read()
        except UnicodeDecodeError as exc:
            raise SchemaError("%r is not UTF-8 text: %s" % (path, exc))


def _emit(text: str, out: Optional[str]) -> None:
    if out is None:
        sys.stdout.write(text)
    else:
        with open(out, "w", encoding="utf-8") as f:
            f.write(text)


def _flag(param: str) -> str:
    return "-n" if param == "n" else "--" + param.replace("_", "-")


def _reference(name: str) -> Callable[[float], float]:
    return lambda x: reference_mass(name, x)


def _cmd_coeffs(args) -> int:
    if args.family in FAMILIES:
        build, params = FAMILIES[args.family]
        values = []
        for param in params + ("n",):
            if getattr(args, param) is None:
                raise ValueError("family %r requires %s" % (args.family, _flag(param)))
            values.append(getattr(args, param))
        cf = build(*values)
    elif args.infile is None:
        raise ValueError("family 'from-moments' requires --in <moments.json>")
    else:
        cf = coefficients_from_moments(parse_moments(_read(args.infile)))
    _emit(render_coefficients(cf), args.out)
    return 0


def _cmd_invert(args) -> int:
    cf = parse_coefficients(_read(args.infile))
    _emit(render_string(invert(cf)), args.out)
    return 0


def _cmd_eval(args) -> int:
    if args.levy:
        if args.lam is None:
            raise ValueError("--levy requires --lambda")
        if not args.lam > 0.0:
            raise ValueError("--lambda must be positive")
        z = -args.lam
    elif args.z is None:
        raise ValueError("--z is required (or use --levy with --lambda)")
    else:
        z = args.z
    if args.coeffs is not None:
        cf = parse_coefficients(_read(args.coeffs))
        if args.levy and cf.form is not Form.KREIN:
            raise ValueError("the exponent is defined for KREIN-form coefficients")
        value = eval_fraction(cf, z)
    else:
        value = char_function(parse_string(_read(args.string)), z)
    if args.levy:  # the Levy exponent 1/W(-lambda); W = 0 gives inf, as in eval_fraction
        value = math.inf if value == 0.0 else 1.0 / value
    print(fmt(value))
    return 0


def _cmd_dual(args) -> int:
    _emit(render_string(dual(parse_string(_read(args.infile)))), args.out)
    return 0


def _cmd_hat(args) -> int:
    _emit(render_string(remove_zero_atom(parse_string(_read(args.infile)))), args.out)
    return 0


def _cmd_compare(args) -> int:
    approx = parse_string(_read(args.approx))
    measure = averaged_error if args.averaged else sup_error
    report = measure(approx, _reference(args.reference), args.window)
    _emit(render_report(report), args.out)
    return 0


def _cmd_study(args) -> int:
    build, params = FAMILIES[args.family]
    fixed = [getattr(args, param) for param in params]
    try:
        ns = [int(t) for t in args.n_list.split(",")]
    except ValueError:
        raise ValueError("--n-list must be comma-separated integers")
    study = convergence_study(
        lambda n: build(*fixed, n), ns, _reference(args.reference), args.window, averaged=args.averaged
    )
    if args.out is not None and args.out.endswith(".csv"):
        _emit(render_study_csv(study), args.out)
    else:
        _emit(render_study(study), args.out)
    return 0


@functools.cache  # built on the first main() call, then shared: parse_args leaves it unchanged
def _build_parser() -> _Parser:
    parser = _Parser(prog="kreinstring", description="Krein string reconstruction toolkit")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("coeffs", help="generate continued-fraction coefficients")
    p.add_argument("family", choices=[*FAMILIES, "from-moments"])
    p.add_argument("-n", type=int, help="truncation order")
    for param in PAPER_PARAMETERS:
        p.add_argument(_flag(param), type=float)
    p.add_argument("--in", dest="infile", help="moments JSON (from-moments only)")
    p.add_argument("--out", help="output file (stdout if omitted)")
    p.set_defaults(func=_cmd_coeffs)

    p = sub.add_parser("invert", help="reconstruct a string from Krein-form coefficients")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--out")
    p.set_defaults(func=_cmd_invert)

    p = sub.add_parser("eval", help="evaluate a characteristic function")
    src = p.add_mutually_exclusive_group(required=True)
    src.add_argument("--coeffs", help="coefficient JSON file")
    src.add_argument("--string", help="string CSV file")
    p.add_argument("--z", type=float, help="evaluation point (negative real)")
    p.add_argument("--levy", action="store_true", help="evaluate the Levy exponent instead")
    p.add_argument("--lambda", dest="lam", type=float, help="Levy exponent argument (positive)")
    p.set_defaults(func=_cmd_eval)

    p = sub.add_parser("dual", help="dual string (inverse mass distribution)")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--out")
    p.set_defaults(func=_cmd_dual)

    p = sub.add_parser("hat", help="remove the spectral atom at zero (finite total mass only)")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--out")
    p.set_defaults(func=_cmd_hat)

    p = sub.add_parser("compare", help="error report against a closed-form reference")
    p.add_argument("--approx", required=True, help="string CSV file")
    p.add_argument("--reference", required=True, choices=REFERENCES)
    p.add_argument("--window", type=float, default=5.0)
    p.add_argument("--averaged", action="store_true")
    p.add_argument("--out")
    p.set_defaults(func=_cmd_compare)

    p = sub.add_parser("study", help="convergence-rate study over truncation orders")
    p.add_argument("--family", required=True, choices=FAMILIES)
    p.add_argument("--n-list", dest="n_list", required=True, help="comma-separated orders, e.g. 63,127,255")
    p.add_argument("--averaged", action="store_true")
    p.add_argument("--reference", required=True, choices=REFERENCES)
    p.add_argument("--window", type=float, default=5.0)
    for param, value in PAPER_PARAMETERS.items():
        p.add_argument(_flag(param), type=float, default=value)
    p.add_argument("--out", help="output file; .csv extension selects CSV")
    p.set_defaults(func=_cmd_study)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except (SchemaError, OSError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2
    except (_UsageError, ValueError, OverflowError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 1
