"""Command-line front end.

README's "Command-line interface" states what a user sees: the commands,
exit codes and output determinism.

``main(argv)`` can be called in-process any number of times.  The first call
builds the argument parser and later calls reuse it; each call parses into a
fresh namespace, so no flag carries over from one call to the next, and
importing this module builds no parser.  Each ``_cmd_*`` handler returns its
command's text, and ``main`` alone writes it, once, after the command has
succeeded: to ``--out``, or to the ``sys.stdout`` of the moment, so
``contextlib.redirect_stdout`` captures it.  A command that fails writes
nothing, to stdout or to ``--out``.
"""

from __future__ import annotations

import argparse
import functools
import re
import sys
from typing import List, Optional

from .evaluate import char_function, eval_fraction, levy_exponent
from .families import FAMILIES, PAPER_PARAMETERS, REFERENCES
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


class _Parser(argparse.ArgumentParser):
    def __init__(self, **kwargs) -> None:
        super().__init__(**kwargs)
        # argparse reads "-1e-05", the repr of a small negative number, and "-inf" as flags;
        # this pattern reads them as values, and "-infinity" in any case too, as float() does
        self._negative_number_matcher = re.compile(r"^-((\d+\.?\d*|\.\d+)(e[-+]?\d+)?|inf(inity)?)$", re.I)

    def error(self, message: str) -> None:  # exit code 1, not argparse's 2
        raise ValueError(message)


def _read(path: str) -> str:
    with open(path, "r", encoding="utf-8", newline="") as f:  # the file's line ends, as the parsers take them
        try:
            return f.read()
        except UnicodeDecodeError as exc:
            raise SchemaError("%r is not UTF-8 text: %s" % (path, exc))


def _flag(param: str) -> str:
    return "--" + param.replace("_", "-")


def _cmd_coeffs(args) -> str:
    if args.family == "from-moments":
        cf = coefficients_from_moments(parse_moments(_read(args.infile)))
    else:
        build, params = FAMILIES[args.family]
        cf = build(*[getattr(args, param) for param in params], args.n)
    return render_coefficients(cf)


def _cmd_invert(args) -> str:
    return render_string(invert(parse_coefficients(_read(args.infile))))


def _cmd_eval(args) -> str:
    if args.levy != (args.lam is not None):
        raise ValueError("--levy and --lambda go together")
    if args.coeffs is not None:
        source, evaluate = parse_coefficients(_read(args.coeffs)), eval_fraction
    else:
        source, evaluate = parse_string(_read(args.string)), char_function
    return fmt(levy_exponent(source, args.lam) if args.levy else evaluate(source, args.z)) + "\n"


def _cmd_dual(args) -> str:
    return render_string(dual(parse_string(_read(args.infile))))


def _cmd_hat(args) -> str:
    return render_string(remove_zero_atom(parse_string(_read(args.infile))))


def _cmd_compare(args) -> str:
    approx = parse_string(_read(args.approx))
    measure = averaged_error if args.averaged else sup_error
    return render_report(measure(approx, REFERENCES[args.reference], args.window))


def _cmd_study(args) -> str:
    build, params = FAMILIES[args.family]
    foreign = [_flag(p) for p in PAPER_PARAMETERS if p not in params and getattr(args, p) is not None]
    if foreign:
        raise ValueError("--family %s takes no %s" % (args.family, ", ".join(foreign)))
    fixed = [PAPER_PARAMETERS[p] if getattr(args, p) is None else getattr(args, p) for p in params]
    try:
        ns = [int(t) for t in args.n_list.split(",")]
    except ValueError:
        raise ValueError("--n-list must be comma-separated integers")
    study = convergence_study(
        lambda n: build(*fixed, n), ns, REFERENCES[args.reference], args.window, averaged=args.averaged
    )
    return (render_study_csv if (args.out or "").endswith(".csv") else render_study)(study)


@functools.cache  # built on the first main() call, then shared: parse_args leaves it unchanged
def _build_parser() -> _Parser:
    parser = _Parser(prog="kreinstring", description="Krein string reconstruction toolkit")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("coeffs", help="generate continued-fraction coefficients")
    p.set_defaults(func=_cmd_coeffs)
    families = p.add_subparsers(dest="family", required=True)
    for family, (_, params) in FAMILIES.items():
        f = families.add_parser(family)
        f.add_argument("-n", type=int, required=True, help="truncation order")
        for param in params:
            f.add_argument(_flag(param), type=float, required=True)
        f.add_argument("--out", help="output file (stdout if omitted)")
    f = families.add_parser("from-moments")
    f.add_argument("--in", dest="infile", required=True, help="moments JSON")
    f.add_argument("--out", help="output file (stdout if omitted)")

    for name, summary, handler in (
        ("invert", "reconstruct a string from Krein-form coefficients", _cmd_invert),
        ("dual", "dual string (inverse mass distribution)", _cmd_dual),
        ("hat", "remove the spectral atom at zero (finite total mass only)", _cmd_hat),
    ):
        p = sub.add_parser(name, help=summary)
        p.add_argument("--in", dest="infile", required=True)
        p.add_argument("--out")
        p.set_defaults(func=handler)

    p = sub.add_parser("eval", help="evaluate a characteristic function")
    src = p.add_mutually_exclusive_group(required=True)
    src.add_argument("--coeffs", help="coefficient JSON file")
    src.add_argument("--string", help="string CSV file")
    at = p.add_mutually_exclusive_group(required=True)
    at.add_argument("--z", type=float, help="evaluation point (negative real)")
    at.add_argument("--lambda", dest="lam", type=float, help="Levy exponent argument (positive), with --levy")
    p.add_argument("--levy", action="store_true", help="evaluate the Levy exponent 1/W(-lambda)")
    p.set_defaults(func=_cmd_eval, out=None)

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
    for param in PAPER_PARAMETERS:  # default: the paper's value, for the family's own parameters only
        p.add_argument(_flag(param), type=float)
    p.add_argument("--out", help="output file; .csv extension selects CSV")
    p.set_defaults(func=_cmd_study)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        text = args.func(args)
        if args.out is None:
            sys.stdout.write(text)
        else:
            with open(args.out, "w", encoding="utf-8") as f:
                f.write(text)
        return 0
    except (SchemaError, OSError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2
    except (ValueError, OverflowError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 1
