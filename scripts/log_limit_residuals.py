"""Convergence of the logarithmic family toward its closed form.

Two experiments: residuals of the truncated fraction at z=-1 against
2/log(1-z/beta) as the order grows, and the coefficient-wise approach of the
drift family to the logarithmic limit as alpha shrinks (with the leading
constant pinned so gamma = 1/2).

    python3 scripts/log_limit_residuals.py --beta 2
"""

import argparse
import math

from kreinstring.evaluate import eval_fraction
from kreinstring.families import PAPER_PARAMETERS, bessel_drift_coefficients, log_limit_coefficients


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--beta", type=float, default=PAPER_PARAMETERS["beta"])
    parser.add_argument("--z", type=float, default=-1.0)
    parser.add_argument("--orders", default="5,10,20,40,80,160,320,640,1280,2000")
    args = parser.parse_args(argv)

    want = 2.0 / math.log(1.0 - args.z / args.beta)
    print("closed form at z=%g: %.12f" % (args.z, want))
    for n in (int(t) for t in args.orders.split(",")):
        got = eval_fraction(log_limit_coefficients(args.beta, n), args.z)
        print("    n=%5d  residual %.3e" % (n, abs(got - want)))

    print("coefficient agreement with the small-alpha drift family (first 20):")
    limit = log_limit_coefficients(args.beta, 19).coefficients
    for alpha in (1e-1, 1e-2, 1e-3, 1e-4):
        c_const = 0.5 / (math.gamma(1.0 - alpha) * args.beta**alpha)
        coeffs = bessel_drift_coefficients(alpha, args.beta, c_const, 19).coefficients
        worst = max(abs(a - b) / b for a, b in zip(coeffs, limit))
        print("    alpha=%-7g worst relative deviation %.3e" % (alpha, worst))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
