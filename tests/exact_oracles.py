"""Exact-rational reference implementations used as independent test oracles.

Everything here but ``char_function_sweep``, ``levels_oracle``,
``parse_string_oracle``, ``validate_string_oracle``, ``bessel_drift_oracle``
and ``log_limit_oracle`` runs on stdlib Fractions, so agreement with the float library certifies the float
code down to representation error.  The reconstruction oracle mirrors the level-by-level
recurrences in cumulative form; exactness makes the cancellation questions
that drive the library's difference-form state irrelevant.
``char_function_sweep`` is the float reference that the library's
``char_function`` must match bit for bit, and ``levels_oracle`` the one that
``inversion._levels`` must match bit for bit.  ``parse_string_oracle`` reads
a string file row by row through the csv module, as the library's
``parse_string`` did before it read its own layout a column at a time.
``validate_string_oracle`` converts every entry to float, checks the rows,
canonicalizes them and builds the string through ``DiscreteString``, which
checks the jumps again: the library's ``validate_string`` did so before it
checked each row once and built the string without a second check.
``bessel_drift_oracle`` and ``log_limit_oracle`` build each family's
coefficients in a loop that appends them to a list and checks the list, as
the library's builders did before each stated its formula as a generator; the
builders must give the same fraction or the same error.
"""

import csv
import io
import math
import sys
from fractions import Fraction
from math import factorial
from typing import List, Optional, Sequence, Tuple

from kreinstring.continued import ContinuedFraction, Form
from kreinstring.serialization import SchemaError
from kreinstring.strings import DiscreteString, validate_string


def invert_exact(
    s: Sequence[Fraction],
) -> Tuple[List[Tuple[Fraction, Fraction]], Optional[Fraction]]:
    """(jump records, terminal) of the string with KREIN coefficients s."""
    n = len(s) - 1
    if n == 0:
        return [(Fraction(0), Fraction(1) / s[0])], None
    x = [Fraction(0)]
    y = [Fraction(1) / s[n]]
    for m in range(1, n + 1):
        c = s[n - m]
        scaled = [xi / (1 + c * xi) for xi in x[1:]]
        dx = [(1 + c * x[i + 1]) ** 2 * (y[i + 1] - y[i]) for i in range(len(x) - 1)]
        if m % 2 == 1:
            acc = [y[0]]
            for d in dx:
                acc.append(acc[-1] + d)
            x_new = [Fraction(0)] + acc
            head = [Fraction(0)] + scaled
        else:
            acc = []
            t = Fraction(0)
            for d in dx:
                t += d
                acc.append(t)
            x_new = [Fraction(0)] + acc
            head = scaled
        if m == n and c == 0:
            return list(zip(x_new[:-1], head)), x_new[-1]
        x = x_new
        y = head + [Fraction(1) / c]
    merged = []
    for pair in zip(x, y):
        if merged and pair[1] == merged[-1][1]:
            continue
        merged.append(pair)
    return merged, None


def eval_krein_exact(s: Sequence[Fraction], z: Fraction) -> Fraction:
    """KREIN-form fraction value s_0/(-z) + 1/(s_1 + 1/(s_2/(-z) + ...))."""
    n = len(s) - 1
    w = s[n] / -z if n % 2 == 0 else Fraction(s[n])
    for i in range(n - 1, -1, -1):
        w = (s[i] / -z if i % 2 == 0 else Fraction(s[i])) + 1 / w
    return w


def eval_stieltjes_exact(s: Sequence[Fraction], z: Fraction) -> Fraction:
    """STIELTJES-form fraction value 1/(-s_0 z + 1/(s_1 + 1/(-s_2 z + ...)))."""
    n = len(s) - 1
    u = -s[n] * z if n % 2 == 0 else Fraction(s[n])
    for i in range(n - 1, -1, -1):
        u = (-s[i] * z if i % 2 == 0 else Fraction(s[i])) + 1 / u
    return 1 / u


def stieltjes_from_moments_oracle(moments: Sequence[Fraction]) -> Tuple[List[Fraction], bool]:
    """Exact Stieltjes-form coefficients from the moments c_k = integral of x^k.

    The Euclid step of the Stieltjes fraction in Viskovatov's two-row form,
    carried out term by term in Fractions: each coefficient is den[0]/num[0]
    and the next pair of rows is (den - s*num)[1:], num[:-1].  Same contract
    and error texts as ``kreinstring.moments.stieltjes_from_moments_exact``.
    """
    if len(moments) == 0:
        raise ValueError("need at least one moment")
    for c in moments:
        if not isinstance(c, (Fraction, int)):
            raise ValueError("moments must be exact rationals, got %r" % type(c).__name__)
    c0 = Fraction(moments[0])
    if c0 <= 0:
        raise ValueError("zeroth moment (total mass) must be positive")
    num = [Fraction(c) if k % 2 == 0 else -Fraction(c) for k, c in enumerate(moments)]
    den = [Fraction(1)] + [Fraction(0)] * (len(num) - 1)
    coeffs: List[Fraction] = []
    while num:
        if all(v == 0 for v in num):
            return coeffs, True
        if num[0] <= 0:
            raise ValueError(
                "not a moment sequence: nonpositive divisor at coefficient %d" % len(coeffs)
            )
        s = den[0] / num[0]
        coeffs.append(s)
        num, den = [d - s * v for d, v in zip(den[1:], num[1:])], num[:-1]
    return coeffs, False


def binom_fraction(a: Fraction, k: int) -> Fraction:
    """Generalized binomial coefficient a(a-1)...(a-k+1)/k! for rational a."""
    num = Fraction(1)
    for i in range(k):
        num *= a - i
    return num / factorial(k)


def drift_family_moments(alpha: Fraction, beta: Fraction, gamma: Fraction, count: int) -> List[Fraction]:
    """Power moments of the spectral measure behind the drift family.

    The characteristic function (alpha/gamma)/((1 - z/beta)^alpha - 1),
    re-read through w(z) -> 1/w(1/z), is the Stieltjes transform of a measure
    whose k-th power moment is (-1)^k * (gamma/alpha) * binom(alpha, k+1) /
    beta^(k+1); the alternating sign of the binomial makes every entry
    positive.
    """
    out = []
    for k in range(count):
        m = (-1) ** k * (gamma / alpha) * binom_fraction(alpha, k + 1) / beta ** (k + 1)
        out.append(m)
    return out


def char_function_sweep(s, z: float) -> float:
    """Characteristic function of a discrete string at z < 0.

    Backward sweep: seed with the tail gap L - x_last when a terminal point
    exists (reciprocal 0 otherwise), then alternate the point-mass update
    w <- 1/(-m z + 1/w) and the gap shift w <- w + (x_j - x_{j-1}).  A
    quantity that underflows to 0 has a reciprocal of inf.
    """
    if not z < 0.0:  # NaN included
        raise ValueError("characteristic function is evaluated at z < 0 only")
    last_x, last_y = s.jumps[-1]
    if s.terminal is None and last_y == 0.0:
        raise ValueError("massless string without terminal point has no characteristic function")
    w = math.inf if s.terminal is None else s.terminal - last_x
    for j in range(len(s.jumps) - 1, -1, -1):
        x, y = s.jumps[j]
        m = y - (s.jumps[j - 1][1] if j > 0 else 0.0)
        if m > 0.0:
            d = -m * z + (0.0 if math.isinf(w) else 1.0 / w)
            w = 1.0 / d if d else math.inf
        w += x - (s.jumps[j - 1][0] if j > 0 else 0.0)
    return w


def levels_oracle(s, cap):
    """Final-level logs: the positions, log f = log(1 + s_0 x) and log x at
    every previous-level position x.  Needs n >= 1.

    Every level keeps at most its first ``cap`` entries, which changes no bit
    of the first cap - 2 records (see the ``kreinstring.inversion`` docstring).
    """
    import numpy as np

    n = len(s) - 1
    # a level holds at most min(cap, n // 2) + 1 entries; a[0] stays 0
    size = min(cap, n // 2) + 1
    a, lf, lg = np.zeros(size), np.empty(size), np.empty(size)
    # level m reads the masses of level m - 1 from masses[m % 2] and writes
    # its own into the other buffer.  Level 0 is the constant string of the
    # last coefficient, y0 alone.  After an even level the masses hold y0 in
    # slot 0 and the k masses after it; after an odd level they start at slot 0.
    masses = (np.empty(size), np.empty(size))
    masses[1][0] = -math.log(s[n])
    # level m has k = min(m // 2, cap) gaps, so once k reaches the cap a level
    # differs from the one two before only in its numbers: its views are kept
    capped = [None, None]
    with np.errstate(over="ignore"):  # linear sums past double range are inf
        for m in range(1, n + 1):
            odd = m % 2
            views = capped[odd]
            if views is None:
                k = min(m // 2, cap)  # keeps its value from here on once capped
                lm, spare = masses[odd], masses[1 - odd]
                views = (lg[:k], a[: k + 1], a[1 : k + 1], lf[: k + 1], lf[:k], lf[1 : k + 1],
                         spare[:k], lg[odd : odd + k], lm[odd : odd + k], lm, spare)
                if k == cap:
                    capped[odd] = views
            lg_k, a_k, a1, lf_k, lf0, lf1, new_k, ldx, lm_k, lm, spare = views
            c = s[n - m]
            lc = math.log(c) if c > 0.0 else -math.inf
            # log f at the origin and at every previous-level position
            np.add(lg_k, lc, out=a1)
            if m == n:
                # -expm1(-log f)/c needs log f accurate relative to itself
                np.logaddexp.accumulate(a_k, out=lf_k)
                lx = np.logaddexp.accumulate(lg_k)
            else:
                # linear prefix sums (they never decrease) up to the first
                # that overflows, then logaddexp on from the last finite one
                np.exp(a_k, out=lf_k)
                np.add.accumulate(lf_k, out=lf_k)
                if lf[k] < math.inf:
                    np.log(lf_k, out=lf_k)
                else:
                    j = int(lf_k.searchsorted(math.inf))
                    np.log(lf[:j], out=lf[:j])
                    a[j - 1] = lf[j - 1]
                    np.logaddexp.accumulate(a[j - 1 : k + 1], out=lf[j - 1 : k + 1])
                # new masses: gap/(f_left f_right) per old gap, then the tail 1/(c f)
                np.subtract(lg_k, lf0, out=new_k)
                np.subtract(new_k, lf1, out=new_k)
                spare[k] = -lc - lf[k]
            # time-changed gaps f^2 * mass; an odd level prepends y0
            np.add(lf1, lf1, out=ldx)
            np.add(ldx, lm_k, out=ldx)
            if odd:
                lg[0] = lm[0]
        return np.logaddexp.accumulate(lg[: odd + k]), lf1, lx


def parse_string_oracle(text: str) -> DiscreteString:
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
        # only a spelled infinity marks the terminal; -inf and an overflow like 1e400 fall through to the row checks
        if y == math.inf and row[1].strip().lstrip("+").lower() in ("inf", "infinity"):
            terminal = x
        else:
            pairs.append((x, y))
    return validate_string(pairs, terminal=terminal)


def validate_string_oracle(raw, terminal=None) -> DiscreteString:
    pairs = [(float(x), float(y)) for x, y in raw]
    if terminal is not None:
        terminal = float(terminal)
    prev_x = prev_y = -math.inf
    for i, (x, y) in enumerate(pairs):
        if not (math.isfinite(x) and math.isfinite(y)):
            raise ValueError(f"non-finite entry at row {i}: ({x}, {y})")
        if x < 0.0 or y < 0.0:
            raise ValueError(f"negative entry at row {i}: ({x}, {y})")
        if x <= prev_x:
            raise ValueError(f"positions not increasing at row {i}: they must be strictly increasing")
        if y < prev_y:
            raise ValueError(f"values decrease at row {i}")
        prev_x, prev_y = x, y
    jumps = [(0.0, 0.0)]  # merge rows at one position, drop those that add no value
    for x, y in pairs:
        if x == jumps[-1][0]:
            jumps[-1] = (x, max(y, jumps[-1][1]))
        elif y > jumps[-1][1]:
            jumps.append((x, y))
    return DiscreteString(tuple(jumps), terminal)


def bessel_drift_oracle(alpha: float, beta: float, c_const: float, n: int) -> ContinuedFraction:
    if not 0.0 < alpha < 1.0:
        raise ValueError("alpha must lie in (0, 1)")
    if not 0.0 < beta < math.inf:
        raise ValueError("beta must be finite and positive")
    if not 0.0 < c_const < math.inf:
        raise ValueError("the constant must be finite and positive")
    if n < 0:
        raise ValueError("need n >= 0")
    params = f"alpha = {alpha:g}, beta = {beta:g}, c_const = {c_const:g}"
    gamma = c_const * math.gamma(1.0 - alpha) * beta**alpha
    formula = "gamma = c_const * Gamma(1-alpha) * beta**alpha"
    if not 0.0 < gamma < math.inf:
        raise OverflowError(f"{formula} is outside double range at {params}")
    # a subnormal gamma leaves every coefficient a few digits; an infinite s_0 = beta/gamma is named instead
    if gamma < sys.float_info.min and beta / gamma < math.inf:
        raise OverflowError(f"{formula} = {gamma:.3g} is below the normal double range at {params}")
    coeffs = []
    ratio_even = 1.0  # (1-alpha)_j / (1+alpha)_j
    ratio_odd = 1.0 / (1.0 - alpha)  # (1+alpha)_j / (1-alpha)_{j+1}
    j = 0
    while len(coeffs) <= n:
        coeffs.append(beta / gamma * ratio_even * (2 * j + 1))
        if len(coeffs) <= n:
            coeffs.append(2.0 * gamma * ratio_odd)
        ratio_even *= (1.0 - alpha + j) / (1.0 + alpha + j)
        ratio_odd *= (1.0 + alpha + j) / (2.0 - alpha + j)
        j += 1
    return _fraction_in_double_range(coeffs, params)


def log_limit_oracle(beta: float, n: int) -> ContinuedFraction:
    if not 0.0 < beta < math.inf:
        raise ValueError("beta must be finite and positive")
    if n < 0:
        raise ValueError("need n >= 0")
    coeffs = []
    j = 0
    while len(coeffs) <= n:
        coeffs.append(2.0 * beta * (2 * j + 1))
        if len(coeffs) <= n:
            coeffs.append(1.0 / (j + 1))
        j += 1
    return _fraction_in_double_range(coeffs, f"beta = {beta:g}")


def _fraction_in_double_range(coeffs: list, params: str) -> ContinuedFraction:
    if not (0.0 < min(coeffs) and max(coeffs) < math.inf):
        j = next(j for j, s in enumerate(coeffs) if not 0.0 < s < math.inf)
        raise OverflowError(f"s_{j} is outside double range at {params}")
    if min(coeffs) < sys.float_info.min:
        j = next(j for j, s in enumerate(coeffs) if s < sys.float_info.min)
        raise OverflowError(f"s_{j} = {coeffs[j]:.3g} is below the normal double range at {params}")
    return ContinuedFraction(Form.KREIN, tuple(coeffs))
