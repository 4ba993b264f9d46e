"""End-to-end acceptance checks at pinned tolerances.

Every test prints one summary line directly to the terminal (bypassing
capture) so a full run reads as a checklist, then asserts the same
condition.
"""

import math
import time
from fractions import Fraction

import numpy as np
import pytest

from exact_oracles import eval_stieltjes_exact
from kreinstring.continued import krein_fraction
from kreinstring.evaluate import char_function, eval_fraction
from kreinstring.families import (
    REFERENCES,
    bessel_drift_coefficients,
    log_limit_coefficients,
    tanh_coefficients,
)
from kreinstring.inversion import invert
from kreinstring.metrics import averaged_error, convergence_study, sup_error
from kreinstring.moments import stieltjes_from_moments_exact
from kreinstring.strings import DiscreteString
from kreinstring.transforms import dual, remove_zero_atom

HEADLINE_C = 1.0 / math.sqrt(2.0 * math.pi)
Z_GRID = (-0.5, -1.0, -2.0, -5.0)


def announce(capsys, number, ok, detail):
    with capsys.disabled():
        print("criterion %d: %s - %s" % (number, "PASS" if ok else "FAIL", detail))


drift_reference = REFERENCES["bm-drift"]


def drift_family(n):
    return bessel_drift_coefficients(0.5, 2.0, HEADLINE_C, n)


def _random_string(rng, allow_terminal, min_records=1):
    k = int(rng.integers(max(min_records, 1), 8))
    gaps = rng.uniform(0.01, 3.0, size=k)
    masses = rng.uniform(0.01, 3.0, size=k)
    xs = np.cumsum(gaps) - gaps[0]
    ys = np.cumsum(masses)
    pairs = list(zip(xs.tolist(), ys.tolist()))
    if rng.random() < 0.3:
        shift = float(rng.uniform(0.01, 1.0))
        pairs = [(0.0, 0.0)] + [(x + shift, y) for x, y in pairs]
    terminal = None
    if allow_terminal and rng.random() < 0.3:
        terminal = pairs[-1][0] + float(rng.uniform(0.01, 2.0))
    return DiscreteString(tuple(pairs), terminal)


@pytest.fixture(scope="module")
def round_trips():
    """1000 random KREIN fractions with their reconstructions and the worst
    relative deviation between fraction and string evaluation on the z grid."""
    rng = np.random.default_rng(8254917)
    cases = []
    for _ in range(1000):
        n = int(rng.integers(0, 16))
        coeffs = rng.uniform(0.1, 10.0, size=n + 1)
        if n >= 1 and rng.random() < 0.2:
            coeffs[0] = 0.0
        cf = krein_fraction(coeffs.tolist())
        s = invert(cf)
        worst = 0.0
        for z in Z_GRID:
            want = eval_fraction(cf, z)
            got = char_function(s, z)
            worst = max(worst, abs(got - want) / abs(want))
        cases.append((cf, s, worst))
    return cases


def test_criterion_1_drift_reconstruction(capsys):
    t0 = time.perf_counter()
    rec = invert(drift_family(511))
    rep = sup_error(rec, drift_reference, 5.0)
    elapsed = time.perf_counter() - t0
    ok = rep.value <= 0.05 and elapsed < 1.0
    announce(
        capsys, 1, ok,
        "sup deviation %.6f from 2x/(1+4x) on window 5 at n=511 (bound 0.05), %.3f s (bound 1 s)"
        % (rep.value, elapsed),
    )
    assert rep.value <= 0.05
    assert elapsed < 1.0


def test_criterion_2_raw_rate(capsys):
    t0 = time.perf_counter()
    study = convergence_study(drift_family, [63, 127, 255, 511, 1023], drift_reference, 5.0)
    elapsed = time.perf_counter() - t0
    ok = -0.70 <= study.slope <= -0.30 and elapsed < 10.0
    announce(
        capsys, 2, ok,
        "raw sup-error slope %.4f over n=63..1023 (bounds [-0.70, -0.30]), %.3f s (bound 10 s)"
        % (study.slope, elapsed),
    )
    assert -0.70 <= study.slope <= -0.30
    assert elapsed < 10.0


def test_criterion_3_averaged_rate(capsys):
    study = convergence_study(
        drift_family, [63, 127, 255, 511, 1023], drift_reference, 5.0, averaged=True
    )
    ok = -1.35 <= study.slope <= -0.70
    announce(
        capsys, 3, ok,
        "averaged-error slope %.4f over n=63..1023 (bounds [-1.35, -0.70])" % study.slope,
    )
    assert -1.35 <= study.slope <= -0.70


def test_criterion_4_round_trip(capsys, round_trips):
    worst = max(w for _, _, w in round_trips)
    ok = worst <= 1e-9
    announce(
        capsys, 4, ok,
        "worst relative round-trip deviation %.2e over 1000 fractions at four z (bound 1e-9)"
        % worst,
    )
    assert worst <= 1e-9


def test_criterion_5_dual_identity_and_involution(capsys):
    rng = np.random.default_rng(4416935)
    worst = 0.0
    involution_ok = True
    for _ in range(200):
        s = _random_string(rng, allow_terminal=True)
        d = dual(s)
        for z in Z_GRID:
            want = 1.0 / (-z * char_function(s, z))
            got = char_function(d, z)
            worst = max(worst, abs(got - want) / abs(want))
        back = dual(d)
        involution_ok = involution_ok and back.jumps == s.jumps and back.terminal == s.terminal
    ok = worst <= 1e-10 and involution_ok
    announce(
        capsys, 5, ok,
        "dual identity worst relative deviation %.2e over 200 strings (bound 1e-10), involution exact: %s"
        % (worst, involution_ok),
    )
    assert worst <= 1e-10
    assert involution_ok


def test_criterion_6_zero_atom_removal(capsys):
    rng = np.random.default_rng(6901247)
    worst = 0.0
    for _ in range(200):
        s = _random_string(rng, allow_terminal=False, min_records=2)
        total = s.jumps[-1][1]
        hat = remove_zero_atom(s)
        for z in Z_GRID:
            want = char_function(s, z) + 1.0 / (total * z)
            got = char_function(hat, z)
            worst = max(worst, abs(got - want) / abs(want))
    ok = worst <= 1e-10
    announce(
        capsys, 6, ok,
        "zero-atom removal worst relative deviation %.2e over 200 finite-mass strings (bound 1e-10)"
        % worst,
    )
    assert worst <= 1e-10


def test_criterion_7_final_plateau(capsys, round_trips):
    worst = 0.0
    counted = 0
    for cf, s, _ in round_trips:
        s0 = cf.coefficients[0]
        if s0 == 0.0:
            continue
        counted += 1
        worst = max(worst, abs(s.jumps[-1][1] - 1.0 / s0) / (1.0 / s0))
    ok = worst <= 1e-12
    announce(
        capsys, 7, ok,
        "final plateau vs 1/s_0 worst relative deviation %.2e over %d cases (bound 1e-12)"
        % (worst, counted),
    )
    assert worst <= 1e-12


def test_criterion_8_unit_impedance_example(capsys):
    rec = invert(tanh_coefficients(201))
    averaged = averaged_error(rec, lambda x: x, 0.9)
    raw = sup_error(rec, lambda x: x, 0.9)
    terminal_dev = abs(rec.terminal - 1.0)
    ok = averaged.value <= 0.02 and terminal_dev <= 0.05
    announce(
        capsys, 8, ok,
        "deviation from M(x)=x on [0, 0.9) at n=201: %.6f averaged (bound 0.02; raw jump sup %.6f), terminal offset %.1e from L=1 (bound 0.05)"
        % (averaged.value, raw.value, terminal_dev),
    )
    assert averaged.value <= 0.02
    assert terminal_dev <= 0.05


def test_criterion_9_moment_oracle(capsys):
    rng = np.random.default_rng(5150631)
    z_points = [Fraction(-p, q) for p, q in
                [(1, 1), (2, 1), (3, 1), (5, 2), (7, 3), (1, 2), (1, 3), (4, 1), (9, 4), (11, 5)]]
    exact = True
    for _ in range(50):
        k = int(rng.integers(1, 5))
        lams = set()
        while len(lams) < k:
            lams.add(Fraction(int(rng.integers(1, 40)), int(rng.integers(1, 12))))
        atoms = [(lam, Fraction(int(rng.integers(1, 30)), int(rng.integers(1, 10))))
                 for lam in sorted(lams)]
        moments = [sum(w * lam**j for lam, w in atoms) for j in range(2 * k + 1)]
        coeffs, _ = stieltjes_from_moments_exact(moments)
        for z in z_points:
            want = sum(w / (lam - z) for lam, w in atoms)
            exact = exact and eval_stieltjes_exact(coeffs, z) == want
    fixed, _ = stieltjes_from_moments_exact([2, 3, 5, 9])
    fixed_ok = fixed == [Fraction(1, 2), Fraction(4, 3), Fraction(9, 2), Fraction(1, 6)]
    ok = exact and fixed_ok
    announce(
        capsys, 9, ok,
        "50 random atomic measures reproduce their transform exactly at 10 rational points: %s; fixed example [2,3,5,9] -> [1/2,4/3,9/2,1/6]: %s"
        % (exact, fixed_ok),
    )
    assert exact
    assert fixed_ok


def test_criterion_10_log_limit_family(capsys):
    want = 2.0 / math.log(1.5)
    residuals = []
    for n in (5, 10, 20, 40, 80, 160, 320, 640, 1280, 2000):
        got = eval_fraction(log_limit_coefficients(2.0, n), -1.0)
        residuals.append(abs(got - want))
    monotone = all(b <= a + 1e-12 for a, b in zip(residuals, residuals[1:]))
    final_ok = residuals[-1] <= 1e-2

    alpha = 1e-3
    c_const = 0.5 / (math.gamma(1.0 - alpha) * 2.0**alpha)
    approx = bessel_drift_coefficients(alpha, 2.0, c_const, 19).coefficients
    limit = log_limit_coefficients(2.0, 19).coefficients
    agreement = max(abs(a - e) / e for a, e in zip(approx, limit))
    agree_ok = agreement <= 1e-2

    ok = monotone and final_ok and agree_ok
    announce(
        capsys, 10, ok,
        "residual at z=-1 monotone: %s, %.1e at n=2000 (bound 1e-2); alpha=1e-3 matches the limit family to %.2e on 20 coefficients (bound 1e-2)"
        % (monotone, residuals[-1], agreement),
    )
    assert monotone
    assert final_ok
    assert agree_ok
