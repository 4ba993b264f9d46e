"""Each output check of the benchmark fails on a deliberately damaged result.

    PYTHONPATH=src python3 -m pytest -q perfbench

One true pass per workload is run once; every test damages a copy of its
outputs (one mass, one coefficient, one value, one file) and asserts that the
workload's check reports it, after asserting that the undamaged copy passes.
"""

from __future__ import annotations

import contextlib
import copy
import dataclasses
import io
import json
import os
import sys
from fractions import Fraction

import pytest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import kreinstring as K  # noqa: E402
import kreinstring.cli as CLI  # noqa: E402
from kreinstring.strings import DiscreteString  # noqa: E402
from workloads import DRIFT_ORDERS, DriftOrders, ExactMoments, UniformCli  # noqa: E402


def run_cli(argv):
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(io.StringIO()):
        code = CLI.main(argv)
    return argv, code, stdout.getvalue()


def with_record(s, index, x, y):
    jumps = list(s.jumps)
    jumps[index] = (x, y)
    return DiscreteString(tuple(jumps), s.terminal)


@pytest.fixture(scope="module")
def drift(tmp_path_factory):
    wl = DriftOrders(7, str(tmp_path_factory.mktemp("drift")))
    out = wl.warm()
    assert wl.check_warm(out) == []
    return wl, out


@pytest.fixture(scope="module")
def uniform(tmp_path_factory):
    wl = UniformCli(7, str(tmp_path_factory.mktemp("uniform")))
    out = wl.warm()
    assert wl.check_warm(out) == []
    return wl, out


@pytest.fixture(scope="module")
def exact(tmp_path_factory):
    wl = ExactMoments(7, str(tmp_path_factory.mktemp("exact")))
    out = wl.warm()
    assert wl.check_warm(out) == []
    cold = [run_cli(argv) for argv in wl.cold_commands()]
    assert wl.check_cold(cold) == []
    return wl, out, cold


# -- drift-orders --------------------------------------------------------------


def test_drift_raw_slope(drift):
    wl, out = drift
    out = copy.deepcopy(out)
    out["orders"][-1]["raw"] *= 4.0
    assert any("raw slope" in p for p in wl.check_warm(out))


def test_drift_averaged_slope(drift):
    wl, out = drift
    out = copy.deepcopy(out)
    out["orders"][0]["avg"] /= 4.0
    assert any("averaged slope" in p for p in wl.check_warm(out))


def test_drift_last_plateau(drift):
    wl, out = drift
    out = copy.deepcopy(out)
    order = out["orders"][3]
    x, y = order["string"].jumps[-1]
    order["string"] = with_record(order["string"], -1, x, y * (1.0 + 1e-9))  # last mass grows
    assert any("last plateau" in p for p in wl.check_warm(out))


def test_drift_one_mass_changes_the_characteristic_function(drift):
    wl, out = drift
    out = copy.deepcopy(out)
    order = out["orders"][-1]
    (x, y), (x_next, _) = order["string"].jumps[5:7]
    damaged = with_record(order["string"], 5, 0.5 * (x + x_next), y)  # one mass moved
    order["pairs"] = [(K.char_function(damaged, z), w) for z, (_, w) in zip(wl.z_grid, order["pairs"])]
    assert any("char_function" in p for p in wl.check_warm(out))


def test_drift_log_limit_value(drift):
    wl, out = drift
    out = copy.deepcopy(out)
    out["log_limit_w"] += 0.02
    assert any("log-limit" in p for p in wl.check_warm(out))


def test_drift_cold_study(drift):
    wl, _ = drift
    good = json.dumps({"metric": "sup", "entries": [[n, 0.1] for n in DRIFT_ORDERS], "slope": -0.5})
    bad = good.replace('"slope": -0.5', '"slope": -0.7')
    argv = wl.cold_commands()
    averaged = good.replace('"slope": -0.5', '"slope": -1.0')
    assert wl.check_cold([(argv[0], 0, good), (argv[1], 0, averaged)]) == []
    assert wl.check_cold([(argv[0], 0, bad), (argv[1], 0, averaged)])


# -- uniform-cli ---------------------------------------------------------------


def damaged_value(out, index, factor):
    out = copy.deepcopy(out)
    argv, code, stdout = out["results"][index]
    out["results"][index] = (argv, code, repr(float(stdout) * factor) + "\n")
    return out


@pytest.mark.parametrize("index, what", [
    (4, "eval --string"),
    (5, "eval --coeffs"),
    (6, "eval --levy"),
    (9, "dual identity"),
    (10, "zero-atom identity"),
])
def test_uniform_evaluations(uniform, index, what):
    wl, out = uniform
    assert any(what in p for p in wl.check_warm(damaged_value(out, index, 1.0 + 1e-7)))


def test_uniform_exit_code(uniform):
    wl, out = uniform
    out = copy.deepcopy(out)
    argv, _, stdout = out["results"][7]
    out["results"][7] = (argv, 1, stdout)
    assert any("exit codes" in p for p in wl.check_warm(out))


def test_uniform_rerender(uniform):
    wl, out = uniform
    out = copy.deepcopy(out)
    out["rerendered"] = out["rerendered"].replace("\n", "\r\n", 1)
    assert any("re-render" in p for p in wl.check_warm(out))


def test_uniform_terminal_and_records(uniform):
    wl, out = uniform
    path = wl.path("string%d.csv" % wl.orders[0])
    with open(path, encoding="utf-8") as f:
        text = f.read()
    lines = text.splitlines()
    try:
        with open(path, "w", encoding="utf-8") as f:
            f.write("\n".join(lines[:-2] + ["1.25,inf"]) + "\n")  # one mass dropped, terminal moved
        problems = wl.check_warm(out)
    finally:
        with open(path, "w", encoding="utf-8") as f:
            f.write(text)
    assert any("terminal" in p for p in problems)
    assert any("records" in p for p in problems)


def test_uniform_compare_report(uniform):
    wl, out = uniform
    path = wl.path("avg%d.json" % wl.orders[-1])
    with open(path, encoding="utf-8") as f:
        text = f.read()
    report = json.loads(text)
    try:
        with open(path, "w", encoding="utf-8") as f:
            f.write(json.dumps(dict(report, value=0.5)))
        problems = wl.check_warm(out)
    finally:
        with open(path, "w", encoding="utf-8") as f:
            f.write(text)
    assert any("avg error" in p for p in problems)


# -- exact-moments -------------------------------------------------------------


def test_exact_drift_coefficient(exact):
    wl, out, _ = exact
    out = copy.deepcopy(out)
    coeffs = list(out["drift"][0])
    coeffs[17] += Fraction(1, 10 ** 30)
    out["drift"] = (coeffs,) + out["drift"][1:]
    assert any("2, 4, 2, 4" in p for p in wl.check_warm(out))


def test_exact_atomic_coefficient(exact):
    wl, out, _ = exact
    out = copy.deepcopy(out)
    exact_coeffs, terminated, cf, report, values = out["measures"][2]
    exact_coeffs = list(exact_coeffs)
    exact_coeffs[3] *= Fraction(1000001, 1000000)
    out["measures"][2] = (exact_coeffs, terminated, cf, report, values)
    assert any("sum w/(lambda - z)" in p for p in wl.check_warm(out))


def test_exact_atomic_termination(exact):
    wl, out, _ = exact
    out = copy.deepcopy(out)
    exact_coeffs, _, cf, report, values = out["measures"][1]
    out["measures"][1] = (exact_coeffs[:-1], False, cf, report, values)
    assert any("coefficients, terminated" in p for p in wl.check_warm(out))


def test_exact_lebesgue_limit(exact):
    wl, out, _ = exact
    out = copy.deepcopy(out)
    cf, report, values = out["lebesgue"][-1]
    out["lebesgue"][-1] = (cf, report, [v * (1.0 + 1e-3) for v in values])
    assert any("Lebesgue" in p for p in wl.check_warm(out))


def test_exact_cold_coefficients(exact):
    wl, _, cold = exact
    path = wl.path("drift-coeffs.json")
    with open(path, encoding="utf-8") as f:
        text = f.read()
    data = json.loads(text)
    data["s"][5] = data["s"][5] * (1.0 + 1e-12)
    try:
        with open(path, "w", encoding="utf-8") as f:
            f.write(json.dumps(data))
        problems = wl.check_cold(cold)
    finally:
        with open(path, "w", encoding="utf-8") as f:
            f.write(text)
    assert any("CLI coefficients" in p for p in problems)


def test_exact_cold_value(exact):
    wl, _, cold = exact
    cold = list(cold)
    argv, code, stdout = cold[3]
    cold[3] = (argv, code, repr(float(stdout) * (1.0 + 1e-9)))
    assert any("CLI eval" in p for p in wl.check_cold(cold))


def replaced(entry, index, value):
    return entry[:index] + (value,) + entry[index + 1:]


@pytest.mark.parametrize("damage, what", [
    ("drift verdict", "drift verdict"),
    ("drift float", "drift float coefficients"),
    ("drift value", "drift fraction"),
    ("atomic verdict", "measure verdict"),
    ("atomic float", "float coefficients differ"),
    ("atomic value", "eval_fraction at"),
    ("lebesgue count", "Lebesgue n="),
    ("lebesgue verdict", "verdict"),
])
def test_exact_other_checks(exact, damage, what):
    wl, out, _ = exact
    out = copy.deepcopy(out)
    verdict = dataclasses.replace(out["drift"][3], verdict="inconclusive")
    if damage == "drift verdict":
        out["drift"] = replaced(out["drift"], 3, verdict)
    elif damage == "drift float":
        cf = out["drift"][2]
        out["drift"] = replaced(out["drift"], 2, dataclasses.replace(
            cf, coefficients=cf.coefficients[:-1] + (cf.coefficients[-1] * (1.0 + 1e-15),)))
    elif damage == "drift value":
        out["drift"] = replaced(out["drift"], 4, [v * (1.0 + 1e-9) for v in out["drift"][4]])
    elif damage == "atomic verdict":
        out["measures"][0] = replaced(out["measures"][0], 3, verdict)
    elif damage == "atomic float":
        cf = out["measures"][0][2]
        out["measures"][0] = replaced(out["measures"][0], 2, dataclasses.replace(
            cf, coefficients=(cf.coefficients[0] * (1.0 + 1e-15),) + cf.coefficients[1:]))
    elif damage == "atomic value":
        out["measures"][0] = replaced(out["measures"][0], 4, [v * (1.0 + 1e-9) for v in out["measures"][0][4]])
    elif damage == "lebesgue count":
        cf, report, values = out["lebesgue"][0]
        out["lebesgue"][0] = (dataclasses.replace(cf, coefficients=cf.coefficients[:-1]), report, values)
    else:
        cf, report, values = out["lebesgue"][1]
        out["lebesgue"][1] = (cf, verdict, values)
    assert any(what in p for p in wl.check_warm(out))


def test_exact_cold_termination_flag(exact):
    wl, _, cold = exact
    path = wl.path("atomic-coeffs.json")
    with open(path, encoding="utf-8") as f:
        text = f.read()
    try:
        with open(path, "w", encoding="utf-8") as f:
            f.write(text.replace(',"terminated":true', ""))
        problems = wl.check_cold(cold)
    finally:
        with open(path, "w", encoding="utf-8") as f:
            f.write(text)
    assert any("termination flag" in p for p in problems)


def test_uniform_raw_report(uniform):
    wl, out = uniform
    path = wl.path("raw%d.json" % wl.orders[0])
    with open(path, encoding="utf-8") as f:
        text = f.read()
    try:
        with open(path, "w", encoding="utf-8") as f:
            f.write(json.dumps(dict(json.loads(text), value=0.2)))
        problems = wl.check_warm(out)
    finally:
        with open(path, "w", encoding="utf-8") as f:
            f.write(text)
    assert any("raw error" in p for p in problems)


def test_drift_cold_entries(drift):
    wl, _ = drift
    argv = wl.cold_commands()
    short = json.dumps({"metric": "sup", "entries": [[n, 0.1] for n in DRIFT_ORDERS[:-1]], "slope": -0.5})
    averaged = json.dumps({"metric": "averaged", "entries": [[n, 0.1] for n in DRIFT_ORDERS], "slope": -1.0})
    assert any("study entries" in p for p in wl.check_cold([(argv[0], 0, short), (argv[1], 0, averaged)]))
