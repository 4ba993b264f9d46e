import contextlib
import io
import json
import math
import os
import pathlib
import re
import shlex
import tempfile

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from test_serialization import string_texts

from kreinstring import cli
from kreinstring.cli import main
from kreinstring.evaluate import char_function, eval_fraction, levy_exponent
from kreinstring.families import FAMILIES, PAPER_PARAMETERS, tanh_coefficients
from kreinstring.serialization import SchemaError, fmt, parse_coefficients, parse_string, render_coefficients

TANH3 = '{"form":"krein","s":[0,1,3,5]}\n'


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestCoeffs:
    def test_tanh_to_stdout(self, capsys):
        code, out, err = run(capsys, "coeffs", "tanh", "-n", "3")
        assert code == 0
        assert out == TANH3
        assert err == ""

    def test_output_file_round_trips(self, capsys, tmp_path):
        path = tmp_path / "c.json"
        code, out, _ = run(capsys, "coeffs", "tanh", "-n", "5", "--out", str(path))
        assert code == 0
        assert out == ""
        cf = parse_coefficients(path.read_text())
        assert cf.coefficients == (0.0, 1.0, 3.0, 5.0, 7.0, 9.0)

    def test_bessel_drift_needs_all_parameters(self, capsys):
        code, _, err = run(capsys, "coeffs", "bessel-drift", "-n", "4", "--alpha", "0.5")
        assert code == 1
        assert "the following arguments are required: --beta, --c-const" in err

    def test_bessel_drift_headline(self, capsys):
        code, out, _ = run(
            capsys,
            "coeffs", "bessel-drift", "-n", "3",
            "--alpha", "0.5", "--beta", "2",
            "--c-const", str(1.0 / math.sqrt(2.0 * math.pi)),
        )
        assert code == 0
        s = json.loads(out)["s"]
        assert s == pytest.approx([2.0, 4.0, 2.0, 4.0], rel=1e-15)

    def test_from_moments(self, capsys, tmp_path):
        path = tmp_path / "m.json"
        path.write_text('{"c":[2,3,5,9]}')
        code, out, _ = run(capsys, "coeffs", "from-moments", "--in", str(path))
        assert code == 0
        data = json.loads(out)
        assert data["form"] == "stieltjes"
        assert data["s"] == pytest.approx([0.5, 4.0 / 3.0, 4.5, 1.0 / 6.0])

    def test_from_moments_needs_input(self, capsys):
        code, _, err = run(capsys, "coeffs", "from-moments")
        assert code == 1
        assert "the following arguments are required: --in" in err

    def test_unknown_family_is_usage_error(self, capsys):
        code, _, err = run(capsys, "coeffs", "parabolic", "-n", "3")
        assert code == 1
        assert "error:" in err


class TestInvert:
    def test_worked_example(self, capsys, tmp_path):
        path = tmp_path / "c.json"
        path.write_text('{"form":"krein","s":[1,2]}')
        code, out, _ = run(capsys, "invert", "--in", str(path))
        assert code == 0
        assert out == "x,y\n0,0\n0.5,1\n"

    def test_stieltjes_input_is_a_precondition_failure(self, capsys, tmp_path):
        path = tmp_path / "c.json"
        path.write_text('{"form":"stieltjes","s":[1,2]}')
        code, _, err = run(capsys, "invert", "--in", str(path))
        assert code == 1
        assert "KREIN" in err

    def test_missing_file_is_an_io_failure(self, capsys, tmp_path):
        code, _, err = run(capsys, "invert", "--in", str(tmp_path / "absent.json"))
        assert code == 2
        assert "error:" in err

    @pytest.mark.parametrize("lead", ["0", "0.0", '"0/7"', "-0.0"])
    def test_an_exact_zero_lead_is_a_zero(self, capsys, tmp_path, lead):
        path = tmp_path / "c.json"
        path.write_text('{"form":"krein","s":[%s,1,2]}' % lead)
        assert run(capsys, "invert", "--in", str(path)) == (0, "x,y\n0,0.5\n1,inf\n", "")

    def test_malformed_json_is_a_schema_failure(self, capsys, tmp_path):
        path = tmp_path / "c.json"
        path.write_text("{nope")
        code, _, err = run(capsys, "invert", "--in", str(path))
        assert code == 2
        assert "not valid JSON" in err


class TestEval:
    def test_fraction_at_a_point(self, capsys, tmp_path):
        path = tmp_path / "c.json"
        path.write_text('{"form":"krein","s":[1,1,1]}')
        code, out, _ = run(capsys, "eval", "--coeffs", str(path), "--z", "-1")
        assert code == 0
        assert out == "1.5\n"

    def test_string_at_a_point(self, capsys, tmp_path):
        path = tmp_path / "s.csv"
        path.write_text("x,y\n0,0.5\n4,1\n")
        code, out, _ = run(capsys, "eval", "--string", str(path), "--z", "-1")
        assert code == 0
        assert float(out) == pytest.approx(1.5)

    @pytest.mark.parametrize("end", ["\n", "\r\n"])
    def test_quoted_string_file(self, capsys, tmp_path, end):
        path = tmp_path / "s.csv"
        path.write_bytes(end.join(["x,y", '"0","1"', '"2",inf', ""]).encode())
        assert run(capsys, "eval", "--string", str(path), "--z", "-1") == (0, "0.66666666666666663\n", "")

    def test_levy_exponent(self, capsys, tmp_path):
        path = tmp_path / "c.json"
        path.write_text('{"form":"krein","s":[4]}')
        code, out, _ = run(capsys, "eval", "--coeffs", str(path), "--levy", "--lambda", "3")
        assert code == 0
        assert float(out) == pytest.approx(0.75)  # lambda / s_0

    def test_levy_from_a_string(self, capsys, tmp_path):
        # a lone atom of mass m has W(z) = 1/(-m z), so the exponent is m*lambda
        path = tmp_path / "s.csv"
        path.write_text("x,y\n0,0.25\n")
        code, out, _ = run(capsys, "eval", "--string", str(path), "--levy", "--lambda", "2")
        assert code == 0
        assert float(out) == pytest.approx(0.5)

    def test_stieltjes_list_with_zero_lead_prints_its_string(self, capsys, tmp_path):
        # s = [0, 49] is the massless string of length 49: both read W = 49
        coeffs, string = tmp_path / "c.json", tmp_path / "s.csv"
        coeffs.write_text('{"form":"stieltjes","s":[0,49]}')
        string.write_text("x,y\n0,0\n49,inf\n")
        from_coeffs = run(capsys, "eval", "--coeffs", str(coeffs), "--z", "-1")
        assert from_coeffs == run(capsys, "eval", "--string", str(string), "--z", "-1") == (0, "49\n", "")

    def test_levy_of_spectral_moments(self, capsys, tmp_path):
        # atoms of 1/2 at 1 and at 3: W(-lambda) = 1/2/(1 + lambda) + 1/2/(3 + lambda), 3/8 at lambda = 1
        moments, coeffs = tmp_path / "m.json", tmp_path / "c.json"
        moments.write_text('{"c":[1,2,5,14,41,122]}')
        assert run(capsys, "coeffs", "from-moments", "--in", str(moments), "--out", str(coeffs))[0] == 0
        assert json.loads(coeffs.read_text())["terminated"] is True
        code, out, _ = run(capsys, "eval", "--coeffs", str(coeffs), "--levy", "--lambda", "1")
        assert code == 0
        assert float(out) == pytest.approx(8.0 / 3.0, rel=1e-15)
        assert out == fmt(levy_exponent(parse_coefficients(coeffs.read_text()), 1.0)) + "\n"

    def test_levy_requires_lambda(self, capsys, tmp_path):
        path = tmp_path / "c.json"
        path.write_text('{"form":"krein","s":[4]}')
        code, _, err = run(capsys, "eval", "--coeffs", str(path), "--levy")
        assert code == 1
        assert "--lambda" in err

    def test_plain_eval_requires_z(self, capsys, tmp_path):
        path = tmp_path / "c.json"
        path.write_text('{"form":"krein","s":[4]}')
        code, _, err = run(capsys, "eval", "--coeffs", str(path))
        assert code == 1
        assert "one of the arguments --z --lambda is required" in err

    def test_nonnegative_z_is_rejected(self, capsys, tmp_path):
        path = tmp_path / "c.json"
        path.write_text('{"form":"krein","s":[4]}')
        code, _, err = run(capsys, "eval", "--coeffs", str(path), "--z", "1")
        assert code == 1

    def test_sources_are_mutually_exclusive(self, capsys, tmp_path):
        path = tmp_path / "c.json"
        path.write_text('{"form":"krein","s":[4]}')
        code, _, err = run(
            capsys, "eval", "--coeffs", str(path), "--string", str(path), "--z", "-1"
        )
        assert code == 1


class TestTransforms:
    def test_dual_swaps_an_atom_for_a_gap(self, capsys, tmp_path):
        path = tmp_path / "s.csv"
        path.write_text("x,y\n0,2\n")
        code, out, _ = run(capsys, "dual", "--in", str(path))
        assert code == 0
        assert parse_string(out).jumps == ((0.0, 0.0),)
        assert parse_string(out).terminal == 2.0

    def test_dual_twice_is_identity_bytes(self, capsys, tmp_path):
        first = tmp_path / "a.csv"
        second = tmp_path / "b.csv"
        src = tmp_path / "s.csv"
        src.write_text("x,y\n0,0\n0.5,2\n1.5,3\n")
        assert main(["dual", "--in", str(src), "--out", str(first)]) == 0
        assert main(["dual", "--in", str(first), "--out", str(second)]) == 0
        # the double dual reproduces the canonicalized source exactly
        assert parse_string(second.read_text()).jumps == parse_string(src.read_text()).jumps

    def test_dual_of_the_massless_string_has_its_terminal_at_zero(self, capsys, tmp_path):
        massless, dualled = tmp_path / "m.csv", tmp_path / "d.csv"
        massless.write_text("x,y\n")
        assert run(capsys, "dual", "--in", str(massless), "--out", str(dualled)) == (0, "", "")
        assert dualled.read_text() == "x,y\n0,0\n0,inf\n"
        assert run(capsys, "dual", "--in", str(dualled)) == (0, "x,y\n0,0\n", "")
        assert run(capsys, "eval", "--string", str(dualled), "--z", "-1") == (0, "0\n", "")

    def test_hat_removes_the_zero_atom(self, capsys, tmp_path):
        path = tmp_path / "s.csv"
        path.write_text("x,y\n0,0\n1,2\n")
        code, out, _ = run(capsys, "hat", "--in", str(path))
        assert code == 0
        result = parse_string(out)
        assert result.terminal is not None

    def test_hat_rejects_infinite_mass(self, capsys, tmp_path):
        path = tmp_path / "s.csv"
        path.write_text("x,y\n0,0\n1,2\n3,inf\n")
        code, _, err = run(capsys, "hat", "--in", str(path))
        assert code == 1
        assert "infinite" in err


class TestCompare:
    def test_report_fields(self, capsys, tmp_path):
        path = tmp_path / "s.csv"
        path.write_text("x,y\n0,0\n1,0.4\n")
        code, out, _ = run(
            capsys, "compare", "--approx", str(path), "--reference", "bm-drift"
        )
        assert code == 0
        data = json.loads(out)
        assert data["metric"] == "sup"
        assert data["value"] == pytest.approx(0.0)
        assert data["compared"] == 2

    def test_averaged_flag(self, capsys, tmp_path):
        path = tmp_path / "s.csv"
        path.write_text("x,y\n0,0\n1,1\n")
        code, out, _ = run(
            capsys,
            "compare", "--approx", str(path),
            "--reference", "uniform", "--window", "0.9", "--averaged",
        )
        # the only jump past the origin is outside the window
        assert code == 1

        code, out, _ = run(
            capsys,
            "compare", "--approx", str(path),
            "--reference", "uniform", "--window", "2", "--averaged",
        )
        assert code == 0
        data = json.loads(out)
        assert data["metric"] == "averaged"
        # window 2 reaches past the uniform reference's unit length, where
        # the reference mass is infinite; the report stays parseable JSON
        assert data["value"] == math.inf


class TestStudy:
    def test_json_output(self, capsys):
        code, out, _ = run(
            capsys,
            "study", "--family", "tanh", "--n-list", "5,11,21",
            "--reference", "uniform", "--window", "0.9",
        )
        assert code == 0
        data = json.loads(out)
        assert [n for n, _ in data["entries"]] == [5, 11, 21]
        assert data["slope"] < 0

    def test_csv_extension_selects_csv(self, capsys, tmp_path):
        path = tmp_path / "study.csv"
        code, _, _ = run(
            capsys,
            "study", "--family", "tanh", "--n-list", "5,11,21",
            "--reference", "uniform", "--window", "0.9", "--out", str(path),
        )
        assert code == 0
        lines = path.read_text().strip().split("\n")
        assert lines[0] == "n,error"
        assert len(lines) == 4

    def test_bad_n_list(self, capsys):
        code, _, err = run(
            capsys,
            "study", "--family", "tanh", "--n-list", "5,eleven",
            "--reference", "uniform",
        )
        assert code == 1
        assert "comma-separated integers" in err

    def test_too_few_orders(self, capsys):
        code, _, err = run(
            capsys,
            "study", "--family", "tanh", "--n-list", "5,11",
            "--reference", "uniform", "--window", "0.9",
        )
        assert code == 1
        assert "at least three" in err


class TestDeterminism:
    def test_identical_runs_give_identical_bytes(self, capsys, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        argv = ["study", "--family", "bessel-drift", "--n-list", "15,31,63",
                "--reference", "bm-drift", "--window", "5"]
        assert main(argv + ["--out", str(a)]) == 0
        assert main(argv + ["--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_written_string_is_accepted_back(self, capsys, tmp_path):
        coeffs = tmp_path / "c.json"
        string_out = tmp_path / "s.csv"
        assert main(["coeffs", "tanh", "-n", "9", "--out", str(coeffs)]) == 0
        assert main(["invert", "--in", str(coeffs), "--out", str(string_out)]) == 0
        code, out, _ = run(capsys, "eval", "--string", str(string_out), "--z", "-1")
        assert code == 0
        assert float(out) == pytest.approx(math.tanh(1.0), rel=1e-3)


def test_one_parser_serves_every_call_as_a_fresh_one_would(tmp_path):
    coeffs, string = tmp_path / "c.json", tmp_path / "s.csv"
    coeffs.write_text(TANH3)
    string.write_text("x,y\n0,0.5\n4,1\n")
    compare = ["compare", "--approx", str(string), "--reference", "uniform"]
    sequence = [
        ["eval", "--coeffs", str(coeffs), "--levy", "--lambda", "2"],
        ["eval", "--string", str(string), "--z", "-1"],  # --levy and --lambda must not carry over
        compare + ["--averaged"],
        compare,  # nor --averaged
        ["eval", "--string", str(string), "--coeffs", str(coeffs), "--z", "-1"],
        ["--help"],
        ["coeffs", "tanh", "-n", "3"],
    ]
    fresh = []
    for argv in sequence:
        cli._build_parser.cache_clear()
        fresh.append(_run_quietly(argv))
    cli._build_parser.cache_clear()
    reused = [_run_quietly(argv) for argv in sequence]
    assert reused == fresh
    assert cli._build_parser.cache_info().misses == 1
    assert [code for code, _, _ in reused] == [0, 0, 0, 0, 1, ("exit", 0), 0]
    w = char_function(parse_string(string.read_text()), -1.0)  # W(-1), not the Levy exponent 1/W
    assert float(reused[1][1]) == w
    assert '"metric":"averaged"' in reused[2][1] and '"metric":"sup"' in reused[3][1]
    assert reused[6][1] == TANH3


# -- main writes each command's text once ---------------------------------------

STUDY_TANH = ["study", "--family", "tanh", "--n-list", "5,11,21", "--reference", "uniform", "--window", "0.9"]

# every command that takes --out: its argv, the name of its --out file, and an argv that fails;
# "@c", "@m", "@s" and "@bad" name a coefficient, moment, string and malformed file
WRITERS = {
    "tanh": (["coeffs", "tanh", "-n", "5"], "c.json", ["coeffs", "tanh", "-n", "0"]),
    "bessel-drift": (["coeffs", "bessel-drift", "-n", "5", "--alpha", "0.5", "--beta", "2", "--c-const", "0.3"],
                     "c.json", ["coeffs", "bessel-drift", "-n", "5", "--alpha", "0.5", "--beta", "2", "--c-const", "1e308"]),
    "log-limit": (["coeffs", "log-limit", "-n", "5", "--beta", "2"], "c.json",
                  ["coeffs", "log-limit", "-n", "5", "--beta", "1e308"]),
    "from-moments": (["coeffs", "from-moments", "--in", "@m"], "c.json", ["coeffs", "from-moments", "--in", "@bad"]),
    "invert": (["invert", "--in", "@c"], "s.csv", ["invert", "--in", "@bad"]),
    "dual": (["dual", "--in", "@s"], "d.csv", ["dual", "--in", "@bad"]),
    "hat": (["hat", "--in", "@s"], "h.csv", ["hat", "--in", "@bad"]),
    "compare": (["compare", "--approx", "@s", "--reference", "uniform", "--window", "0.9"], "r.json",
                ["compare", "--approx", "@s", "--reference", "uniform", "--window", "nan"]),
    "study-json": (STUDY_TANH, "st.json", ["study", "--family", "tanh", "--n-list", "1,2", "--reference", "uniform"]),
    "study-csv": (STUDY_TANH, "st.csv", ["study", "--family", "tanh", "--n-list", "1,2", "--reference", "uniform"]),
}


@pytest.mark.parametrize("argv, name, failing", list(WRITERS.values()), ids=list(WRITERS))
def test_out_file_holds_the_bytes_stdout_would(argv, name, failing, tmp_path):
    files = {"@c": TANH3, "@m": '{"c":[2,3,5,9]}', "@s": "x,y\n0,0.5\n4,1\n", "@bad": "{nope"}
    for key, text in files.items():
        (tmp_path / key[1:]).write_text(text)
    path = tmp_path / name
    argv, failing = ([str(tmp_path / t[1:]) if t in files else t for t in a] for a in (argv, failing))
    code, out, err = _run_quietly(argv)
    assert (code, err) == (0, "") and out
    if name.endswith(".csv") and argv[0] == "study":  # stdout is the JSON study; the file, the same study as CSV
        out = "n,error\n" + "".join("%d,%s\n" % (n, fmt(e)) for n, e in json.loads(out)["entries"])
    assert _run_quietly(argv + ["--out", str(path)]) == (0, "", "")
    assert path.read_bytes() == out.encode()
    path.unlink()
    for result in (_run_quietly(failing), _run_quietly(failing + ["--out", str(path)])):
        assert result[0] in (1, 2) and result[1] == ""
    assert not path.exists()


# -- each command takes exactly its own flags ----------------------------------


def _family_argv(family):
    _, params = FAMILIES[family]
    argv = ["coeffs", family, "-n", "3"]
    for param in params:
        argv += [cli._flag(param), repr(PAPER_PARAMETERS[param])]
    return argv


def _usage_error(result):
    code, out, err = result
    return code == 1 and out == "" and err.startswith("error: ") and err.count("\n") == 1


@pytest.mark.parametrize("family", FAMILIES)
def test_family_takes_its_order_parameters_and_out(family, tmp_path):
    build, params = FAMILIES[family]
    path = tmp_path / "c.json"
    assert _run_quietly(_family_argv(family) + ["--out", str(path)]) == (0, "", "")
    assert path.read_text() == render_coefficients(build(*[PAPER_PARAMETERS[p] for p in params], 3))


@pytest.mark.parametrize(
    "family, flag",
    [(family, flag) for family, (_, params) in FAMILIES.items()
     for flag in [cli._flag(p) for p in PAPER_PARAMETERS if p not in params] + ["--in"]],
)
def test_family_rejects_a_flag_it_does_not_take(family, flag, tmp_path):
    moments = tmp_path / "m.json"
    moments.write_text('{"c":[2,3,5,9]}')
    value = str(moments) if flag == "--in" else "0.5"
    assert _usage_error(_run_quietly(_family_argv(family) + [flag, value]))


STUDY = ["study", "--n-list", "5,11,21", "--reference", "bm-drift", "--window", "2"]


@pytest.mark.parametrize("family", FAMILIES)
def test_study_takes_its_family_parameters_with_the_paper_values_as_defaults(family):
    _, params = FAMILIES[family]
    plain = _run_quietly(STUDY + ["--family", family])
    assert plain[0] == 0
    explicit = [t for p in params for t in (cli._flag(p), repr(PAPER_PARAMETERS[p]))]
    assert _run_quietly(STUDY + ["--family", family] + explicit) == plain


@pytest.mark.parametrize(
    "family, flag",
    [(family, cli._flag(p)) for family, (_, params) in FAMILIES.items() for p in PAPER_PARAMETERS if p not in params],
)
def test_study_rejects_a_parameter_its_family_does_not_take(family, flag):
    result = _run_quietly(STUDY + ["--family", family, flag, "0.5"])
    assert _usage_error(result)
    assert flag in result[2]


@pytest.mark.parametrize("flag", ["-n", "--alpha", "--beta", "--c-const"])
def test_from_moments_rejects_family_flags(flag, tmp_path):
    moments = tmp_path / "m.json"
    moments.write_text('{"c":[2,3,5,9]}')
    argv = ["coeffs", "from-moments", "--in", str(moments)]
    assert _run_quietly(argv)[0] == 0
    assert _usage_error(_run_quietly(argv + [flag, "2"]))


@pytest.mark.parametrize(
    "point",
    [["--z", "-1", "--levy", "--lambda", "2"], ["--z", "-2.5", "--lambda", "2"], ["--lambda", "2"], ["--levy"],
     ["--z", "-1", "--levy"]],
    ids=["z-levy-lambda", "z-lambda", "lambda-alone", "levy-alone", "z-levy"],
)
def test_eval_takes_its_point_once(point, tmp_path):
    coeffs = tmp_path / "c.json"
    coeffs.write_text(TANH3)
    assert _usage_error(_run_quietly(["eval", "--coeffs", str(coeffs)] + point))


@pytest.mark.parametrize("lam", ["0.5", "2", "1e-05", "1e+300"])
def test_levy_on_coefficients_is_levy_exponent(lam, tmp_path):
    coeffs = tmp_path / "c.json"
    coeffs.write_text(TANH3)
    expected = fmt(levy_exponent(parse_coefficients(TANH3), float(lam))) + "\n"
    assert _run_quietly(["eval", "--coeffs", str(coeffs), "--levy", "--lambda", lam]) == (0, expected, "")


def test_negative_numbers_in_exponent_form_need_no_equals_sign(tmp_path):
    coeffs = tmp_path / "c.json"
    coeffs.write_text(TANH3)
    for z in ("-1e-05", "-1.2345678901234568e+17", "-2E3", "-.5e1", "-inf", "-Infinity"):
        spaced = _run_quietly(["eval", "--coeffs", str(coeffs), "--z", z])
        assert spaced == _run_quietly(["eval", "--coeffs", str(coeffs), "--z=" + z])
        assert spaced == (0, fmt(eval_fraction(parse_coefficients(TANH3), float(z))) + "\n", "")
    with pytest.raises(ValueError) as exc:
        tanh_coefficients(-3)
    assert _run_quietly(["coeffs", "tanh", "-n", "-3"]) == (1, "", "error: %s\n" % exc.value)


README = pathlib.Path(__file__).resolve().parents[1] / "README.md"


def test_readme_commands_run(tmp_path, monkeypatch):
    text = README.read_text(encoding="utf-8")
    lines = "".join(re.findall(r"```sh\n(.*?)```", text, re.S)).replace("\\\n", " ").splitlines()
    commands = [shlex.split(line)[1:] for line in lines if line.startswith("kreinstring ")]
    assert len(commands) >= 5
    monkeypatch.chdir(tmp_path)  # the commands read and write files in the working directory
    slopes = []
    for argv in commands:
        code, out, err = _run_quietly(argv)
        assert (code, err) == (0, ""), argv
        if argv[0] == "study":
            slopes.append("%.2f" % json.loads(out)["slope"])
    assert slopes == re.findall(r"slope near `(-[\d.]+)`", text)


def test_missing_subcommand_is_a_usage_error(capsys):
    code, _, err = run(capsys)
    assert code == 1
    assert "error:" in err


def test_invert_reaches_drift_order_8191(capsys, tmp_path):
    # the intermediate levels pass 1e4932, the top of 80-bit extended range
    coeffs, string = tmp_path / "c.json", tmp_path / "s.csv"
    assert main(["coeffs", "bessel-drift", "-n", "8191", "--alpha", "0.5", "--beta", "2",
                 "--c-const", str(1.0 / math.sqrt(2.0 * math.pi)), "--out", str(coeffs)]) == 0
    code, out, err = run(capsys, "invert", "--in", str(coeffs), "--out", str(string))
    assert (code, out, err) == (0, "", "")
    cf = parse_coefficients(coeffs.read_text())
    s = parse_string(string.read_text())
    for z in (-0.1, -1.0, -10.0):
        assert char_function(s, z) == pytest.approx(eval_fraction(cf, z), rel=1e-9)


# -- every input ends in exit 0, 1 or 2 ---------------------------------------

FILE = "@in"  # replaced by the path of a file holding the drawn contents
OUT = "@out"  # replaced by a path in the same directory

ZEROS = b"0" * 400

# argv, file contents, exit code, text in the output: inputs that once
# escaped as tracebacks, wrote more than one line of error, or gave a wrong number
FAULTS = {
    "tiny-moment": ("coeffs from-moments --in @in", b'{"c":["1' + ZEROS + b'"]}', 1, "s_0 is about 1e-400"),
    "huge-moment": ("coeffs from-moments --in @in", b'{"c":[1,"1/1' + ZEROS + b'"]}', 1, "s_1 is about 1e400"),
    "levy-coeffs-zero": ("eval --coeffs @in --levy --lambda 1", b'{"form":"krein","s":[0]}', 0, "inf"),
    "levy-string-zero": ("eval --string @in --levy --lambda 1", b"x,y\n0,inf\n", 0, "inf"),
    "levy-lambda-zero": ("eval --coeffs @in --levy --lambda 0", TANH3.encode(), 1, "lambda must be positive"),
    "levy-lambda-negative": ("eval --coeffs @in --levy --lambda -1", TANH3.encode(), 1, "lambda must be positive"),
    "levy-lambda-nan": ("eval --string @in --levy --lambda nan", b"x,y\n0,1\n", 1, "lambda must be positive"),
    "long-integer": ("invert --in @in", b'{"form":"krein","s":[1,1' + ZEROS + b"]}", 1,
                     "s_1 is about 1e400, outside double range"),
    "long-rational": ("eval --coeffs @in --z -1", b'{"form":"krein","s":["1' + ZEROS + b'/3"]}', 1,
                      "s_0 is about 1e399, outside double range"),
    "tiny-entry-text": ("invert --in @in", b'{"form":"krein","s":["1e-400",1,2]}', 1,
                        "s_0 is about 1e-400, outside double range"),
    "tiny-entry-number": ("eval --coeffs @in --z -1", b'{"form":"krein","s":[1e-400,1,2]}', 1,
                          "s_0 is about 1e-400, outside double range"),
    "huge-exponent-coeffs": ("invert --in @in", b'{"form":"krein","s":["1e-99999999999"]}', 2,
                             "the exponent of '1e-99999999999' is past 4300"),
    "huge-exponent-moments": ("coeffs from-moments --in @in", b'{"c":["1e99999999999"]}', 2,
                              "the exponent of '1e99999999999' is past 4300"),
    "nested-coeffs": ("invert --in @in", b"[" * 100000 + b"]" * 100000, 2, "nested too deeply"),
    "nested-moments": ("coeffs from-moments --in @in", b'{"c":' * 100000 + b"}" * 100000, 2, "nested too deeply"),
    "not-utf8": ("invert --in @in", b'{"form":"krein","s":[1,\xff]}', 2, "not UTF-8"),
    "csv-field-limit": ("dual --in @in", b"x,y\n" + b"1" * 200000 + b",1\n", 2, "not valid CSV"),
    "hat-overflow": ("hat --in @in", b"x,y\n0,1.6e308\n1,1.7e308\n", 1, "jump 0 (0.0, 1.6e+308)"),
    "mass-overflow": ("compare --approx @in --reference bm-drift --averaged --window inf",
                      b"x,y\n0,1e308\n1e308,1.7e308\n", 0, '"value":1.35e+308,'),
    "nan-point": ("eval --coeffs @in --z nan", TANH3.encode(), 1, "z < 0 only"),
    "krein-underflow": ("eval --coeffs @in --z -1e308", b'{"form":"krein","s":[1e-300,1,1e-300]}', 0, "0\n"),
    "stieltjes-underflow": ("eval --coeffs @in --z -1e-300", b'{"form":"stieltjes","s":[1e-300,1,1e-300]}', 0, "inf"),
    "string-underflow": ("eval --string @in --z -1e-300", b"x,y\n0,1e-300\n", 0, "inf"),
    "study-order-zero": ("study --family bessel-drift --n-list 0,1,2 --reference bm-drift", b"", 1, "positive"),
    "coeffs-nan-beta": ("coeffs log-limit -n 3 --beta nan", b"", 1, "beta must be finite and positive"),
    "coeffs-inf-constant": ("coeffs bessel-drift -n 5 --alpha 0.5 --beta 2 --c-const inf", b"", 1,
                            "the constant must be finite and positive"),
    "study-nan-beta": ("study --family bessel-drift --alpha 0.5 --beta nan --c-const 1 --n-list 5,11,21 "
                       "--reference bm-drift", b"", 1, "beta must be finite and positive"),
    "study-inf-constant": ("study --family bessel-drift --alpha 0.5 --beta 2 --c-const inf --n-list 5,11,21 "
                           "--reference bm-drift", b"", 1, "the constant must be finite and positive"),
    "coeffs-inf-gamma": ("coeffs bessel-drift -n 0 --alpha 0.5 --beta 2 --c-const 1e308", b"", 1,
                         "gamma = c_const * Gamma(1-alpha) * beta**alpha is outside double range at alpha = 0.5"),
    "coeffs-huge-coefficient": ("coeffs bessel-drift -n 2 --alpha 0.5 --beta 2 --c-const 3e307", b"", 1,
                                "s_1 is outside double range at alpha = 0.5, beta = 2, c_const = 3e+307"),
    "coeffs-subnormal-gamma": ("coeffs bessel-drift -n 3 --alpha 0.5 --beta 1e-300 --c-const 1e-170", b"", 1,
                               "gamma = c_const * Gamma(1-alpha) * beta**alpha = 1.77e-320 is below the normal double range"),
    "coeffs-huge-beta": ("coeffs log-limit -n 3 --beta 1e308", b"", 1, "s_0 is outside double range at beta = 1e+308"),
    "study-inf-gamma": ("study --family bessel-drift --alpha 0.5 --beta 2 --c-const 1e308 --n-list 5,11,21 "
                        "--reference bm-drift", b"", 1, "gamma = c_const * Gamma(1-alpha) * beta**alpha is outside"),
    "study-huge-beta": ("study --family log-limit --beta 1e308 --n-list 5,11,21 --reference bm-drift", b"", 1,
                        "s_0 is outside double range at beta = 1e+308"),
    "study-zero-error": ("study --family tanh --n-list 1,2,3 --reference uniform --window 0.1", b"", 1, "cannot fit"),
    "compare-nan-window": ("compare --approx @in --reference uniform --window nan", b"x,y\n0,0.5\n4,1\n", 1,
                           "window must be positive"),
    "study-nan-window": ("study --family tanh --n-list 5,11,21 --reference uniform --window nan", b"", 1,
                         "window must be positive"),
    "invert-zero-lead-overflow": ("invert --in @in", b'{"form":"krein","s":[0,1,1e-310]}', 1,
                                  "the string reaches about 1e310, outside double range"),
    "invert-plateau-overflow": ("invert --in @in", b'{"form":"krein","s":[1e-310,1]}', 1,
                                "1/s_0 is about 1e310, outside double range"),
    "invert-fold-short-of-plateau": ("invert --in @in", b'{"form":"krein","s":[' + b",".join([b"1e300,1e-300"] * 30)
                                     + b"]}", 1, "before its values reach 1/s_0, outside double range"),
    "compare-inf-window": ("compare --approx @in --reference uniform --window inf", b"x,y\n0,0.5\n4,1\n", 0,
                           '"window":Infinity,'),
    "study-inf-window": ("study --family tanh --n-list 5,11,21 --reference uniform --window inf", b"", 0,
                         '"window":Infinity,'),
    "digits-coeffs": ("invert --in @in", b'{"form":"krein","s":[1,' + b"1" * 5000 + b"]}", 2, "not valid JSON"),
    "digits-moments": ("coeffs from-moments --in @in", b'{"c":[1,' + b"1" * 5000 + b"]}", 2, "not valid JSON"),
    "neg-inf-terminal": ("dual --in @in", b"x,y\n0,0\n1,1\n2,-inf\n", 1, "non-finite entry at row 2"),
    "overflowing-mass": ("eval --string @in --z -1", b"x,y\n0,0\n1,1e400\n", 1, "non-finite entry at row 1: (1.0, inf)"),
    "bare-carriage-return": ("eval --string @in --z -1", b"x,y\n0\r,1\n", 2,
                             "line 2: carriage return not followed by a line feed"),
    "hat-near-cap-terminal": ("hat --in @in", b"x,y\n0,0\n1,0.5\n2,0.999999999999\n3,1\n", 0,
                              "\n1.2500000000000002,inf\n"),
    "hat-near-cap-merge": ("hat --in @in", b"x,y\n0,0\n1,0.5\n2,0.999999999999\n3,0.9999999999999\n4,1\n", 0,
                           "\n1.25,9996891514694.8848\n1.2500000000000002,inf\n"),
}


def _run_quietly(argv):
    """(exit code, stdout, stderr) of one in-process call; ("exit", code) for a SystemExit."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:  # --help
            code = ("exit", exc.code)
    return code, out.getvalue(), err.getvalue()


def _run_with_file(argv, content):
    """Run argv twice with FILE holding content; return both (code, stdout, stderr)."""
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "input")
        with open(path, "wb") as f:
            f.write(content)
        argv = [t.replace(FILE, path).replace(OUT, os.path.join(tmp, "output")) for t in argv]
        return _run_quietly(argv), _run_quietly(argv)


@pytest.mark.parametrize("argv, content, code, expected", list(FAULTS.values()), ids=list(FAULTS))
def test_range_and_file_faults_end_in_a_documented_exit(argv, content, code, expected):
    (got, out, err), _ = _run_with_file(argv.split(), content)
    assert got == code
    if code == 0:
        assert expected in out and err == ""
    else:
        assert err.startswith("error: ") and err.count("\n") == 1
        assert expected in err


@settings(deadline=None)
@given(string_texts())
@example("x,y\n0\r,1\n")
@example("x,y\r\n0,1\r\n")
def test_a_string_file_ends_as_its_text_does(text):
    try:
        expected = (0, fmt(char_function(parse_string(text), -1.0)) + "\n", "")
    except SchemaError as exc:
        expected = (2, "", "error: %s\n" % exc)
    except (ValueError, OverflowError) as exc:
        expected = (1, "", "error: %s\n" % exc)
    got, _ = _run_with_file(["eval", "--string", FILE, "--z", "-1"], text.encode("utf-8"))
    assert got == expected


def _option(flag, values=None):
    """Nothing, the bare flag, or the flag with a drawn value."""
    if values is None:
        given = st.just([flag])
    elif flag.startswith("--"):  # "--z=-nan": argparse would take "-nan" for a flag
        given = values.map(lambda v: [flag + "=" + v])
    else:
        given = values.map(lambda v: [flag, v])
    return st.one_of(st.just([]), given)


def _command(name, *parts):
    return st.tuples(*parts).map(lambda drawn: [name] + [t for part in drawn for t in part])


NUMBERS = st.sampled_from(
    ["0", "-0", "-1", "0.5", "3", "-2.5", "1e308", "-1e308", "1e-320", "-1e-320", "inf", "-inf", "nan", "x"]
)
ORDERS = st.sampled_from(["-1", "0", "1", "4", "x"])  # small: the work grows with the order
N_LISTS = st.sampled_from(["5,11,21", "3,6,12,24", "21,11,5", "5,11", "0,1,2", "5,x"])
REFERENCE = _option("--reference", st.sampled_from(["bm-drift", "uniform", "none"]))
PARAMETERS = [_option("--alpha", NUMBERS), _option("--beta", NUMBERS), _option("--c-const", NUMBERS)]
IN = _option("--in", st.just(FILE))
WRITE = _option("--out", st.just(OUT))

ARGVS = st.one_of(
    _command(
        "coeffs",
        st.sampled_from(["tanh", "bessel-drift", "log-limit", "from-moments", "parabolic"]).map(lambda f: [f]),
        _option("-n", ORDERS), *PARAMETERS, IN, WRITE,
    ),
    _command("invert", IN, WRITE),
    _command(
        "eval",
        st.sampled_from([["--coeffs", FILE], ["--string", FILE], []]),
        _option("--z", NUMBERS), _option("--levy"), _option("--lambda", NUMBERS),
    ),
    _command("dual", IN, WRITE),
    _command("hat", IN, WRITE),
    _command("compare", _option("--approx", st.just(FILE)), REFERENCE, _option("--window", NUMBERS),
             _option("--averaged"), WRITE),
    _command(
        "study",
        _option("--family", st.sampled_from(["tanh", "bessel-drift", "log-limit", "none"])),
        _option("--n-list", N_LISTS), REFERENCE, _option("--window", NUMBERS), _option("--averaged"),
        *PARAMETERS, WRITE,
    ),
)

CONTENTS = st.one_of(
    st.sampled_from([
        TANH3.encode(),
        b'{"form":"krein","s":[1,2]}',
        b'{"form":"stieltjes","s":[0.5,"4/3","9/2"]}',
        b'{"form":"krein","s":[1e-300,1,1e-300]}',
        b'{"form":"krein","s":[1,-1]}',
        b'{"form":"krein","s":[]}',
        b'{"c":[2,3,5,9]}',
        b'{"c":[1,"1/2","1/3","1/4","1/5"]}',
        b'{"c":[1,2,1]}',
        b'{"c":[0]}',
        b'{"c":[1,true]}',
        b"{nope",
        b"[]",
        b"x,y\n0,0\n1,2\n",
        b"x,y\n0,0.5\n4,1\n",
        b"x,y\n0,0\n0.5,1\n2,inf\n",
        b"x,y\n1e-300,1e-300\n",
        b"x,y\n0,1e308\n1e308,1.7e308\n",
        b"x,y\n1,0\n0,1\n",
        b"x,y\n0,nan\n",
        b"x,y\n0\n",
        b"",
    ]),
    st.binary(max_size=40),
)


def _with_fault_examples(test):
    for argv, content, _, _ in FAULTS.values():
        test = example(argv=argv.split(), content=content)(test)
    return test


@settings(derandomize=True, deadline=None, max_examples=150)
@given(argv=ARGVS, content=CONTENTS)
@_with_fault_examples
def test_every_input_ends_in_an_exit_code(argv, content):
    first, second = _run_with_file(argv, content)
    code, out, err = first
    assert code in (0, 1, 2)
    assert "nan" not in out
    if code != 0:
        assert err.startswith("error: ") and err.count("\n") == 1
    elif argv[0] in ("compare", "study") and out:
        json.loads(out)
    assert second[:2] == first[:2]
