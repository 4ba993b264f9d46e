import contextlib
import io
import json
import math
import os
import tempfile

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from kreinstring import cli
from kreinstring.cli import main
from kreinstring.evaluate import char_function, eval_fraction
from kreinstring.serialization import parse_coefficients, parse_string

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
        assert "requires --beta" in err

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
        assert "requires --in" in err

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
        assert "--z is required" in err

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
    "long-integer": ("invert --in @in", b'{"form":"krein","s":[1,1' + ZEROS + b"]}", 1, "too large"),
    "long-rational": ("eval --coeffs @in --z -1", b'{"form":"krein","s":["1' + ZEROS + b'/3"]}', 1, "too large"),
    "nested-coeffs": ("invert --in @in", b"[" * 100000 + b"]" * 100000, 2, "nested too deeply"),
    "nested-moments": ("coeffs from-moments --in @in", b'{"c":' * 100000 + b"}" * 100000, 2, "nested too deeply"),
    "not-utf8": ("invert --in @in", b'{"form":"krein","s":[1,\xff]}', 2, "not UTF-8"),
    "csv-field-limit": ("dual --in @in", b"x,y\n" + b"1" * 200000 + b",1\n", 2, "not valid CSV"),
    "hat-overflow": ("hat --in @in", b"x,y\n0,1.6e308\n1,1.7e308\n", 1, "jump 0 (0.0, 1.6e+308)"),
    "mass-overflow": ("compare --approx @in --reference bm-drift --averaged --window inf",
                      b"x,y\n0,1e308\n1e308,1.7e308\n", 0, '"value":1.35e+308,'),
    "nan-point": ("eval --coeffs @in --z nan", TANH3.encode(), 1, "z < 0 only"),
    "krein-underflow": ("eval --coeffs @in --z=-1e308", b'{"form":"krein","s":[1e-300,1,1e-300]}', 0, "0\n"),
    "stieltjes-underflow": ("eval --coeffs @in --z=-1e-300", b'{"form":"stieltjes","s":[1e-300,1,1e-300]}', 0, "inf"),
    "string-underflow": ("eval --string @in --z=-1e-300", b"x,y\n0,1e-300\n", 0, "inf"),
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


def _option(flag, values=None):
    """Nothing, the bare flag, or the flag with a drawn value."""
    if values is None:
        given = st.just([flag])
    elif flag.startswith("--"):  # "--z=-1e308": argparse would take "-1e308" for a flag
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
