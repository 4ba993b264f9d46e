import ast
import contextlib
import importlib
import io
import json
import os
import pathlib
import re
import shutil
import subprocess
import sys
import tomllib

import pytest

import kreinstring
from kreinstring.cli import main
from kreinstring.families import PAPER_PARAMETERS, bessel_drift_coefficients
from kreinstring.inversion import invert
from kreinstring.serialization import parse_string, render_string
from kreinstring.strings import DiscreteString

SRC = os.path.dirname(os.path.dirname(os.path.abspath(kreinstring.__file__)))

# Runs one command in a fresh interpreter and reports on stderr, after the
# command's own output, whether numpy and fractions were loaded.
PROBE = """\
import sys
import kreinstring
code = 0
if sys.argv[1:]:
    from kreinstring.cli import main
    try:
        code = main(sys.argv[1:])
    except SystemExit as exc:  # --help
        code = exc.code
sys.stderr.write("numpy loaded: %s\\n" % ("numpy" in sys.modules))
sys.stderr.write("fractions loaded: %s\\n" % ("fractions" in sys.modules))
sys.exit(code)
"""

FILES = {
    "c.json": '{"form":"krein","s":[0,1,3,5,7]}\n',
    "m.json": '{"c":[2,3,5,9]}\n',
    "s.csv": "x,y\n0,0.1\n0.3,0.5625\n1,0.75\n",
}

WITHOUT_NUMPY = {
    "import": [],
    "help": ["--help"],
    "coeffs": ["coeffs", "tanh", "-n", "3"],
    "from-moments": ["coeffs", "from-moments", "--in", "m.json"],
    "eval-coeffs": ["eval", "--coeffs", "c.json", "--z", "-1"],
    "eval-levy": ["eval", "--coeffs", "c.json", "--levy", "--lambda", "2"],
    "eval-string": ["eval", "--string", "s.csv", "--z", "-1"],
    "eval-levy-string": ["eval", "--string", "s.csv", "--levy", "--lambda", "2"],
    "dual": ["dual", "--in", "s.csv"],
    "hat": ["hat", "--in", "s.csv"],
    "compare": ["compare", "--approx", "s.csv", "--reference", "uniform"],
    "compare-averaged": ["compare", "--approx", "s.csv", "--reference", "bm-drift", "--averaged"],
}


def child_python(*args, cwd=None, text=True):
    """Run the interpreter with args in a fresh process that imports the package from SRC."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")])))
    return subprocess.run([sys.executable, *args], cwd=cwd, env=env, capture_output=True, text=text, timeout=60)


def fresh_python(code, *argv, cwd=None):
    """Run code with argv in a fresh interpreter; it must exit 0."""
    done = child_python("-c", code, *argv, cwd=cwd)
    assert done.returncode == 0, done.stderr
    return done


def write_files(directory):
    for name, text in FILES.items():
        (directory / name).write_text(text)


def loaded_after(argv, tmp_path):
    """{module: loaded} for numpy and fractions after one command in a fresh interpreter."""
    write_files(tmp_path)
    done = fresh_python(PROBE, *argv, cwd=tmp_path)
    lines = done.stderr.splitlines()[-2:]
    return {line.split()[0]: line.endswith(": True") for line in lines}


def test_star_import_resolves_every_exported_name():
    namespace = {}
    exec("from kreinstring import *", namespace)  # a stale __all__ entry raises here
    assert set(kreinstring.__all__) <= set(namespace)


@pytest.mark.parametrize("argv", list(WITHOUT_NUMPY.values()), ids=list(WITHOUT_NUMPY))
def test_command_starts_without_numpy(argv, tmp_path):
    # and without fractions (and the decimal it imports), which only the exact
    # moment path reads moments into
    exact = argv[:2] == ["coeffs", "from-moments"]
    assert loaded_after(argv, tmp_path) == {"numpy": False, "fractions": exact}


def test_invert_loads_numpy(tmp_path):
    # the guard above can fail: the level loop of ``invert`` does use arrays
    assert loaded_after(["invert", "--in", "c.json"], tmp_path)["numpy"]


def test_console_script_is_cli_main():
    # the command pip installs runs the same main the tests call
    pyproject = pathlib.Path(__file__).resolve().parents[1] / "pyproject.toml"
    scripts = tomllib.loads(pyproject.read_text(encoding="utf-8"))["project"]["scripts"]
    assert scripts == {"kreinstring": "kreinstring.cli:main"}
    module, _, name = scripts["kreinstring"].partition(":")
    assert getattr(importlib.import_module(module), name) is main


def test_ci_runs_the_tier1_command_on_the_declared_floors():
    # the workflow runs ROADMAP's tier-1 command and installs exactly the versions
    # pyproject.toml declares as floors, so CI, packaging and ROADMAP cannot drift apart
    root = pathlib.Path(__file__).resolve().parents[1]
    workflow = (root / ".github" / "workflows" / "tier1.yml").read_text(encoding="utf-8")
    runs = [line.strip()[len("run: "):] for line in workflow.splitlines() if line.strip().startswith("run: ")]
    roadmap = (root / "ROADMAP.md").read_text(encoding="utf-8")
    assert re.search(r"\*\*Tier-1 verify:\*\* `([^`]+)`", roadmap).group(1) in runs
    project = tomllib.loads((root / "pyproject.toml").read_text(encoding="utf-8"))["project"]
    floors = [*project["dependencies"], *project["optional-dependencies"]["test"]]
    installs = [sorted(run.split()[4:]) for run in runs if run.startswith("python -m pip install ")]
    assert installs == [sorted(floor.replace(">=", "==") for floor in floors)]


def test_committed_bench_files_hold_correct_runs():
    # every committed benchmark run names a declared workload, passed its checks
    # and reports the metrics BENCHMARK.json declares, in their units
    root = pathlib.Path(__file__).resolve().parents[1]
    declared = json.loads((root / "BENCHMARK.json").read_text(encoding="utf-8"))
    workloads = {w["name"] for w in declared["workloads"]}
    end_to_end = {m["name"]: m["unit"] for m in declared["end_to_end"]}
    per_layer = {m["name"]: m["unit"] for m in declared["per_layer"]}
    files = sorted(root.glob("BENCH_*.json"))
    assert files
    for path in files:
        for number, line in enumerate(path.read_text(encoding="utf-8").splitlines(), 1):
            where = "%s:%d" % (path.name, number)
            run = json.loads(line)
            assert isinstance(run, dict) and {"workload", "side", "seed", "trace", "result"} <= set(run), where
            assert run["workload"] in workloads and run["side"] in ("parent", "change"), where
            result = run["result"]
            assert result["correct"] is True and result["failed"] == 0, where
            units = {name: metric["unit"] for name, metric in result["metrics"].items()}
            if run["trace"] == 0:
                assert units == end_to_end, where
            else:
                assert run["trace"] == 1 and units.items() <= per_layer.items(), where


def test_import_builds_no_parser():
    # the command-line parser is built on the first main() call, not at import
    done = fresh_python("import kreinstring.cli as cli; print(cli._build_parser.cache_info().currsize)")
    assert done.stdout == "0\n"


def _stdout_writers(path):
    """(top-level definition, line) of each print call and each use of sys.stdout in the module."""
    found = []
    for top in ast.parse(path.read_text(encoding="utf-8")).body:
        for node in ast.walk(top):
            called = isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id == "print"
            named = isinstance(node, ast.Attribute) and node.attr == "stdout" and getattr(node.value, "id", None) == "sys"
            imported = isinstance(node, ast.alias) and node.name == "stdout"
            if called or named or imported:
                found.append((getattr(top, "name", None), node.lineno))
    return found


def test_only_cli_main_writes_to_stdout():
    # reports and telemetry go to stderr; stdout carries only the command's text, written once by main
    package = pathlib.Path(kreinstring.__file__).parent
    writers = {path.name: _stdout_writers(path) for path in sorted(package.rglob("*.py"))}
    assert {name for name, _ in writers.pop("cli.py")} == {"main"}
    assert writers == {name: [] for name in writers}


def _imports_numpy(path):
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import) and any(a.name.split(".")[0] == "numpy" for a in node.names):
            return True
        if isinstance(node, ast.ImportFrom) and node.level == 0 and node.module.split(".")[0] == "numpy":
            return True
    return False


def test_only_inversion_imports_numpy():
    # numpy serves the level loop of ``invert`` alone; every other module is plain Python
    package = pathlib.Path(kreinstring.__file__).parent
    assert [path.name for path in sorted(package.rglob("*.py")) if _imports_numpy(path)] == ["inversion.py"]


def test_serialization_imports_no_algorithm():
    # the file formats know the coefficient and string types, not the code that computes them
    path = pathlib.Path(kreinstring.__file__).parent / "serialization.py"
    imported = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.ImportFrom) and node.level > 0:
            imported.add(node.module or "")
        elif isinstance(node, ast.ImportFrom) and node.module.split(".")[0] == "kreinstring":
            imported.add(node.module.partition(".")[2])
        elif isinstance(node, ast.Import):
            imported.update(a.name.partition(".")[2] for a in node.names if a.name.split(".")[0] == "kreinstring")
    assert imported <= {"continued", "strings"}


# one command per exit code, with the files above
MODULE_RUNS = {
    "exit-0": (["invert", "--in", "c.json"], 0),
    "exit-1": (["eval", "--coeffs", "c.json"], 1),  # no point to evaluate at
    "exit-2": (["invert", "--in", "missing.json"], 2),
}


@pytest.mark.parametrize("argv, code", list(MODULE_RUNS.values()), ids=list(MODULE_RUNS))
def test_python_m_kreinstring_exits_as_main_returns(argv, code, tmp_path, monkeypatch):
    # __main__.py in dev mode, where any warning the real process raises is an error
    write_files(tmp_path)
    done = child_python("-X", "dev", "-W", "error", "-m", "kreinstring", *argv, cwd=tmp_path, text=False)
    monkeypatch.chdir(tmp_path)
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        assert main(argv) == code
    assert (done.returncode, done.stdout, done.stderr) == (code, out.getvalue().encode(), err.getvalue().encode())


def _unchecked_builds(path):
    """(top-level definition, line) of each use of __new__, the one way to build an object without __init__."""
    return [
        (getattr(top, "name", None), node.lineno)
        for top in ast.parse(path.read_text(encoding="utf-8")).body
        for node in ast.walk(top)
        if isinstance(node, ast.Attribute) and node.attr == "__new__"
    ]


def test_only_validate_string_skips_the_jump_check():
    # a string built without __post_init__ must come from rows validate_string checked
    package = pathlib.Path(kreinstring.__file__).parent
    builds = {path.name: _unchecked_builds(path) for path in sorted(package.rglob("*.py"))}
    assert {name for name, _ in builds.pop("strings.py")} == {"validate_string"}
    assert builds == {name: [] for name in builds}


def _string_constructions(path):
    """(top-level definition, line) of each call of DiscreteString, by name or attribute."""
    return [
        (getattr(top, "name", None), node.lineno)
        for top in ast.parse(path.read_text(encoding="utf-8")).body
        for node in ast.walk(top)
        if isinstance(node, ast.Call)
        and "DiscreteString" in (getattr(node.func, "id", None), getattr(node.func, "attr", None))
    ]


def test_only_build_string_constructs_a_string():
    # every string the library computes (invert, dual, hat) comes out of build_string,
    # so only strings.py knows the canonical form
    package = pathlib.Path(kreinstring.__file__).parent
    calls = {path.name: _string_constructions(path) for path in sorted(package.rglob("*.py"))}
    assert {name for name, _ in calls.pop("strings.py")} == {"build_string"}
    assert calls == {name: [] for name in calls}


@pytest.mark.parametrize(
    "text", ["x,y\n0,0.5\n4,1\n5,inf\n", '"x","y"\r\n1,0.5\r\n\r\n4,"1"\r\n'], ids=["columns", "csv-rows"]
)
def test_parsing_checks_each_record_once(text, monkeypatch):
    def refuse(self):
        raise AssertionError("DiscreteString.__post_init__ ran on a parsed string")

    want = parse_string(text)
    monkeypatch.setattr(DiscreteString, "__post_init__", refuse)
    with pytest.raises(AssertionError):
        DiscreteString(want.jumps, want.terminal)
    assert parse_string(text) == want


# commands that need no numpy, run in order in one directory; later ones read
# what earlier ones wrote
PORTABLE_RUNS = [
    ["coeffs", "tanh", "-n", "40"],
    ["coeffs", "bessel-drift", "-n", "40", "--alpha", "0.5", "--beta", "2", "--c-const", "0.3989422804014327",
     "--out", "drift.json"],
    ["coeffs", "from-moments", "--in", "m.json", "--out", "st.json"],
    ["eval", "--coeffs", "drift.json", "--z", "-0.5"],
    ["eval", "--coeffs", "st.json", "--levy", "--lambda", "2"],
    ["eval", "--string", "s.csv", "--z", "-1"],
    ["dual", "--in", "s.csv", "--out", "dual.csv"],
    ["hat", "--in", "s.csv"],
    ["compare", "--approx", "s.csv", "--reference", "bm-drift", "--window", "5"],
]


def other_interpreters():
    """Each python3.N on PATH, N >= 11 and not the running minor version, that starts."""
    found = []
    for minor in range(11, 20):
        path = shutil.which("python3.%d" % minor)
        if path is None or minor == sys.version_info.minor:
            continue
        try:
            if subprocess.run([path, "-c", "pass"], capture_output=True, timeout=30).returncode == 0:
                found.append(path)
        except (OSError, subprocess.TimeoutExpired):
            pass  # a shim without its interpreter counts as absent
    return found


def _portable_outputs(python, directory, monkeypatch):
    """(exit code, stdout) of each PORTABLE_RUNS command in directory, and the files there after
    them; python None runs them in-process."""
    monkeypatch.chdir(directory)
    outputs = []
    for argv in PORTABLE_RUNS:
        if python is None:
            out = io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
                outputs.append((main(argv), out.getvalue()))
        else:
            done = subprocess.run([python, "-m", "kreinstring", *argv], env=dict(os.environ, PYTHONPATH=SRC),
                                  capture_output=True, text=True, timeout=60)
            outputs.append((done.returncode, done.stdout))
    return outputs, {path.name: path.read_bytes() for path in directory.iterdir()}


def test_other_interpreters_write_the_same_bytes(tmp_path, monkeypatch):
    interpreters = other_interpreters()
    if not interpreters:
        pytest.skip("no other python3.N (N >= 11) on PATH")
    p = PAPER_PARAMETERS
    string = render_string(invert(bessel_drift_coefficients(p["alpha"], p["beta"], p["c_const"], 63)))
    results = []
    for python in [None, *interpreters]:
        directory = tmp_path / str(len(results))
        directory.mkdir()
        write_files(directory)
        (directory / "s.csv").write_text(string)  # a computed string, not the hand-written one
        results.append(_portable_outputs(python, directory, monkeypatch))
    for python, result in zip(interpreters, results[1:]):
        assert result == results[0], python
