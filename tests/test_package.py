import os
import subprocess
import sys

import pytest

import kreinstring

SRC = os.path.dirname(os.path.dirname(os.path.abspath(kreinstring.__file__)))

# Runs one command in a fresh interpreter and reports on stderr, after the
# command's own output, whether numpy was loaded.
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
    "dual": ["dual", "--in", "s.csv"],
    "hat": ["hat", "--in", "s.csv"],
    "compare": ["compare", "--approx", "s.csv", "--reference", "uniform"],
    "compare-averaged": ["compare", "--approx", "s.csv", "--reference", "bm-drift", "--averaged"],
}


def fresh_python(code, *argv, cwd=None):
    """Run code with argv in a fresh interpreter that imports the package from SRC."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")])))
    done = subprocess.run(
        [sys.executable, "-c", code, *argv], cwd=cwd, env=env, capture_output=True, text=True, timeout=60
    )
    assert done.returncode == 0, done.stderr
    return done


def numpy_loaded_after(argv, tmp_path):
    for name, text in FILES.items():
        (tmp_path / name).write_text(text)
    done = fresh_python(PROBE, *argv, cwd=tmp_path)
    return done.stderr.splitlines()[-1] == "numpy loaded: True"


def test_star_import_resolves_every_exported_name():
    namespace = {}
    exec("from kreinstring import *", namespace)  # a stale __all__ entry raises here
    assert set(kreinstring.__all__) <= set(namespace)


@pytest.mark.parametrize("argv", list(WITHOUT_NUMPY.values()), ids=list(WITHOUT_NUMPY))
def test_command_starts_without_numpy(argv, tmp_path):
    assert not numpy_loaded_after(argv, tmp_path)


def test_invert_loads_numpy(tmp_path):
    # the guard above can fail: the level loop of ``invert`` does use arrays
    assert numpy_loaded_after(["invert", "--in", "c.json"], tmp_path)


def test_import_builds_no_parser():
    # the command-line parser is built on the first main() call, not at import
    done = fresh_python("import kreinstring.cli as cli; print(cli._build_parser.cache_info().currsize)")
    assert done.stdout == "0\n"
