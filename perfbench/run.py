"""Benchmark of kreinstring: what its users wait for, end to end and per layer.

    python3 perfbench/run.py --workload drift-orders --seed 1 --seconds 30 --trace 0

The program is imported from the ``src`` directory of the checkout that holds
this file; nothing is installed.  With ``--trace 0`` the last line of standard
output is a JSON object with the end-to-end metrics, with ``--trace 1`` the
per-layer metrics.  See README.md in this directory.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from fractions import Fraction

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, "perfbench", "out")

# warm passes and start-up samples per round; an untraced round also runs one
# cold pass.  Sized so that a round takes 4-10 s on a 2-vCPU host.
ROUNDS = {"drift-orders": (3, 3), "uniform-cli": (6, 3), "exact-moments": (3, 3)}

# medians on the reference host of one probe() and of one fresh
# ``python3 -c "import numpy"``; see README.md, "Host speed"
PROBE_REFERENCE_S = 0.022
START_REFERENCE_S = 0.150
START_REFERENCE = "import numpy"
SPAWNS_PER_REFERENCE = 2
# a unit is scaled by the median of the reference runs that began within
# REFERENCE_WINDOW_S of it, or of the MIN_REFERENCES nearest if fewer did
REFERENCE_WINDOW_S = 2.0
MIN_REFERENCES = 3


def probe() -> float:
    """Fixed work apart from the program: a float loop, list passes and Fraction sums.

    It allocates next to nothing, so the peak memory of a run stays the program's.
    """
    acc = 0.0
    for i in range(150000):
        acc += (i % 7) * 0.5
    xs = [float(i) for i in range(2000)]
    for _ in range(60):
        xs = [x * 0.999 + 1.0 for x in xs]
    f = Fraction(0)
    for k in range(1, 400):
        f += Fraction(1, k)
    return acc + xs[-1] + float(f)


def spawn(argv, env):
    """Run a fresh interpreter to its end; return (exit code, stdout)."""
    done = subprocess.run(argv, env=env, cwd=ROOT, capture_output=True, text=True, timeout=120)
    return done.returncode, done.stdout


def reference_median(references, at, seconds):
    """Median duration of the reference runs around a unit of ``seconds`` centred at ``at``."""
    reach = seconds / 2.0 + REFERENCE_WINDOW_S
    near = [s for t, s in references if abs(t - at) <= reach]
    if len(near) < MIN_REFERENCES:
        near = [s for _, s in sorted(references, key=lambda ref: abs(ref[0] - at))[:MIN_REFERENCES]]
    return statistics.median(near)


class Clock:
    """Times units of work and scales them to reference-host seconds.

    Between units the clock runs fixed reference tasks that do not involve
    the program: ``probe()`` after every unit, and a fresh interpreter that
    imports numpy after every SPAWNS_PER_REFERENCE fresh interpreters.  A
    host that is slower for a while slows them with it.  When the run is
    over, each unit is scaled by the median of the reference runs close to
    it in time; single reference runs are too noisy to scale by.

    In-process work is multiplied by PROBE_REFERENCE_S over that median
    probe.  For a fresh interpreter, start-up and computation slow down
    apart: in some spells importing numpy takes 60% longer while the probe
    does not change.  So the part of its time that the numpy start covers
    counts as START_REFERENCE_S, and the rest is scaled like in-process work.
    """

    def __init__(self, env):
        self.env = env
        self.probes = []  # (start time, wall seconds) of each reference run
        self.starts = []
        self.units = []  # (label, midpoint time, wall seconds, fresh interpreter?)

    def _reference(self, runs, fn, *args):
        start = time.perf_counter()
        fn(*args)
        runs.append((start, time.perf_counter() - start))

    def _unit(self, label, spawned, fn, *args):
        start = time.perf_counter()
        result = fn(*args)
        seconds = time.perf_counter() - start
        self.units.append((label, start + seconds / 2.0, seconds, spawned))
        return result, len(self.units) - 1

    def time(self, label, fn, *args):
        """(fn(*args), unit index) of in-process work."""
        timed = self._unit(label, False, fn, *args)
        self._reference(self.probes, probe)
        return timed

    def time_spawns(self, label, argvs):
        """[((exit code, stdout), unit index)] of a fresh interpreter for each argv."""
        out = []
        for i, argv in enumerate(argvs):
            out.append(self._unit(label, True, spawn, argv, self.env))
            if (i + 1) % SPAWNS_PER_REFERENCE == 0 or i == len(argvs) - 1:
                self._reference(self.starts, spawn, [sys.executable, "-c", START_REFERENCE], self.env)
                self._reference(self.probes, probe)
        return out

    def factor(self, unit):
        """PROBE_REFERENCE_S over the median probe around the unit."""
        _, at, seconds, _ = self.units[unit]
        return PROBE_REFERENCE_S / reference_median(self.probes, at, seconds)

    def scaled(self, unit):
        """Reference-host seconds of a unit."""
        _, at, seconds, spawned = self.units[unit]
        if not spawned:
            return seconds * self.factor(unit)
        start = reference_median(self.starts, at, seconds)
        return START_REFERENCE_S + (seconds - start) * self.factor(unit)


class Run:
    def __init__(self, workload, env):
        self.wl = workload
        self.env = env
        self.clock = Clock(env)
        self.attempted = 0
        self.failed = 0
        self.problems = []

    def note(self, problems):
        for p in problems:
            if p not in self.problems:
                self.problems.append(p)

    def _warm(self):
        try:
            return self.wl.warm()
        except Exception as exc:  # an operation failed: count it and keep measuring
            self.note(["%s: %s" % (type(exc).__name__, exc)])
            return None

    def warm_pass(self):
        """One timed warm pass, checked afterwards: its unit index, or None if it failed."""
        wl = self.wl
        wl.done = 0
        out, unit = self.clock.time("warm", self._warm)
        self.attempted += wl.warm_ops
        self.failed += wl.warm_ops - wl.done
        if out is None or wl.done < wl.warm_ops:
            return None
        self.note(wl.check_warm(out))
        return unit

    def cold_pass(self):
        """The workload's CLI commands, each in a fresh interpreter; their unit indices."""
        commands = self.wl.cold_commands()
        timed = self.clock.time_spawns("cold", [[sys.executable, "-m", "kreinstring"] + argv for argv in commands])
        results = []
        for argv, ((code, stdout), _) in zip(commands, timed):
            results.append((argv, code, stdout))
            self.attempted += 1
            if code != 0:
                self.failed += 1
                self.note(["cold %s exited %d" % (" ".join(argv[:2]), code)])
        self.note(self.wl.check_cold(results))
        return [unit for _, unit in timed]

    def start_up(self, code, count, spawned=True):
        """Unit indices of ``count`` fresh ``python3 -c code``; spawned=False scales them by the probe alone."""
        argv = [sys.executable, "-c", code]
        if spawned:
            timed = self.clock.time_spawns(code, [argv] * count)
        else:
            timed = [self.clock.time(code, spawn, argv, self.env) for _ in range(count)]
        for (exit_code, _), _ in timed:
            if exit_code != 0:
                raise RuntimeError("python -c %r exited %d" % (code, exit_code))
        return [unit for _, unit in timed]


def warm_up(run):
    """Fill caches, finish lazy set-up and write the bytecode files before timing."""
    run.warm_pass()
    code, _ = spawn([sys.executable, "-m", "kreinstring", "--help"], run.env)
    if code != 0:
        raise RuntimeError("python -m kreinstring --help exited %d" % code)


def rounds(seconds):
    """Yield until the run has measured about ``seconds``, ending between whole rounds."""
    start = time.perf_counter()
    while True:
        begun = time.perf_counter()
        yield
        now = time.perf_counter()
        if now - start + (now - begun) / 2 >= seconds:
            return


def end_to_end(run, seconds):
    warm_n, setup_n = ROUNDS[run.wl.name]
    warm, cold, setup = [], [], []
    warm_up(run)
    for _ in rounds(seconds):
        for _ in range(warm_n):
            unit = run.warm_pass()
            if unit is not None:
                warm.append(unit)
        cold.append(run.cold_pass())
        setup += run.start_up("import kreinstring", setup_n)
    if not warm:
        raise RuntimeError("no warm pass completed")
    clock = run.clock
    print(
        "samples: %d warm, %d cold, %d setup; reference runs: probe median %.4f s (%d), numpy start median %.4f s (%d)"
        % (len(warm), len(cold), len(setup), statistics.median(s for _, s in clock.probes), len(clock.probes),
           statistics.median(s for _, s in clock.starts), len(clock.starts)),
        file=sys.stderr,
    )
    med = statistics.median
    return {
        "setup_s": (med(clock.scaled(u) for u in setup), "s"),
        "warm_s": (med(clock.scaled(u) for u in warm), "s"),
        "cold_s": (med(sum(clock.scaled(u) for u in units) for units in cold), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }


COUNTS = {
    "inversion.calls": "count",
    "inversion.levels": "count",
    "inversion.level_elements": "count",
    "inversion.records_computed": "count",
    "inversion.records_kept": "count",
    "evaluate.records_swept": "count",
    "serialization.bytes": "B",
    "moments.out": "count",
    "moments.max_bits": "bits",
    "cli.commands": "count",
}


def per_layer(run, seconds, spans_path):
    import spans

    warm_n, setup_n = ROUNDS[run.wl.name]
    tracer = spans.Tracer(run.wl.name)
    plain, passes = [], []  # passes: (unit index, total time per layer, self time per layer, counts)
    bare, imported = [], []
    warm_up(run)
    for _ in rounds(seconds):
        for _ in range(warm_n):
            unit = run.warm_pass()
            if unit is not None:
                plain.append(unit)
            tracer.begin(len(passes) + 1)
            unit = run.warm_pass()
            total, own, counts = tracer.end()
            if unit is not None:
                passes.append((unit, total, own, counts))
        bare += run.start_up("pass", setup_n, spawned=False)
        imported += run.start_up("import kreinstring", setup_n, spawned=False)
    if not passes:
        raise RuntimeError("no traced pass completed")
    clock = run.clock
    med = statistics.median

    def layer(index, span):
        """Median over traced passes of a layer's scaled total (index 1) or self (2) time."""
        return med(p[index].get(span, 0.0) * clock.factor(p[0]) for p in passes)

    counts = passes[0][3]
    if any(p[3] != counts for p in passes):
        run.note(["counts differ between traced passes"])
    metrics = {}
    for span in spans.LAYERS:
        metrics[span + "_s"] = (layer(1, span), "s")
    for name, unit in COUNTS.items():
        metrics[name] = (counts.get(name, 0), unit)
    invert_s = metrics["inversion.invert_s"][0]
    elements = counts.get("inversion.level_elements", 0)
    metrics["inversion.elements_per_s"] = (elements / invert_s if invert_s > 0 else 0.0, "1/s")
    computed = counts.get("inversion.records_computed", 0)
    kept = counts.get("inversion.records_kept", 0)
    metrics["inversion.kept_ratio"] = (kept / computed if computed else 0.0, "ratio")
    # cli.main's self time: the part of each command not spent in the layer calls under it
    metrics["cli.overhead_s"] = (layer(2, "cli.main"), "s")
    start_s = med(clock.scaled(u) for u in bare)
    metrics["python.start_s"] = (start_s, "s")
    metrics["kreinstring.import_s"] = (med(clock.scaled(u) for u in imported) - start_s, "s")
    traced_s = med(clock.scaled(p[0]) for p in passes)
    metrics["trace.warm_s"] = (traced_s, "s")
    metrics["trace.overhead_s"] = (traced_s - med(clock.scaled(u) for u in plain), "s")
    metrics["host.speed"] = (med(clock.factor(p[0]) for p in passes), "ratio")

    layers = {span: {"total_s": layer(1, span), "self_s": layer(2, span)} for span in spans.LAYERS}
    summary = {"workload": run.wl.name, "host_speed": metrics["host.speed"][0], "layers": layers, "counts": counts}
    tracer.write(spans_path, summary)
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="kreinstring benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(ROUNDS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "kreinstring", "__init__.py")):
        print("error: no kreinstring sources under %s; run from a source checkout" % SRC, file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    import kreinstring
    import workloads

    if not os.path.abspath(kreinstring.__file__).startswith(SRC + os.sep):
        print("error: kreinstring was imported from %s, not %s" % (kreinstring.__file__, SRC), file=sys.stderr)
        return 2
    env = dict(os.environ, PYTHONPATH=SRC)
    workdir = os.path.join(OUT, "work-%s-%d" % (args.workload, os.getpid()))
    os.makedirs(workdir)
    os.chdir(ROOT)
    try:
        run = Run(workloads.WORKLOADS[args.workload](args.seed, os.path.relpath(workdir, ROOT)), env)
        if args.trace:
            spans_path = os.path.join(OUT, "spans-%s-seed%d.json" % (args.workload, args.seed))
            metrics = per_layer(run, args.seconds, spans_path)
        else:
            metrics = end_to_end(run, args.seconds)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    clock = run.clock
    with open(os.path.join(OUT, "samples-%s-seed%d-trace%d.json" % (args.workload, args.seed, args.trace)), "w") as f:
        json.dump({"units": clock.units, "probes": clock.probes, "starts": clock.starts}, f)
    for p in run.problems:
        print("check failed: %s" % p, file=sys.stderr)
    result = {
        "correct": not run.problems,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
