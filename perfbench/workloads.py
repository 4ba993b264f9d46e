"""The three benchmark workloads: inputs, one warm pass, the cold commands, checks.

A warm pass calls the public library (or ``cli.main`` in-process) and returns
its outputs; the checks then run outside the timed region.  Every expected
value is computed here, apart from the program: closed forms, exact rational
evaluation, and properties of the method.  Nothing is compared with a stored
copy of earlier output.

Inputs depend on the seed only in ways that leave the amount of work alone
(evaluation points, small shifts of the order, the atoms of a measure of fixed
size), so run-to-run spread measures the host and the program, not the inputs.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import math
import os
import random
from fractions import Fraction

import kreinstring as K
import kreinstring.cli as CLI
import kreinstring.serialization as SER

# the paper's parameters: alpha = 1/2, beta = 2, gamma = c * Gamma(1/2) * 2^(1/2) = 1
ALPHA, BETA = 0.5, 2.0
C_CONST = 1.0 / math.sqrt(2.0 * math.pi)
DRIFT_ORDERS = (63, 127, 255, 511, 1023, 2047, 4095)
LOG_LIMIT_ORDER = 4000


def drift_mass(x):
    return 2.0 * x / (1.0 + 4.0 * x)


def slope(ns, errs):
    """Least-squares slope of log(err) against log(n)."""
    xs = [math.log(n) for n in ns]
    ys = [math.log(e) for e in errs]
    mx, my = sum(xs) / len(xs), sum(ys) / len(ys)
    return sum((x - mx) * (y - my) for x, y in zip(xs, ys)) / sum((x - mx) ** 2 for x in xs)


def rel(a, b):
    return abs(a - b) / abs(b) if b != 0.0 else abs(a)


class Workload:
    """Inputs and checks of one workload; ``warm_ops`` counts the calls a warm pass makes."""

    name = ""
    warm_ops = 0

    def __init__(self, seed: int, workdir: str):
        self.rng = random.Random(seed)
        self.workdir = workdir
        self.done = 0  # operations completed in the current pass

    def op(self, fn, *args):
        result = fn(*args)
        self.done += 1
        return result

    def path(self, name):
        return os.path.join(self.workdir, name)


class DriftOrders(Workload):
    """Bessel-drift family over a doubling ladder of orders, plus log-limit."""

    name = "drift-orders"

    def __init__(self, seed, workdir):
        super().__init__(seed, workdir)
        self.z_grid = [-(10.0 ** self.rng.uniform(-1.0, 1.0)) for _ in range(4)]
        per_order = 4 + 2 * len(self.z_grid)
        self.warm_ops = per_order * len(DRIFT_ORDERS) + 3

    def warm(self):
        op = self.op
        out = {"orders": []}
        for n in DRIFT_ORDERS:
            cf = op(K.bessel_drift_coefficients, ALPHA, BETA, C_CONST, n)
            s = op(K.invert, cf)
            raw = op(K.sup_error, s, drift_mass, 5.0)
            avg = op(K.averaged_error, s, drift_mass, 5.0)
            pairs = [(op(K.char_function, s, z), op(K.eval_fraction, cf, z)) for z in self.z_grid]
            out["orders"].append({"n": n, "s0": cf.coefficients[0], "string": s,
                                  "raw": raw.value, "avg": avg.value, "pairs": pairs})
        ll = op(K.log_limit_coefficients, BETA, LOG_LIMIT_ORDER)
        out["log_limit_string"] = op(K.invert, ll)
        out["log_limit_s0"] = ll.coefficients[0]
        out["log_limit_w"] = op(K.eval_fraction, ll, -1.0)
        return out

    def check_warm(self, out):
        bad = []
        ns = [o["n"] for o in out["orders"]]
        raw = slope(ns, [o["raw"] for o in out["orders"]])
        avg = slope(ns, [o["avg"] for o in out["orders"]])
        if not -0.6 <= raw <= -0.4:
            bad.append("raw slope %.4f outside [-0.6, -0.4]" % raw)
        if not -1.1 <= avg <= -0.9:
            bad.append("averaged slope %.4f outside [-1.1, -0.9]" % avg)
        plateaus = [(o["n"], o["string"], o["s0"]) for o in out["orders"]]
        plateaus.append(("log-limit", out["log_limit_string"], out["log_limit_s0"]))
        for n, s, s0 in plateaus:
            if rel(s.jumps[-1][1], 1.0 / s0) > 1e-12:
                bad.append("n=%s: last plateau %r is not 1/s_0" % (n, s.jumps[-1][1]))
        for o in out["orders"]:
            for z, (w_string, w_fraction) in zip(self.z_grid, o["pairs"]):
                if rel(w_string, w_fraction) > 1e-10:
                    bad.append("n=%d z=%g: char_function %r vs eval_fraction %r" % (o["n"], z, w_string, w_fraction))
        want = 2.0 / math.log(1.5)
        if abs(out["log_limit_w"] - want) > 1e-2:
            bad.append("log-limit W(-1) %r not within 1e-2 of 2/log 1.5" % out["log_limit_w"])
        return bad

    def cold_commands(self):
        n_list = ",".join(str(n) for n in DRIFT_ORDERS)
        base = ["study", "--family", "bessel-drift", "--n-list", n_list, "--reference", "bm-drift"]
        return [base, base + ["--averaged"]]

    def check_cold(self, results):
        bad = []
        for (argv, code, stdout), (lo, hi) in zip(results, ((-0.6, -0.4), (-1.1, -0.9))):
            if code != 0:
                continue
            study = json.loads(stdout)
            if [e[0] for e in study["entries"]] != list(DRIFT_ORDERS):
                bad.append("study entries %r" % study["entries"])
            if not lo <= study["slope"] <= hi:
                bad.append("study %s slope %r outside [%g, %g]" % (study["metric"], study["slope"], lo, hi))
        return bad


class UniformCli(Workload):
    """The tanh (unit-impedance) string through every CLI command, with files."""

    name = "uniform-cli"

    def __init__(self, seed, workdir):
        super().__init__(seed, workdir)
        self.orders = (1000 + self.rng.randrange(16), 2000 + self.rng.randrange(16))
        self.z = -self.rng.uniform(0.5, 8.0)
        self.lam = self.rng.uniform(0.5, 8.0)
        self.commands = []
        for n in self.orders:
            c, s, d, h = (self.path("%s%d.%s" % (k, n, ext)) for k, ext in
                          (("coeffs", "json"), ("string", "csv"), ("dual", "csv"), ("hat", "csv")))
            z, lam = repr(self.z), repr(self.lam)
            self.commands += [
                ["coeffs", "tanh", "-n", str(n), "--out", c],
                ["invert", "--in", c, "--out", s],
                ["compare", "--approx", s, "--reference", "uniform", "--window", "0.9",
                 "--out", self.path("raw%d.json" % n)],
                ["compare", "--approx", s, "--reference", "uniform", "--window", "0.9", "--averaged",
                 "--out", self.path("avg%d.json" % n)],
                ["eval", "--string", s, "--z", z],
                ["eval", "--coeffs", c, "--z", z],
                ["eval", "--coeffs", c, "--levy", "--lambda", lam],
                ["dual", "--in", s, "--out", d],
                ["hat", "--in", d, "--out", h],
                ["eval", "--string", d, "--z", z],
                ["eval", "--string", h, "--z", z],
            ]
        # each command, plus parse and re-render of the largest string file
        self.warm_ops = len(self.commands) + 2

    def warm(self):
        results = []
        for argv in self.commands:
            stdout = io.StringIO()
            with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(io.StringIO()):
                code = CLI.main(argv)
            results.append((argv, code, stdout.getvalue()))
            if code != 0:
                return {"results": results}
            self.done += 1
        text = self.read(self.path("string%d.csv" % self.orders[-1]))
        parsed = self.op(SER.parse_string, text)
        return {"results": results, "csv": text, "rerendered": self.op(SER.render_string, parsed)}

    def cold_commands(self):
        return self.commands

    def read(self, path):
        with open(path, "r", encoding="utf-8") as f:
            return f.read()

    def check_warm(self, out):
        bad = self.check_cold(out["results"])
        if out.get("rerendered") != out.get("csv"):
            bad.append("parsed string file does not re-render to the same bytes")
        return bad

    def check_cold(self, results):
        """Check command outputs and the files they wrote, against closed forms."""
        bad = []
        codes = [code for _, code, _ in results]
        if codes != [0] * len(self.commands):
            return ["exit codes %r" % codes]
        per_order = len(results) // len(self.orders)
        r = math.sqrt(-self.z)
        w_exact = math.tanh(r) / r
        levy_exact = math.sqrt(self.lam) / math.tanh(math.sqrt(self.lam))
        for i, n in enumerate(self.orders):
            out = [float(stdout) if stdout else None for _, _, stdout in results[i * per_order:(i + 1) * per_order]]
            w_string, w_coeffs, levy, w_dual, w_hat = out[4], out[5], out[6], out[9], out[10]
            jumps, terminal = self.read_csv(self.path("string%d.csv" % n))
            djumps, _ = self.read_csv(self.path("dual%d.csv" % n))
            total = djumps[-1][1]
            for what, got, want in (
                ("eval --string", w_string, w_exact),
                ("eval --coeffs", w_coeffs, w_exact),
                ("eval --levy", levy, levy_exact),
                ("dual identity", w_dual, 1.0 / (-self.z * w_string)),
                ("zero-atom identity", w_hat, w_dual + 1.0 / (self.z * total)),
            ):
                if rel(got, want) > 1e-9:
                    bad.append("n=%d %s: %r, expected %r" % (n, what, got, want))
            if terminal is None or abs(terminal - 1.0) > 0.05:
                bad.append("n=%d terminal %r not within 0.05 of 1" % (n, terminal))
            if len(jumps) != (n + 1) // 2:  # the uniform string keeps every record it computes
                bad.append("n=%d: %d records, expected %d" % (n, len(jumps), (n + 1) // 2))
            for kind, bound in (("raw", 0.05), ("avg", 0.02)):
                report = json.loads(self.read(self.path("%s%d.json" % (kind, n))))
                if not 0.0 < report["value"] <= bound:
                    bad.append("n=%d %s error %r not in (0, %g]" % (n, kind, report["value"], bound))
        return bad

    def read_csv(self, path):
        """Jump records and terminal of a string file, read without the program."""
        with open(path, "r", encoding="utf-8") as f:
            rows = list(csv.reader(f))
        jumps = [(float(x), float(y)) for x, y in rows[1:]]
        terminal = None
        if jumps and math.isinf(jumps[-1][1]):
            terminal = jumps.pop()[0]
        return jumps, terminal


def drift_moments(count):
    """Spectral moments behind the drift family at alpha = 1/2, beta = 2, gamma = 1.

    The k-th moment is (-1)^k (gamma/alpha) binom(alpha, k+1) / beta^(k+1).
    """
    alpha, beta, gamma = Fraction(1, 2), Fraction(2), Fraction(1)
    out = []
    binom = Fraction(1)
    for k in range(count):
        binom = binom * (alpha - k) / (k + 1)  # binom(alpha, k+1)
        out.append((-1) ** k * (gamma / alpha) * binom / beta ** (k + 1))
    return out


def stieltjes_value(coeffs, z):
    """Exact value of 1/(-s_0 z + 1/(s_1 + 1/(-s_2 z + ...)))."""
    n = len(coeffs) - 1
    u = -coeffs[n] * z if n % 2 == 0 else coeffs[n]
    for i in range(n - 1, -1, -1):
        u = (-coeffs[i] * z if i % 2 == 0 else coeffs[i]) + 1 / u
    return 1 / u


class ExactMoments(Workload):
    """Exact moment conversion: Lebesgue ladder, drift moments, atomic measures."""

    name = "exact-moments"
    LEBESGUE = (24, 48, 72, 96)
    DRIFT = 40
    ATOMS = (2, 4, 6, 8)

    def __init__(self, seed, workdir):
        super().__init__(seed, workdir)
        rng = self.rng
        self.lebesgue = [[Fraction(1, k + 1) for k in range(n)] for n in self.LEBESGUE]
        self.drift = drift_moments(self.DRIFT)
        self.measures = []
        for k in self.ATOMS:
            nodes = set()
            while len(nodes) < k:
                nodes.add(Fraction(rng.randint(1, 40), rng.randint(1, 12)))
            atoms = [(lam, Fraction(rng.randint(1, 30), rng.randint(1, 10))) for lam in sorted(nodes)]
            self.measures.append((atoms, [sum(w * lam ** j for lam, w in atoms) for j in range(2 * k + 2)]))
        self.z_near = [-(10.0 ** rng.uniform(-2.3, -1.5)) for _ in range(3)]
        self.z_exact = [-Fraction(rng.randint(1, 20), rng.randint(1, 5)) for _ in range(3)]
        self.warm_ops = (
            len(self.lebesgue) * (2 + len(self.z_near))
            + 3 + len(self.z_exact)
            + len(self.measures) * (3 + len(self.z_exact))
        )
        self.cold_inputs = [("lebesgue", self.lebesgue[2]), ("drift", self.drift),
                            ("atomic", self.measures[-1][1])]
        self.expected_cold = None  # the warm call on the cold inputs, made at the first check
        for name, moments in self.cold_inputs:
            with open(self.path("%s.json" % name), "w", encoding="utf-8") as f:
                f.write(json.dumps({"c": [str(c) for c in moments]}))

    def warm(self):
        op = self.op
        out = {"lebesgue": [], "measures": []}
        for moments in self.lebesgue:
            cf = op(K.coefficients_from_moments, moments)
            report = op(K.determinacy_diagnostic, cf, len(moments))
            out["lebesgue"].append((cf, report, [op(K.eval_fraction, cf, z) for z in self.z_near]))
        exact, terminated = op(K.stieltjes_from_moments_exact, self.drift)
        cf = op(K.coefficients_from_moments, self.drift)
        report = op(K.determinacy_diagnostic, cf, self.DRIFT)
        out["drift"] = (exact, terminated, cf, report, [op(K.eval_fraction, cf, float(z)) for z in self.z_exact])
        for atoms, moments in self.measures:
            exact, terminated = op(K.stieltjes_from_moments_exact, moments)
            cf = op(K.coefficients_from_moments, moments)
            report = op(K.determinacy_diagnostic, cf, len(moments))
            values = [op(K.eval_fraction, cf, float(z)) for z in self.z_exact]
            out["measures"].append((exact, terminated, cf, report, values))
        return out

    def check_warm(self, out):
        bad = []
        prev = None
        for n, (cf, report, values) in zip(self.LEBESGUE, out["lebesgue"]):
            errs = [rel(w, math.log(1.0 - 1.0 / z)) for w, z in zip(values, self.z_near)]
            if prev is not None and any(e > p and e > 1e-13 for e, p in zip(errs, prev)):
                bad.append("Lebesgue n=%d: error %r grew from %r" % (n, errs, prev))
            if len(cf.coefficients) != n or cf.terminated:
                bad.append("Lebesgue n=%d: %d coefficients, terminated=%s" % (n, len(cf.coefficients), cf.terminated))
            if not report.verdict.startswith("divergence observed"):
                bad.append("Lebesgue n=%d verdict %r" % (n, report.verdict))
            prev = errs
        if max(prev) > 1e-4:
            bad.append("Lebesgue fraction %r not near log(1 - 1/z)" % prev)
        exact, terminated, cf, report, values = out["drift"]
        want = [Fraction(2) if j % 2 == 0 else Fraction(4) for j in range(self.DRIFT)]
        if exact != want or terminated:
            bad.append("drift moments do not give 2, 4, 2, 4, ...")
        if list(cf.coefficients) != [float(v) for v in want]:
            bad.append("drift float coefficients differ from 2, 4, 2, 4, ...")
        if not report.verdict.startswith("divergence observed"):
            bad.append("drift verdict %r" % report.verdict)
        for z, w in zip(self.z_exact, values):
            if rel(w, float(stieltjes_value(want, z))) > 1e-12:
                bad.append("drift fraction at z=%s: %r" % (z, w))
        for (atoms, _), (exact, terminated, cf, report, values) in zip(self.measures, out["measures"]):
            k = len(atoms)
            if len(exact) != 2 * k or not terminated or not cf.terminated:
                bad.append("%d-atom measure: %d coefficients, terminated=%s" % (k, len(exact), terminated))
            if report.verdict != "terminating (determinate)":
                bad.append("%d-atom measure verdict %r" % (k, report.verdict))
            if cf.coefficients != tuple(float(v) for v in exact):
                bad.append("%d-atom measure: float coefficients differ from the exact ones" % k)
            for z, w in zip(self.z_exact, values):
                want_z = sum(wt / (lam - z) for lam, wt in atoms)
                if stieltjes_value(exact, z) != want_z:
                    bad.append("%d-atom measure: fraction at z=%s is not sum w/(lambda - z)" % (k, z))
                if rel(w, float(want_z)) > 1e-12:
                    bad.append("%d-atom measure: eval_fraction at z=%s gives %r" % (k, z, w))
        return bad

    def cold_commands(self):
        cmds = []
        z = repr(self.z_near[0])
        for name, _ in self.cold_inputs:
            out = self.path("%s-coeffs.json" % name)
            cmds.append(["coeffs", "from-moments", "--in", self.path("%s.json" % name), "--out", out])
            cmds.append(["eval", "--coeffs", out, "--z", z])
        return cmds

    def check_cold(self, results):
        """The files and values of the CLI match the warm call on the same moments."""
        bad = []
        z = self.z_near[0]
        if self.expected_cold is None:
            self.expected_cold = {name: K.coefficients_from_moments(c) for name, c in self.cold_inputs}
        for i, (name, _) in enumerate(self.cold_inputs):
            (_, code_c, _), (_, code_e, stdout) = results[2 * i], results[2 * i + 1]
            if code_c != 0 or code_e != 0:
                continue
            with open(self.path("%s-coeffs.json" % name), "r", encoding="utf-8") as f:
                data = json.load(f)
            want = self.expected_cold[name]
            if data["form"] != "stieltjes" or [float(v) for v in data["s"]] != list(want.coefficients):
                bad.append("%s: CLI coefficients differ from the warm call" % name)
            if data.get("terminated", False) != want.terminated:
                bad.append("%s: CLI termination flag differs from the warm call" % name)
            value = float(stdout)
            if rel(value, K.eval_fraction(want, z)) > 1e-12:
                bad.append("%s: CLI eval %r differs from eval_fraction" % (name, value))
        return bad


WORKLOADS = {w.name: w for w in (DriftOrders, UniformCli, ExactMoments)}
