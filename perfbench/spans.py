"""Spans and counts around the calls into each kreinstring layer.

The untraced run calls the program unchanged.  For a traced pass, wrappers
replace the layer functions at the module attributes through which they are
called: the package namespace (the benchmark's own calls), ``kreinstring.cli``
(commands run in-process), ``kreinstring.serialization`` (``validate_string``
on parsed rows) and ``kreinstring.moments`` (the exact conversion under
``coefficients_from_moments``).  Calls that a layer makes within its own
module, such as ``levy_exponent`` calling ``eval_fraction``, stay unwrapped,
so no time is counted twice under one name.  The wrappers are removed after
each traced pass.

Spans are kept in memory and written out once, when the run ends.
"""

from __future__ import annotations

import importlib
import json
import time
from collections import defaultdict

# span name -> (defining module, functions it covers)
LAYERS = {
    "families.generate": ("families", ("tanh_coefficients", "bessel_drift_coefficients", "log_limit_coefficients")),
    "inversion.invert": ("inversion", ("invert",)),
    "metrics.error": ("metrics", ("sup_error", "averaged_error")),
    "evaluate.char_function": ("evaluate", ("char_function",)),
    "evaluate.eval_fraction": ("evaluate", ("eval_fraction", "levy_exponent")),
    "transforms.dual": ("transforms", ("dual",)),
    "transforms.hat": ("transforms", ("remove_zero_atom",)),
    "strings.validate": ("strings", ("validate_string",)),
    "serialization.render": ("serialization", ("render_coefficients", "render_string", "render_report", "render_study", "render_study_csv")),
    "serialization.parse": ("serialization", ("parse_coefficients", "parse_string", "parse_moments")),
    "moments.exact": ("moments", ("stieltjes_from_moments_exact",)),
    "cli.main": ("cli", ("main",)),
}

# module whose attributes are replaced -> the layers replaced there (None: all)
SITES = {
    "kreinstring": None,
    "kreinstring.cli": None,
    "kreinstring.serialization": ("strings.validate", "serialization.render", "serialization.parse"),
    "kreinstring.moments": ("moments.exact",),
}


def level_elements(n: int) -> int:
    """Array elements the level loop of ``invert`` works on, for order n.

    The difference-form arrays entering level m hold m // 2 entries: each odd
    level adds one gap, each even level keeps the count.
    """
    return sum(m // 2 for m in range(1, n + 1))


def records_computed(n: int, terminal: bool) -> int:
    """Records of the final level, before folding and merging.

    The final level holds n // 2 time-changed gaps past the origin, plus the
    first plateau when n is odd; a terminal string spends its last position
    on the terminal point.
    """
    if n == 0:
        return 1
    positions = n // 2 + (2 if n % 2 else 1)
    return positions - 1 if terminal else positions


def _count_invert(args, result, counts):
    n = len(args[0].coefficients) - 1
    counts["inversion.calls"] += 1
    counts["inversion.levels"] += n
    counts["inversion.level_elements"] += level_elements(n)
    counts["inversion.records_computed"] += records_computed(n, result.terminal is not None)
    counts["inversion.records_kept"] += len(result.jumps)


def _count_char_function(args, result, counts):
    counts["evaluate.records_swept"] += len(args[0].jumps)


def _count_render(args, result, counts):
    counts["serialization.bytes"] += len(result.encode())


def _count_parse(args, result, counts):
    counts["serialization.bytes"] += len(args[0].encode())


def _count_moments(args, result, counts):
    coeffs = result[0]
    counts["moments.out"] += len(coeffs)
    bits = max((max(v.numerator.bit_length(), v.denominator.bit_length()) for v in coeffs), default=0)
    counts["moments.max_bits"] = max(counts["moments.max_bits"], bits)


def _count_cli(args, result, counts):
    counts["cli.commands"] += 1


COUNTERS = {
    "inversion.invert": _count_invert,
    "evaluate.char_function": _count_char_function,
    "serialization.render": _count_render,
    "serialization.parse": _count_parse,
    "moments.exact": _count_moments,
    "cli.main": _count_cli,
}


class Tracer:
    """Installs the wrappers for one pass at a time and keeps what they record."""

    def __init__(self, workload: str):
        self.workload = workload
        self.spans = []  # (id, name, start, end, parent, workload, pass)
        self._stack = []
        self._pass = 0
        self._counts = defaultdict(int)
        wrappers = {}
        for span, (module, names) in LAYERS.items():
            mod = importlib.import_module("kreinstring." + module)
            for name in names:
                fn = getattr(mod, name)
                wrappers[id(fn)] = (fn, span, self._wrap(span, fn))
        self._patches = []  # (module, attribute, original, wrapper)
        for site, layers in SITES.items():
            mod = importlib.import_module(site)
            for attr, value in list(vars(mod).items()):
                hit = wrappers.get(id(value))
                if hit is not None and hit[0] is value and (layers is None or hit[1] in layers):
                    self._patches.append((mod, attr, value, hit[2]))

    def _wrap(self, span, fn):
        counter = COUNTERS.get(span)

        def traced(*args, **kwargs):
            sid = len(self.spans)
            parent = self._stack[-1] if self._stack else None
            self.spans.append(None)
            self._stack.append(sid)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                self._stack.pop()
                self.spans[sid] = (sid, span, start, end, parent, self.workload, self._pass)
            if counter is not None:
                counter(args, result, self._counts)
            return result

        return traced

    def begin(self, pass_no: int) -> None:
        self._pass = pass_no
        self._counts = defaultdict(int)
        self._first = len(self.spans)
        for mod, attr, _, wrapper in self._patches:
            setattr(mod, attr, wrapper)

    def end(self):
        """Remove the wrappers; return the pass's (total, self) time per layer and its counts.

        A span's self time is its duration minus that of its child spans.
        """
        for mod, attr, original, _ in self._patches:
            setattr(mod, attr, original)
        spans = self.spans[self._first:]
        children = defaultdict(float)
        for _, _, start, end, parent, _, _ in spans:
            if parent is not None:
                children[parent] += end - start
        total = defaultdict(float)
        own = defaultdict(float)
        for sid, name, start, end, _, _, _ in spans:
            total[name] += end - start
            own[name] += end - start - children[sid]
        return dict(total), dict(own), dict(self._counts)

    def write(self, path: str, summary: dict) -> None:
        keys = ("id", "name", "start", "end", "parent", "workload", "pass")
        with open(path, "w", encoding="utf-8") as f:
            json.dump(dict(summary, spans=[dict(zip(keys, s)) for s in self.spans]), f)
            f.write("\n")
