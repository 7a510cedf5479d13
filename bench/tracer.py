"""Spans around calls into the evebounds modules, for the traced run.

`install` replaces each traced function by a wrapper in every evebounds
namespace that binds it (modules import functions by name, so patching
only the defining module would miss most calls), and `restore` puts the
originals back.  Spans stay in memory as tuples
(name, start, end, parent index, op id) until `write_spans`.

Only the functions that the per-layer metrics name are wrapped, so the
self time of a span includes its unwrapped helpers.  Self time is a span's
duration minus the time its direct child spans cover; calls are
single-threaded and nested, so children never overlap.
"""

import functools
import importlib
import json
import statistics
import subprocess
import sys
import time
from collections import defaultdict

# (span name, module, function).  Several functions may share a span name.
FUNCTIONS = [
    ("cli.run_scan", "cli", "run_scan"),
    ("cloner.displaced_thermal_ensemble", "cloner", "displaced_thermal_ensemble"),
    ("cloner.eve_reduced_covariance", "cloner", "eve_reduced_covariance"),
    ("blochmessiah.bloch_messiah", "blochmessiah", "bloch_messiah"),
    ("blochmessiah.factors_to_circuit", "blochmessiah", "factors_to_circuit"),
    ("linalg.matched_svd", "linalg", "matched_svd"),
    ("linalg.principal_sqrt", "linalg", "principal_sqrt"),
    ("unitaries.from_symplectic", "unitaries", "from_symplectic"),
    ("unitaries.switch_rules", "unitaries", "switch_disp_squeezer"),
    ("unitaries.switch_rules", "unitaries", "switch_squeezer_rotation"),
    ("unitaries.switch_rules", "unitaries", "switch_disp_rotation"),
    ("states.williamson_standard_two_mode", "states", "williamson_standard_two_mode"),
    ("states.entropy_from_cov", "states", "entropy_from_cov"),
    ("bounds.gram_matrix", "bounds", "gram_matrix"),
    ("bounds.gram_entropy", "bounds", "gram_entropy"),
    ("bounds.eb_qpsk_entropy", "bounds", "eb_qpsk_entropy"),
    ("fock.eb_z4", "fock", "eb_z4"),
    ("fock.eve_exact_entropy", "fock", "eve_exact_entropy"),
    ("fock.fock_bs", "fock", "fock_bs"),
    ("fock.fock_entropy", "fock", "fock_entropy"),
    ("fock.apply_generator", "fock", "apply_generator"),
]
# Classes whose __post_init__ validation is timed as `states.validation`.
VALIDATED = ["GaussianState", "SymplecticMap", "StandardTwoModeCov"]

# Reported per op; spans that never ran report 0.
CALLS = [
    "cloner.displaced_thermal_ensemble", "cloner.eve_reduced_covariance",
    "blochmessiah.bloch_messiah", "states.williamson_standard_two_mode",
    "states.entropy_from_cov", "states.validation", "bounds.gram_matrix", "fock.eb_z4",
    "fock.eve_exact_entropy", "fock.fock_bs", "fock.fock_entropy", "fock.apply_generator",
]
SELF_MS = [
    "cli.run_scan", "cloner.displaced_thermal_ensemble", "blochmessiah.bloch_messiah",
    "blochmessiah.factors_to_circuit", "linalg.matched_svd", "linalg.principal_sqrt",
    "unitaries.from_symplectic", "unitaries.switch_rules",
    "states.williamson_standard_two_mode", "states.entropy_from_cov", "states.validation",
    "bounds.gram_matrix", "bounds.gram_entropy", "bounds.eb_qpsk_entropy", "fock.eb_z4",
    "fock.eve_exact_entropy", "fock.fock_bs", "fock.fock_entropy", "fock.apply_generator",
]
OP = "op"


class Tracer:
    def __init__(self):
        self.spans = []
        self.counts = defaultdict(int)
        self._stack = []
        self._op = -1
        self._patches = []
        self.suite_names = []

    def wrap(self, name, fn, count=None):
        """fn with a span named `name` around each call.  count(args), if
        given, returns a (counter, amount) to add before the call."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if count is not None:
                key, value = count(args)
                self.counts[key] += value
            return self._span(name, fn, args, kwargs)

        return traced

    def run_op(self, op_id, fn, *args):
        """fn(*args) under a root span; every span inside carries op_id."""
        self._op = op_id
        return self._span(OP, fn, args, {})

    def _span(self, name, fn, args, kwargs):
        spans, stack = self.spans, self._stack
        index = len(spans)
        spans.append(None)
        parent = stack[-1] if stack else -1
        stack.append(index)
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            stack.pop()
            spans[index] = (name, start, end, parent, self._op)

    def install(self, package):
        """Patch the traced functions in every loaded module of `package`."""
        prefix = package.__name__ + "."
        for module in {m for _, m, _ in FUNCTIONS} | {"states", "checks"}:
            importlib.import_module(prefix + module)
        namespaces = [m for n, m in sorted(sys.modules.items())
                      if n == package.__name__ or n.startswith(prefix)]
        modules = {m.__name__[len(prefix):]: m for m in namespaces if m is not package}
        for name, module, attr in FUNCTIONS:
            original = getattr(modules[module], attr)
            count = _fock_entropy_work if name == "fock.fock_entropy" else None
            traced = self.wrap(name, original, count)
            for ns in namespaces:
                for key, value in list(vars(ns).items()):
                    if value is original:
                        self._patches.append((ns, key, original))
                        setattr(ns, key, traced)
        for cls_name in VALIDATED:
            cls = getattr(modules["states"], cls_name)
            original = cls.__dict__["__post_init__"]
            self._patches.append((cls, "__post_init__", original))
            cls.__post_init__ = self.wrap("states.validation", original)
        checks = modules["checks"]
        self._patches.append((checks, "SUITES", checks.SUITES))
        self.suite_names = [f"checks.{s.__name__.removeprefix('check_')}" for s in checks.SUITES]
        checks.SUITES = tuple(self.wrap(n, s) for n, s in zip(self.suite_names, checks.SUITES))

    def restore(self):
        for owner, key, original in reversed(self._patches):
            setattr(owner, key, original)
        self._patches.clear()

    def totals(self):
        """{span name: (calls, self seconds, total seconds)}."""
        spans = self.spans
        child = [0.0] * len(spans)
        for name, start, end, parent, _ in spans:
            if parent >= 0:
                child[parent] += end - start
        out = defaultdict(lambda: [0, 0.0, 0.0])
        for i, (name, start, end, _, _) in enumerate(spans):
            row = out[name]
            row[0] += 1
            row[1] += end - start - child[i]
            row[2] += end - start
        return {k: tuple(v) for k, v in out.items()}

    def write_spans(self, path):
        with open(path, "w", encoding="utf-8") as handle:
            for span in self.spans:
                handle.write(json.dumps(span) + "\n")


def _fock_entropy_work(args):
    rho = args[0]
    return "fock.fock_entropy.work_d3", int(len(rho)) ** 3


def layer_metrics(tracer, ops, eb_z4_cache, speed_factor):
    """Per-op calls and self time, and the counters, as metric values.

    eb_z4_cache: (hits, misses) of `fock.eb_z4` over the traced passes.
    speed_factor: the machine-speed factor over the traced passes, which
        self times are divided by, as the end-to-end timings are.
    """
    totals = tracer.totals()
    metrics = {}
    for name in CALLS:
        metrics[f"{name}.calls"] = totals.get(name, (0, 0.0, 0.0))[0] / ops
    for name in SELF_MS + tracer.suite_names:
        self_s = totals.get(name, (0, 0.0, 0.0))[1]
        metrics[f"{name}.self_ms"] = self_s * 1e3 / ops / speed_factor
    metrics["fock.fock_entropy.work_d3"] = tracer.counts["fock.fock_entropy.work_d3"] / ops
    hits, misses = eb_z4_cache
    metrics["fock.eb_z4.hit_ratio"] = hits / (hits + misses) if hits + misses else 0.0
    return metrics


def layer_shares(tracer):
    """Share of traced op time whose self time lies in each module;
    `op` is time in no traced function (workload glue, untraced code)."""
    totals = tracer.totals()
    whole = totals[OP][2]
    shares = defaultdict(float)
    for name, (_, self_s, _) in totals.items():
        shares[name.split(".")[0]] += self_s / whole
    return dict(sorted(shares.items(), key=lambda kv: -kv[1]))


def import_breakdown(python, env, repeats=3):
    """Median `import.evebounds_ms` and `import.scipy_ms` over fresh
    interpreters running `-X importtime`: the cumulative time of importing
    evebounds, and of the scipy imports not nested in another scipy import
    (so with whatever they pull in first, as lazy scipy imports would save)."""
    evebounds_us, scipy_us = [], []
    for _ in range(repeats):
        proc = subprocess.run([python, "-X", "importtime", "-c", "import evebounds"],
                              env=env, capture_output=True, text=True, timeout=120, check=True)
        totals = importtime_totals(proc.stderr)
        evebounds_us.append(totals["evebounds"])
        scipy_us.append(totals["scipy"])
    return {
        "import.evebounds_ms": statistics.median(evebounds_us) / 1e3,
        "import.scipy_ms": statistics.median(scipy_us) / 1e3,
    }


def importtime_totals(stderr):
    """{"evebounds", "scipy"}: microseconds from `-X importtime` output.

    Each line reports a module when its import ends, indented two spaces
    per nesting level, so a parent follows its children; reading the lines
    backwards visits parents first.
    """
    totals = {"evebounds": None, "scipy": 0}
    stack = []  # (depth, is scipy) of the enclosing imports
    for line in reversed(stderr.splitlines()):
        if not line.startswith("import time:"):
            continue
        _, cumulative, name = line[len("import time:"):].split("|")
        if not cumulative.strip().isdigit():
            continue
        depth = len(name) - len(name.lstrip())
        module = name.strip()
        while stack and stack[-1][0] >= depth:
            stack.pop()
        is_scipy = module == "scipy" or module.startswith("scipy.")
        if module == "evebounds":
            totals["evebounds"] = int(cumulative)
        elif is_scipy and not any(scipy for _, scipy in stack):
            totals["scipy"] += int(cumulative)
        stack.append((depth, is_scipy))
    if totals["evebounds"] is None:
        raise RuntimeError("-X importtime output has no evebounds line")
    return totals
