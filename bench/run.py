"""Benchmark of the evebounds package.

    python3 bench/run.py [--workload NAME|all] [--seed N] [--seconds S] [--trace 0|1]

Runs from the repository root and imports `evebounds` from `src/` of the
tree it sits in; without that tree it exits with code 2.  One caller in
one process, with one BLAS thread, runs each workload in a closed loop,
checks every output against `bench/golden/` and prints each metric by name
and unit.  The last line of standard output is one JSON object
`{"correct", "attempted", "failed", "metrics"}`; a full record with the
provenance goes to `bench/out/`.  The exit code is 0 only if every op
passed its check.

--trace 0 (default) reports the end-to-end metrics:
  setup_s      median over fresh interpreters of the time from start-up to
               the first call's result (import, lazy set-up, first-call
               caches)
  ops_per_s    ops per second of call time, after the first call
  op_p50_ms    median op latency (nearest rank, as for the tail); a call
               that returns several ops (one ref-scan call is 300 CSV
               rows) is one sample of call time / ops
  op_tail_ms   op latency at the workload's percentile, which has at least
               ten samples beyond it (for check-suite, whose passes are
               long, that is the median)
  ok_ratio     measured ops that returned a checked value / measured ops
  peak_rss_mb  peak resident memory of this process

Times are calibrated by a machine-speed reference (see speed.py): each is
divided by the mean of the reference's speed factors just before and just
after it was taken.  The record file holds the raw figures too.

--trace 1 reports the per-layer metrics instead: `-X importtime` import
costs, then `seconds` of passes that alternate between untraced and traced
(the tracer's patches are installed for one pass, then removed).  Calls
and self times are per op over the traced passes, self times calibrated
like the end-to-end timings; `trace.overhead_ratio` is untraced over
traced ops_per_s.  The import costs are raw.  Spans go to bench/out/*.spans.jsonl.
The --trace 0 run never imports the tracer.
"""

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

SETUP_PROBES = 5
# Bounds the measured part of a run, so that a slow machine still finishes
# a run within three minutes (op_tail_ms may then have fewer than ten
# samples beyond it; `samples` in the record shows it).
MAX_MEASURE_S = 110.0
END_TO_END_UNITS = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "op_p50_ms": "ms",
    "op_tail_ms": "ms",
    "ok_ratio": "1",
    "peak_rss_mb": "MB",
}


def parse_args(argv, names):
    parser = argparse.ArgumentParser(description="evebounds benchmark")
    parser.add_argument("--workload", default="all", choices=names + ["all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


class Tally:
    """Ops attempted and failed, and for each measured call
    (index, seconds, ops, ops that failed or returned no value, speed factor)."""

    def __init__(self, reference):
        self.reference = reference
        self.attempted = self.failed = 0
        self.calls = []

    def run(self, wl, i, call, measured=True):
        before = self.reference.current()
        start = time.perf_counter()
        try:
            result = call(i)
        except Exception:  # an op that raises is counted as failed, not fatal
            elapsed = time.perf_counter() - start
            traceback.print_exc(file=sys.stderr)
            ops, failed, not_ok = wl.ops_per_call, wl.ops_per_call, 0
        else:
            elapsed = time.perf_counter() - start
            ops, failed, not_ok = wl.check(i, result)
        if failed:
            print(f"{wl.name}: call {i}: {failed} of {ops} ops failed", file=sys.stderr)
        self.attempted += ops
        self.failed += failed
        if measured:
            factor = (before + self.reference.current()) / 2
            self.calls.append((i, elapsed, ops, failed + not_ok, factor))

    def add_counts(self, other):
        self.attempted += other.attempted
        self.failed += other.failed

    def ops(self):
        return sum(c[2] for c in self.calls)

    def rate(self, calibrated=True):
        """Ops per second of call time."""
        return self.ops() / sum(c[1] / (c[4] if calibrated else 1.0) for c in self.calls)

    def latencies(self, calibrated=True):
        """Seconds per op, one sample per call."""
        return [c[1] / c[2] / (c[4] if calibrated else 1.0) for c in self.calls]


def measure(wl, tally, first, seconds, min_calls, call):
    """Calls first, first+1, ... until `seconds` have passed, at least
    `min_calls` were made and the count is a whole number of grid passes;
    returns the next index."""
    start = time.perf_counter()
    i = first
    while True:
        tally.run(wl, i, call)
        i += 1
        n = i - first
        elapsed = time.perf_counter() - start
        if n % wl.calls_per_pass == 0 and (
            (elapsed >= seconds and n >= min_calls) or elapsed >= MAX_MEASURE_S
        ):
            return i


def percentile(values, pct):
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(-(-len(ordered) * pct // 100), 1) - 1]


def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    return env


def setup_seconds(name, seed, reference):
    """Median (raw, calibrated) time from spawning a fresh interpreter to
    its first result."""
    raw, calibrated = [], []
    for _ in range(SETUP_PROBES):
        before = reference.measure()
        start = time.clock_gettime(time.CLOCK_MONOTONIC)
        proc = subprocess.run(
            [sys.executable, str(HERE / "probe.py"), name, str(seed), str(OUT)],
            env=child_env(), capture_output=True, text=True, timeout=150,
        )
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe for {name} failed:\n{proc.stderr}")
        raw.append(float(proc.stdout.split()[-1]) - start)
        calibrated.append(raw[-1] / ((before + reference.measure()) / 2))
    return statistics.median(raw), statistics.median(calibrated)


def provenance(seed):
    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas['name']} {blas.get('version', '')}".strip()
    except (TypeError, KeyError):
        blas = "unknown"
    commit = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=30)
        commit = proc.stdout.strip() or None
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode() + b"\0" + path.read_bytes())
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "nproc": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "seed": seed,
        "commit": commit,
        "src_sha256": digest.hexdigest(),
    }


def end_to_end(wl, name, seed, seconds, reference):
    setup_raw, setup_s = setup_seconds(name, seed, reference)
    tally = Tally(reference)
    tally.run(wl, 0, wl.call, measured=False)
    measure(wl, tally, 1, seconds, wl.min_calls, wl.call)

    def timings(calibrated):
        latencies = tally.latencies(calibrated)
        return {
            "ops_per_s": tally.rate(calibrated),
            "op_p50_ms": percentile(latencies, 50) * 1e3,
            "op_tail_ms": percentile(latencies, wl.tail_pct) * 1e3,
        }

    metrics = {
        "setup_s": setup_s,
        **timings(calibrated=True),
        "ok_ratio": 1 - sum(c[3] for c in tally.calls) / tally.ops(),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    extra = {
        "raw": {"setup_s": setup_raw, **timings(calibrated=False)},
        "speed_factor_median": statistics.median(c[4] for c in tally.calls),
        "samples": len(tally.calls),
        "tail_pct": wl.tail_pct,
        "tracer_imported": "tracer" in sys.modules,
    }
    return tally, metrics, END_TO_END_UNITS, extra


def per_layer(wl, name, seed, seconds, reference):
    import evebounds

    tally = Tally(reference)
    tally.run(wl, 0, wl.call, measured=False)
    untraced = Tally(reference)
    i = measure(wl, untraced, 1, 0, 1, wl.call)

    import tracer as tracing

    # Traced and untraced passes alternate, so that a machine that slows
    # down or speeds up during the run moves both sides alike.
    tr = tracing.Tracer()
    traced = Tally(reference)
    hits = misses = 0
    start = time.perf_counter()
    while time.perf_counter() - start < seconds:
        z4 = evebounds.fock.eb_z4.cache_info()
        tr.install(evebounds)
        try:
            i = measure(wl, traced, i, 0, 1, lambda k: tr.run_op(k, wl.call, k))
        finally:
            tr.restore()
        z4_after = evebounds.fock.eb_z4.cache_info()
        hits += z4_after.hits - z4.hits
        misses += z4_after.misses - z4.misses
        i = measure(wl, untraced, i, 0, 1, wl.call)
    tr.write_spans(OUT / f"{name}-seed{seed}.spans.jsonl")

    metrics = tracing.import_breakdown(sys.executable, child_env())
    speed_factor = traced.rate() / traced.rate(calibrated=False)
    metrics.update(tracing.layer_metrics(tr, traced.ops(), (hits, misses), speed_factor))
    metrics["trace.overhead_ratio"] = untraced.rate() / traced.rate()
    tally.add_counts(untraced)
    tally.add_counts(traced)
    units = {k: per_layer_unit(k) for k in metrics}
    extra = {"untraced_ops_per_s": untraced.rate(), "traced_ops_per_s": traced.rate(),
             "traced_ops": traced.ops(), "self_time_shares": tracing.layer_shares(tr)}
    return tally, metrics, units, extra


def per_layer_unit(name):
    if name.endswith("_ms"):
        return "ms"
    if name.endswith((".calls", ".work_d3")):
        return "count"
    return "1"


def run_workload(workloads, reference, name, args):
    wl = workloads.make(name, args.seed, OUT)
    measure_fn = per_layer if args.trace else end_to_end
    tally, metrics, units, extra = measure_fn(wl, name, args.seed, args.seconds, reference)
    record = {
        "workload": name,
        "trace": args.trace,
        "seconds": args.seconds,
        "provenance": provenance(args.seed),
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
        **extra,
    }
    (OUT / f"{name}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1) + "\n")
    for key, value in metrics.items():
        print(f"{name:14s} {key:44s} {value!r} {units[key]}")
    if "raw" in extra:
        print(f"{name:14s} uncalibrated: " + json.dumps(extra["raw"]))
    if "self_time_shares" in extra:
        shares = ", ".join(f"{k} {v:.3f}" for k, v in extra["self_time_shares"].items())
        print(f"{name:14s} self-time shares: {shares}")
    return record


def main(argv=None):
    if not (SRC / "evebounds" / "__init__.py").is_file():
        print(f"bench: no evebounds source under {SRC}", file=sys.stderr)
        return 2
    # One BLAS thread: the benchmark is one closed-loop caller, and two
    # OpenBLAS threads made a 120x120 eigensolve ten times slower on a
    # 2-vCPU guest.
    os.environ["OPENBLAS_NUM_THREADS"] = "1"
    sys.path[:0] = [str(SRC), str(HERE)]
    import evebounds
    import speed
    import workloads

    if Path(evebounds.__file__).resolve().parent != (SRC / "evebounds").resolve():
        print(f"bench: imported evebounds from {evebounds.__file__}, not {SRC}", file=sys.stderr)
        return 2
    args = parse_args(argv, list(workloads.WORKLOADS))
    OUT.mkdir(exist_ok=True)
    names = list(workloads.WORKLOADS) if args.workload == "all" else [args.workload]
    reference = speed.Reference()
    records = [run_workload(workloads, reference, name, args) for name in names]
    if len(records) == 1:
        metrics = records[0]["metrics"]
    else:
        metrics = {f"{r['workload']}.{k}": v for r in records for k, v in r["metrics"].items()}
    summary = {
        "correct": all(r["correct"] for r in records),
        "attempted": sum(r["attempted"] for r in records),
        "failed": sum(r["failed"] for r in records),
        "metrics": metrics,
    }
    print(json.dumps(summary))
    return 0 if summary["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
