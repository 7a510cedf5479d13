"""Tests of the benchmark itself: seed handling, the output checks and the
tail percentile.  Run from the repository root:

    python3 -m pytest -q bench/tests
"""

import json
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(BENCH.parent / "src"), str(BENCH)]

import workloads  # noqa: E402

GRID_WORKLOADS = ["ref-scan", "oracle-scan", "check-suite"]


def make(name, seed, tmp_path):
    return workloads.make(name, seed, tmp_path)


def test_seed_changes_point_queries_inputs(tmp_path):
    first = make("point-queries", 0, tmp_path).inputs(50)
    assert make("point-queries", 0, tmp_path).inputs(50) == first
    assert make("point-queries", 1, tmp_path).inputs(50) != first


def test_point_queries_cover_the_domain(tmp_path):
    points = make("point-queries", 3, tmp_path).inputs(2000)
    taus = [p[0] for p in points]
    assert 0.0 in taus and 1.0 in taus
    assert 0.0 in [p[1] for p in points]
    assert all(0 <= tau <= 1 and 0 <= nbar <= 5 and 0.05 <= alpha <= 3
               for tau, nbar, alpha in points)
    assert len({p[2] for p in points}) == len(points)  # every point misses the eb_z4 cache


def test_point_queries_keep_clear_of_the_small_tau_nbar_defect(tmp_path):
    points = make("point-queries", 4, tmp_path).inputs(20000)
    assert all(tau * nbar == 0 or tau * nbar >= 1e-4 for tau, nbar, _ in points)


@pytest.mark.xfail(raises=ValueError, reason="matched_svd fails for 0 < tau * nbar < ~1e-5")
def test_small_tau_nbar_defect():
    """A point the benchmark does not draw, because the package raises there."""
    import evebounds

    values = workloads.query_point(evebounds, (0.57, 1.42e-11, 1.81))
    assert workloads.verify_point((0.57, 1.42e-11, 1.81), values)


@pytest.mark.parametrize("name", GRID_WORKLOADS)
def test_seed_leaves_grid_workloads_unchanged(name, tmp_path):
    n = 2 * make(name, 0, tmp_path).calls_per_pass
    assert make(name, 0, tmp_path).inputs(n) == make(name, 7, tmp_path).inputs(n)


def test_ref_scan_check_rejects_a_perturbed_csv(tmp_path):
    wl = make("ref-scan", 0, tmp_path)
    rows = wl.call(0)
    assert wl.check(0, rows) == (300, 0, 0)
    data = wl.out.read_bytes()
    assert workloads.verify_csv(data, wl.golden)
    perturbed = bytearray(data)
    perturbed[data.rindex(b",bits,ok") - 1] ^= 1  # last digit of the last entropy
    assert not workloads.verify_csv(bytes(perturbed), wl.golden)


def golden_oracle_rows():
    return (workloads.GOLDEN / "oracle-scan.csv").read_text().splitlines()[1:]


def test_oracle_check_accepts_the_golden_rows():
    rows = golden_oracle_rows()
    assert len(rows) == len(workloads.ORACLE_GRID)
    assert all(workloads.verify_oracle_row(row, row) for row in rows)
    not_converged = sum(row.endswith(",not-converged") for row in rows)
    assert 0 < not_converged < len(rows) / 2


def test_oracle_check_rejects_perturbed_rows():
    rows = golden_oracle_rows()
    converged = next(r for r in rows if r.endswith(",ok"))
    fields = converged.split(",")
    value = float(fields[5])
    for bad in (value * (1 + 1e-8), value + 1e-6):
        assert not workloads.verify_oracle_row(",".join(fields[:5] + [f"{bad:.12g}"] + fields[6:]),
                                               converged)
    within = ",".join(fields[:5] + [repr(value * (1 + 1e-12))] + fields[6:])
    assert workloads.verify_oracle_row(within, converged)
    failed = ",".join(fields[:5] + ["", fields[6], "not-converged"])
    assert not workloads.verify_oracle_row(failed, converged)
    missing = next(r for r in rows if r.endswith(",not-converged"))
    invented = missing.replace(",,bits,not-converged", ",1.5,bits,ok")
    assert not workloads.verify_oracle_row(invented, missing)


def golden_points():
    return json.loads((workloads.GOLDEN / "point-queries.json").read_text())["points"]


def test_point_check_accepts_the_golden_values():
    for want in golden_points():
        assert workloads.verify_point(want[:3], want[3:], want)


def test_point_check_rejects_perturbed_values():
    want = golden_points()[0]
    point, values = want[:3], list(want[3:])
    for k in range(3):
        shifted = list(values)
        shifted[k] += 1e-6
        assert not workloads.verify_point(point, shifted, want)
    gme, get, eb = values
    assert not workloads.verify_point(point, (get + 1e-6, get, eb))  # bm-gme above bm-get
    assert not workloads.verify_point(point, (gme, eb + 1e-6, eb))  # bm-get above eb
    assert not workloads.verify_point(point, (gme, get, float("nan")))


def test_point_queries_match_golden_values(tmp_path):
    wl = make("point-queries", workloads.PointQueries.golden_seed, tmp_path)
    for i in range(5):
        assert wl.check(i, wl.call(i)) == (1, 0, 0)
    assert wl.check(0, (0.0, 0.0, 0.0))[1] == 1


def test_check_suite_check_rejects_a_failed_suite(tmp_path):
    from evebounds.checks import CheckResult

    passing = [CheckResult("a", 1e-12, 1e-9), CheckResult("b", 0.0, 1e-6)]
    assert workloads.verify_checks(passing)
    assert not workloads.verify_checks(passing + [CheckResult("c", 2e-9, 1e-9)])
    assert not workloads.verify_checks(passing + [CheckResult("d", float("nan"), 1e-9)])
    assert not workloads.verify_checks([])


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_tail_percentile_has_ten_samples_beyond_it(name):
    import run

    wl = workloads.WORKLOADS[name]
    assert wl.min_calls % wl.calls_per_pass == 0
    samples = [float(k) for k in range(wl.min_calls)]
    tail = run.percentile(samples, wl.tail_pct)
    assert sum(s > tail for s in samples) >= 10
    assert tail >= run.percentile(samples, 50)


def test_percentile_is_nearest_rank():
    import run

    values = list(range(1, 101))
    assert run.percentile(values, 50) == 50
    assert run.percentile(values, 99) == 99
    assert run.percentile(values[:30], 66) == 20
    assert run.percentile([7.0], 99) == 7.0


def test_benchmark_json_matches_the_harness():
    import run

    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    whys = {w["name"]: w["why"] for w in spec["workloads"]}
    assert set(whys) == set(workloads.WORKLOADS)
    for name, wl in workloads.WORKLOADS.items():
        assert f"op_tail_ms is p{wl.tail_pct}" in whys[name]
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS


def test_speed_reference_scales_calibrated_times():
    import run
    import speed

    tally = run.Tally(speed.Reference())
    tally.calls = [(1, 0.2, 100, 0, 2.0), (2, 0.1, 100, 0, 1.0)]
    assert tally.rate(calibrated=False) == pytest.approx(200 / 0.3)
    assert tally.rate() == pytest.approx(200 / 0.2)
    assert tally.latencies() == pytest.approx([0.001, 0.001])


def test_importtime_counts_outermost_scipy_imports_once():
    import tracer

    stderr = "\n".join([
        "import time: self [us] | cumulative | imported package",
        "import time:        50 |         50 |       scipy._lib",
        "import time:       100 |        150 |     scipy",
        "import time:       200 |        350 |   scipy.linalg",
        "import time:        10 |         10 |   numpy.extra",
        "import time:        30 |         30 |     scipy.sparse",
        "import time:        40 |         70 |   scipy.sparse.linalg",
        "import time:         5 |        435 | evebounds",
    ])
    assert tracer.importtime_totals(stderr) == {"evebounds": 435, "scipy": 420}
