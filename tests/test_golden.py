"""Committed golden output: the default scan must not change by a byte, a
small oracle scan must keep its values and statuses, the library calls
must keep the benchmark's point-query values, and every `--check` suite
must keep its residual."""

import hashlib
import json
from pathlib import Path

import pytest

from evebounds.bounds import bm_get_entropy, bm_gme_entropy, eb_qpsk_entropy
from evebounds.checks import run_checks
from evebounds.cli import ScanConfig, run_scan, write_csv
from evebounds.cloner import ChannelParams, qpsk
from evebounds.fock import FockConvergenceError, eve_exact_entropy

# SHA-256 of the default 300-row scan (README reference settings).
REFERENCE_SCAN_SHA256 = "d4d84f5ee0f506c4f21ac7a7bb84dd38dae93861a50891edc64be258b74f31dc"

# One oracle row per (tau, nbar, alpha) cell at the default cutoff 18,
# including the pure case nbar = 0 and a cell that does not converge.
ORACLE_ROWS = [
    "0.2,0.01,0.5,oracle,-,0.841736630014,bits,ok",
    "0.5,0.5,0.5,oracle,-,1.58185676533,bits,ok",
    "0.8,0.1,1,oracle,-,1.00817725496,bits,ok",
    "0.5,0,1,oracle,-,1.32030635339,bits,ok",
    "0.2,0.1,1,oracle,-,2.06308443157,bits,ok",
    "0.5,0.01,2,oracle,-,,bits,not-converged",
]
# Entropies may move by round-off from another BLAS or summation order,
# far below this relative tolerance; a change of method would not.
ORACLE_RTOL = 1e-9


def test_reference_scan_matches_golden(tmp_path):
    out = tmp_path / "scan.csv"
    write_csv(run_scan(ScanConfig()), str(out))
    assert hashlib.sha256(out.read_bytes()).hexdigest() == REFERENCE_SCAN_SHA256


@pytest.mark.parametrize("want", ORACLE_ROWS)
def test_oracle_scan_matches_golden(want):
    tau, nbar, alpha = (float(v) for v in want.split(",")[:3])
    cfg = ScanConfig(tau_min=tau, tau_max=tau, tau_steps=1, nbars=[nbar], alpha=alpha,
                     methods=["oracle"])
    (row,) = run_scan(cfg)
    got, exp = row.split(","), want.split(",")
    assert got[:5] + got[6:] == exp[:5] + exp[6:]
    if exp[5] == "":
        assert got[5] == ""
    else:
        assert float(got[5]) == pytest.approx(float(exp[5]), rel=ORACLE_RTOL, abs=0)


# `fock.eve_exact_entropy` on the benchmark's oracle grid at cutoff 18, as
# `repr` prints it: (tau, nbar, alpha, value, value_check) for the 15 cells
# that converge, and (tau, nbar, alpha, message) for the 5 that do not.  A
# change to how the oracle is evaluated, not to what it computes, leaves
# these bit for bit on the same BLAS.
ORACLE_VALUES = [
    (0.2, 0.01, 0.5, 0.8417366300143301, 0.8417366300143304),
    (0.5, 0.01, 0.5, 0.6140229590228371, 0.614022959022837),
    (0.8, 0.01, 0.5, 0.31527366689891223, 0.3152736668989131),
    (0.2, 0.1, 0.5, 1.2017109697373243, 1.2017109697371604),
    (0.5, 0.1, 0.5, 0.8915143803000037, 0.8915143802998291),
    (0.8, 0.1, 0.5, 0.46812358061614306, 0.46812358061600523),
    (0.2, 0.5, 0.5, 2.0315778672902836, 2.031572920739029),
    (0.5, 0.5, 0.5, 1.5818567653300375, 1.5818524081361864),
    (0.8, 0.5, 0.5, 0.9011061663394229, 0.901103041795674),
    (0.2, 0.01, 1.0, 1.7002025898546125, 1.7002025899334148),
    (0.5, 0.01, 1.0, 1.3752716361562738, 1.375271636307256),
    (0.8, 0.01, 1.0, 0.8054968918798702, 0.8054968919474863),
    (0.2, 0.1, 1.0, 2.063084431571306, 2.0630844316188615),
    (0.5, 0.1, 1.0, 1.6780427125155253, 1.6780427126382027),
    (0.8, 0.1, 1.0, 1.0081772549570398, 1.0081772549831676),
]
ORACLE_ERRORS = [
    *((tau, 0.01, 2.0, "truncation leakage 7.633e-05 > 1e-06 for the oracle state at cutoff 13; "
                       "raise the cutoff") for tau in (0.2, 0.5, 0.8)),
    *((tau, 2.0, 1.0, "truncation leakage 4.511e-04 > 1e-06 for the oracle state at cutoff 18; "
                      "raise the cutoff") for tau in (0.2, 0.8)),
]


@pytest.mark.parametrize("tau,nbar,alpha,value,value_check", ORACLE_VALUES)
def test_oracle_values_bit_for_bit(tau, nbar, alpha, value, value_check):
    got = eve_exact_entropy(qpsk(alpha), ChannelParams(tau=tau, nbar=nbar))
    assert (got.value, got.value_check) == (value, value_check)


@pytest.mark.parametrize("tau,nbar,alpha,message", ORACLE_ERRORS)
def test_oracle_errors_word_for_word(tau, nbar, alpha, message):
    with pytest.raises(FockConvergenceError) as error:
        eve_exact_entropy(qpsk(alpha), ChannelParams(tau=tau, nbar=nbar))
    assert str(error.value) == message


# The same on three `SYMMETRY_CASES` of `tests/test_fock.py` that QPSK's
# real path does not reach: (name, tau, nbar, value, value_check) at two
# cells each, for K = 1 with R = 3 representatives, K = 4 with R = 2 at
# different phases (the complex blocks) and K = 8, and (name, tau, nbar,
# message) for a non-QPSK cell that fails the check cutoff's gate.
ORACLE_SYMMETRY_VALUES = [
    ("skewed-three", 0.2, 0.01, 1.0253184289789712, 1.0253184289790715),
    ("skewed-three", 0.5, 0.5, 1.7635024867872757, 1.763498177406807),
    ("two-ring-z4", 0.2, 0.01, 1.2622135887770787, 1.2622135888036292),
    ("two-ring-z4", 0.5, 0.5, 1.9701471150762413, 1.9701415776933935),
    ("8psk-offset", 0.2, 0.01, 1.2399468764751207, 1.239946876475125),
    ("8psk-offset", 0.5, 0.5, 1.9533247887184795, 1.9533196292881838),
]
ORACLE_SYMMETRY_ERRORS = [
    ("two-ring-z4", 0.2, 0.5, "truncation leakage 1.237e-06 > 1e-06 for the oracle state at cutoff 13; "
                              "raise the cutoff"),
]


def symmetry_case(name):
    # imported here, as `test_fock` imports this module
    from test_fock import SYMMETRY_CASES

    return SYMMETRY_CASES[name][0]


@pytest.mark.parametrize("name,tau,nbar,value,value_check", ORACLE_SYMMETRY_VALUES)
def test_oracle_symmetry_values_bit_for_bit(name, tau, nbar, value, value_check):
    got = eve_exact_entropy(symmetry_case(name), ChannelParams(tau=tau, nbar=nbar))
    assert (got.value, got.value_check) == (value, value_check)


@pytest.mark.parametrize("name,tau,nbar,message", ORACLE_SYMMETRY_ERRORS)
def test_oracle_symmetry_errors_word_for_word(name, tau, nbar, message):
    with pytest.raises(FockConvergenceError) as error:
        eve_exact_entropy(symmetry_case(name), ChannelParams(tau=tau, nbar=nbar))
    assert str(error.value) == message


POINT_GOLDEN = Path(__file__).resolve().parent.parent / "bench" / "golden" / "point-queries.json"
# The benchmark's rule for the point golden: |got - want| <= 1e-9 max(1, |want|).
POINT_TOL = 1e-9


def test_library_values_match_point_golden():
    """bm-gme, bm-get and eb at the benchmark's 200 seeded points, read-only
    from its golden file: [tau, nbar, alpha, bm-gme, bm-get, eb] each."""
    points = json.loads(POINT_GOLDEN.read_text(encoding="utf-8"))["points"]
    assert len(points) == 200
    taus, nbars = {p[0] for p in points}, {p[1] for p in points}
    assert {0.0, 1.0} <= taus and 0.0 in nbars  # the endpoints are covered
    misses = []
    for tau, nbar, alpha, *want in points:
        params, constellation = ChannelParams(tau=tau, nbar=nbar), qpsk(alpha)
        got = (
            bm_gme_entropy(constellation, params),
            bm_get_entropy(constellation, params),
            eb_qpsk_entropy(alpha, params),
        )
        if any(abs(g - w) > POINT_TOL * max(1.0, abs(w)) for g, w in zip(got, want)):
            misses.append((tau, nbar, alpha, got, want))
    assert misses == []


# The worst residual of each `--check` suite, in suite order, as `repr`
# prints it.  Every suite is seeded, so a refactor that leaves the
# arithmetic alone leaves these bit for bit; the tolerance is that of the
# switching-rules pin in `test_checks.py`, which another BLAS stays within.
CHECK_RESIDUALS = {
    "bogoliubov-roundtrip": 8.881784197001252e-16,
    "bloch-messiah-reconstruction": 2.4706690763030545e-13,
    "takagi-reconstruction": 1.6690311775283584e-15,
    "williamson-grid": 4.440892098500626e-16,
    "eca-pipeline": 7.021666937153402e-16,
    "entropy-unitary-invariance": 3.552713678800501e-15,
    "estimator-ordering": 0.0,
    "gram-validity": 0.0,
    "switching-rules-fock": 7.900297903577633e-08,
    "oracle-entropy-agreement": 1.5107307849149265e-08,
}
CHECK_ATOL = 1e-12


def test_check_residuals_match_golden():
    results = run_checks()
    assert [r.name for r in results] == list(CHECK_RESIDUALS)
    misses = [(r.name, r.residual) for r in results
              if not abs(r.residual - CHECK_RESIDUALS[r.name]) <= CHECK_ATOL]
    assert misses == []
