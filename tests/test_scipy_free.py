"""The package runs on numpy alone: the estimators, the Fock oracle and the
`--check` suites never import scipy, which only the test references
use."""

import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

CHILD = """
import sys

import evebounds
import evebounds.cli
from evebounds import checks
from evebounds.cli import ScanConfig, run_scan

cfg = ScanConfig(tau_min=0.5, tau_max=0.5, tau_steps=1, nbars=[0.01],
                 methods=["eb", "bm-get", "bm-gme", "oracle"])
rows = run_scan(cfg)
assert len(rows) == 4 and all(row.endswith(",ok") for row in rows), rows
assert "scipy" not in sys.modules, sorted(m for m in sys.modules if m.startswith("scipy"))

results = checks.run_checks()
assert all(r.passed for r in results), checks.format_report(results)
assert "scipy" not in sys.modules, sorted(m for m in sys.modules if m.startswith("scipy"))
"""

# With sys.modules["scipy"] = None every scipy import raises ImportError.
BLOCKED = """
import sys

sys.modules["scipy"] = None
from evebounds import cli

sys.exit(cli.main(["--check", "--tau-steps", "1", "--methods", "eb,bm-get,bm-gme,oracle",
                   "--out", "-"]))
"""


def _run(code):
    return subprocess.run(
        [sys.executable, "-c", code],
        env={**os.environ, "PYTHONPATH": str(SRC)},
        capture_output=True, text=True, timeout=300,
    )


def test_scan_does_not_import_scipy_and_checks_still_run():
    proc = _run(CHILD)
    assert proc.returncode == 0, proc.stderr


def test_check_gate_runs_with_scipy_blocked():
    proc = _run(BLOCKED)
    assert proc.returncode == 0, proc.stderr
    assert "FAIL" not in proc.stderr
    rows = proc.stdout.splitlines()[1:]
    assert {row.split(",")[3] for row in rows} == {"eb", "bm-get", "bm-gme", "oracle"}
    assert all(row.endswith(",ok") for row in rows), rows
