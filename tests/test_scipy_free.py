"""The estimators and the Fock oracle run on numpy alone: scipy is imported
only by the decomposition machinery and the sparse Fock reference behind
`--check`, at their point of use."""

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
assert "scipy" in sys.modules
"""


def test_scan_does_not_import_scipy_and_checks_still_run():
    proc = subprocess.run(
        [sys.executable, "-c", CHILD],
        env={**os.environ, "PYTHONPATH": str(SRC)},
        capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
