"""Committed golden output: the default scan must not change by a byte."""

import hashlib

from evebounds.cli import ScanConfig, run_scan, write_csv

# SHA-256 of the default 300-row scan (README reference settings).
REFERENCE_SCAN_SHA256 = "d4d84f5ee0f506c4f21ac7a7bb84dd38dae93861a50891edc64be258b74f31dc"


def test_reference_scan_matches_golden(tmp_path):
    out = tmp_path / "scan.csv"
    write_csv(run_scan(ScanConfig()), str(out))
    assert hashlib.sha256(out.read_bytes()).hexdigest() == REFERENCE_SCAN_SHA256
