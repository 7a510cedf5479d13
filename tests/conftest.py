import os
import time

# One BLAS thread, as in CI and the benchmark, set before numpy loads
# OpenBLAS. OpenBLAS's threaded kernels split larger products and
# eigensolves differently by thread count, so the bit-for-bit oracle pins
# in `test_golden.py` (taken on one thread) would otherwise depend on the
# machine's core count.
os.environ["OPENBLAS_NUM_THREADS"] = "1"

import pytest  # noqa: E402

from evebounds.checks import run_checks  # noqa: E402


@pytest.fixture(scope="session")
def check_results():
    """(results, seconds): one `run_checks()` pass, shared by the tests that
    only read its results, and its wall time."""
    start = time.monotonic()
    results = run_checks()
    return results, time.monotonic() - start
