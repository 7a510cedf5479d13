import time

import pytest

from evebounds.checks import run_checks


@pytest.fixture(scope="session")
def check_results():
    """(results, seconds): one `run_checks()` pass, shared by the tests that
    only read its results, and its wall time."""
    start = time.monotonic()
    results = run_checks()
    return results, time.monotonic() - start
