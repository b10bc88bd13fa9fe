"""Every run of the parallel tests ends by checking that the process lane
cleaned up after itself."""

import glob
import os

import pytest

from repro.parallel import shutdown_process_pool


@pytest.fixture(scope="session", autouse=True)
def _no_segment_outlives_the_pool():
    """After ``shutdown_process_pool()`` nothing this process staged into
    is left in ``/dev/shm`` (segments are named ``repro-<pid>-…``)."""
    yield
    shutdown_process_pool()
    assert glob.glob(f"/dev/shm/repro-{os.getpid()}-*") == []
