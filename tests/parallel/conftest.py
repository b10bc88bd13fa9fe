"""Every run of the parallel tests ends by checking that the process lane
cleaned up after itself."""

import glob
import multiprocessing
import os

import pytest

from repro.parallel import shutdown_process_pool


@pytest.fixture(scope="session", autouse=True)
def _nothing_outlives_the_pool():
    """After ``shutdown_process_pool()`` nothing this process staged into
    is left in ``/dev/shm`` (segments are named ``repro-<pid>-…``) and no
    worker process (``repro-proc-<i>``) is left running."""
    yield
    shutdown_process_pool()
    assert glob.glob(f"/dev/shm/repro-{os.getpid()}-*") == []
    workers = [
        p.name for p in multiprocessing.active_children()
        if p.name.startswith("repro-proc-")
    ]
    assert workers == []
