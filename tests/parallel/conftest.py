"""Every run of the parallel tests ends by checking that the process lane
cleaned up after itself."""

import glob
import multiprocessing
import os

import pytest

import repro


@pytest.fixture(scope="session", autouse=True)
def _nothing_outlives_the_pool():
    """After ``repro.reset()`` nothing this process staged into is left in
    ``/dev/shm`` (segments are named ``repro-<pid>-…``) and no worker
    process (``repro-proc-<i>``) is left running."""
    yield
    repro.reset()
    assert glob.glob(f"/dev/shm/repro-{os.getpid()}-*") == []
    workers = [
        p.name for p in multiprocessing.active_children()
        if p.name.startswith("repro-proc-")
    ]
    assert workers == []
