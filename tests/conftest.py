"""Shared pytest configuration: make the test-local kernel zoo importable."""

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))


@pytest.fixture(autouse=True)
def _no_leaked_drain_flag():
    """Fail any test that leaves the process-global drain flag set: it
    turns ``/readyz`` to 503 for whichever test runs next in the process."""
    yield
    signals = sys.modules.get("repro.serve.signals")
    if signals is not None and signals.is_draining():
        signals.reset_draining()  # do not cascade into later tests
        pytest.fail("test left repro.serve.signals draining; call reset_draining()")


@pytest.fixture
def staging(monkeypatch):
    """An empty thread-lane staging free list for one test, so what is
    idle on it (``staging.idle()``) is what that test's launches gave back."""
    from repro.parallel import shard

    fresh = shard._StagingList()
    monkeypatch.setattr(shard, "_STAGING", fresh)
    return fresh
