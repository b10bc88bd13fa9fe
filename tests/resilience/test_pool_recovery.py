"""Dead-worker recovery: pools with no live threads are replaced, not
deadlocked on.

``ThreadPoolExecutor`` never respawns a worker that exited, and its
``_adjust_thread_count`` counts dead threads against ``max_workers`` — so
a pool whose workers are all gone accepts submissions that can never run.
These tests manufacture that state for real (drain the workers via the
executor's own shutdown path, then reopen the flag so the pool *looks*
serviceable) and assert the health check routes around it.
"""

import copy
import sys
import threading

import numpy as np
import pytest

from repro import LaunchOptions
from repro.apps.registry import make_app
from repro.parallel.pool import (
    PoolStats,
    get_pool,
    parallel_map,
    pool_stats,
    replace_pool,
    shutdown_pools,
)
from repro.resilience import GuardPolicy, stats_snapshot as guard_stats
from repro.resilience.guard import guarded_map
from repro.serve import ApproxSession


def _kill_workers(pool) -> None:
    """Leave ``pool`` open-looking but with every worker thread dead.

    ``shutdown(wait=True)`` is the executor's own worker-exit path;
    clearing the flag afterwards reproduces the pathological state a
    died-in-place worker set leaves behind: ``submit`` enqueues, nothing
    will ever dequeue.
    """
    pool.shutdown(wait=True)
    pool._shutdown = False
    assert all(not t.is_alive() for t in pool._threads)


def _run_with_timeout(fn, timeout=10.0):
    """Run ``fn`` on a daemon thread so a regression to the old deadlock
    fails the test instead of hanging the suite."""
    box = {}

    def target():
        box["result"] = fn()

    t = threading.Thread(target=target, daemon=True)
    t.start()
    t.join(timeout)
    assert not t.is_alive(), "call deadlocked on a dead pool"
    return box["result"]


@pytest.fixture(autouse=True)
def _fresh_pool():
    """Each test starts from no pool (sizes only grow) and leaves none
    behind, dead workers included."""
    shutdown_pools()
    yield
    shutdown_pools()


class TestDeadPoolRecovery:
    def test_parallel_map_survives_an_all_dead_pool(self):
        pool = get_pool(2)
        # Warm the pool so worker threads actually exist, then kill them.
        assert parallel_map(2, lambda i: i, range(4)) == [0, 1, 2, 3]
        _kill_workers(pool)
        before = pool_stats().snapshot()["workers_restarted"]
        result = _run_with_timeout(
            lambda: parallel_map(2, lambda i: i * 2, range(4))
        )
        assert result == [0, 2, 4, 6]
        assert pool_stats().snapshot()["workers_restarted"] == before + 1

    def test_get_pool_replaces_dead_pool(self):
        pool = get_pool(2)
        pool.submit(lambda: None).result()
        _kill_workers(pool)
        fresh = get_pool(2)
        assert fresh is not pool
        assert fresh.submit(lambda: 42).result(timeout=5) == 42

    def test_healthy_pool_is_not_replaced(self):
        pool = get_pool(2)
        pool.submit(lambda: None).result()
        assert get_pool(2) is pool

    def test_unused_pool_counts_as_healthy(self):
        # No submissions yet means no threads yet; that's fine — workers
        # spawn on first submit.
        pool = get_pool(2)
        assert get_pool(2) is pool

    def test_replace_pool_counts_a_restart_and_keeps_size(self):
        pool = get_pool(4)
        before = pool_stats().snapshot()["workers_restarted"]
        fresh = replace_pool(2)
        assert fresh is not pool
        assert pool_stats().snapshot()["workers_restarted"] == before + 1
        # Pool sizes only grow: the replacement keeps the larger size.
        assert fresh._max_workers == 4


class TestReplacementKeepsTheOldExecutor:
    """A replaced pool stays usable by whoever already holds it: an
    unguarded caller between ``get_pool`` and its submit (a sharded launch
    on another thread) must not die with ``cannot schedule new futures
    after shutdown``."""

    def test_a_caller_holding_a_replaced_pool_finishes_and_its_threads_exit(
        self, monkeypatch
    ):
        record = PoolStats.record
        ran_on = []

        def replace_once(self, tasks, workers):
            # Runs between parallel_map's get_pool and its pool.map.
            record(self, tasks, workers)
            monkeypatch.setattr(PoolStats, "record", record)
            replace_pool(2)

        def square(x):
            ran_on.append(threading.current_thread())
            return x * x

        monkeypatch.setattr(PoolStats, "record", replace_once)
        result = _run_with_timeout(lambda: parallel_map(2, square, [1, 2, 3]))
        assert result == [1, 4, 9]
        assert ran_on and threading.current_thread() not in ran_on
        for thread in set(ran_on):
            thread.join(timeout=5)
            assert not thread.is_alive(), f"{thread.name} outlived its dropped pool"

    def test_a_guarded_map_holding_a_replaced_pool_submits_there(self, monkeypatch):
        """``guarded_map`` fetches the pool, records, then submits: a
        replacement in between leaves it a live executor, so it neither
        fails nor replaces the pool a second time."""
        record = PoolStats.record

        def replace_once(self, tasks, workers):
            record(self, tasks, workers)
            monkeypatch.setattr(PoolStats, "record", record)
            replace_pool(2)

        monkeypatch.setattr(PoolStats, "record", replace_once)
        restarts = pool_stats().snapshot()["workers_restarted"]
        before = guard_stats()
        result = _run_with_timeout(
            lambda: guarded_map(2, lambda x: x + 1, [1, 2, 3], GuardPolicy())
        )
        assert result == [2, 3, 4]
        assert pool_stats().snapshot()["workers_restarted"] == restarts + 1
        after = guard_stats()
        for counter in ("pool_replacements", "shard_retries"):
            assert after[counter] == before[counter], counter

    def test_the_replaced_executor_is_dropped_not_shut_down(self):
        old = get_pool(2)
        fresh = replace_pool(2)
        assert get_pool(2) is fresh is not old
        assert not old._shutdown
        assert old.submit(lambda: 7).result(timeout=5) == 7


class TestGrowthKeepsTheExecutor:
    """Asking for more workers grows the pool in place: a caller that
    fetched the executor before the request still holds a live one."""

    def test_a_grown_pool_is_the_same_executor_and_runs_the_larger_fan_out(self):
        restarts = pool_stats().snapshot()["workers_restarted"]
        pool = get_pool(2)
        pool.submit(lambda: None).result(timeout=5)
        assert get_pool(3) is pool
        barrier = threading.Barrier(3)  # met only if three tasks run at once
        waited = _run_with_timeout(
            lambda: parallel_map(3, lambda _i: barrier.wait(timeout=5), range(3))
        )
        assert sorted(waited) == [0, 1, 2]
        assert pool_stats().snapshot()["workers_restarted"] == restarts

    def test_two_sessions_with_different_parallel_on_two_threads(self):
        """ROADMAP 7(b)(iii): one session's wider fan-out grows the
        shard pool while the other's launches are submitting to it.
        When growth replaced the executor the narrower session's submit
        raised ``cannot schedule new futures after shutdown``."""
        shutdown_pools()  # so the pool starts at the narrower size
        app = make_app("gaussian", scale=0.05, seed=0)
        inputs = app.generate_inputs(seed=1)
        want = app.run_exact(copy.deepcopy(inputs))[0]
        before = guard_stats()
        failures, barrier = [], threading.Barrier(2)

        def caller(parallel):
            lane = LaunchOptions(backend="codegen", parallel=parallel, min_shard_threads=1)
            try:
                with ApproxSession(
                    make_app("gaussian", scale=0.05, seed=0), options=lane
                ) as session:
                    session.tune()
                    barrier.wait(timeout=60)
                    for _turn in range(20):
                        got = session.launch(copy.deepcopy(inputs), variant="exact")
                        if not np.array_equal(got, want):
                            failures.append((parallel, "output differs"))
            except Exception as exc:  # noqa: BLE001 - reported on the main thread
                failures.append((parallel, repr(exc)))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [threading.Thread(target=caller, args=(p,)) for p in (2, 3)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=120)
                assert not t.is_alive()
        finally:
            sys.setswitchinterval(interval)
        assert failures == []
        after = guard_stats()
        for counter in ("pool_replacements", "serial_reexecutions", "shard_retries"):
            assert after[counter] == before[counter], counter
