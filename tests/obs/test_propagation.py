"""Cross-thread span propagation through the shard pool and the
process lane.

Spans started inside pool tasks must parent to the launching span — also
after a dead worker set forced a pool replacement (the context rides with
the task, not the thread, so replacement is invisible to the trace tree).
"""

import numpy as np
import pytest

import kernel_zoo as zoo
from repro import LaunchOptions
from repro.engine import Grid, launch
from repro.obs import trace as obs_trace
from repro.parallel import shutdown_process_pool
from repro.parallel.pool import get_pool, parallel_map, pool_stats


def _task(item):
    with obs_trace.span("task.run", item=item) as span:
        return span.trace_id, span.parent_id


def _kill_workers(pool) -> None:
    # The executor's own worker-exit path, then reopen the flag: the
    # state a died-in-place worker set leaves behind (see
    # tests/resilience/test_pool_recovery.py).
    pool.shutdown(wait=True)
    pool._shutdown = False
    assert all(not t.is_alive() for t in pool._threads)


class TestPoolPropagation:
    def test_shard_pool_tasks_parent_to_launching_span(self, traced_memory):
        get_pool(2)
        with obs_trace.span("launch.root") as root:
            results = parallel_map(2, _task, range(6))
        assert results == [(root.trace_id, root.span_id)] * 6

    def test_parenting_survives_dead_worker_replacement(self, traced_memory):
        pool = get_pool(2)
        parallel_map(2, lambda i: i, range(4))  # warm: spawn workers
        _kill_workers(pool)
        before = pool_stats().snapshot()["workers_restarted"]
        with obs_trace.span("launch.root") as root:
            results = parallel_map(2, _task, range(6))
        assert pool_stats().snapshot()["workers_restarted"] == before + 1
        assert results == [(root.trace_id, root.span_id)] * 6

    def test_worker_spans_record_worker_threads(self, traced_memory):
        with obs_trace.span("launch.root"):
            parallel_map(2, _task, range(6))
        records = obs_trace.drain_records()
        workers = {
            r["thread"] for r in records if r.get("name") == "task.run"
        }
        assert any(name.startswith("repro-shard") for name in workers)

    def test_without_ambient_span_tasks_become_roots(self, traced_memory):
        results = parallel_map(2, _task, range(4))
        for trace_id, parent_id in results:
            assert parent_id is None
            assert trace_id is not None


class TestProcpoolPropagation:
    """Spans survive the process seam: shard workers cannot reach the
    parent's sink, so the parent emits ``proc.shard`` records from the
    timestamps the workers report back — parented to ``proc.launch``,
    which parents to the ambient launching span like any other."""

    @pytest.fixture(autouse=True)
    def _fresh_pool(self):
        shutdown_process_pool()
        yield
        shutdown_process_pool()

    def _launch_squared(self):
        rng = np.random.default_rng(0)
        n = 1 << 12
        args = [np.zeros(n, np.float32), rng.random(n, dtype=np.float32), n]
        launch(
            zoo.square_map,
            Grid.for_elements(n),
            args,
            options=LaunchOptions(
                backend="codegen", parallel=2, executor="process",
                min_shard_threads=1,
            ),
        )

    def test_proc_launch_parents_to_the_ambient_span(self, traced_memory):
        with obs_trace.span("serve.launch") as root:
            self._launch_squared()
        records = obs_trace.drain_records()
        launches = [r for r in records if r.get("name") == "proc.launch"]
        assert launches, "no proc.launch span recorded"
        for record in launches:
            assert record["trace_id"] == root.trace_id

    def test_worker_shards_land_under_proc_launch(self, traced_memory):
        with obs_trace.span("serve.launch") as root:
            self._launch_squared()
        records = obs_trace.drain_records()
        (launch_rec,) = [
            r for r in records if r.get("name") == "proc.launch"
        ]
        shards = [r for r in records if r.get("name") == "proc.shard"]
        assert shards, "no proc.shard spans emitted from worker timings"
        for shard in shards:
            # Same trace, parented to proc.launch: the worker's timing
            # crossed the process boundary but the tree stayed intact.
            assert shard["trace_id"] == root.trace_id
            assert shard["parent_id"] == launch_rec["span_id"]
            assert shard["duration"] >= 0.0
            assert shard["attrs"]["kernel"] == "square_map"
            assert "blocks" in shard["attrs"]

    def test_shard_spans_fit_inside_the_launch_window(self, traced_memory):
        with obs_trace.span("serve.launch"):
            self._launch_squared()
        records = obs_trace.drain_records()
        (launch_rec,) = [
            r for r in records if r.get("name") == "proc.launch"
        ]
        launch_end = launch_rec["start"] + launch_rec["duration"]
        for shard in (r for r in records if r.get("name") == "proc.shard"):
            # CLOCK_MONOTONIC is shared across processes on Linux, so
            # worker timestamps are directly comparable to the parent's.
            assert shard["start"] >= launch_rec["start"]
            assert shard["start"] + shard["duration"] <= launch_end
