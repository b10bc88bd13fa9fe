"""Process shard executor: bit-exactness, containment, fault injection.

The process lane must be indistinguishable from serial codegen execution
— same bytes in the caller's buffers, same exceptions — while surviving
worker death and hung shards.  Faults are injected through the one seam
both shard lanes share, an active ``FaultPlan``: the parent draws each
worker shard's fault when it sends the task, and the caller's shard polls
in-process.
"""

import glob
import mmap
import os
import signal
import subprocess
import sys
import textwrap
import threading

import numpy as np
import pytest

import kernel_zoo as zoo
import repro
from repro import LaunchOptions
from repro.codegen.cache import get_compiled
from repro.engine import Grid, bind_arguments, launch
from repro.engine.launch import resolve_kernel, resolve_module
from repro.errors import ExecutionError
from repro.parallel import procpool, shutdown_process_pool
from repro.parallel.analysis import analyze_shardability
from repro.parallel.shard import plan_shards
from repro.resilience import GuardPolicy
from repro.resilience.faults import (
    SITE_COMPILE,
    SITE_WORKER,
    FaultPlan,
    FaultSpec,
    use_faults,
)

#: Two workers is enough to prove the lane on a single-core container.
PROC = LaunchOptions(
    backend="codegen", parallel=2, executor="process", min_shard_threads=1
)
N = 1 << 12


@pytest.fixture(autouse=True)
def _fresh_pool():
    """Isolate every test's worker set."""
    repro.reset()
    yield
    repro.reset()


def _square_args(n=N, seed=0):
    rng = np.random.default_rng(seed)
    return [np.zeros(n, np.float32), rng.random(n, dtype=np.float32), n]


def _run_serial(kernel, grid, args):
    ref = [a.copy() if isinstance(a, np.ndarray) else a for a in args]
    launch(kernel, grid, ref, options=LaunchOptions(backend="codegen"))
    return ref


class TestBitExactness:
    def test_direct_mode_matches_serial(self):
        grid = Grid.for_elements(N)
        args = _square_args()
        serial = _run_serial(zoo.square_map, grid, args)
        before = procpool.stats_snapshot()
        launch(zoo.square_map, grid, args, options=PROC)
        after = procpool.stats_snapshot()
        assert np.array_equal(args[0], serial[0])
        assert after["launches"] == before["launches"] + 1
        assert after["direct"] == before["direct"] + 1
        assert after["shm_bytes"] > before["shm_bytes"]
        assert after["shards_run"] > before["shards_run"]

    def test_a_task_names_the_kernel_and_the_staged_arrays_only(self, monkeypatch):
        """Shards write the staged segments in place: a task carries no list
        of arrays to copy, and a reply no diffs."""
        sent, received = [], []
        submit, receive = procpool._Worker.submit, procpool._Worker.receive

        def record_submit(worker, payload, ir):
            sent.append(payload)
            return submit(worker, payload, ir)

        def record_receive(worker):
            reply = receive(worker)
            received.append(reply)
            return reply

        monkeypatch.setattr(procpool._Worker, "submit", record_submit)
        monkeypatch.setattr(procpool._Worker, "receive", record_receive)
        launch(zoo.square_map, Grid.for_elements(N), _square_args(seed=3), options=PROC)
        (payload,) = sent
        assert set(payload) == {"kernel", "grid", "shards", "arrays", "scalars"}
        ((status, entries),) = received
        assert status == "ok" and [len(entry) for entry in entries] == [5]

    def test_shards_stride_across_workers(self):
        """Every shard of the plan runs exactly once (the striding
        assignment covers the plan with no overlap)."""
        grid = Grid.for_elements(N)
        plan = plan_shards(grid.total_blocks, 2)
        args = _square_args(seed=2)
        before = procpool.stats_snapshot()
        launch(zoo.square_map, grid, args, options=PROC)
        after = procpool.stats_snapshot()
        assert after["shards_run"] - before["shards_run"] == len(plan)


def _own_segments():
    """Shared-memory files this process created (``repro-<pid>-…``)."""
    return glob.glob(f"/dev/shm/repro-{os.getpid()}-*")


class TestStandingTransport:
    """What the lane builds it keeps: segments, attachments, kernels."""

    def test_a_kernel_is_sent_once_per_worker_and_segments_are_reused(self):
        grid = Grid.for_elements(N)
        before = procpool.stats_snapshot()
        for seed in range(3):
            args = _square_args(seed=seed)
            serial = _run_serial(zoo.square_map, grid, args)
            launch(zoo.square_map, grid, args, options=PROC)
            assert np.array_equal(args[0], serial[0])
        after = procpool.stats_snapshot()
        # parallel=2 is the caller and one worker process, sent the IR once
        assert after["kernels_sent"] - before["kernels_sent"] == 1
        # two arrays a launch: the first launch creates, the next two reuse
        assert after["segments_reused"] - before["segments_reused"] == 4

    def test_a_reused_segment_serves_another_size_and_dtype(self):
        """A shorter float32 array staged where an int32 index array was:
        the worker's view ends where the array ends, so the bytes the
        longer one left behind are never read."""
        rng = np.random.default_rng(3)
        idx = rng.integers(0, N, N).astype(np.int32)
        gather = [np.zeros(N, np.float32), rng.random(N, dtype=np.float32) * 50 + 1, idx, N]
        serial = _run_serial(zoo.gather_expensive, Grid.for_elements(N), gather)
        launch(zoo.gather_expensive, Grid.for_elements(N), gather, options=PROC)
        assert np.array_equal(gather[0], serial[0])
        held = procpool.get_process_pool(2).segments
        assert held.free_bytes == 3 * N * 4 and set(held.free) == {N * 4}
        n = N - 1000  # the same size class, 4 000 bytes short of it
        before = procpool.stats_snapshot()
        for seed in (1, 2):
            args = _square_args(n, seed=seed)
            serial = _run_serial(zoo.square_map, Grid.for_elements(n), args)
            launch(zoo.square_map, Grid.for_elements(n), args, options=PROC)
            assert args[0].tobytes() == serial[0].tobytes()
        after = procpool.stats_snapshot()
        assert after["segments_reused"] - before["segments_reused"] == 4
        assert held.free_bytes == 3 * N * 4  # nothing new was created

    def test_the_free_list_is_bounded_and_an_oversized_segment_is_unlinked(
        self, monkeypatch
    ):
        monkeypatch.setattr(procpool, "_KEPT_BYTES_MAX", N * 4)  # room for one array
        grid = Grid.for_elements(N)
        for seed in (1, 2):
            args = _square_args(seed=seed)
            serial = _run_serial(zoo.square_map, grid, args)
            launch(zoo.square_map, grid, args, options=PROC)
            assert np.array_equal(args[0], serial[0])
        held = procpool.get_process_pool(2).segments
        assert held.free_bytes == N * 4
        if os.path.isdir("/dev/shm"):
            assert len(_own_segments()) == 1

    def test_callers_on_several_threads_never_share_a_segment(self):
        """Three callers staging at once (launches take turns on the pool,
        staging does not): a segment handed to two of them would show as
        another caller's data in an output."""
        grid = Grid.for_elements(N)
        failures, barrier = [], threading.Barrier(3)

        def caller(number):
            barrier.wait(timeout=30)
            for turn in range(4):
                args = _square_args(seed=10 * number + turn)
                serial = _run_serial(zoo.square_map, grid, args)
                launch(zoo.square_map, grid, args, options=PROC)
                if not np.array_equal(args[0], serial[0]):
                    failures.append((number, turn))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [threading.Thread(target=caller, args=(i,)) for i in range(3)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=120)
                assert not t.is_alive()
        finally:
            sys.setswitchinterval(interval)
        assert failures == []
        held = procpool.get_process_pool(2).segments
        assert held.free_bytes == sum(s.size for segs in held.free.values() for s in segs)
        assert 2 * N * 4 <= held.free_bytes <= 6 * N * 4  # two arrays, up to three callers

    @pytest.mark.skipif(not os.path.isdir("/dev/shm"), reason="no /dev/shm to look at")
    def test_shutdown_unlinks_every_segment_this_process_created(self):
        launch(zoo.square_map, Grid.for_elements(N), _square_args(), options=PROC)
        assert len(_own_segments()) == 2  # idle, on the free list
        shutdown_process_pool()
        assert _own_segments() == []


def _worker_b0(grid, workers=2):
    """The first block of the first shard a worker process runs (the
    caller keeps ``plan[0]``)."""
    return plan_shards(grid.total_blocks, workers)[1][0]


def _at(b0, mode="dead", **spec):
    """A plan firing ``mode`` on the shard that starts at block ``b0``."""
    return FaultPlan([FaultSpec(SITE_WORKER, mode, match=f":{b0}-", **spec)])


class TestContainment:
    def test_a_worker_that_dies_once_costs_one_serial_launch(self, monkeypatch):
        """The worker hard-exits the first time it is sent its shard: the
        transport raises ``WorkerLost`` without re-sending the task, the
        launch re-runs serially, and the worker is respawned.  The next
        launch shards again, on the new process."""
        grid = Grid.for_elements(N)
        launch(zoo.square_map, grid, _square_args(seed=4), options=PROC)
        raised = []
        run_shards = procpool.run_shards

        def spy(*args, **kwargs):
            try:
                return run_shards(*args, **kwargs)
            except Exception as exc:
                raised.append(type(exc))
                raise

        monkeypatch.setattr(procpool, "run_shards", spy)
        plan = _at(_worker_b0(grid), max_fires=1)
        args = _square_args(seed=5)
        serial = _run_serial(zoo.square_map, grid, args)
        before = procpool.stats_snapshot()
        with use_faults(plan):
            launch(zoo.square_map, grid, args, options=PROC)
        after = procpool.stats_snapshot()
        assert plan.fired == {SITE_WORKER: 1}, "the injected fault fired once"
        assert raised == [procpool.WorkerLost]
        assert args[0].tobytes() == serial[0].tobytes()
        assert after["serial_reexecutions"] == before["serial_reexecutions"] + 1
        assert after["workers_replaced"] == before["workers_replaced"] + 1
        assert after["tasks"] == before["tasks"] + 1  # sent once, not again
        assert after["launches"] == before["launches"]
        assert after["kernels_sent"] == before["kernels_sent"]
        nxt = _square_args(seed=6)
        serial = _run_serial(zoo.square_map, grid, nxt)
        launch(zoo.square_map, grid, nxt, options=PROC)
        final = procpool.stats_snapshot()
        assert nxt[0].tobytes() == serial[0].tobytes()
        assert raised == [procpool.WorkerLost]
        assert final["launches"] == after["launches"] + 1
        assert final["serial_reexecutions"] == after["serial_reexecutions"]
        # The respawned process knows no kernel: its first task carries the IR.
        assert final["kernels_sent"] == after["kernels_sent"] + 1

    def test_persistent_death_sends_the_task_once_then_falls_back(self):
        """No fire budget: the shard would kill every worker it is sent
        to, but a task is sent at most once per launch."""
        grid = Grid.for_elements(N)
        plan = _at(_worker_b0(grid))
        args = _square_args(seed=6)
        serial = _run_serial(zoo.square_map, grid, args)
        before = procpool.stats_snapshot()
        with use_faults(plan):
            launch(zoo.square_map, grid, args, options=PROC)
        after = procpool.stats_snapshot()
        assert args[0].tobytes() == serial[0].tobytes()
        assert plan.fired == {SITE_WORKER: 1}
        assert after["tasks"] == before["tasks"] + 1
        assert after["workers_replaced"] == before["workers_replaced"] + 1
        assert after["serial_reexecutions"] == before["serial_reexecutions"] + 1

    def test_persistent_death_raises_worker_lost_to_the_fallback(self):
        grid = Grid.for_elements(N)
        fn, mod = resolve_kernel(zoo.square_map), resolve_module(zoo.square_map)
        compiled = get_compiled(fn, mod, grid, True)
        bound = bind_arguments(fn, _square_args(seed=6))
        with use_faults(_at(_worker_b0(grid))):
            with pytest.raises(procpool.WorkerLost):
                procpool.run_shards(
                    fn, mod, compiled, grid, bound, plan_shards(grid.total_blocks, 2),
                    2, ["out"], 30.0,
                )

    @pytest.mark.parametrize("mode", ["exception", "dead"])
    def test_the_callers_shard_is_a_fault_target(self, mode):
        """A plan that fires on its first poll hits ``plan[0]``, which the
        launching thread runs: the injected fault goes to the serial
        fallback like any shard's, and no worker is touched."""
        grid = Grid.for_elements(N)
        plan = FaultPlan([FaultSpec(SITE_WORKER, mode, max_fires=1)])
        args = _square_args(seed=13)
        serial = _run_serial(zoo.square_map, grid, args)
        before = procpool.stats_snapshot()
        with use_faults(plan):
            launch(zoo.square_map, grid, args, options=PROC)
        after = procpool.stats_snapshot()
        assert plan.fired == {SITE_WORKER: 1}
        assert args[0].tobytes() == serial[0].tobytes()
        assert after["serial_reexecutions"] == before["serial_reexecutions"] + 1
        assert after["workers_replaced"] == before["workers_replaced"]

    def test_an_injected_exception_in_a_worker_falls_back_to_serial(self):
        grid = Grid.for_elements(N)
        plan = _at(_worker_b0(grid), "exception")
        args = _square_args(seed=17)
        serial = _run_serial(zoo.square_map, grid, args)
        before = procpool.stats_snapshot()
        with use_faults(plan):
            launch(zoo.square_map, grid, args, options=PROC)
        after = procpool.stats_snapshot()
        assert plan.fired == {SITE_WORKER: 1}
        assert args[0].tobytes() == serial[0].tobytes()
        assert after["serial_reexecutions"] == before["serial_reexecutions"] + 1
        # The worker failed the shard and lives on.
        assert after["workers_replaced"] == before["workers_replaced"]
        assert procpool.get_process_pool(1).workers[0].alive()

    def test_a_worker_forked_inside_a_plan_holds_none(self):
        """The workers are forked inside ``use_faults``.  Every fire is the
        parent's, counted in its plan, and after the block nothing fires:
        a forked worker starts with no plan, so a later launch of the
        kernel the plan named compiles cleanly in the worker."""
        grid = Grid.for_elements(N)
        plan = FaultPlan([
            FaultSpec(SITE_COMPILE, match="gather_expensive"),
            FaultSpec(SITE_WORKER, match=f":{_worker_b0(grid)}-", max_fires=1),
        ])
        args = _square_args(seed=18)
        serial = _run_serial(zoo.square_map, grid, args)
        with use_faults(plan):
            launch(zoo.square_map, grid, args, options=PROC)  # forks the worker
        assert args[0].tobytes() == serial[0].tobytes()
        assert plan.fired == {SITE_WORKER: 1}
        kernel = zoo.gather_expensive
        rng = np.random.default_rng(18)
        idx = rng.integers(0, N, N).astype(np.int32)
        args = [np.zeros(N, np.float32), rng.random(N, dtype=np.float32) * 50 + 1, idx, N]
        serial = _run_serial(kernel, grid, args)
        before = procpool.stats_snapshot()
        launch(kernel, grid, args, options=PROC)
        after = procpool.stats_snapshot()
        assert args[0].tobytes() == serial[0].tobytes()
        assert after["serial_reexecutions"] == before["serial_reexecutions"]
        assert after["launches"] == before["launches"] + 1
        assert plan.fired == {SITE_WORKER: 1}

    def test_a_send_to_a_dead_worker_is_a_death(self, monkeypatch):
        """A worker killed after ``alive()`` said it lived: the send breaks
        its pipe, which loses the worker — never a kernel error — so the
        launch re-runs serially and the worker is respawned."""
        grid = Grid.for_elements(N)
        launch(zoo.square_map, grid, _square_args(seed=1), options=PROC)
        worker = procpool.get_process_pool(1).workers[0]
        os.kill(worker.process.pid, signal.SIGKILL)
        worker.process.join(timeout=10)
        assert worker.process.exitcode == -signal.SIGKILL
        monkeypatch.setattr(procpool._Worker, "alive", lambda self: True)
        args = _square_args(seed=14)
        serial = _run_serial(zoo.square_map, grid, args)
        before = procpool.stats_snapshot()
        launch(zoo.square_map, grid, args, options=PROC)
        after = procpool.stats_snapshot()
        assert args[0].tobytes() == serial[0].tobytes()
        assert after["workers_replaced"] == before["workers_replaced"] + 1
        assert after["serial_reexecutions"] == before["serial_reexecutions"] + 1
        monkeypatch.undo()
        assert procpool.get_process_pool(1).workers[0].alive()

    @pytest.mark.skipif(not os.path.isdir("/proc/self/fd"), reason="no /proc/self/fd")
    def test_respawns_leave_no_descriptor_behind(self):
        """Three die/respawn drills: each replaced worker's pipe and
        sentinel are closed, so the parent's descriptors are back where
        they were."""
        grid = Grid.for_elements(N)
        launch(zoo.square_map, grid, _square_args(seed=1), options=PROC)
        baseline = len(os.listdir("/proc/self/fd"))
        before = procpool.stats_snapshot()
        for seed in (2, 3, 4):
            plan = _at(_worker_b0(grid), max_fires=1)  # the live worker dies
            args = _square_args(seed=seed)
            serial = _run_serial(zoo.square_map, grid, args)
            with use_faults(plan):
                launch(zoo.square_map, grid, args, options=PROC)
            assert plan.fired == {SITE_WORKER: 1}, "the injected fault fired"
            assert args[0].tobytes() == serial[0].tobytes()
        after = procpool.stats_snapshot()
        assert after["workers_replaced"] - before["workers_replaced"] == 3
        assert len(os.listdir("/proc/self/fd")) == baseline

    @pytest.mark.parametrize(
        "shards, workers, bad",
        [(4, 2, (1, 2)), (5, 3, (2, 3))],
    )
    def test_a_worker_names_the_shard_that_raised(self, shards, workers, bad):
        """Out-of-range indices in two shards: the lower one's error is
        raised, even when the higher one is not its worker's first shard
        (with ``(5, 3)`` one worker runs shards 1 and 3, another 2 and 4)."""
        grid = Grid.for_elements(N)
        plan = plan_shards(grid.total_blocks, shards)
        rng = np.random.default_rng(15)
        idx = rng.integers(0, N, N).astype(np.int32)
        for extra, shard in enumerate(bad, start=1):
            idx[plan[shard][0] * grid.block_threads] = N + extra
        args = [np.zeros(N, np.float32), rng.random(N, dtype=np.float32) * 50 + 1, idx, N]
        fn = resolve_kernel(zoo.gather_expensive)
        mod = resolve_module(zoo.gather_expensive)
        compiled = get_compiled(fn, mod, grid, True)
        bound = bind_arguments(fn, args)
        with pytest.raises(ExecutionError, match=rf", {N + 1}\] vs size"):
            procpool.run_shards(
                fn, mod, compiled, grid, bound, plan, workers, ["out"], 30.0
            )
        assert not args[0].any()

    def test_the_callers_error_wins_and_holds_no_segment(self):
        """Shards 0 and 1 both fail: the caller's shard is the lowest, so
        its error is raised, after the worker has replied.  Its traceback
        holds no view of a segment: a view does not keep its mapping alive,
        so reading one after shutdown closed the segment would fault."""
        grid = Grid.for_elements(N)
        plan = plan_shards(grid.total_blocks, 2)
        rng = np.random.default_rng(16)
        idx = rng.integers(0, N, N).astype(np.int32)
        for extra, shard in enumerate((0, 1), start=1):
            idx[plan[shard][0] * grid.block_threads] = N + extra
        out = np.zeros(N, np.float32)
        args = [out, rng.random(N, dtype=np.float32) * 50 + 1, idx, N]
        with pytest.raises(ExecutionError, match=rf", {N + 1}\] vs size") as caught:
            launch(zoo.gather_expensive, grid, args, options=PROC)
        assert not out.any()
        assert procpool.get_process_pool(1).workers[0].alive()
        views, tb = [], caught.value.__traceback__
        while tb is not None:
            for value in tb.tb_frame.f_locals.values():
                for item in value.values() if isinstance(value, dict) else [value]:
                    if isinstance(item, np.ndarray) and isinstance(item.base, mmap.mmap):
                        views.append(item.shape)
            tb = tb.tb_next
        assert views == []

    def test_the_callers_error_wins_over_a_worker_death(self):
        """The caller's shard raises a bounds error and the worker dies in
        the same launch: the caller's error, the lowest shard's, is raised
        — not ``WorkerLost``, and not a serial re-run's, which would name
        the higher shard's index too — and the dead worker is respawned."""
        grid = Grid.for_elements(N)
        plan = plan_shards(grid.total_blocks, 2)
        rng = np.random.default_rng(19)
        idx = rng.integers(0, N, N).astype(np.int32)
        for extra, shard in enumerate((0, 1), start=1):
            idx[plan[shard][0] * grid.block_threads] = N + extra
        out = np.zeros(N, np.float32)
        args = [out, rng.random(N, dtype=np.float32) * 50 + 1, idx, N]
        faults = _at(_worker_b0(grid), max_fires=1)
        before = procpool.stats_snapshot()
        with use_faults(faults), pytest.raises(
            ExecutionError, match=rf", {N + 1}\] vs size"
        ):
            launch(zoo.gather_expensive, grid, args, options=PROC)
        after = procpool.stats_snapshot()
        assert faults.fired == {SITE_WORKER: 1}
        assert not out.any()
        assert after["serial_reexecutions"] == before["serial_reexecutions"]
        assert after["workers_replaced"] == before["workers_replaced"] + 1
        assert procpool.get_process_pool(1).workers[0].alive()

    def test_hung_shard_hits_guard_deadline(self):
        grid = Grid.for_elements(N)
        plan = _at(_worker_b0(grid), "hang", hang_seconds=30.0)
        args = _square_args(seed=7)
        serial = _run_serial(zoo.square_map, grid, args)
        before = procpool.stats_snapshot()
        with repro.options(guard=GuardPolicy(deadline_seconds=0.5)), use_faults(plan):
            launch(zoo.square_map, grid, args, options=PROC)
        after = procpool.stats_snapshot()
        assert np.array_equal(args[0], serial[0])
        assert after["deadline_timeouts"] == before["deadline_timeouts"] + 1
        assert after["serial_reexecutions"] == before["serial_reexecutions"] + 1
        # The hung worker was terminated before the launch gave its
        # segments back, and its replacement has been sent nothing.
        pool = procpool.get_process_pool(1)
        assert pool.segments.free_bytes == 2 * N * 4
        assert pool.workers[0].alive() and pool.workers[0].sent == set()

    def test_kernel_exception_propagates_and_buffers_stay_clean(self):
        rng = np.random.default_rng(8)
        idx = rng.integers(0, N, N).astype(np.int32)
        idx[-1] = N + 7  # out of range, in the last block's territory
        out = np.zeros(N, np.float32)
        args = [out, rng.random(N, dtype=np.float32) * 50 + 1, idx, N]
        with pytest.raises(ExecutionError, match="out of range"):
            launch(zoo.gather_expensive, Grid.for_elements(N), args, options=PROC)
        # Shards run on staged copies; a failed launch must leave the
        # caller's buffers untouched.
        assert not out.any()


class TestPoolLifecycle:
    def test_pool_grows_and_never_shrinks(self):
        pool = procpool.get_process_pool(2)
        assert pool.size >= 2
        bigger = procpool.get_process_pool(3)
        assert bigger is pool and pool.size >= 3
        assert procpool.get_process_pool(1).size >= 3

    def test_shutdown_then_relaunch(self):
        grid = Grid.for_elements(N)
        args = _square_args(seed=11)
        serial = _run_serial(zoo.square_map, grid, args)
        launch(zoo.square_map, grid, args, options=PROC)
        shutdown_process_pool()
        args2 = _square_args(seed=11)
        launch(zoo.square_map, grid, args2, options=PROC)
        assert np.array_equal(args2[0], serial[0])


#: One launch sequence per mode, each forking a worker *after* the
#: parent's resource tracker exists.  Such a worker shares that tracker,
#: so anything it unregisters is the parent's own registration — and the
#: parent's later unlink makes the tracker print a KeyError traceback.
TRACKER_CHILD = textwrap.dedent(
    """
    import copy, sys
    import repro
    from repro.apps.registry import make_app
    from repro.parallel import shutdown_process_pool

    mode = sys.argv[1]
    if mode == "tracker_first":  # a host program that touched shm first
        from multiprocessing import resource_tracker
        resource_tracker.ensure_running()
    app = make_app("gamma", seed=0)
    inputs = app.generate_inputs()
    with repro.options(backend="codegen"):
        serial, _trace = app.run_exact(copy.deepcopy(inputs))

    def launch(workers):
        with repro.options(
            backend="codegen", parallel=workers, executor="process",
            min_shard_threads=1,
        ):
            out, _trace = app.run_exact(copy.deepcopy(inputs))
        assert out.dtype == serial.dtype and out.tobytes() == serial.tobytes()

    if mode == "grow":
        for workers in (2, 3, 2):
            launch(workers)
    elif mode == "restart":
        launch(2)
        shutdown_process_pool()
        launch(2)
    else:
        launch(2)
    shutdown_process_pool()
    print("BIT-EXACT")
    """
)


class TestResourceTracker:
    @pytest.mark.parametrize("mode", ["grow", "restart", "tracker_first"])
    def test_late_forked_workers_leave_the_tracker_clean(self, mode):
        src = os.path.abspath(
            os.path.join(os.path.dirname(__file__), "..", "..", "src")
        )
        existing = os.environ.get("PYTHONPATH")
        env = dict(
            os.environ,
            PYTHONPATH=src + (os.pathsep + existing if existing else ""),
        )
        child = subprocess.run(
            [sys.executable, "-c", TRACKER_CHILD, mode],
            capture_output=True, text=True, env=env, timeout=120,
        )
        assert child.returncode == 0, child.stderr
        assert child.stdout.strip() == "BIT-EXACT"
        assert child.stderr == ""


class TestObservability:
    def test_proc_spans_reach_the_trace_stream(self):
        from repro.codegen import clear_cache
        from repro.obs import trace as obs_trace

        clear_cache()  # the caller's shard plans in this process
        was_enabled = obs_trace.enabled()
        obs_trace.enable()
        try:
            obs_trace.drain_records()
            grid = Grid.for_elements(N)
            launch(zoo.square_map, grid, _square_args(seed=12), options=PROC)
            records = obs_trace.drain_records()
        finally:
            if not was_enabled:
                obs_trace.disable()
        names = [r["name"] for r in records if r["type"] == "span"]
        assert "proc.launch" in names
        shard_spans = [
            r for r in records
            if r["type"] == "span" and r["name"] == "proc.shard"
        ]
        assert shard_spans, "worker-reported shard spans are emitted"
        parent = next(r for r in records if r["name"] == "proc.launch")
        assert all(s["trace_id"] == parent["trace_id"] for s in shard_spans)
        assert [s["attrs"]["planned"] for s in shard_spans] == [False, False]
        # the caller runs plan[0] itself, the one worker process the rest
        assert [s["attrs"]["worker"] for s in shard_spans] == ["caller", 0]
        assert [s["attrs"]["blocks"] for s in shard_spans] == ["0:8", "8:16"]

    def test_planned_shards_show_in_spans_and_in_the_registry(self):
        from repro.obs import render_prometheus
        from repro.obs import trace as obs_trace
        from repro.parallel.shard import stats_snapshot as shard_stats

        grid = Grid.for_elements(N)
        for seed in (1, 2):  # unplanned, building
            launch(zoo.square_map, grid, _square_args(seed=seed), options=PROC)
        before = shard_stats()["planned"]
        was_enabled = obs_trace.enabled()
        obs_trace.enable()
        try:
            obs_trace.drain_records()
            launch(zoo.square_map, grid, _square_args(seed=3), options=PROC)
            records = obs_trace.drain_records()
        finally:
            if not was_enabled:
                obs_trace.disable()
        planned = [r["attrs"]["planned"] for r in records if r["name"] == "proc.shard"]
        assert planned == [True, True]
        assert shard_stats()["planned"] == before + 2
        exposition = render_prometheus()
        for series in (
            "repro_shard_planned", "repro_procpool_segments_reused",
            "repro_procpool_kernels_sent",
        ):
            assert series in exposition
