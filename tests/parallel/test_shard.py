"""Sharded execution: planning, bit-exactness, and transparent fallback.

The differential cases mirror ``tests/codegen/test_differential.py``'s
zoo coverage: if a kernel exercises a semantics corner for codegen, the
same corner must survive sharding.
"""

import sys
import threading
from dataclasses import replace

import numpy as np
import pytest

import kernel_zoo as zoo
import repro
from repro import LaunchOptions
from repro.engine import Grid, launch
from repro.conformance import PLANNED_LAUNCHES, Cell, check, kernel_subject, run_cell
from repro.errors import ExecutionError
from repro.parallel import procpool, shard
from repro.parallel.shard import STATS, plan_shards
from repro.resilience import GuardPolicy, stats_snapshot as guard_stats
from repro.resilience.faults import FAULT_CLASSES, FaultPlan, FaultSpec, use_faults


def _codegen(parallel=None, **fields):
    return LaunchOptions(backend="codegen", parallel=parallel, **fields)


SERIAL = Cell(backend="codegen")


def _sharded_vs_serial(kernel, grid, args, **lane):
    """The ``exact`` check with serial codegen as the reference: only the
    sharding lane differs between the two runs."""
    subject = kernel_subject(kernel, grid, args)
    return check(subject, replace(SERIAL, **lane), reference=run_cell(subject, SERIAL))


class TestPlanShards:
    @pytest.mark.parametrize(
        "blocks,workers", [(1, 1), (4, 2), (7, 3), (100, 8), (3, 16), (2, 2)]
    )
    def test_plan_properties(self, blocks, workers):
        plan = plan_shards(blocks, workers)
        assert len(plan) <= workers
        assert all(b1 > b0 for b0, b1 in plan), "every shard non-empty"
        # contiguous cover of [0, blocks)
        assert plan[0][0] == 0 and plan[-1][1] == blocks
        for (_, prev_end), (start, _) in zip(plan, plan[1:]):
            assert start == prev_end
        sizes = [b1 - b0 for b0, b1 in plan]
        assert max(sizes) - min(sizes) <= 1, "balanced to within one block"

    def test_more_workers_than_blocks(self):
        assert plan_shards(3, 16) == [(0, 1), (1, 2), (2, 3)]

    def test_remainder_goes_to_leading_shards(self):
        assert plan_shards(7, 3) == [(0, 3), (3, 5), (5, 7)]


def _rand(n, seed=0):
    return np.random.default_rng(seed).random(n, dtype=np.float32)


# Shardable zoo kernels with launch recipes (same shapes as the codegen
# differential suite).  atomic_histogram / impure_map are covered by the
# fallback tests below instead.
SHARDABLE_CASES = {
    "black_scholes": lambda n: (
        zoo.black_scholes,
        Grid.for_elements(n),
        [
            np.zeros(n, np.float32),
            _rand(n, 1) * 100 + 1,
            _rand(n, 2) * 100 + 1,
            _rand(n, 3) + 0.1,
            0.02,
            0.3,
            n,
        ],
    ),
    "square_map": lambda n: (
        zoo.square_map,
        Grid.for_elements(n),
        [np.zeros(n, np.float32), _rand(n), n],
    ),
    "clamp_map": lambda n: (
        zoo.clamp_map,
        Grid.for_elements(n),
        [np.zeros(n, np.float32), _rand(n) * 2 - 0.5, n],
    ),
    "divergent_return": lambda n: (
        zoo.divergent_return,
        Grid.for_elements(n),
        [np.zeros(n, np.float32), _rand(n), n],
    ),
    "mean3x3": lambda n: (
        zoo.mean3x3,
        Grid.for_image(32, 24),
        [np.zeros(32 * 24, np.float32), _rand(32 * 24), 32, 24],
    ),
    "row_stencil": lambda n: (
        zoo.row_stencil,
        Grid.for_elements(n),
        [np.zeros(n, np.float32), _rand(n), n],
    ),
    "sum_chunks": lambda n: (
        # n=1000 gives 250 output threads = one block; quadruple the data
        # so the grid actually has blocks to shard
        zoo.sum_chunks,
        Grid.for_elements(n),
        [np.zeros(n, np.float32), _rand(n * 4), n * 4, 4],
    ),
    "min_reduce": lambda n: (
        zoo.min_reduce,
        Grid.for_elements(1024),
        [np.full(1024, 3.4e38, np.float32), _rand(8192, 5), 8192, 8],
    ),
    "scan_phase1": lambda n: (
        # shared memory + barriers: blocks stay whole, sbid/nsb remapping
        zoo.scan_phase1,
        Grid(4, zoo.SCAN_BLOCK),
        [
            np.zeros(4 * zoo.SCAN_BLOCK, np.float32),
            np.zeros(4, np.float32),
            _rand(4 * zoo.SCAN_BLOCK, 6),
        ],
    ),
    "gather_expensive": lambda n: (
        zoo.gather_expensive,
        Grid.for_elements(n),
        [
            np.zeros(n, np.float32),
            _rand(n, 7) * 50 + 1,
            np.random.default_rng(8).integers(0, n, n).astype(np.int32),
            n,
        ],
    ),
    "noop": lambda n: (
        zoo.noop,
        Grid.for_elements(n),
        [np.zeros(n, np.float32), _rand(n), n],
    ),
    # The compiled kernels' index resolution reads each shard's *slice* of
    # the parent's id arrays (reinterpreted as unsigned): dead lanes
    # outside the range.
    "border_stencil": zoo.ACCESS_CASES["border_stencil"],
}

# Kernels the analysis keeps serial although their blocks never observe
# one another: stores not proved private (2-D tiles, indices through ``/``
# and ``%``) or arrays loaded and stored (a shard run twice over one copy
# would apply twice).  Every lane must answer as serial does, serially.
SERIAL_CASES = {
    # 2-D grid: y*w + x is not proved private
    "tile_scale2d": lambda n: (
        zoo.tile_scale2d,
        Grid.for_image(50, 30),
        [np.zeros(1500, np.float32), _rand(1500), 50, 30, 1.7],
    ),
    "tiled_matmul": zoo.ACCESS_CASES["tiled_matmul"],
    "transpose_i64": zoo.ACCESS_CASES["transpose_i64"],
    # loads the array it stores
    "saxpy_inplace": zoo.saxpy_case,
    "rescale_inplace": lambda n: (
        zoo.rescale_inplace, Grid.for_elements(n), [_rand(n, 15), 1.5, n]
    ),
}


@pytest.mark.parametrize("workers", [2, 3, 4])
@pytest.mark.parametrize("name", sorted(SHARDABLE_CASES.keys() | SERIAL_CASES.keys()))
def test_sharded_bit_exact(name, workers):
    """Bit-exact at every worker count.  A shardable kernel shards every
    launch of the cell, the plan-building and the plan-reading one too; an
    unshardable one runs every launch serial and says so."""
    kernel, grid, args = {**SHARDABLE_CASES, **SERIAL_CASES}[name](1000)
    before = STATS.snapshot()
    result = _sharded_vs_serial(kernel, grid, args, workers=workers)
    assert result.status == "ok", result.describe()
    after = STATS.snapshot()
    sharded = PLANNED_LAUNCHES if name in SHARDABLE_CASES else 0
    assert after["sharded_launches"] == before["sharded_launches"] + sharded, (
        f"{name} should {'' if sharded else 'not '}have sharded"
    )
    unshardable = PLANNED_LAUNCHES - sharded
    assert after["serial_unshardable"] == before["serial_unshardable"] + unshardable


@pytest.fixture
def _process_pool():
    repro.reset()
    yield
    repro.reset()


_LANES = [dict(), dict(guard=True), dict(executor="process")]


@pytest.mark.parametrize("ambient", _LANES, ids=["thread", "guarded", "process"])
@pytest.mark.parametrize("name", sorted(SERIAL_CASES))
def test_unshardable_kernels_run_serial_on_every_lane(name, ambient, _process_pool):
    kernel, grid, args = SERIAL_CASES[name](1000)
    before = STATS.snapshot()
    result = _sharded_vs_serial(kernel, grid, args, workers=2, **ambient)
    assert result.status == "ok", result.describe()
    after = STATS.snapshot()
    assert after["serial_unshardable"] == before["serial_unshardable"] + PLANNED_LAUNCHES
    assert after["sharded_launches"] == before["sharded_launches"]


# One shard body and one fallback serve every lane, so the same
# differential must hold on each, and one rule says where shards write:
# square_map's and border_stencil's stores are provably private and into
# an array they never load, so in place — the caller's buffers with no
# guard, launch staging under one or on worker processes.
@pytest.mark.parametrize(
    "name,ambient,snapshot,counter",
    [
        # a guarded thread launch never writes the caller's buffers in place
        ("square_map", dict(guard=True), STATS.snapshot, "staged"),
        ("square_map", dict(guard=True), STATS.snapshot, "zero_copy"),
        ("square_map", dict(executor="process"), procpool.stats_snapshot, "direct"),
        ("border_stencil", dict(guard=True), STATS.snapshot, "staged"),
        ("border_stencil", dict(executor="process"), procpool.stats_snapshot, "direct"),
        ("border_stencil", dict(executor="process"), STATS.snapshot, "staged"),
    ],
)
def test_sharded_bit_exact_on_every_lane(
    name, ambient, snapshot, counter, _process_pool
):
    kernel, grid, args = SHARDABLE_CASES[name](1000)
    before = snapshot()
    result = _sharded_vs_serial(kernel, grid, args, workers=2, **ambient)
    assert result.status == "ok", result.describe()
    assert snapshot()[counter] == before[counter] + PLANNED_LAUNCHES


# Each store site of these kernels is private, but the two sites of one
# array overlap across blocks: in place, shards race on the shared
# elements.  So they run serial on every lane.
@pytest.mark.parametrize("executor", ["thread", "process"])
@pytest.mark.parametrize("name", ["overlapping_thread_stores", "overlapping_block_stores"])
def test_stores_overlapping_across_blocks_run_serial(name, executor, _process_pool):
    n = 4096
    args = [np.zeros(n + 1, np.float32), n]
    before = STATS.snapshot()
    result = _sharded_vs_serial(
        getattr(zoo, name), Grid.for_elements(n), args, workers=2, executor=executor
    )
    assert result.status == "ok", result.describe()
    after = STATS.snapshot()
    assert after["serial_unshardable"] == before["serial_unshardable"] + PLANNED_LAUNCHES
    assert after["sharded_launches"] == before["sharded_launches"]


@pytest.mark.parametrize("executor", ["thread", "process"])
def test_a_loop_stop_that_varies_per_block_raises_as_serial_does(executor, _process_pool):
    """``block_varying_bound``'s loop stop is one value inside each block,
    so a one-block shard would run it; the whole grid must refuse it."""

    def outcome(**fields):
        out = np.zeros(2, np.float32)
        try:
            launch(zoo.block_varying_bound, Grid(2, 64), [out, 0], options=LaunchOptions(**fields))
        except ExecutionError as exc:
            return str(exc)
        return f"returned {out.tolist()}"

    serial = outcome(backend="interp")
    assert "loop stop must be uniform across threads" in serial
    assert outcome(backend="codegen") == serial
    sharded = dict(parallel=2, min_shard_threads=1, executor=executor)
    assert outcome(backend="codegen", **sharded) == serial


def _original_bytes_last(threads):
    """``1 .. threads`` with the last lane's value 0.0: the bytes ``out``
    holds before the launch."""
    x = np.arange(1, threads + 1, dtype=np.float32)
    x[-1] = 0.0
    return x


@pytest.mark.parametrize(
    "lane",
    [dict(), dict(workers=2), dict(workers=2, guard=True), dict(workers=2, executor="process")],
)
@pytest.mark.parametrize(
    "values", [lambda threads: _rand(threads, 16), _original_bytes_last],
    ids=["random", "original_bytes_last"],
)
def test_per_lane_values_stored_at_a_uniform_index_leave_the_last_lane(
    lane, values, _process_pool
):
    """``out[n] = x[global_id()]`` with no mask: every lane writes the one
    element and the last lane's value stays, on the first launch and on
    the planned ones, on every lane — the same rule a masked store obeys.
    The last lane may store back the very bytes ``out`` held.  Every block
    stores the one element, so the launch runs serial."""
    grid, n = Grid(2, 4), 5
    x = values(grid.threads)
    subject = kernel_subject(zoo.uniform_store, grid, [np.zeros(8, np.float32), x, n])
    reference = run_cell(subject, Cell())
    assert not reference.error, reference.error
    assert reference.arrays[0][n] == x[-1]
    before = STATS.snapshot()
    result = check(subject, replace(SERIAL, **lane), reference=reference)
    assert result.status == "ok", result.describe()
    after = STATS.snapshot()
    assert after["sharded_launches"] == before["sharded_launches"]
    unshardable = PLANNED_LAUNCHES if lane else 0
    assert after["serial_unshardable"] == before["serial_unshardable"] + unshardable


@pytest.mark.parametrize("backend", ["interp", "codegen"])
def test_a_uniform_store_with_or_without_a_mask_leaves_the_last_active_lane(backend):
    """The masked store keeps the last active lane's value; the unmasked
    one keeps what the same mask with every lane active keeps — on each
    backend, on the first launch and on the planned ones."""
    grid, n = Grid(2, 4), 5
    x = _rand(grid.threads, 17)
    lane = LaunchOptions(backend=backend)

    def stored(kern, *tail):
        out = np.zeros(8, np.float32)
        launch(kern, grid, [out, x, n, *tail], options=lane)
        return out

    for _launch in range(PLANNED_LAUNCHES):
        for m in (1, 3, grid.threads):
            masked = stored(zoo.masked_uniform_store, m)
            assert masked[n] == x[m - 1] and np.count_nonzero(masked) == 1
        unmasked = stored(zoo.uniform_store)
        assert unmasked.tobytes() == masked.tobytes()


@pytest.mark.parametrize("name", ["square_map", "border_stencil"])
def test_serial_reexecution_after_worker_crash_is_bit_exact(name):
    """An injected ``worker_crash`` past the retry budget lands on the one
    fallback: serial re-execution on buffers no shard touched."""
    site, _modes = FAULT_CLASSES["worker_crash"]
    kernel, grid, args = SHARDABLE_CASES[name](1000)
    plan = FaultPlan([FaultSpec(site, mode="exception")])
    before = guard_stats()["serial_reexecutions"]
    with use_faults(plan):
        result = _sharded_vs_serial(kernel, grid, args, workers=2, guard=True)
    assert result.status == "ok", result.describe()
    assert plan.total_fired() > 0
    # the plan fires on every launch of the cell, and each one falls back
    assert guard_stats()["serial_reexecutions"] == before + PLANNED_LAUNCHES


class TestTransparentFallback:
    def test_unshardable_kernel_runs_serial(self):
        n = 1024
        rng = np.random.default_rng(4)
        data = rng.integers(0, 16, n).astype(np.int32)
        hist_parallel = np.zeros(16, np.int32)
        hist_serial = np.zeros(16, np.int32)
        before = STATS.snapshot()
        launch(
            zoo.atomic_histogram,
            Grid.for_elements(n),
            [hist_parallel, data, n, 1],
            options=_codegen(4, min_shard_threads=1),
        )
        after = STATS.snapshot()
        assert after["serial_unshardable"] == before["serial_unshardable"] + 1
        assert after["sharded_launches"] == before["sharded_launches"]
        launch(
            zoo.atomic_histogram,
            Grid.for_elements(n),
            [hist_serial, data, n, 1],
            options=_codegen(),
        )
        np.testing.assert_array_equal(hist_parallel, hist_serial)

    def test_small_grid_runs_serial(self):
        n = 64
        out = np.zeros(n, np.float32)
        before = STATS.snapshot()
        launch(
            zoo.square_map,
            Grid.for_elements(n),
            [out, _rand(n), n],
            # default 2048-thread floor
            options=_codegen(4),
        )
        after = STATS.snapshot()
        assert after["serial_small_grid"] == before["serial_small_grid"] + 1
        assert after["sharded_launches"] == before["sharded_launches"]

    def test_single_block_grid_runs_serial(self):
        threads = 256
        out = np.zeros(threads, np.float32)
        before = STATS.snapshot()
        launch(
            zoo.square_map,
            Grid(1, threads),
            [out, _rand(threads), threads],
            options=_codegen(4, min_shard_threads=1),
        )
        after = STATS.snapshot()
        assert after["serial_small_grid"] == before["serial_small_grid"] + 1

    def test_ambient_scope_shards_without_launch_arg(self):
        n = 4096
        out = np.zeros(n, np.float32)
        before = STATS.sharded_launches
        with repro.options(parallel=4, min_shard_threads=1):
            launch(
                zoo.square_map,
                Grid.for_elements(n),
                [out, _rand(n), n],
                options=_codegen(),
            )
        assert STATS.sharded_launches == before + 1

    def test_interp_backend_never_shards(self):
        n = 4096
        out = np.zeros(n, np.float32)
        before = STATS.snapshot()
        with repro.options(backend="interp", parallel=4, min_shard_threads=1):
            launch(zoo.square_map, Grid.for_elements(n), [out, _rand(n), n])
        after = STATS.snapshot()
        assert after == before  # sharding is a codegen-path feature


class TestAssemblyModes:
    def test_zero_copy_counted_for_disjoint_stores(self):
        n = 4096
        out = np.zeros(n, np.float32)
        before = STATS.snapshot()
        launch(
            zoo.square_map,
            Grid.for_elements(n),
            [out, _rand(n), n],
            options=_codegen(4, min_shard_threads=1),
        )
        after = STATS.snapshot()
        assert after["zero_copy"] == before["zero_copy"] + 1
        assert after["overlay"] == before["overlay"]

    def test_shards_run_matches_plan(self):
        n = 4096
        out = np.zeros(n, np.float32)
        before = STATS.shards_run
        launch(
            zoo.square_map,
            Grid.for_elements(n),
            [out, _rand(n), n],
            options=_codegen(3, min_shard_threads=1),
        )
        assert STATS.shards_run == before + 3


GUARDED = dict(backend="codegen", parallel=2, min_shard_threads=1, guard=GuardPolicy())


class TestStaging:
    """The free list guarded thread launches take their staging from."""

    @pytest.fixture(autouse=True)
    def _empty_list(self, staging):
        self.staging = staging

    def test_a_buffer_serves_a_shorter_array_of_its_size_class(self):
        """1 024 floats, then 1 000 of which the kernel stores 500, staged
        over the same 4 KiB buffer: the view is filled whole from the
        caller's array, so the elements the second launch does not store
        come back as the caller's, not as the first launch's squares."""
        x = _rand(1024, 1) + 1.0
        with repro.options(**GUARDED):
            launch(zoo.square_map, Grid.for_elements(1024), [np.zeros(1024, np.float32), x, 1024])
            (first,) = self.staging.idle()
            out = np.full(1000, -1.0, np.float32)
            launch(zoo.square_map, Grid.for_elements(1000), [out, x[:1000], 500])
        assert self.staging.idle() == [first] and first.nbytes == 4096
        assert out[:500].tobytes() == (x[:500] * x[:500]).tobytes()
        assert (out[500:] == -1.0).all()

    def test_the_free_list_is_bounded(self, monkeypatch):
        monkeypatch.setattr(shard, "_STAGING_KEPT_BYTES_MAX", 4096)
        with repro.options(**GUARDED):
            for n in (1024, 4096):  # 4 KiB fits, 16 KiB is dropped
                launch(zoo.square_map, Grid.for_elements(n), [np.zeros(n, np.float32), _rand(n), n])
        assert self.staging.free_bytes == 4096 == sum(raw.nbytes for raw in self.staging.idle())

    def test_scribbled_idle_staging_never_shows_in_an_output(self):
        kernel, grid, args = SHARDABLE_CASES["border_stencil"](1000)
        subject = kernel_subject(kernel, grid, args)
        reference = run_cell(subject, SERIAL)
        lane = replace(SERIAL, workers=2, guard=True)
        assert check(subject, lane, reference=reference).status == "ok"
        shard.scribble_staging()
        assert all((raw == 0xFF).all() for raw in self.staging.idle()) and self.staging.idle()
        assert check(subject, lane, reference=reference).status == "ok"

    def test_callers_on_several_threads_never_share_a_buffer(self):
        """Three guarded callers at once: no buffer is with two launches
        at a time (it would show as another caller's data in an output)."""
        n = 4096
        grid = Grid.for_elements(n)
        failures, barrier = [], threading.Barrier(3)
        lock, held, shared = threading.Lock(), set(), []
        take, give = self.staging.take, self.staging.give

        def checked_take(array):
            view = take(array)
            with lock:
                if id(view.base) in held:
                    shared.append(id(view.base))
                held.add(id(view.base))
            return view

        def checked_give(views):
            views = list(views)
            with lock:
                held.difference_update(id(view.base) for view in views)
            give(views)

        self.staging.take, self.staging.give = checked_take, checked_give

        def caller(number):
            barrier.wait(timeout=30)
            with repro.options(**GUARDED):
                for turn in range(8):
                    x = _rand(n, 10 * number + turn)
                    out = np.zeros(n, np.float32)
                    launch(zoo.square_map, grid, [out, x, n])
                    if out.tobytes() != (x * x).tobytes():
                        failures.append((number, turn))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [threading.Thread(target=caller, args=(i,)) for i in range(3)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
                assert not t.is_alive()
        finally:
            sys.setswitchinterval(interval)
        assert failures == [] and shared == [] and not held
        idle = self.staging.idle()
        assert 1 <= len(idle) <= 3 and len({id(raw) for raw in idle}) == len(idle)
        assert self.staging.free_bytes == sum(raw.nbytes for raw in idle)


class TestErrorPropagation:
    @pytest.mark.parametrize("executor", ["thread", "process"])
    def test_live_border_lane_raises_in_the_shard_that_owns_it(
        self, executor, _process_pool
    ):
        """Shard 0 holds lane 0 (``x[-1]``, live): the launch raises, and
        the range it reports is the one over that shard's slice of the ids."""
        subject = kernel_subject(*zoo.border_case(zoo.border_stencil_unguarded, 1024))
        error = run_cell(subject, replace(SERIAL, workers=2, executor=executor)).error
        assert "ExecutionError" in error
        assert "index into 'x' out of range [-1, 510] vs size 1024" in error

    def test_bounds_violation_raises_under_sharding(self):
        n = 4096
        out = np.zeros(n // 2, np.float32)  # too small: threads n//2..n-1 OOB
        with pytest.raises(ExecutionError):
            launch(
                zoo.square_map,
                Grid.for_elements(n),
                [out, _rand(n), n],
                bounds_check=True,
                options=_codegen(4, min_shard_threads=1),
            )
