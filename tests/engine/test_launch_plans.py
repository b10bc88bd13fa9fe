"""What keys a launch plan: every launch takes the path its effective
options record names, however many plans were built before it."""

import numpy as np
import pytest

import kernel_zoo as zoo
from repro import LaunchOptions, options
from repro.codegen import clear_cache, stats_snapshot as codegen_stats
from repro.engine import Grid, add_launch_hook, launch, remove_launch_hook
from repro.errors import ExecutionError
from repro.parallel.shard import stats_snapshot as shard_stats

N = 4096
GRID = Grid.for_elements(N, 256)  # 16 blocks: two shards have work
GRID_2D = Grid(blocks=4, threads_per_block=32, blocks_y=4, threads_per_block_y=8)


@pytest.fixture()
def x():
    return np.random.default_rng(7).random(N, dtype=np.float32)


@pytest.fixture()
def reference(x):
    out = np.zeros(N, np.float32)
    with options(backend="interp"):
        launch(zoo.square_map, GRID, [out, x, np.int32(N)])
    return out


def _launch(x, grid=GRID, **kwargs):
    """One launch of ``square_map``, with the counters it moved."""
    out = np.zeros(N, np.float32)
    codegen, shards = codegen_stats(), shard_stats()
    trace = launch(zoo.square_map, grid, [out, x, np.int32(N)], **kwargs)
    moved = {
        "compiles": codegen_stats()["compiles"] - codegen["compiles"],
        "hits": codegen_stats()["cache_hits"] - codegen["cache_hits"],
        "sharded": shard_stats()["sharded_launches"] - shards["sharded_launches"],
        "interpreted": trace.total_ops() > 0,
    }
    return out, moved


def test_each_launch_takes_the_path_its_record_names(x, reference):
    clear_cache()
    serial_codegen = {"compiles": 0, "hits": 1, "sharded": 0, "interpreted": False}
    with options(backend="codegen"):
        out, moved = _launch(x)
        assert moved == {**serial_codegen, "compiles": 1, "hits": 0}
        assert out.tobytes() == reference.tobytes()
        out, moved = _launch(x)  # the plan's kernel, counted as a hit
        assert moved == serial_codegen
        assert out.tobytes() == reference.tobytes()

        with options(backend="interp"):
            out, moved = _launch(x)
        assert moved == {"compiles": 0, "hits": 0, "sharded": 0, "interpreted": True}
        assert out.tobytes() == reference.tobytes()

        out, moved = _launch(x, options=LaunchOptions(parallel=2, min_shard_threads=1))
        assert moved == {**serial_codegen, "sharded": 1}
        assert out.tobytes() == reference.tobytes()

        out, moved = _launch(x)  # back on the serial plan
        assert moved == serial_codegen

        clear_cache()  # drops the plans with the kernels they hold
        out, moved = _launch(x)
        assert moved == {**serial_codegen, "compiles": 1, "hits": 0}
        assert out.tobytes() == reference.tobytes()

        out, moved = _launch(x, grid=GRID_2D)  # a grid class of its own
        assert moved == {**serial_codegen, "compiles": 1, "hits": 0}
        assert out.tobytes() == reference.tobytes()
        out, moved = _launch(x, grid=GRID_2D)
        assert moved == serial_codegen
        assert out.tobytes() == reference.tobytes()


def test_a_trace_and_the_bounds_mode_key_plans_too(x, reference):
    from repro.engine import Trace

    clear_cache()
    with options(backend="auto"):
        _launch(x)
        out, moved = _launch(x, trace=Trace())  # a trace needs the interpreter
        assert moved == {"compiles": 0, "hits": 0, "sharded": 0, "interpreted": True}
        assert out.tobytes() == reference.tobytes()
        out, moved = _launch(x, bounds_check=False)  # a kernel of its own
        assert moved == {"compiles": 1, "hits": 0, "sharded": 0, "interpreted": False}
        assert out.tobytes() == reference.tobytes()


def test_auto_plan_falls_back_per_launch_not_per_plan(x, reference):
    """A compile fault under ``"auto"`` serves that launch on the
    interpreter; the plan keeps its kernel and the next launch compiles
    nothing and runs it."""
    from repro.resilience.faults import SITE_COMPILE, FaultPlan, FaultSpec, use_faults

    auto = LaunchOptions(backend="auto")
    _launch(x, options=auto)
    with use_faults(FaultPlan([FaultSpec(SITE_COMPILE, max_fires=1)])):
        out, moved = _launch(x, options=auto)
    assert moved["interpreted"] and moved["hits"] == 0
    assert out.tobytes() == reference.tobytes()
    out, moved = _launch(x, options=auto)
    assert moved == {"compiles": 0, "hits": 1, "sharded": 0, "interpreted": False}
    assert out.tobytes() == reference.tobytes()


def test_a_hook_added_after_warm_up_sees_the_next_launch(x):
    with options(backend="codegen"):
        _launch(x)
        _launch(x)
        seen = []
        hook = add_launch_hook(seen.append)
        try:
            _launch(x)
        finally:
            remove_launch_hook(hook)
        _launch(x)
    assert [(e.kernel, e.backend) for e in seen] == [("square_map", "codegen")]


def test_arguments_are_checked_on_every_launch(x):
    with options(backend="codegen"):
        _launch(x)
        with pytest.raises(ExecutionError, match="dtype"):
            launch(zoo.square_map, GRID, [np.zeros(N), x, np.int32(N)])
        with pytest.raises(ExecutionError, match="takes 3 arguments"):
            launch(zoo.square_map, GRID, [np.zeros(N, np.float32), x])
