"""Wall-clock floors for sharded launches.

The module holds the two sharded floors and nothing else (variants are
profiled serially, so there is no tuning floor here).  Both are asserted
on hosts with enough cores (CI's 4-vCPU runners; single-core containers
skip — there is nothing to measure): a large map grid and a large stencil
grid split across 4 workers must beat serial codegen by
``REPRO_PARALLEL_MIN_SPEEDUP`` (default 1.5x).  The compiled callables
release the GIL inside NumPy ufuncs, so threads scale on real cores.

Since address plans (docs/CODEGEN.md) a codegen launch may read its masks
and resolved indices from a plan, and since shard views are cached a shard
plans the same way (docs/PARALLEL.md, "Shards plan"), so both sides of the
two sharded-vs-serial floors plan whenever their plan fits.  At the 4M
threads used here the serial side's does not — one branch mask is 4 MiB,
the whole ``PLAN_BYTE_CAP`` — while a quarter-grid shard's masks do, so the
sharded side may read plans the serial side cannot keep.  The floors were
left as they are and were **not run** for either change: this module skips
below 4 cores and the image it was written on has 2.
"""

import os
import time

import numpy as np

import kernel_zoo as zoo
from repro import LaunchOptions
from repro.engine import Grid, launch
from repro.parallel import host_worker_count

import pytest

WORKERS = 4
N = 1 << 22  # 4M threads: large enough that pool handoff is noise
LAUNCHES = 20
MIN_SPEEDUP = float(os.environ.get("REPRO_PARALLEL_MIN_SPEEDUP", "1.5"))

needs_cores = pytest.mark.skipif(
    host_worker_count() < WORKERS,
    reason=f"needs >= {WORKERS} cores, have {host_worker_count()}",
)


def _time_launches(kernel, grid, args, **sharding) -> float:
    opts = LaunchOptions(backend="codegen", **sharding)
    launch(kernel, grid, args, options=opts)  # warm
    best = float("inf")
    for _repeat in range(3):
        started = time.perf_counter()
        for _ in range(LAUNCHES):
            launch(kernel, grid, args, options=opts)
        best = min(best, time.perf_counter() - started)
    return best


@needs_cores
def test_sharded_map_beats_serial_codegen():
    rng = np.random.default_rng(0)
    args = [
        np.zeros(N, np.float32),
        rng.random(N, dtype=np.float32) * 100 + 1,
        rng.random(N, dtype=np.float32) * 100 + 1,
        rng.random(N, dtype=np.float32) + 0.1,
        np.float32(0.02),
        np.float32(0.3),
        np.int32(N),
    ]
    grid = Grid.for_elements(N)
    serial = _time_launches(zoo.black_scholes, grid, args, parallel=1)
    sharded = _time_launches(
        zoo.black_scholes,
        grid,
        args,
        parallel=WORKERS,
        min_shard_threads=1,
    )
    speedup = serial / sharded
    print(
        f"\n{LAUNCHES} blackscholes launches (n={N}, {WORKERS} workers): "
        f"serial {serial:.3f}s, sharded {sharded:.3f}s, {speedup:.2f}x"
    )
    from conftest import write_bench_summary

    write_bench_summary(
        "parallel_walltime",
        map_speedup=speedup,
        map_serial_walltime_s=serial,
        map_sharded_walltime_s=sharded,
        workers=WORKERS,
        floor=MIN_SPEEDUP,
    )
    assert speedup >= MIN_SPEEDUP, (
        f"sharded speedup {speedup:.2f}x below the required "
        f"{MIN_SPEEDUP:.2f}x (override with REPRO_PARALLEL_MIN_SPEEDUP)"
    )


@needs_cores
def test_sharded_stencil_beats_serial_codegen():
    w = h = 2048  # 4M-cell image
    rng = np.random.default_rng(1)
    args = [
        np.zeros(w * h, np.float32),
        rng.random(w * h, dtype=np.float32),
        np.int32(w),
        np.int32(h),
    ]
    grid = Grid.for_image(w, h)
    serial = _time_launches(zoo.mean3x3, grid, args, parallel=1)
    sharded = _time_launches(
        zoo.mean3x3,
        grid,
        args,
        parallel=WORKERS,
        min_shard_threads=1,
    )
    speedup = serial / sharded
    print(
        f"\n{LAUNCHES} mean3x3 launches ({w}x{h}, {WORKERS} workers): "
        f"serial {serial:.3f}s, sharded {sharded:.3f}s, {speedup:.2f}x"
    )
    from conftest import write_bench_summary

    write_bench_summary(
        "parallel_walltime",
        stencil_speedup=speedup,
        stencil_serial_walltime_s=serial,
        stencil_sharded_walltime_s=sharded,
    )
    assert speedup >= MIN_SPEEDUP, (
        f"sharded stencil speedup {speedup:.2f}x below the required "
        f"{MIN_SPEEDUP:.2f}x (override with REPRO_PARALLEL_MIN_SPEEDUP)"
    )

