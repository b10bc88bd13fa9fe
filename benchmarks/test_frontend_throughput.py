"""Wall-clock checks for the serving front-end and the process executor.

Three claims from the serving tier are asserted here:

* **Process beats threads on GIL-bound kernels** — a compiled kernel
  dominated by a long Python-level uniform loop over small vectors holds
  the GIL, so the thread lane serializes; 4 worker processes must lift
  front-end launch throughput by ``REPRO_FRONTEND_MIN_SPEEDUP`` (default
  2x).  Needs real cores; single-core containers skip.
* **Fault-free front-end overhead** — queue + future + dispatcher hand-off
  must cost at most ``REPRO_FRONTEND_MAX_OVERHEAD`` (default 5%) over
  calling :func:`repro.launch` directly.  Runs everywhere.
* **A quality check costs one exact launch** — a sampled session launch
  stays within 1.5x a served plus an exact launch on the smallest grids.
  Runs everywhere.
"""

import os
import time
from statistics import median

import numpy as np
import pytest

import kernel_zoo as zoo
from repro import ApproxSession, LaunchOptions, MonitorConfig
from repro.apps import make_app
from repro.engine import Grid, launch
from repro.parallel import host_worker_count, shutdown_process_pool
from repro.serve import ServeFrontend

WORKERS = 4
MIN_SPEEDUP = float(os.environ.get("REPRO_FRONTEND_MIN_SPEEDUP", "2.0"))
MAX_OVERHEAD = float(os.environ.get("REPRO_FRONTEND_MAX_OVERHEAD", "0.05"))

needs_cores = pytest.mark.skipif(
    host_worker_count() < WORKERS,
    reason=f"needs >= {WORKERS} cores, have {host_worker_count()}",
)

# GIL-bound shape: 4096 threads each folding a 64-element chunk through
# sum_chunks' fixed 4096-iteration uniform loop.  Every iteration is a
# handful of NumPy ops over ~4K-element vectors — far below the size
# where NumPy drops the GIL for long stretches — so compiled threads
# contend and processes do not.
T = 1 << 12
CHUNK = 64
N = T * CHUNK
LAUNCHES = 8


def _chunk_args(seed=0):
    rng = np.random.default_rng(seed)
    return [
        np.zeros(T, np.float32),
        rng.random(N, dtype=np.float32),
        np.int32(N),
        np.int32(CHUNK),
    ]


def _frontend_throughput(executor: str) -> float:
    """Wall seconds for LAUNCHES pipelined sum_chunks launches."""
    options = LaunchOptions(
        backend="codegen",
        parallel=WORKERS,
        executor=executor,
        min_shard_threads=1,
    )
    grid = Grid.for_elements(T)
    with ServeFrontend(options=options) as frontend:
        frontend.launch(zoo.sum_chunks, grid, _chunk_args())  # warm
        best = float("inf")
        for _repeat in range(3):
            argsets = [_chunk_args(seed) for seed in range(LAUNCHES)]
            started = time.perf_counter()
            futures = [
                frontend.submit(zoo.sum_chunks, grid, args)
                for args in argsets
            ]
            for future in futures:
                future.result(timeout=300)
            best = min(best, time.perf_counter() - started)
    return best


@needs_cores
def test_process_frontend_beats_thread_frontend():
    shutdown_process_pool()
    try:
        threaded = _frontend_throughput("thread")
        processed = _frontend_throughput("process")
    finally:
        shutdown_process_pool()
    speedup = threaded / processed
    print(
        f"\n{LAUNCHES} sum_chunks launches ({T} threads x {CHUNK}-chunks, "
        f"{WORKERS} workers): threads {threaded:.3f}s, "
        f"processes {processed:.3f}s, {speedup:.2f}x"
    )
    from conftest import write_bench_summary

    write_bench_summary(
        "frontend_throughput",
        process_speedup=speedup,
        thread_walltime_s=threaded,
        process_walltime_s=processed,
        workers=WORKERS,
        floor=MIN_SPEEDUP,
    )
    assert speedup >= MIN_SPEEDUP, (
        f"process-executor speedup {speedup:.2f}x below the required "
        f"{MIN_SPEEDUP:.2f}x (override with REPRO_FRONTEND_MIN_SPEEDUP)"
    )


def test_fault_free_frontend_overhead_is_bounded():
    """Per-launch cost through the front-end vs direct repro.launch."""
    serial = LaunchOptions(backend="codegen")
    grid = Grid.for_elements(T)

    def direct() -> float:
        best = float("inf")
        for _repeat in range(3):
            argsets = [_chunk_args(seed) for seed in range(LAUNCHES)]
            started = time.perf_counter()
            for args in argsets:
                launch(zoo.sum_chunks, grid, args, options=serial)
            best = min(best, time.perf_counter() - started)
        return best

    def fronted() -> float:
        with ServeFrontend(options=serial) as frontend:
            frontend.launch(zoo.sum_chunks, grid, _chunk_args())  # warm
            best = float("inf")
            for _repeat in range(3):
                argsets = [_chunk_args(seed) for seed in range(LAUNCHES)]
                started = time.perf_counter()
                futures = [
                    frontend.submit(zoo.sum_chunks, grid, args)
                    for args in argsets
                ]
                for future in futures:
                    future.result(timeout=300)
                best = min(best, time.perf_counter() - started)
        return best

    launch(zoo.sum_chunks, grid, _chunk_args(), options=serial)  # warm
    base = direct()
    served = fronted()
    overhead = served / base - 1.0
    print(
        f"\n{LAUNCHES} serial sum_chunks launches: direct {base:.3f}s, "
        f"front-end {served:.3f}s, overhead {overhead * 100:.1f}%"
    )
    from conftest import write_bench_summary

    write_bench_summary(
        "frontend_throughput",
        frontend_overhead=overhead,
        direct_walltime_s=base,
        fronted_walltime_s=served,
        overhead_ceiling=MAX_OVERHEAD,
    )
    assert overhead <= MAX_OVERHEAD, (
        f"front-end overhead {overhead * 100:.1f}% exceeds "
        f"{MAX_OVERHEAD * 100:.0f}% (override with REPRO_FRONTEND_MAX_OVERHEAD)"
    )


# Smallest grids the serving apps make (what `python3 -m bench` calls the
# small workloads): the stack above the kernel is most of a request here.
CHECKED_APPS = {"blackscholes": 0.0005, "gaussian": 0.01}
CHECK_LAUNCHES = 61


@pytest.mark.parametrize("name", list(CHECKED_APPS))
def test_checked_launch_costs_a_served_plus_an_exact_launch(name):
    """A quality check is one exact run at the session's own speed.

    Median ``launch`` time with every launch sampled must stay within
    1.5x (served launch + ``launch(variant="exact")``) — what is left
    over is the input fingerprint and the metric pass.  While the check
    ran on the trace-recording interpreter by accident it was ~2x.
    """
    options = LaunchOptions(backend="codegen")

    def warm_session(sample_every):
        app = make_app(name, scale=CHECKED_APPS[name])
        session = ApproxSession(
            app,
            target_quality=0.9,
            monitor=MonitorConfig(sample_every=sample_every),
            options=options,
        )
        session.tune()
        assert session.current_variant != "exact"
        for seed in (10**6, 10**6 + 1):  # compile the variant and the exact kernel
            session.launch(app.generate_inputs(seed=seed))
            session.launch(app.generate_inputs(seed=seed), variant="exact")
        return session

    def timed(session, inputs, **kwargs) -> float:
        started = time.perf_counter()
        session.launch(inputs, **kwargs)
        return time.perf_counter() - started

    unsampled = warm_session(sample_every=10**9)
    sampled = warm_session(sample_every=1)
    # The three kinds of launch take turns on fresh inputs (every check is
    # a golden-cache miss), so a slow spell of the host lands on all of them.
    times = {"served": [], "exact": [], "checked": []}
    for seed in range(CHECK_LAUNCHES):
        inputs = unsampled.app.generate_inputs(seed=seed)
        times["served"].append(timed(unsampled, inputs))
        times["exact"].append(timed(unsampled, inputs, variant="exact"))
        times["checked"].append(timed(sampled, inputs))
    served, exact, checked = (median(times[k]) for k in ("served", "exact", "checked"))
    assert sampled.metrics.sampled_checks >= CHECK_LAUNCHES

    ratio = checked / (served + exact)
    print(
        f"\n{name}: served {served * 1e3:.2f} ms, exact {exact * 1e3:.2f} ms, "
        f"checked {checked * 1e3:.2f} ms = {ratio:.2f}x (served + exact)"
    )
    from conftest import write_bench_summary

    write_bench_summary("frontend_throughput", **{f"check_ratio_{name}": ratio})
    assert ratio <= 1.5, (
        f"{name}: a sampled launch costs {ratio:.2f}x a served plus an exact "
        "launch; the check should be one compiled exact run, a hash and a metric"
    )
