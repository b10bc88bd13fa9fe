"""Brownout vs hard-reject under saturation, and controller overhead.

Two claims from the overload tier are asserted here:

* **Degrading beats dropping** — at 4x offered load a front-end that
  holds full quality can only reject the excess (``BackpressureError``
  once the queue fills), while a brownout controller steps the serving
  ladder down to faster variants that still clear the paying tenant's
  ``toq_floor``.  Browned-out goodput must be at least
  ``REPRO_OVERLOAD_MIN_GAIN`` (default 2x) the hard-reject goodput, with
  **zero** served responses below the floor.
* **Fault-free controller overhead** — with no pressure, the controller
  adds one ``_observe_pressure`` call per dispatched request.  Measured
  against the per-launch wall time of the front-end throughput workload
  that cost must stay under ``REPRO_OVERLOAD_MAX_OVERHEAD`` (default
  1%); the end-to-end on/off delta is recorded alongside for
  corroboration (it is noise-dominated at this threshold, so only the
  direct measurement is asserted).

The workload is ``naivebayes``: its reduction-skip ladder has a large
real wall-clock spread (exact is ~10x the cost of ``red_skip8``), so the
brownout gain reflects genuine approximation speedup, not queueing luck.
"""

import copy
import os
import time

import numpy as np
import pytest

import kernel_zoo as zoo
from repro.apps.registry import make_app
from repro.engine import Grid
from repro import LaunchOptions
from repro.errors import BackpressureError
from repro.serve import ApproxSession, OverloadConfig, ServeFrontend

MIN_GAIN = float(os.environ.get("REPRO_OVERLOAD_MIN_GAIN", "2.0"))
MAX_OVERHEAD = float(os.environ.get("REPRO_OVERLOAD_MAX_OVERHEAD", "0.01"))

APP = "naivebayes"
SCALE = 0.2
#: The paying tenant tolerates half the session's target quality —
#: roomy enough that every rung of the skip ladder stays serveable.
TENANT_FLOOR = 0.5
#: Submission window at 4x the full-quality service rate.
WINDOW_S = 2.0
QUEUE_DEPTH = 4

BROWNOUT = OverloadConfig(
    levels=3,
    high_water=0.75,
    low_water=0.25,
    cooldown_s=1.0,
    # Real queue pressure drives this benchmark (unlike the drill's
    # synthetic seam): a tight delay target makes a filling queue
    # register immediately.
    queue_delay_target_s=0.02,
    deadline_s=10.0,
    window=8,
)


@pytest.fixture(scope="module")
def tuned():
    """One tuned session shared by both load runs, plus its timing."""
    app = make_app(APP, scale=SCALE)
    session = ApproxSession(app, target_quality=0.95)
    session.tune()
    inputs = app.generate_inputs(seed=1)
    session.launch(copy.deepcopy(inputs))  # warm the chosen path
    started = time.perf_counter()
    for _ in range(5):
        session.launch(copy.deepcopy(inputs))
    t_full = (time.perf_counter() - started) / 5
    yield app, session, inputs, t_full
    session.close()


def _offered_load(app, session, inputs, t_full, overload):
    """Pace requests at 4x the full-quality service rate; return
    (goodput/s, rejected, served qualities, peak brownout level)."""
    interval = t_full / 4.0
    count = max(60, int(WINDOW_S / interval))
    copies = [copy.deepcopy(inputs) for _ in range(count)]
    frontend = ServeFrontend(max_queue_depth=QUEUE_DEPTH, overload=overload)
    frontend.register_tenant("paying", toq_floor=TENANT_FLOOR, priority=1)
    try:
        futures, rejected = [], 0
        started = time.perf_counter()
        for index, payload in enumerate(copies):
            wait = started + index * interval - time.perf_counter()
            if wait > 0:
                time.sleep(wait)
            try:
                futures.append(
                    frontend.submit_app(session, payload, tenant="paying")
                )
            except BackpressureError:
                rejected += 1
        outputs = [future.result(timeout=300) for future in futures]
        elapsed = time.perf_counter() - started
    finally:
        frontend.close()
    qualities = [app.evaluate(output, inputs) for output in outputs]
    peak = max(
        (t.to_level for t in frontend.overload.transitions), default=0
    ) if frontend.overload is not None else 0
    return len(outputs) / elapsed, rejected, qualities, peak


def test_brownout_outserves_hard_reject_at_4x_load(tuned):
    app, session, inputs, t_full = tuned
    reject_tput, rejected, reject_quals, _ = _offered_load(
        app, session, inputs, t_full, overload=None
    )
    brown_tput, brown_rejected, brown_quals, peak = _offered_load(
        app, session, inputs, t_full, overload=BROWNOUT
    )
    gain = brown_tput / reject_tput
    violations = sum(1 for q in brown_quals if q + 1e-9 < TENANT_FLOOR)
    print(
        f"\n4x offered load on {APP}: hard-reject {reject_tput:.1f}/s "
        f"({rejected} rejected), brownout {brown_tput:.1f}/s "
        f"({brown_rejected} rejected, peak level {peak}), gain {gain:.2f}x, "
        f"min served quality {min(brown_quals):.3f} (floor {TENANT_FLOOR})"
    )
    from conftest import write_bench_summary

    write_bench_summary(
        "overload_brownout",
        gain=gain,
        hard_reject_goodput=reject_tput,
        brownout_goodput=brown_tput,
        hard_rejected=rejected,
        brownout_rejected=brown_rejected,
        peak_level=peak,
        floor_violations=violations,
        min_served_quality=min(brown_quals),
        tenant_floor=TENANT_FLOOR,
        gain_floor=MIN_GAIN,
    )
    assert rejected > 0, "baseline never saturated: offered load too low"
    assert peak >= 1, "controller never engaged: comparison is vacuous"
    assert violations == 0, (
        f"{violations} browned-out response(s) served below the "
        f"{TENANT_FLOOR} tenant floor"
    )
    assert gain >= MIN_GAIN, (
        f"brownout goodput gain {gain:.2f}x below the required "
        f"{MIN_GAIN:.2f}x (override with REPRO_OVERLOAD_MIN_GAIN)"
    )


def test_fault_free_controller_overhead_is_bounded():
    """Controller cost per request vs the front-end throughput workload."""
    T, chunk = 1 << 12, 64
    total = T * chunk

    def chunk_args(seed=0):
        rng = np.random.default_rng(seed)
        return [
            np.zeros(T, np.float32),
            rng.random(total, dtype=np.float32),
            np.int32(total),
            np.int32(chunk),
        ]

    serial = LaunchOptions(backend="codegen")
    grid = Grid.for_elements(T)
    launches = 8

    def walltime(overload):
        with ServeFrontend(options=serial, overload=overload) as frontend:
            frontend.launch(zoo.sum_chunks, grid, chunk_args())  # warm
            best = float("inf")
            for _repeat in range(3):
                argsets = [chunk_args(seed) for seed in range(launches)]
                started = time.perf_counter()
                futures = [
                    frontend.submit(zoo.sum_chunks, grid, args)
                    for args in argsets
                ]
                for future in futures:
                    future.result(timeout=300)
                best = min(best, time.perf_counter() - started)
        return best

    quiet = OverloadConfig(levels=3, queue_delay_target_s=10.0, deadline_s=60.0)
    base = walltime(None)
    with_controller = walltime(quiet)
    end_to_end = with_controller / base - 1.0

    # Direct measurement: one _observe_pressure per dispatched request is
    # the whole fault-free hot path (level stays 0, so no degradation
    # lookups happen).
    from repro.serve.frontend import _Request

    with ServeFrontend(overload=quiet) as frontend:
        now = time.perf_counter()
        request = _Request(tenant="default", run=lambda: None, enqueued=now)
        rounds = 2000
        started = time.perf_counter()
        for _ in range(rounds):
            frontend._observe_pressure(request, now + 0.001)
        observe_cost = (time.perf_counter() - started) / rounds
    per_launch = base / launches
    overhead = observe_cost / per_launch
    print(
        f"\ncontroller observation {observe_cost * 1e6:.1f}us per request vs "
        f"{per_launch * 1000:.1f}ms per launch: {overhead * 100:.3f}% "
        f"(end-to-end on/off delta {end_to_end * 100:+.1f}%)"
    )
    from conftest import write_bench_summary

    write_bench_summary(
        "overload_brownout",
        controller_overhead=overhead,
        observe_cost_s=observe_cost,
        per_launch_wall_s=per_launch,
        end_to_end_delta=end_to_end,
        overhead_ceiling=MAX_OVERHEAD,
    )
    assert overhead <= MAX_OVERHEAD, (
        f"controller overhead {overhead * 100:.3f}% exceeds "
        f"{MAX_OVERHEAD * 100:.1f}% (override with REPRO_OVERLOAD_MAX_OVERHEAD)"
    )
    # Sanity only: wall-clock noise at min-of-3 swings this +/-10% on a
    # shared box, so the end-to-end delta gets a very loose ceiling; the
    # direct measurement above carries the real 1% contract.
    assert end_to_end <= 0.25, (
        f"front-end with idle controller ran {end_to_end * 100:.1f}% slower "
        "end-to-end; something beyond sampling cost is on the hot path"
    )
