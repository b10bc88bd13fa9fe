"""Wall-clock check for the guarded serving path.

Resilience must be affordable when nothing is failing: a fault-free
launch served through the guarded fallback ladder (containment wrapper,
output validation, breaker bookkeeping) must stay within
``REPRO_RESILIENCE_MAX_OVERHEAD`` (default 1.05 = 5 %) of the same
launch unguarded (``policy=None``).  The floor is env-overridable for noisy
hosts, mirroring ``REPRO_PARALLEL_MIN_SPEEDUP``.
"""

import os
import time

from repro.apps.registry import make_app
from repro.resilience.guard import GuardPolicy, run_ladder

LAUNCHES = 15
MAX_OVERHEAD = float(os.environ.get("REPRO_RESILIENCE_MAX_OVERHEAD", "1.05"))

GUARDED = GuardPolicy()  # serving default
UNGUARDED = None  # the one-rung ladder


def _time_ladder(app, inputs, policy) -> float:
    run_ladder(app, inputs, None, backend="codegen", policy=policy)  # warm
    best = float("inf")
    for _repeat in range(3):
        started = time.perf_counter()
        for _ in range(LAUNCHES):
            run_ladder(app, inputs, None, backend="codegen", policy=policy)
        best = min(best, time.perf_counter() - started)
    return best


def test_fault_free_guarded_overhead_is_bounded():
    app = make_app("blackscholes", seed=0)
    inputs = app.generate_inputs(seed=app.seed)
    unguarded = _time_ladder(app, inputs, UNGUARDED)
    guarded = _time_ladder(app, inputs, GUARDED)
    overhead = guarded / unguarded
    print(
        f"\n{LAUNCHES} blackscholes launches: unguarded {unguarded:.3f}s, "
        f"guarded {guarded:.3f}s, overhead {overhead:.3f}x"
    )
    from conftest import write_bench_summary

    write_bench_summary(
        "resilience_overhead",
        overhead=overhead,
        unguarded_walltime_s=unguarded,
        guarded_walltime_s=guarded,
        ceiling=MAX_OVERHEAD,
    )
    assert overhead <= MAX_OVERHEAD, (
        f"fault-free guard overhead {overhead:.3f}x above the allowed "
        f"{MAX_OVERHEAD:.3f}x (override with REPRO_RESILIENCE_MAX_OVERHEAD)"
    )
