"""Wall-clock and measurement-count checks for the variant registry.

Two claims back ``repro.registry``:

* **Warm starts are cheap** — tuning seeded from a populated registry
  must reach a TOQ-satisfying choice with at least
  ``REPRO_REGISTRY_MIN_SAVINGS`` (default 0.5 = 50%) fewer variant
  measurements than the cold sweep, across a representative app set
  (the full 13-app sweep is ``python -m repro.conformance --contract
  warm_start``).
* **Disabled is free** — with ``registry=None`` the serving path pays
  only is-None guards.  Two timed runs of identical code cannot resolve
  1 % above host noise, so the bound is operationalised
  deterministically (mirroring the obs disabled-path bench): the
  measured per-guard cost times a generous guards-per-launch budget must
  stay under ``REPRO_REGISTRY_MAX_DISABLED_OVERHEAD`` (default 1.01)
  of the measured launch time.
"""

import os
import tempfile
import time

from repro.apps.registry import make_app
from repro.approx.compiler import Paraprox
from repro.device import DeviceKind, spec_for
from repro.registry import VariantRegistry
from repro.runtime.tuner import GreedyTuner
from repro.serve import ApproxSession

MIN_SAVINGS = float(os.environ.get("REPRO_REGISTRY_MIN_SAVINGS", "0.5"))
MAX_DISABLED = float(
    os.environ.get("REPRO_REGISTRY_MAX_DISABLED_OVERHEAD", "1.01")
)

#: Registry seams one disabled launch crosses (tune-path checks plus the
#: drift-reaction guard), with headroom.
GUARDS_PER_LAUNCH = 8

APPS = ("gaussian", "matmul", "cumhist")
LAUNCHES = 20
REPEATS = 5


def test_warm_start_halves_variant_measurements():
    from conftest import write_bench_summary

    spec = spec_for(DeviceKind.GPU)
    cold_total = warm_total = 0
    cold_walltime = warm_walltime = 0.0
    with tempfile.TemporaryDirectory(prefix="repro-bench-registry-") as root:
        for name in APPS:
            registry = VariantRegistry(f"{root}/{name}")
            app = make_app(name)
            variants = Paraprox(target_quality=0.90).compile(app)
            inputs = app.generate_inputs(seed=app.seed)

            cold = GreedyTuner(spec, toq=0.90, registry=registry)
            started = time.perf_counter()
            cold_result = cold.profile(app, variants, inputs)
            cold_walltime += time.perf_counter() - started

            warm = GreedyTuner(spec, toq=0.90, registry=registry)
            started = time.perf_counter()
            warm_result = warm.profile(app, variants, inputs)
            warm_walltime += time.perf_counter() - started

            assert warm.last_seed_mode == "warm", (
                f"{name}: warm tune fell back to {warm.last_seed_mode}"
            )
            assert warm_result.chosen.quality >= 0.90
            assert warm_result.chosen.name == cold_result.chosen.name
            cold_total += cold.last_measured
            warm_total += warm.last_measured

    savings = 1.0 - warm_total / max(1, cold_total)
    print(
        f"\nwarm start over {len(APPS)} apps: {cold_total} cold -> "
        f"{warm_total} warm measurements ({savings:.0%} saved); "
        f"tune walltime {cold_walltime:.3f}s -> {warm_walltime:.3f}s"
    )
    write_bench_summary(
        "registry_warmstart",
        measurement_savings=savings,
        cold_measurements=cold_total,
        warm_measurements=warm_total,
        cold_tune_walltime_s=cold_walltime,
        warm_tune_walltime_s=warm_walltime,
        savings_floor=MIN_SAVINGS,
    )
    assert savings >= MIN_SAVINGS, (
        f"warm-start savings {savings:.0%} below the required "
        f"{MIN_SAVINGS:.0%} (override with REPRO_REGISTRY_MIN_SAVINGS)"
    )


def test_registry_disabled_launch_overhead_is_bounded():
    from conftest import write_bench_summary

    app = make_app("blackscholes", seed=0)
    session = ApproxSession(app, target_quality=0.90, registry=None)
    assert session.registry is None
    session.tune()
    inputs = app.generate_inputs(seed=app.seed)
    session.launch(inputs)  # warm caches and pools
    best = float("inf")
    for _repeat in range(REPEATS):
        started = time.perf_counter()
        for _ in range(LAUNCHES):
            session.launch(inputs)
        best = min(best, time.perf_counter() - started)
    launch_seconds = best / LAUNCHES

    n = 200_000
    registry = session.registry
    key = session._registry_key
    started = time.perf_counter()
    hits = 0
    for _ in range(n):
        if registry is not None and key is not None:
            hits += 1
    per_guard = (time.perf_counter() - started) / n
    assert hits == 0

    overhead = 1.0 + (per_guard * GUARDS_PER_LAUNCH) / launch_seconds
    print(
        f"\nregistry guard {per_guard * 1e9:.0f}ns x {GUARDS_PER_LAUNCH} "
        f"seams, launch {launch_seconds * 1e3:.3f}ms -> {overhead:.4f}x"
    )
    write_bench_summary(
        "registry_warmstart",
        disabled_overhead=overhead,
        guard_ns=per_guard * 1e9,
        launch_walltime_s=launch_seconds,
        disabled_ceiling=MAX_DISABLED,
    )
    assert overhead <= MAX_DISABLED, (
        f"registry-disabled overhead {overhead:.4f}x above the allowed "
        f"{MAX_DISABLED:.4f}x (override with "
        f"REPRO_REGISTRY_MAX_DISABLED_OVERHEAD)"
    )
