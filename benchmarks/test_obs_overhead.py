"""Wall-clock cost of the observability layer on a served app.

Two bounds, both on a memoization-served blackscholes session:

* **disabled** — with tracing off, an instrumented seam costs one module
  attribute check returning the shared no-op span.  Two timed runs of
  identical code cannot resolve a 1 % difference above host noise, so
  the bound is operationalised deterministically: the measured per-seam
  no-op cost times a generous spans-per-launch budget must stay under
  ``REPRO_OBS_MAX_DISABLED_OVERHEAD`` (default 1.01 = 1 %) of the
  measured launch time.
* **enabled** — full tracing (spans + timeline into the in-memory ring)
  must keep served launches within ``REPRO_OBS_MAX_OVERHEAD`` (default
  1.03 = 3 %) of the untraced time, best-of-N against best-of-N.  The
  floor is env-overridable for noisy CI hosts, mirroring
  ``REPRO_RESILIENCE_MAX_OVERHEAD``.
"""

import os
import time

from repro.apps.registry import make_app
from repro.obs import trace as obs_trace
from repro.serve import ApproxSession

LAUNCHES = 20
REPEATS = 5
#: Upper bound on instrumented seams one served launch crosses (root span,
#: rungs, compile-cache probe, backend launch, shards, quality check ...).
SPANS_PER_LAUNCH = 32

MAX_DISABLED = float(os.environ.get("REPRO_OBS_MAX_DISABLED_OVERHEAD", "1.01"))
MAX_ENABLED = float(os.environ.get("REPRO_OBS_MAX_OVERHEAD", "1.03"))


def _session():
    app = make_app("blackscholes", seed=0)
    session = ApproxSession(app, target_quality=0.90)
    session.tune()  # pay compile+tune outside the timed region
    return app, session


def _time_launches(app, session) -> float:
    inputs = app.generate_inputs(seed=app.seed)
    session.launch(inputs)  # warm caches and pools
    best = float("inf")
    for _repeat in range(REPEATS):
        started = time.perf_counter()
        for _ in range(LAUNCHES):
            session.launch(inputs)
        best = min(best, time.perf_counter() - started)
    return best / LAUNCHES


def test_disabled_noop_path_is_bounded():
    was_enabled = obs_trace.enabled()
    obs_trace.disable()
    try:
        app, session = _session()
        launch_seconds = _time_launches(app, session)

        n = 200_000
        started = time.perf_counter()
        for _ in range(n):
            with obs_trace.span("bench.noop", kernel="k"):
                pass
        per_span = (time.perf_counter() - started) / n

        overhead = 1.0 + (per_span * SPANS_PER_LAUNCH) / launch_seconds
        print(
            f"\nnoop span {per_span * 1e9:.0f}ns x {SPANS_PER_LAUNCH} seams, "
            f"launch {launch_seconds * 1e3:.3f}ms -> {overhead:.4f}x"
        )
        from conftest import write_bench_summary

        write_bench_summary(
            "obs_overhead",
            disabled_overhead=overhead,
            noop_span_ns=per_span * 1e9,
            launch_walltime_s=launch_seconds,
            disabled_ceiling=MAX_DISABLED,
        )
        assert overhead <= MAX_DISABLED, (
            f"disabled-path overhead {overhead:.4f}x above the allowed "
            f"{MAX_DISABLED:.4f}x (override with REPRO_OBS_MAX_DISABLED_OVERHEAD)"
        )
    finally:
        if was_enabled:
            obs_trace.enable()


def test_enabled_tracing_overhead_is_bounded():
    was_enabled = obs_trace.enabled()
    obs_trace.disable()
    try:
        app, session = _session()
        untraced = _time_launches(app, session)
        obs_trace.enable()  # in-memory ring, no file I/O in the bound
        traced = _time_launches(app, session)
        obs_trace.drain_records()
        overhead = traced / untraced
        print(
            f"\n{LAUNCHES} blackscholes launches: untraced {untraced * 1e3:.3f}ms, "
            f"traced {traced * 1e3:.3f}ms, overhead {overhead:.3f}x"
        )
        from conftest import write_bench_summary

        write_bench_summary(
            "obs_overhead",
            enabled_overhead=overhead,
            untraced_walltime_s=untraced,
            traced_walltime_s=traced,
            enabled_ceiling=MAX_ENABLED,
        )
        assert overhead <= MAX_ENABLED, (
            f"enabled-tracing overhead {overhead:.3f}x above the allowed "
            f"{MAX_ENABLED:.3f}x (override with REPRO_OBS_MAX_OVERHEAD)"
        )
    finally:
        obs_trace.disable()
        obs_trace.drain_records()
        if was_enabled:
            obs_trace.enable()


def _launch_times(app, session, launches=100):
    """Per-launch wall times (seconds), warmed."""
    inputs = app.generate_inputs(seed=app.seed)
    session.launch(inputs)
    times = []
    for _ in range(launches):
        started = time.perf_counter()
        session.launch(inputs)
        times.append(time.perf_counter() - started)
    return times


def _p99(times) -> float:
    ranked = sorted(times)
    return ranked[min(len(ranked) - 1, int(len(ranked) * 0.99))]


MAX_P99_SHIFT = float(os.environ.get("REPRO_OBS_HTTP_MAX_P99_SHIFT", "1.05"))


def test_http_scrape_under_load_keeps_p99_bounded():
    """A scraper hammering /metrics must not shift launch p99 beyond 5%:
    the endpoint renders on its own daemon threads and the registry's
    per-family locks are held only for snapshot reads."""
    import threading
    import urllib.request

    from repro.obs.http import ObsHTTPServer

    was_enabled = obs_trace.enabled()
    obs_trace.disable()
    try:
        app, session = _session()
        quiet = _launch_times(app, session)
        with ObsHTTPServer(port=0) as server:
            url = f"http://127.0.0.1:{server.port}/metrics"
            stop = threading.Event()
            scrapes = [0]

            def _scrape():
                while not stop.is_set():
                    with urllib.request.urlopen(url, timeout=5) as response:
                        response.read()
                    scrapes[0] += 1
                    time.sleep(0.001)

            scraper = threading.Thread(target=_scrape, daemon=True)
            scraper.start()
            try:
                scraped = _launch_times(app, session)
            finally:
                stop.set()
                scraper.join(timeout=5)
        assert scrapes[0] > 0, "the scraper never completed a fetch"
        shift = _p99(scraped) / _p99(quiet)
        print(
            f"\nlaunch p99: quiet {_p99(quiet) * 1e3:.3f}ms, under "
            f"{scrapes[0]} scrapes {_p99(scraped) * 1e3:.3f}ms "
            f"-> {shift:.3f}x"
        )
        from conftest import write_bench_summary

        write_bench_summary(
            "obs_overhead",
            http_p99_shift=shift,
            http_scrapes=scrapes[0],
            http_p99_ceiling=MAX_P99_SHIFT,
        )
        assert shift <= MAX_P99_SHIFT, (
            f"launch p99 shifted {shift:.3f}x under scraping, above the "
            f"allowed {MAX_P99_SHIFT:.3f}x (override with "
            f"REPRO_OBS_HTTP_MAX_P99_SHIFT)"
        )
    finally:
        if was_enabled:
            obs_trace.enable()
