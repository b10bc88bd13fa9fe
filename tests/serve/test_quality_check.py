"""The sampled quality check runs the exact program the way the session does.

A check is one extra exact run (paper §3.5).  It must take the options
the launch it checks was served under — never whatever scope happens to
be ambient on the calling thread — and fall back to the serial
interpreter only when the compiled run raises.
"""

import copy

import numpy as np
import pytest

import repro
from repro import ApproxSession, LaunchOptions, MonitorConfig, current_options
from repro.apps import APP_CLASSES, make_app
from repro.apps.gaussian import GaussianFilterApp
from repro.codegen import clear_cache
from repro.engine import add_launch_hook, remove_launch_hook
from repro.obs import trace as obs_trace
from repro.resilience.faults import (
    SITE_COMPILE,
    FaultPlan,
    FaultSpec,
    use_faults,
)
from repro.serve import ServeFrontend

SAMPLE_EVERY = 4


@pytest.fixture
def backends():
    """Every kernel launch in the process, by backend — the session's own
    per-launch hook deliberately does not see check launches."""
    seen = []
    hook = add_launch_hook(lambda event: seen.append(event.backend))
    yield seen
    remove_launch_hook(hook)


def tuned_session(backend="codegen", sample_every=SAMPLE_EVERY, **options):
    app = GaussianFilterApp(scale=0.05)
    session = ApproxSession(
        app,
        target_quality=0.9,
        monitor=MonitorConfig(sample_every=sample_every),
        options=LaunchOptions(backend=backend, **options),
    )
    session.tune()  # tuning always interprets; count from here on
    assert session.current_variant != "exact"
    return session


def sampled_records(session):
    return [r for r in session.metrics.records if r.sampled]


class TestCheckBackend:
    @pytest.mark.parametrize(
        "options", [{}, {"parallel": 2, "executor": "thread"}], ids=["serial", "thread2"]
    )
    def test_frontend_dispatcher_never_interprets(self, backends, options):
        # The dispatcher thread has no ambient scope: only the session's
        # own defaults can keep the check off the interpreter.
        session = tuned_session(**options)
        del backends[:]
        with ServeFrontend() as frontend:
            for seed in range(2 * SAMPLE_EVERY):
                inputs = session.app.generate_inputs(seed=seed)
                frontend.submit_app(session, inputs).result(timeout=60)
        sampled = sampled_records(session)
        assert len(sampled) >= 2
        assert all(r.quality is not None for r in sampled)
        assert "interp" not in backends
        # One served launch each, plus one exact launch per check.
        assert len(backends) == 2 * SAMPLE_EVERY + len(sampled)
        # The record keeps meaning "what served the response".
        assert all(r.kernel_launches == 1 for r in session.metrics.records)

    def test_check_runs_under_the_scope_the_launch_served_under(self):
        session = tuned_session(
            sample_every=1, parallel=2, executor="thread", min_shard_threads=1
        )
        app, seen = session.app, {}
        for name in ("run_variant", "run_exact"):

            def spy(*args, _name=name, _run=getattr(app, name)):
                seen[_name] = current_options()
                return _run(*args)

            setattr(app, name, spy)
        session.launch(app.generate_inputs(seed=1))
        assert sampled_records(session)
        # Backend, workers, threshold, executor and guard alike.
        assert seen["run_exact"] == seen["run_variant"] == session.options
        assert seen["run_exact"].guard is session.guard

    def test_active_scope_overrides_the_session(self, backends):
        session = tuned_session(sample_every=1)
        del backends[:]
        with repro.options(backend="interp"):
            session.launch(session.app.generate_inputs(seed=1))
        assert sampled_records(session)[-1].quality is not None
        assert backends == ["interp", "interp"]  # served + checked

    def test_interp_session_checks_on_the_interpreter(self, backends):
        session = tuned_session(backend="interp", sample_every=1)
        del backends[:]
        session.launch(session.app.generate_inputs(seed=1))
        assert backends == ["interp", "interp"]

    def test_golden_cache_hit_launches_nothing(self, backends):
        session = tuned_session(sample_every=1)
        inputs = session.app.generate_inputs(seed=1)
        session.launch(copy.deepcopy(inputs))
        del backends[:]
        session.launch(copy.deepcopy(inputs))
        assert backends == ["codegen"]


class TestCheckEquivalence:
    @pytest.mark.parametrize("name", list(APP_CLASSES))
    def test_quality_equals_interpreter_reference(self, name):
        app = make_app(name)
        session = ApproxSession(
            app,
            target_quality=0.9,
            monitor=MonitorConfig(sample_every=1),
            options=LaunchOptions(backend="codegen"),
        )
        for seed in (1, 2, 3):
            inputs = app.generate_inputs(seed=seed)
            out = session.launch(copy.deepcopy(inputs))
            with repro.options(backend="interp"):
                reference, _trace = app.run_exact(copy.deepcopy(inputs))
            record = session.metrics.records[-1]
            assert record.sampled
            # Same golden bits, so the same float — not merely close.
            assert record.quality == app.quality(out, reference)


class TestCheckContainment:
    def test_compile_fault_degrades_to_the_interpreter(self, backends):
        session = tuned_session(sample_every=1)
        app = session.app
        inputs = app.generate_inputs(seed=5)
        clean = np.array(session.launch(copy.deepcopy(inputs)), copy=True)
        quality = session.metrics.records[-1].quality

        # SITE_COMPILE sits before the compiled-kernel cache lookup, so a
        # launch-wide plan would take the served variant down the ladder
        # too (and a non-primary launch is not sampled).  Scope the plan
        # to the check's exact run instead.
        run_exact = app.run_exact

        def faulted(fresh):
            with use_faults(FaultPlan([FaultSpec(SITE_COMPILE)])):
                return run_exact(fresh)

        app.run_exact = faulted
        app._golden_cache.clear()
        clear_cache()
        del backends[:]
        was_enabled = obs_trace.enabled()
        obs_trace.enable()
        obs_trace.drain_records()
        try:
            out = session.launch(copy.deepcopy(inputs))
            (check,) = [
                r
                for r in obs_trace.drain_records()
                if r.get("name") == "serve.quality_check"
            ]
        finally:
            if not was_enabled:
                obs_trace.disable()

        record = session.metrics.records[-1]
        assert check["attrs"]["golden"] == "miss"
        assert check["attrs"]["fallback"] == "InjectedCodegenError"
        assert backends == ["codegen", "interp"]
        assert record.fallback_depth == 0 and record.faults == []
        assert record.quality == quality
        np.testing.assert_array_equal(np.asarray(out), clean)

    def test_check_wall_time_is_recorded(self):
        session = tuned_session(sample_every=2)
        for seed in range(4):
            session.launch(session.app.generate_inputs(seed=seed))
        records = list(session.metrics.records)
        assert [r.sample_seconds > 0 for r in records] == [False, True] * 2
        assert all(r.sample_seconds < r.duration for r in records)
        metrics = session.metrics
        share = sum(r.sample_seconds for r in records) / sum(
            r.duration for r in records
        )
        assert metrics.sampled_checks == 2
        assert metrics.sampling_overhead == pytest.approx(share)
        assert metrics.snapshot()["timings"]["sample_seconds"] == pytest.approx(
            sum(r.sample_seconds for r in records)
        )
