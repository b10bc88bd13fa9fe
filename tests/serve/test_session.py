"""Session lifecycle, monitor/recalibrator units, metrics and event log."""

import json
import threading

import numpy as np
import pytest

from repro import ApproxSession, DeviceKind, LaunchOptions, MonitorConfig, Paraprox
from repro.apps.gaussian import GaussianFilterApp
from repro.errors import ServeError
from repro.serve import QualityMonitor, Recalibrator
from repro.serve.monitor import DRIFT, HEADROOM, OK, VIOLATION


class TestQualityMonitor:
    def test_sampling_cadence(self):
        monitor = QualityMonitor(0.9, MonitorConfig(sample_every=4))
        sampled = [i for i in range(12) if monitor.should_sample(i)]
        assert sampled == [3, 7, 11]

    def test_violation_on_sample_below_toq(self):
        monitor = QualityMonitor(0.9, MonitorConfig(window=4))
        assert monitor.observe(0.95) == OK
        assert monitor.observe(0.85) == VIOLATION

    def test_windowed_estimate_triggers_violation(self):
        monitor = QualityMonitor(0.9, MonitorConfig(window=3, advance_after=0))
        monitor.observe(0.91)
        monitor.observe(0.91)
        # 0.90 alone is at the TOQ, but the window mean dips below it only
        # when a genuinely low sample arrives.
        assert monitor.observe(0.90) == OK
        assert monitor.estimate == pytest.approx((0.91 + 0.91 + 0.90) / 3)

    def test_drift_needs_min_samples_and_baseline(self):
        monitor = QualityMonitor(
            0.9, MonitorConfig(window=4, min_samples=2, drift_drop=0.04,
                               advance_after=0)
        )
        monitor.set_baseline(0.99)
        assert monitor.observe(0.93) == OK  # one sample: below min_samples
        assert monitor.observe(0.93) == DRIFT  # mean 0.93 < 0.99 - 0.04

    def test_headroom_after_clean_streak(self):
        monitor = QualityMonitor(
            0.9, MonitorConfig(advance_after=2, margin=0.02)
        )
        monitor.set_baseline(0.95)
        assert monitor.observe(0.95) == OK
        assert monitor.observe(0.95) == HEADROOM
        # streak resets after the signal
        assert monitor.observe(0.95) == OK

    def test_reset_clears_window(self):
        monitor = QualityMonitor(0.9, MonitorConfig(window=4))
        monitor.observe(0.5)
        monitor.reset()
        assert monitor.estimate is None
        assert monitor.observe(0.95) == OK

    def test_bad_config_rejected(self):
        with pytest.raises(ServeError):
            MonitorConfig(sample_every=0)
        with pytest.raises(ServeError):
            QualityMonitor(toq=0.0)


class TestRecalibrator:
    @pytest.fixture()
    def tuning(self):
        return Paraprox(target_quality=0.9).optimize(
            GaussianFilterApp(scale=0.05), DeviceKind.GPU
        )

    def test_starts_at_chosen_and_walks_to_exact(self, tuning):
        recal = Recalibrator(tuning, toq=0.9)
        assert recal.current_name == tuning.chosen.name
        steps = 0
        while recal.step_down():
            steps += 1
        assert recal.at_exact
        assert recal.current is None
        assert recal.current_name == "exact"
        assert recal.speedup_estimate == 1.0
        assert not recal.step_down()  # bottoms out
        assert steps >= 1

    def test_ladder_only_holds_toq_meeting_variants(self, tuning):
        recal = Recalibrator(tuning, toq=0.9)
        assert all(p.quality >= 0.9 for p in recal.ladder)

    def test_step_up_recovers(self, tuning):
        recal = Recalibrator(tuning, toq=0.9)
        start = recal.current_name
        recal.step_down()
        assert recal.step_up()
        assert recal.current_name == start
        while recal.step_up():
            pass
        assert recal.at_top

    def test_unbound_tuning_result_rejected(self, tuning):
        from repro.runtime.tuner import TuningResult

        unbound = TuningResult.from_dict(tuning.to_dict())
        if len(unbound.profiles) > 1:  # app produced approximate variants
            with pytest.raises(ServeError):
                Recalibrator(unbound, toq=0.9)


class TestSessionLifecycle:
    def test_launch_lazily_compiles_and_tunes(self):
        app = GaussianFilterApp(scale=0.05)
        session = ApproxSession(app, target_quality=0.9)
        out = session.launch(app.generate_inputs(seed=3))
        assert out is not None
        snap = session.metrics_snapshot()
        assert snap["launches"] == 1
        assert snap["cache"]["compile_misses"] == 1
        assert snap["session"]["current_variant"] != "untuned"

    def test_launch_counts_kernel_launches_via_engine_hook(self):
        app = GaussianFilterApp(scale=0.05)
        session = ApproxSession(app, target_quality=0.9)
        session.launch(app.generate_inputs(seed=3))
        snap = session.metrics_snapshot()
        assert snap["kernel_launches"] >= 1

    def test_sessions_on_two_threads_count_their_own_launches(self):
        app = GaussianFilterApp(scale=0.05)
        session = ApproxSession(app, target_quality=0.9)
        other = ApproxSession(GaussianFilterApp(scale=0.05), target_quality=0.9)
        session.tune()
        other.tune()
        assert session.current_variant != "exact"
        run_variant = app.run_variant

        def run_while_the_other_session_serves(variant, inputs):
            # A whole launch of ``other``, on its own thread, inside this
            # launch's accounting window.
            thread = threading.Thread(
                target=other.launch, args=(other.app.generate_inputs(seed=4),)
            )
            thread.start()
            thread.join(timeout=60)
            assert not thread.is_alive()
            return run_variant(variant, inputs)

        app.run_variant = run_while_the_other_session_serves
        session.launch(app.generate_inputs(seed=3))
        for record in (session.last_launch, other.last_launch):
            assert record.kernel_launches == 1
            assert sum(record.backends.values()) == 1
        assert session.metrics.kernel_launches == other.metrics.kernel_launches == 1

    def test_unsampled_launch_builds_one_options_record(self, monkeypatch):
        app = GaussianFilterApp(scale=0.05)
        session = ApproxSession(
            app, target_quality=0.9, monitor=MonitorConfig(sample_every=100)
        )
        session.launch(app.generate_inputs(seed=3))  # compile, tune, warm
        built = []
        post_init = LaunchOptions.__post_init__

        def counting(record):
            built.append(record)
            post_init(record)

        monkeypatch.setattr(LaunchOptions, "__post_init__", counting)
        session.launch(app.generate_inputs(seed=4))
        assert not session.last_launch.sampled
        # The scope the launch enters; the ladder and the engine read it.
        assert len(built) <= 1

    def test_sampled_launch_records_quality(self):
        app = GaussianFilterApp(scale=0.05)
        session = ApproxSession(
            app, target_quality=0.9, monitor=MonitorConfig(sample_every=1)
        )
        session.launch(app.generate_inputs(seed=3))
        record = session.metrics.records[-1]
        assert record.sampled
        assert record.quality is not None
        assert 0.0 <= record.quality <= 1.0
        assert record.speedup_estimate > 0

    def test_snapshot_shape(self):
        app = GaussianFilterApp(scale=0.05)
        session = ApproxSession(app, target_quality=0.9)
        session.launch(app.generate_inputs(seed=3))
        snap = session.metrics_snapshot()
        for key in (
            "launches",
            "sampled_checks",
            "sampling_overhead",
            "toq_violations",
            "drift_events",
            "recalibrations",
            "cache",
            "timings",
            "transitions",
            "recent_launches",
            "session",
        ):
            assert key in snap
        assert snap["session"]["toq"] == 0.9
        assert snap["session"]["ladder"]
        # the snapshot is JSON-serialisable as promised
        json.dumps(snap)

    def test_session_metrics_expose_variant_lowerings(self):
        from repro.apps.convsep import ConvolutionSeparableApp

        app = ConvolutionSeparableApp(scale=0.01, seed=0)
        with ApproxSession(app, target_quality=0.9) as session:
            session.launch(app.generate_inputs())
            snapshot = session.metrics_snapshot()
        variants = snapshot["codegen"]["variants"]
        assert variants  # the compiled ladder surfaces its lowering outcomes
        for entry in variants.values():
            assert entry["mode"] in ("codegen", "interpreter")

    def test_session_metrics_carry_no_fusion_block_or_families(self):
        from repro.obs.registry import get_registry

        app = GaussianFilterApp(scale=0.05)
        with ApproxSession(app, target_quality=0.9) as session:
            session.launch(app.generate_inputs(seed=3))
            codegen = session.metrics_snapshot()["codegen"]
        assert "fusion" not in codegen
        assert not [m.name for m in get_registry().collect() if "fusion" in m.name]

    def test_closed_session_rejects_use(self):
        app = GaussianFilterApp(scale=0.05)
        session = ApproxSession(app, target_quality=0.9)
        session.close()
        with pytest.raises(ServeError):
            session.launch(app.generate_inputs(seed=3))

    def test_invalid_toq_propagates(self):
        with pytest.raises(ValueError):
            ApproxSession(GaussianFilterApp(scale=0.05), target_quality=90)

    def test_transition_history_is_bounded_like_the_launch_records(self):
        from repro.serve.metrics import SessionMetrics, Transition

        metrics = SessionMetrics(history=4)
        for i in range(10):
            metrics.record_transition(Transition(i, f"v{i}", f"v{i + 1}", "drift"))
        assert metrics.transitions.maxlen == metrics.records.maxlen == 4
        kept = metrics.snapshot()["transitions"]
        assert [t["launch"] for t in kept] == [6, 7, 8, 9]


class TestSessionOptions:
    """``options=`` is the one record that says how a session's launches
    run; nothing about it reaches the compiled artifact's identity."""

    def test_a_restart_that_only_runs_differently_is_disk_warm(self, tmp_path):
        from repro.parallel import shutdown_process_pool

        app = GaussianFilterApp(scale=0.05)
        with ApproxSession(app, target_quality=0.9, cache_dir=tmp_path) as cold:
            cold.launch(app.generate_inputs(seed=3))
            assert cold.metrics_snapshot()["cache"]["compile_misses"] == 1
        options = LaunchOptions(backend="codegen", parallel=2, executor="process")
        try:
            with ApproxSession(
                GaussianFilterApp(scale=0.05),
                target_quality=0.9,
                cache_dir=tmp_path,
                options=options,
            ) as warm:
                assert warm.key == cold.key
                warm.launch(app.generate_inputs(seed=3))
                cache = warm.metrics_snapshot()["cache"]
        finally:
            shutdown_process_pool()
        assert (cache["compile_hits"], cache["compile_misses"]) == (1, 0)
        assert (cache["tune_hits"], cache["tune_misses"]) == (1, 0)

    def test_the_cache_key_names_no_execution_setting(self):
        import inspect

        from repro import ParaproxConfig
        from repro.serve.cache import cache_key

        # The key is a function of these four and nothing ambient ...
        assert list(inspect.signature(cache_key).parameters) == [
            "app",
            "config",
            "spec",
            "toq",
        ]
        # ... and the config's share of the payload is compile knobs only.
        assert not {
            "backend",
            "parallel",
            "parallel_workers",
            "executor",
            "profile_cache_entries",
            "guard",
        } & set(ParaproxConfig().to_dict())

    def test_a_guard_said_in_options_is_the_sessions_guard(self):
        from repro.resilience import GuardPolicy

        app = GaussianFilterApp(scale=0.05)
        tight = GuardPolicy(deadline_seconds=1.0)
        session = ApproxSession(app, options=LaunchOptions(guard=tight))
        assert session.guard is tight and session.options.guard is tight
        assert session.metrics_snapshot()["resilience"]["guard_policy"] == {
            "enabled": True,
            "deadline_seconds": 1.0,
        }
        unguarded = ApproxSession(app, options=LaunchOptions(guard=None))
        assert unguarded.guard == GuardPolicy(enabled=False)
        assert unguarded.options.guard == unguarded.guard
        # guard= alone, and both spellings agreeing, stay as they were
        assert ApproxSession(app, guard=tight).options.guard is tight
        assert ApproxSession(app).guard == GuardPolicy()
        both = ApproxSession(app, guard=tight, options=LaunchOptions(guard=tight))
        assert both.guard == tight

    def test_two_different_guards_are_refused(self):
        from repro.errors import ConfigError
        from repro.resilience import GuardPolicy

        with pytest.raises(ConfigError, match=r"guard=.*options=LaunchOptions\(guard="):
            ApproxSession(
                GaussianFilterApp(scale=0.05),
                guard=GuardPolicy(),
                options=LaunchOptions(guard=None),
            )


def _plan_session(app=None, **kwargs) -> ApproxSession:
    """A tuned session whose launches are never sampled."""
    session = ApproxSession(
        app if app is not None else GaussianFilterApp(scale=0.05),
        target_quality=0.9,
        monitor=MonitorConfig(sample_every=1000),
        **kwargs,
    )
    session.tune()
    return session


def _direct(session, variant, inputs):
    """``variant`` (None: the exact program) run outside the session,
    under its options."""
    from repro import options

    app = session.app
    with options(session.options):
        if variant is None:
            return app.run_exact(inputs)[0]
        return app.run_variant(variant, inputs)[0]


class TestSessionPlans:
    """A session resolves its launch record and ladder once per scope;
    what changes between launches is still read on every launch."""

    def test_a_step_down_serves_the_new_variant_on_the_next_launch(self):
        session = _plan_session()
        inputs = session.app.generate_inputs(seed=4)
        session.launch(inputs)
        session.launch(inputs)
        chosen = session.current_variant
        assert chosen != "exact"
        assert session._recalibrator.step_down()
        stepped = session.current_variant
        out = session.launch(inputs)
        assert session.last_launch.variant == stepped != chosen
        expected = _direct(session, session._recalibrator.current, inputs)
        assert np.asarray(out).tobytes() == np.asarray(expected).tobytes()

    def test_a_quarantine_serves_the_new_variant_on_the_next_launch(self):
        from repro.resilience import BreakerConfig, GuardPolicy
        from repro.resilience.faults import SITE_OUTPUT, FaultPlan, FaultSpec, use_faults

        session = _plan_session(
            guard=GuardPolicy(),
            breaker=BreakerConfig(fault_threshold=1),
        )
        inputs = session.app.generate_inputs(seed=4)
        session.launch(inputs)
        session.launch(inputs)
        chosen = session.current_variant
        plan = FaultPlan([FaultSpec(SITE_OUTPUT, mode="nan", match="variant", max_fires=1)])
        with use_faults(plan):
            session.launch(inputs)
        assert plan.total_fired() == 1
        assert session.last_launch.fallback_depth == 1
        assert chosen in session.breaker.quarantined()
        out = session.launch(inputs)
        assert session.last_launch.variant == session.current_variant != chosen
        assert session.last_launch.fallback_depth == 0
        expected = _direct(session, session._recalibrator.current, inputs)
        assert np.asarray(out).tobytes() == np.asarray(expected).tobytes()

    def test_exact_launches_interleave_with_served_ones(self):
        session = _plan_session()
        chosen = session.current_variant
        variant = session._recalibrator.current
        for seed in range(6):
            inputs = session.app.generate_inputs(seed=seed)
            exact = seed % 2 == 1
            out = session.launch(inputs, variant="exact" if exact else None)
            assert session.last_launch.variant == ("exact" if exact else chosen)
            expected = _direct(session, None if exact else variant, inputs)
            assert np.asarray(out).tobytes() == np.asarray(expected).tobytes()

    def test_a_multi_kernel_launch_counts_every_kernel(self):
        from repro.apps.registry import make_app

        session = _plan_session(make_app("cumhist", scale=0.001))
        app = session.app
        for seed in range(3):
            session.launch(app.generate_inputs(seed=seed))
            assert session.last_launch.kernel_launches == 4
            assert session.last_launch.backends == {"codegen": 4}
        assert session.metrics_snapshot()["backend_launches"] == {"codegen": 12}

    def test_a_warm_launch_keeps_its_span_tree(self):
        from repro.obs import trace as obs_trace

        session = _plan_session()
        inputs = session.app.generate_inputs(seed=4)
        session.launch(inputs)
        session.launch(inputs)
        obs_trace.enable()
        try:
            obs_trace.drain_records()
            session.launch(inputs)
            spans = [r for r in obs_trace.drain_records() if r["type"] == "span"]
        finally:
            obs_trace.disable()
        (root,) = [s for s in spans if s["name"] == "serve.launch"]
        (rung,) = [s for s in spans if s["parent_id"] == root["span_id"]]
        assert rung["name"] == "ladder.rung"
        children = {
            (s["name"], s["attrs"].get("cache"))
            for s in spans
            if s["parent_id"] == rung["span_id"]
        }
        assert children == {("codegen.compile", "hit"), ("engine.launch", None)}

    def test_an_auto_session_probes_the_host_once_per_plan(self, monkeypatch):
        """``parallel="auto"`` is resolved where a plan is built, not on
        every launch (the documented way to ask for every core)."""
        from repro.parallel import pool

        session = _plan_session(options=LaunchOptions(parallel="auto"))
        inputs = session.app.generate_inputs(seed=4)
        calls = []
        probe = pool.host_worker_count
        monkeypatch.setattr(
            pool, "host_worker_count", lambda: calls.append(1) or probe()
        )
        session.launch(inputs)
        assert len(calls) <= 1  # one plan: the served kernel under the session's record
        calls.clear()
        for _ in range(20):
            session.launch(inputs)
        assert calls == []
