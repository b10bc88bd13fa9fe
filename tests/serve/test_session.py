"""Session lifecycle, monitor/recalibrator units, metrics and event log."""

import json
import threading

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
        tight = GuardPolicy(retries=0, deadline_seconds=1.0)
        session = ApproxSession(app, options=LaunchOptions(guard=tight))
        assert session.guard is tight and session.options.guard is tight
        assert session.metrics_snapshot()["resilience"]["guard_policy"]["retries"] == 0
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
