"""Brownout overload control: hysteresis, ladder selection, integration.

The controller is tested against a fake clock (no sleeps), the
degradation ladder against hand-built tuning profiles, and the front-end
integration against a fake session — the full real-session path is the
``floor`` contract (``python -m repro.conformance --contract floor``).
"""

import threading
import time
from types import SimpleNamespace

import pytest

from repro.apps.gaussian import GaussianFilterApp
from repro.errors import BackpressureError, ServeError
from repro.serve import (
    ApproxSession,
    OverloadConfig,
    OverloadController,
    PressureSample,
    ServeFrontend,
    degraded_variant,
)


class FakeClock:
    def __init__(self):
        self.t = 100.0

    def __call__(self):
        return self.t

    def advance(self, dt):
        self.t += dt


def _controller(clock, **overrides):
    knobs = dict(
        levels=3, high_water=0.75, low_water=0.25, cooldown_s=1.0,
        queue_delay_target_s=0.05,
    )
    knobs.update(overrides)
    return OverloadController(OverloadConfig(**knobs), clock=clock)


HIGH = PressureSample(queue_delay_s=1.0)  # pressure 4.0 (capped)
LOW = PressureSample(queue_delay_s=0.0)
MID = PressureSample(queue_delay_s=0.025)  # pressure 0.5: in the band


class TestControllerHysteresis:
    def test_escalates_one_level_per_observation_up_to_shed(self):
        clock = FakeClock()
        controller = _controller(clock)
        levels = [controller.observe(HIGH) for _ in range(6)]
        assert levels == [1, 2, 3, 4, 4, 4], "one step per window, capped at SHED"
        assert controller.is_shedding
        assert controller.state_name() == "SHED"

    def test_band_pressure_holds_the_level(self):
        clock = FakeClock()
        controller = _controller(clock)
        controller.observe(HIGH)
        for _ in range(5):
            clock.advance(10.0)
            assert controller.observe(MID) == 1

    def test_recovery_needs_a_full_cooldown_per_rung(self):
        clock = FakeClock()
        controller = _controller(clock, cooldown_s=1.0)
        controller.observe(HIGH)
        controller.observe(HIGH)
        assert controller.level == 2
        assert controller.observe(LOW) == 2, "first low reading starts the timer"
        clock.advance(0.5)
        assert controller.observe(LOW) == 2, "cooldown not yet served"
        clock.advance(0.6)
        assert controller.observe(LOW) == 1, "one rung after a full cooldown"
        assert controller.observe(LOW) == 1, "each rung earns its own cooldown"
        clock.advance(1.1)
        assert controller.observe(LOW) == 0
        assert controller.state_name() == "NORMAL"

    def test_high_reading_voids_recovery_credit(self):
        clock = FakeClock()
        controller = _controller(clock, cooldown_s=1.0)
        controller.observe(HIGH)
        controller.observe(HIGH)
        controller.observe(LOW)
        clock.advance(0.9)
        controller.observe(HIGH)  # pressure returned: back up, credit gone
        assert controller.level == 3
        clock.advance(0.2)
        assert controller.observe(LOW) == 3, "old credit must not count"

    def test_band_reading_resets_the_cooldown_timer(self):
        clock = FakeClock()
        controller = _controller(clock, cooldown_s=1.0)
        controller.observe(HIGH)
        controller.observe(LOW)
        clock.advance(0.9)
        controller.observe(MID)  # wobbled back into the band
        clock.advance(0.9)
        assert controller.observe(LOW) == 1, "timer restarted at the wobble"
        clock.advance(1.1)
        assert controller.observe(LOW) == 0

    def test_transitions_are_monotone_and_recorded(self):
        clock = FakeClock()
        controller = _controller(clock, cooldown_s=0.5)
        for _ in range(5):
            controller.observe(HIGH)
        while controller.level > 0:
            clock.advance(0.6)
            controller.observe(LOW)
        transitions = controller.transitions
        assert len(transitions) == 8  # 4 up, 4 down
        assert all(abs(t.to_level - t.from_level) == 1 for t in transitions)
        assert [t.reason for t in transitions[:4]] == ["pressure"] * 4
        assert [t.reason for t in transitions[4:]] == ["recovery"] * 4

    def test_state_names(self):
        controller = _controller(FakeClock())
        assert controller.state_name(0) == "NORMAL"
        assert controller.state_name(1) == "BROWNOUT-1"
        assert controller.state_name(3) == "BROWNOUT-3"
        assert controller.state_name(4) == "SHED"

    def test_pressure_is_the_worst_signal_and_delay_is_capped(self):
        controller = _controller(FakeClock())
        assert controller.pressure_of(PressureSample(0.025, 0.0, 0.0)) == 0.5
        assert controller.pressure_of(PressureSample(0.0, 0.9, 0.1)) == 0.9
        assert controller.pressure_of(PressureSample(0.0, 0.0, 0.6)) == 0.6
        assert controller.pressure_of(PressureSample(99.0, 0.0, 0.0)) == 4.0

    def test_config_validation(self):
        with pytest.raises(ServeError):
            OverloadConfig(levels=0)
        with pytest.raises(ServeError):
            OverloadConfig(low_water=0.8, high_water=0.75)
        with pytest.raises(ServeError):
            OverloadConfig(queue_delay_target_s=0.0)


# ---------------------------------------------------------------- ladder


def _profile(name, quality, speedup, predicted=False):
    return SimpleNamespace(
        variant=SimpleNamespace(name=name),
        name=name,
        quality=quality,
        speedup=speedup,
        predicted=predicted,
    )


def _fake_session(profiles, toq=0.9, current="chosen", blocked=(),
                  registry=None, registry_key=None):
    blocked = set(blocked)
    return SimpleNamespace(
        toq=toq,
        tuning=SimpleNamespace(profiles=profiles),
        metrics=SimpleNamespace(launches=7),
        breaker=SimpleNamespace(blocked=lambda name, index: name in blocked),
        registry=registry,
        registry_key=registry_key,
        current_variant=current,
    )


LADDER = [
    _profile("chosen", 0.95, 1.5),
    _profile("mid", 0.70, 2.5),
    _profile("fast", 0.40, 4.0),
    _profile("reckless", 0.10, 8.0),
]


class TestDegradedVariant:
    def test_level_zero_and_untuned_keep_the_tuners_choice(self):
        assert degraded_variant(_fake_session(LADDER), 0, 3, 0.0) is None
        untuned = _fake_session(LADDER)
        untuned.tuning = None
        assert degraded_variant(untuned, 2, 3, 0.0) is None

    def test_bar_interpolates_from_toq_to_floor(self):
        session = _fake_session(LADDER)
        # floor 0.0, levels 3: bars are 0.6 / 0.3 / 0.0.
        assert degraded_variant(session, 1, 3, 0.0) == "mid"
        assert degraded_variant(session, 2, 3, 0.0) == "fast"
        assert degraded_variant(session, 3, 3, 0.0) == "reckless"
        # Levels past K stay at the floor bar.
        assert degraded_variant(session, 9, 3, 0.0) == "reckless"

    def test_tenant_floor_bounds_the_degradation(self):
        session = _fake_session(LADDER)
        # floor 0.65: even full brownout may not pick below it.
        assert degraded_variant(session, 3, 3, 0.65) == "mid"
        # A floor above every approximate rung keeps the tuner's choice.
        assert degraded_variant(session, 3, 3, 0.96) is None

    def test_quarantined_variants_are_skipped(self):
        session = _fake_session(LADDER, blocked={"fast"})
        assert degraded_variant(session, 2, 3, 0.0) == "mid"

    def test_predicted_profiles_are_not_served(self):
        ladder = LADDER[:2] + [_profile("surrogate", 0.5, 9.0, predicted=True)]
        session = _fake_session(ladder)
        assert degraded_variant(session, 3, 3, 0.0) == "mid"

    def test_no_override_when_pick_is_already_serving(self):
        session = _fake_session(LADDER, current="mid")
        assert degraded_variant(session, 1, 3, 0.0) is None

    def test_registry_knee_seeds_the_choice(self):
        registry = SimpleNamespace(
            knee_for=lambda key, toq: SimpleNamespace(variant="mid")
        )
        session = _fake_session(
            LADDER, registry=registry, registry_key="k1"
        )
        # The fastest candidate at bar 0.3 is "fast", but the registry
        # knee names "mid" and it is usable, so fleet knowledge wins.
        assert degraded_variant(session, 2, 3, 0.0) == "mid"

    def test_unusable_knee_falls_back_to_fastest(self):
        registry = SimpleNamespace(
            knee_for=lambda key, toq: SimpleNamespace(variant="unknown")
        )
        session = _fake_session(LADDER, registry=registry, registry_key="k1")
        assert degraded_variant(session, 2, 3, 0.0) == "fast"


# ----------------------------------------------------------- integration


class FakeSession:
    """Duck-typed ApproxSession: records the variant each launch served."""

    toq = 0.9
    key = "fake-session"

    def __init__(self):
        self.tuning = SimpleNamespace(profiles=LADDER)
        self.metrics = SimpleNamespace(launches=0)
        self.breaker = SimpleNamespace(blocked=lambda name, index: False)
        self.registry = None
        self.registry_key = None
        self.current_variant = "chosen"
        self.served = []

    def attach_registry(self, registry):
        pass

    def launch(self, inputs, variant=None):
        self.served.append(variant)
        return variant or "chosen"


def _force_level(controller, level):
    for _ in range(level):
        controller.observe(PressureSample(queue_delay_s=10.0))
    assert controller.level == level


class TestFrontendIntegration:
    def _frontend(self, **config):
        knobs = dict(cooldown_s=30.0, queue_delay_target_s=0.05)
        knobs.update(config)
        return ServeFrontend(
            batch_window_s=0.001, overload=OverloadConfig(**knobs)
        )

    def test_brownout_level_overrides_degradable_sessions(self):
        with self._frontend() as frontend:
            session = FakeSession()
            _force_level(frontend.overload, 2)
            out = frontend.submit_app(session, None).result(timeout=10)
            # Level 2, floor 0.0 -> bar 0.3 -> fastest clearing it.
            assert out == "fast"
            assert session.served == ["fast"]

    def test_non_degradable_tenant_keeps_the_sessions_choice(self):
        with self._frontend() as frontend:
            frontend.register_tenant("pinned", degradable=False, priority=1)
            session = FakeSession()
            _force_level(frontend.overload, 3)
            out = frontend.submit_app(session, None, tenant="pinned").result(
                timeout=10
            )
            assert out == "chosen"
            assert session.served == [None]

    def test_normal_level_never_overrides(self):
        with self._frontend() as frontend:
            session = FakeSession()
            out = frontend.submit_app(session, None).result(timeout=10)
            assert out == "chosen"
            assert session.served == [None]

    def test_shed_rejects_only_lowest_priority_tenants(self):
        with self._frontend() as frontend:
            frontend.register_tenant("paying", priority=1)
            session = FakeSession()
            _force_level(frontend.overload, frontend.overload.shed_level)
            with pytest.raises(BackpressureError, match="shed"):
                frontend.submit_app(session, None)  # default: priority 0
            out = frontend.submit_app(session, None, tenant="paying").result(
                timeout=10
            )
            assert out is not None
            rejects = frontend.metrics._rejects.labels(reason="shed").value
            assert rejects >= 1

    def test_controller_recovers_through_idle_ticks(self):
        with self._frontend(cooldown_s=0.05) as frontend:
            _force_level(frontend.overload, 1)
            deadline = time.monotonic() + 10
            while frontend.overload.level > 0 and time.monotonic() < deadline:
                time.sleep(0.02)
            assert frontend.overload.level == 0, (
                "an idle front-end must still recover to NORMAL"
            )

    def test_deadline_misses_feed_the_pressure_signal(self):
        with self._frontend() as frontend:
            session = FakeSession()
            before = frontend.deadline_misses()
            gate = threading.Event()
            blocker = frontend._enqueue("default", ("gate",), lambda: gate.wait(5))
            future = frontend.submit_app(session, None, deadline_s=0.01)
            time.sleep(0.1)  # let the queued request overrun its deadline
            gate.set()
            future.result(timeout=10)
            blocker.result(timeout=10)
            assert frontend.deadline_misses() > before


# ----------------------------------------------------- session override


class TestSessionOverride:
    @pytest.fixture(scope="class")
    def session(self):
        with ApproxSession(
            GaussianFilterApp(scale=0.05), target_quality=0.9
        ) as session:
            session.tune()
            yield session

    def test_override_serves_the_requested_rung_untouched_tuner(self, session):
        recal = session._recalibrator
        rung_before = recal.rung
        chosen = session.current_variant
        ladder_names = [p.name for p in session.tuning.profiles
                        if p.variant is not None]
        other = next(n for n in ladder_names if n != chosen)
        out = session.launch(
            session.app.generate_inputs(seed=session.app.seed), variant=other
        )
        assert out is not None
        assert session.last_launch.variant == other
        assert recal.rung == rung_before, "override must not move the ladder"
        assert session.current_variant == chosen

    def test_exact_override(self, session):
        session.launch(
            session.app.generate_inputs(seed=session.app.seed), variant="exact"
        )
        assert session.last_launch.variant == "exact"

    def test_unresolvable_override_falls_back_to_normal_path(self, session):
        session.launch(
            session.app.generate_inputs(seed=session.app.seed),
            variant="no-such-variant",
        )
        assert session.last_launch.variant == session.current_variant

    def test_overridden_samples_skip_the_monitor(self, session):
        monitor = session.monitor
        estimate_before = monitor.estimate
        ladder_names = [p.name for p in session.tuning.profiles
                        if p.variant is not None]
        worst = ladder_names[-1]
        # Enough overridden launches to cross several sampling cadences.
        inputs = session.app.generate_inputs(seed=session.app.seed)
        for _ in range(session.monitor.config.sample_every * 2):
            session.launch(inputs, variant=worst)
        assert monitor.estimate == estimate_before, (
            "browned-out quality must not enter the drift window"
        )
