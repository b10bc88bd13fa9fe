"""Session-level resilience: quarantine, tuner exclusion, re-admission."""

import json

import numpy as np
import pytest

from repro import ApproxSession, DeviceKind, MonitorConfig
from repro.apps.gaussian import GaussianFilterApp
from repro.resilience.breaker import CLOSED, OPEN, BreakerConfig
from repro.resilience.faults import (
    SITE_OUTPUT,
    SITE_QUALITY,
    FaultPlan,
    FaultSpec,
    use_faults,
)
from repro.resilience.guard import STATS, GuardPolicy


@pytest.fixture(autouse=True)
def _reset_guard_stats():
    STATS.reset()
    yield
    STATS.reset()


FAST_GUARD = GuardPolicy()

# Corrupt only the primary (variant) rung: the exact rungs stay clean, so
# every faulted launch still serves a correct answer at depth 1.
VARIANT_NAN = FaultSpec(SITE_OUTPUT, mode="nan", match="variant")


def make_session(
    threshold=2, after=50, successes=1, sample_every=1000, **kwargs
) -> ApproxSession:
    return ApproxSession(
        GaussianFilterApp(scale=0.05),
        target_quality=0.9,
        device=DeviceKind.GPU,
        guard=FAST_GUARD,
        breaker=BreakerConfig(
            fault_threshold=threshold,
            probation_after=after,
            probation_successes=successes,
        ),
        monitor=MonitorConfig(sample_every=sample_every),
        **kwargs,
    )


class TestQuarantine:
    def test_faulted_launches_serve_exact_and_open_the_breaker(self):
        session = make_session(threshold=2)
        session.tune()
        chosen = session.current_variant
        app = session.app
        inputs = app.generate_inputs(seed=3)
        golden, _ = app.run_exact(inputs)

        plan = FaultPlan([VARIANT_NAN])
        with use_faults(plan):
            first = session.launch(inputs)
            assert session.breaker.state(chosen) == CLOSED  # one strike
            second = session.launch(inputs)

        # Both faulted launches still produced the exact answer.
        np.testing.assert_array_equal(np.asarray(first), np.asarray(golden))
        np.testing.assert_array_equal(np.asarray(second), np.asarray(golden))
        assert plan.total_fired() == 2
        assert STATS.validation_trips == 2

        # The second consecutive fault opened the breaker and the session
        # stepped off the variant immediately.
        assert session.breaker.state(chosen) == OPEN
        assert chosen in session.breaker.quarantined()
        assert session.current_variant != chosen

        records = session.metrics.records
        assert all(r.served != "variant" for r in records)
        assert all(r.fallback_depth >= 1 for r in records)
        assert records[-1].action == "quarantine"
        transitions = session.metrics.transitions
        assert transitions[-1].reason == "quarantine"
        assert transitions[-1].from_variant == chosen

    def test_success_between_faults_keeps_the_breaker_closed(self):
        session = make_session(threshold=2)
        session.tune()
        chosen = session.current_variant
        inputs = session.app.generate_inputs(seed=3)

        one_shot = FaultSpec(
            SITE_OUTPUT, mode="nan", match="variant", max_fires=1
        )
        with use_faults(FaultPlan([one_shot])):
            session.launch(inputs)  # fault
        session.launch(inputs)  # clean: resets the consecutive count
        with use_faults(FaultPlan([one_shot])):
            session.launch(inputs)  # fault again, but not consecutive
        assert session.breaker.state(chosen) == CLOSED
        assert session.current_variant == chosen

    def test_quarantined_variant_is_not_served_while_blocked(self):
        session = make_session(threshold=1, after=1000, sample_every=1)
        session.tune()
        chosen = session.current_variant
        inputs = session.app.generate_inputs(seed=3)

        with use_faults(FaultPlan([VARIANT_NAN])):
            session.launch(inputs)
        assert chosen in session.breaker.quarantined()
        for _ in range(6):
            session.launch(inputs)
        # Sampling is on every launch, so headroom signals fire — but the
        # recalibrator must never promote back onto the quarantined rung.
        served = [r.variant for r in list(session.metrics.records)[1:]]
        assert chosen not in served


class TestTunerExclusion:
    def test_retuning_avoids_the_quarantined_variant(self):
        session = make_session(threshold=1)
        session.tune()
        chosen = session.current_variant
        inputs = session.app.generate_inputs(seed=3)
        with use_faults(FaultPlan([VARIANT_NAN])):
            session.launch(inputs)
        assert chosen in session.breaker.quarantined()

        retuned = session.tune(force=True)
        assert retuned.chosen.name != chosen
        assert session.current_variant != chosen

    def test_choose_excludes_by_name_but_never_exact(self):
        from repro.device import spec_for
        from repro.runtime.tuner import GreedyTuner

        session = make_session()
        tuning = session.tune()
        tuner = GreedyTuner(spec_for(DeviceKind.GPU), toq=0.9)
        names = {p.name for p in tuning.profiles if not p.is_exact}
        assert names  # gaussian produces approximate variants
        picked = tuner.choose(tuning.profiles, exclude=names)
        assert picked.is_exact  # everything else excluded -> exact survives


class TestReadmission:
    def test_probation_readmits_after_the_window(self):
        session = make_session(threshold=1, after=2, successes=1)
        session.tune()
        chosen = session.current_variant
        inputs = session.app.generate_inputs(seed=3)

        with use_faults(FaultPlan([VARIANT_NAN])):
            session.launch(inputs)  # launch 0: fault -> quarantine
        assert session.breaker.state(chosen) == OPEN
        session.launch(inputs)  # launch 1: clean, still inside the window

        # Window passed at launch index 2.  Steer the recalibrator back
        # onto the quarantined rung (standing in for a headroom signal)
        # and serve: blocked() flips to probation, the clean launch is
        # the probation success, and the breaker closes.
        recal = session._recalibrator
        while recal.current_name != chosen and recal.step_up():
            pass
        assert recal.current_name == chosen
        session.launch(inputs)  # launch 2: probation probe, succeeds
        assert session.breaker.state(chosen) == CLOSED
        assert chosen not in session.breaker.quarantined()
        assert session.metrics.records[-1].variant == chosen

        snap = session.metrics_snapshot()
        assert snap["resilience"]["quarantines"] == 1
        assert snap["resilience"]["readmissions"] == 1


class TestQualityContainment:
    def test_evaluator_crash_is_contained_and_counted(self):
        session = make_session(sample_every=1)
        inputs = session.app.generate_inputs(seed=3)
        with use_faults(FaultPlan([FaultSpec(SITE_QUALITY)])):
            out = session.launch(inputs)
        assert out is not None
        record = session.metrics.records[-1]
        assert record.sampled
        assert record.quality is None
        assert any(f.startswith("quality:") for f in record.faults)
        # The serving variant is not charged for an evaluator fault.
        assert session.breaker.quarantined() == set()


class TestResilienceSnapshot:
    def test_snapshot_shape_and_serialisability(self):
        session = make_session(threshold=1)
        session.tune()
        inputs = session.app.generate_inputs(seed=3)
        before = STATS.snapshot()
        with use_faults(FaultPlan([VARIANT_NAN])):
            session.launch(inputs)
        session.launch(inputs)
        after = STATS.snapshot()

        snap = session.metrics_snapshot()
        res = snap["resilience"]
        assert set(res) >= {
            "faults",
            "fallback_depths",
            "fallback_launches",
            "quarantines",
            "readmissions",
            "breakers",
            "guard_policy",
        }
        # The guard's counters are process-wide: read them around the launches.
        assert "guard" not in res
        assert after["guarded_launches"] - before["guarded_launches"] == 2
        assert after["validation_trips"] - before["validation_trips"] == 1
        assert res["fallback_launches"] == 1
        assert res["fallback_depths"]["1"] == 1
        assert any("output.validate" in key for key in res["faults"])
        assert res["quarantines"] == 1
        breakers = res["breakers"]
        assert any(entry["state"] == OPEN for entry in breakers.values())
        assert res["guard_policy"]["enabled"] is True
        json.dumps(snap)
