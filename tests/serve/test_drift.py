"""Acceptance: an input-distribution shift drops quality below the TOQ, the
monitor triggers recalibration, and subsequent launches meet the TOQ again
— with the transition visible in the metrics snapshot."""

import numpy as np

from repro import ApproxSession, DeviceKind, MonitorConfig
from repro.apps.kde import KernelDensityApp

TOQ = 0.80


class DriftingKDE(KernelDensityApp):
    """KDE whose inputs become concentration-heavy after the drift point:
    most reference mass moves far from the queries, so perforated sampling
    of the reduction becomes much noisier (paper §3.5 scenario)."""

    def __init__(self, **kwargs):
        super().__init__(**kwargs)
        self.drifted = False

    def generate_inputs(self, seed=None):
        inputs = super().generate_inputs(seed)
        if self.drifted:
            rng = np.random.default_rng((seed or 0) + 1)
            refs = inputs["refs"].reshape(-1, self.nfeat)
            far = rng.normal(6.0, 0.05, refs.shape).astype(np.float32)
            keep = rng.random(len(refs)) < 0.05
            refs = np.where(keep[:, None], refs, far)
            inputs["refs"] = np.ascontiguousarray(refs.ravel())
        return inputs


def make_session(app) -> ApproxSession:
    return ApproxSession(
        app,
        target_quality=TOQ,
        device=DeviceKind.GPU,
        monitor=MonitorConfig(
            sample_every=2,
            window=3,
            min_samples=2,
            drift_drop=0.30,  # KDE quality varies a few points per seed
            advance_after=0,  # no step-up: keeps the walk one-directional
        ),
    )


def test_session_recalibrates_after_drift_and_meets_toq_again():
    app = DriftingKDE()
    session = make_session(app)
    tuning = session.tune()
    assert tuning.chosen.variant is not None  # an approximate variant won
    served_at_start = session.current_variant

    # Phase 1: stable distribution — the tuned variant holds the TOQ.
    for i in range(12):
        session.launch(app.generate_inputs(seed=1000 + i))
    before = session.metrics_snapshot()
    assert before["toq_violations"] == 0
    assert before["transitions"] == []
    assert session.current_variant == served_at_start

    # Phase 2: the input distribution shifts.
    app.drifted = True
    for i in range(12, 30):
        session.launch(app.generate_inputs(seed=1000 + i))

    after = session.metrics_snapshot()
    # The monitor caught the violation and recalibrated within the window.
    assert after["toq_violations"] >= 1
    assert after["recalibrations"]["down"] >= 1
    assert after["transitions"], "transition history must be visible"
    first = after["transitions"][0]
    assert first["from_variant"] == served_at_start
    assert first["quality"] < TOQ
    assert session.current_variant != served_at_start

    # Subsequent sampled launches meet the TOQ again.
    tail = [
        r for r in after["recent_launches"] if r["sampled"] and r["quality"] is not None
    ][-3:]
    assert tail, "monitoring must keep sampling after recalibration"
    assert all(r["quality"] >= TOQ for r in tail)


def test_drift_events_are_counted_separately():
    """A quality decay that stays above the TOQ registers as drift (a
    proactive step-down), not a violation."""
    app = DriftingKDE()
    session = ApproxSession(
        app,
        target_quality=0.30,  # far below any measured quality
        device=DeviceKind.GPU,
        monitor=MonitorConfig(
            sample_every=1, window=3, min_samples=2, drift_drop=0.10,
            advance_after=0,
        ),
    )
    session.tune()
    for i in range(4):
        session.launch(app.generate_inputs(seed=2000 + i))
    app.drifted = True
    for i in range(4, 10):
        session.launch(app.generate_inputs(seed=2000 + i))
    snap = session.metrics_snapshot()
    assert snap["drift_events"] >= 1
    assert snap["recalibrations"]["down"] >= 1


def test_a_session_at_exact_steps_up_only_once_the_drift_is_gone():
    """Serving the exact program, a sampled check scores the rung a step up
    would serve: under drift that persists the session stays at exact (a
    probe below the TOQ is no served violation), and once the drift is
    gone it steps back up."""
    app = DriftingKDE()
    session = ApproxSession(
        app,
        target_quality=TOQ,
        device=DeviceKind.GPU,
        monitor=MonitorConfig(sample_every=3, window=3, min_samples=2, drift_drop=0.25),
    )
    session.tune()
    first_rung = session.metrics_snapshot()["session"]["ladder"][0]
    app.drifted = True
    launch = 0
    while session.current_variant != "exact":
        assert launch < 30, "the drift never sent the session to exact"
        session.launch(app.generate_inputs(seed=1000 + launch))
        launch += 1
    at_exact = session.metrics_snapshot()
    for _ in range(36):  # twelve checks, four times advance_after
        session.launch(app.generate_inputs(seed=1000 + launch))
        launch += 1
    drifted = session.metrics_snapshot()
    assert drifted["sampled_checks"] == at_exact["sampled_checks"] + 12
    assert drifted["recalibrations"]["up"] == 0
    assert drifted["toq_violations"] == at_exact["toq_violations"]
    assert session.current_variant == "exact"
    sampled = [r for r in drifted["recent_launches"] if r["sampled"]]
    assert sampled and all(r["quality"] == 1.0 for r in sampled)

    app.drifted = False
    for _ in range(36):
        session.launch(app.generate_inputs(seed=1000 + launch))
        launch += 1
        if session.current_variant != "exact":
            break
    recovered = session.metrics_snapshot()
    assert recovered["recalibrations"]["up"] == 1
    last = recovered["transitions"][-1]
    assert (last["from_variant"], last["to_variant"], last["reason"]) == (
        "exact",
        first_rung,
        "headroom",
    )
    assert last["quality"] >= TOQ


def test_a_session_with_no_rung_above_exact_skips_its_checks():
    app = DriftingKDE()
    session = ApproxSession(
        app, target_quality=1.0, monitor=MonitorConfig(sample_every=1)
    )
    session.tune()
    assert session.metrics_snapshot()["session"]["ladder"] == []
    for i in range(4):
        session.launch(app.generate_inputs(seed=3000 + i))
    snap = session.metrics_snapshot()
    assert snap["sampled_checks"] == 0
    assert snap["recalibrations"] == {"down": 0, "up": 0}


def test_a_check_at_exact_runs_the_probe_and_no_second_exact_program():
    """The served output at exact *is* the exact output: a sampled check
    runs only the rung a step up would serve and scores it against that."""
    app = DriftingKDE()
    session = ApproxSession(
        app,
        target_quality=TOQ,
        device=DeviceKind.GPU,
        monitor=MonitorConfig(sample_every=3, window=3, min_samples=2, drift_drop=0.25),
    )
    session.tune()
    probe = session.metrics_snapshot()["session"]["ladder"][0]
    app.drifted = True
    launch = 0
    while session.current_variant != "exact":
        assert launch < 30, "the drift never sent the session to exact"
        session.launch(app.generate_inputs(seed=1000 + launch))
        launch += 1
    runs = {"exact": 0, "variant": []}
    run_exact, run_variant = app.run_exact, app.run_variant

    def counting_exact(inputs):
        runs["exact"] += 1
        return run_exact(inputs)

    def counting_variant(variant, inputs):
        runs["variant"].append(variant.name)
        return run_variant(variant, inputs)

    app.run_exact, app.run_variant = counting_exact, counting_variant
    before = session.metrics_snapshot()["sampled_checks"]
    for _ in range(6):
        session.launch(app.generate_inputs(seed=1000 + launch))
        launch += 1
    checks = session.metrics_snapshot()["sampled_checks"] - before
    assert session.current_variant == "exact" and checks == 2
    assert runs == {"exact": 6, "variant": [probe] * checks}
