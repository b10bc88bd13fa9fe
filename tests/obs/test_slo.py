"""SLO engine: objectives, burn-rate math, the alert FSM, the drill."""

import pytest

from repro.errors import ConfigError
from repro.obs.registry import MetricsRegistry
from repro.obs.slo import (
    OK,
    PAGE,
    WARN,
    SLOEngine,
    SLOObjective,
)
from repro.obs.timeline import timeline


class TestObjectiveValidation:
    def test_unknown_kind_raises(self):
        with pytest.raises(ConfigError):
            SLOObjective(name="x", kind="throughput")

    def test_target_must_be_a_proper_fraction(self):
        with pytest.raises(ConfigError):
            SLOObjective(name="x", kind="latency", target=1.0)
        with pytest.raises(ConfigError):
            SLOObjective(name="x", kind="latency", target=0.0)

    def test_fast_window_must_be_shorter(self):
        with pytest.raises(ConfigError):
            SLOObjective(
                name="x", kind="latency",
                fast_window_s=300.0, slow_window_s=60.0,
            )

    def test_warn_burn_must_not_exceed_page_burn(self):
        with pytest.raises(ConfigError):
            SLOObjective(
                name="x", kind="latency", warn_burn=8.0, page_burn=4.0
            )

    def test_budget_is_one_minus_target(self):
        objective = SLOObjective(name="x", kind="latency", target=0.99)
        assert objective.budget == pytest.approx(0.01)

    def test_constructors_wire_the_serving_metrics(self):
        latency = SLOObjective.latency("l", tenant="a", threshold_s=0.1)
        assert latency.hist_metric == "repro_frontend_tenant_wait_seconds"
        assert latency.labels == (("tenant", "a"),)

        miss = SLOObjective.deadline_miss_rate("m", tenant="a")
        assert miss.bad_metric == "repro_frontend_tenant_deadline_misses_total"
        assert miss.total_metric == "repro_frontend_requests_total"

        quality = SLOObjective.quality("q", session="s1")
        assert quality.bad_metric == "repro_session_toq_violations_total"
        assert quality.labels == (("session", "s1"),)

        avail = SLOObjective.availability("a")
        assert avail.total_includes_bad is False


class _Clock:
    """A settable fake clock handed to SLOEngine."""

    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def _miss_rate_engine(registry, **overrides):
    """Engine with one deadline-miss objective: 10% budget, 60s/300s."""
    defaults = dict(
        target=0.9, fast_window_s=60.0, slow_window_s=300.0,
        warn_burn=1.0, page_burn=4.0, clear_after_s=120.0,
    )
    defaults.update(overrides)
    clock = _Clock()
    engine = SLOEngine(
        objectives=(
            SLOObjective.deadline_miss_rate("miss", tenant="t", **defaults),
        ),
        registry=registry,
        clock=clock,
    )
    bad = registry.counter(
        "repro_frontend_tenant_deadline_misses_total", "misses",
        labelnames=("tenant",),
    ).labels(tenant="t")
    total = registry.counter(
        "repro_frontend_requests_total", "requests", labelnames=("tenant",)
    ).labels(tenant="t")
    return engine, clock, bad, total


class TestBurnMath:
    def test_counter_burn_is_bad_rate_over_budget(self):
        registry = MetricsRegistry()
        engine, clock, bad, total = _miss_rate_engine(registry)
        engine.evaluate(0.0)  # baseline sample
        total.inc(100)
        bad.inc(5)  # 5% bad against a 10% budget -> burn 0.5
        engine.evaluate(10.0)
        (objective,) = engine.state()["objectives"]
        assert objective["burn_fast"] == pytest.approx(0.5)
        assert objective["burn_slow"] == pytest.approx(0.5)
        assert objective["state"] == "OK"

    def test_no_traffic_means_no_burn(self):
        registry = MetricsRegistry()
        engine, clock, bad, total = _miss_rate_engine(registry)
        engine.evaluate(0.0)
        engine.evaluate(10.0)
        (objective,) = engine.state()["objectives"]
        assert objective["burn_fast"] == 0.0

    def test_missing_metric_families_burn_zero(self):
        registry = MetricsRegistry()
        engine = SLOEngine(
            objectives=(SLOObjective.deadline_miss_rate("m", tenant="t"),),
            registry=registry,
        )
        engine.evaluate(0.0)
        engine.evaluate(10.0)
        assert engine.state()["objectives"][0]["burn_fast"] == 0.0

    def test_availability_counts_offered_load(self):
        registry = MetricsRegistry()
        engine = SLOEngine(
            objectives=(SLOObjective.availability("avail", target=0.9),),
            registry=registry,
        )
        requests = registry.counter(
            "repro_frontend_requests_total", "requests", labelnames=("tenant",)
        )
        rejects = registry.counter(
            "repro_frontend_rejects_total", "rejects"
        )
        engine.evaluate(0.0)
        requests.labels(tenant="a").inc(60)
        requests.labels(tenant="b").inc(35)  # totals sum across tenants
        rejects.inc(5)  # offered = 95 admitted + 5 rejected
        engine.evaluate(10.0)
        (objective,) = engine.state()["objectives"]
        assert objective["burn_fast"] == pytest.approx(0.5)  # 5% / 10%

    def test_latency_burn_interpolates_the_histogram(self):
        registry = MetricsRegistry()
        clock = _Clock()
        engine = SLOEngine(
            objectives=(
                SLOObjective.latency(
                    "lat", tenant="t", threshold_s=0.1, target=0.9
                ),
            ),
            registry=registry,
            clock=clock,
        )
        wait = registry.histogram(
            "repro_frontend_tenant_wait_seconds", "wait",
            labelnames=("tenant",),
            buckets=(0.01, 0.1, 1.0),
        ).labels(tenant="t")
        engine.evaluate(0.0)
        for _ in range(90):
            wait.observe(0.005)
        for _ in range(10):
            wait.observe(0.5)  # 10% miss the 100ms bound
        engine.evaluate(10.0)
        (objective,) = engine.state()["objectives"]
        assert objective["burn_fast"] == pytest.approx(1.0)

    def test_latency_burn_survives_a_pre_series_baseline(self):
        # Live cold start: the engine's first evaluation runs before the
        # tenant's histogram series exists (it appears with the first
        # request).  That baseline must read as zero counts, not blind
        # the objective until it ages out of the slow window.
        registry = MetricsRegistry()
        engine = SLOEngine(
            objectives=(
                SLOObjective.latency(
                    "lat", tenant="t", threshold_s=0.1, target=0.9
                ),
            ),
            registry=registry,
        )
        hist = registry.histogram(
            "repro_frontend_tenant_wait_seconds", "wait",
            labelnames=("tenant",),
            buckets=(0.01, 0.1, 1.0),
        )
        engine.evaluate(0.0)  # family exists, series does not yet
        wait = hist.labels(tenant="t")
        for _ in range(100):
            wait.observe(0.5)  # every request misses the bound
        engine.evaluate(10.0)
        (objective,) = engine.state()["objectives"]
        assert objective["burn_fast"] == pytest.approx(10.0)


class TestAlertFSM:
    def test_escalates_one_level_per_evaluation(self):
        registry = MetricsRegistry()
        engine, clock, bad, total = _miss_rate_engine(registry)
        engine.evaluate(0.0)
        total.inc(100)
        bad.inc(50)  # burn 5.0, over page_burn from the start
        engine.evaluate(10.0)
        assert engine.alerts() == {"miss": "WARN"}  # one step, not a jump
        engine.evaluate(20.0)
        assert engine.alerts() == {"miss": "PAGE"}

    def test_requires_both_windows_over_threshold(self):
        registry = MetricsRegistry()
        engine, clock, bad, total = _miss_rate_engine(registry)
        # Five minutes of healthy history fills the slow window...
        for tick in range(31):
            engine.evaluate(tick * 10.0)
            total.inc(100)
        # ...so one bad fast-window burst dilutes to <1.0 slow burn.
        bad.inc(250)
        engine.evaluate(310.0)
        (objective,) = engine.state()["objectives"]
        assert objective["burn_fast"] >= 4.0
        assert objective["burn_slow"] < 1.0
        assert objective["state"] == "OK"

    def test_recovery_waits_out_the_hysteresis(self):
        registry = MetricsRegistry()
        engine, clock, bad, total = _miss_rate_engine(registry)
        engine.evaluate(0.0)
        total.inc(100)
        bad.inc(20)  # burn 2.0 -> WARN
        engine.evaluate(10.0)
        assert engine.alerts() == {"miss": "WARN"}
        # Burn drops to zero; the level holds until clear_after_s passes.
        now = 10.0
        while engine.alerts() == {"miss": "WARN"}:
            now += 10.0
            total.inc(100)
            engine.evaluate(now)
            assert now < 400.0, "WARN never cleared"
        # clear_since starts at the first sub-threshold evaluation (320s:
        # the 300s slow window still sees the burst until it ages out).
        assert engine.alerts() == {"miss": "OK"}
        assert now >= 10.0 + 120.0

    def test_transitions_land_in_metrics(self):
        registry = MetricsRegistry()
        engine, clock, bad, total = _miss_rate_engine(registry)
        engine.evaluate(0.0)
        total.inc(100)
        bad.inc(50)
        engine.evaluate(10.0)
        engine.evaluate(20.0)
        state = registry.get("repro_slo_state")
        assert state.labels(objective="miss").value == PAGE
        transitions = registry.get("repro_slo_transitions_total")
        assert transitions.labels(objective="miss", to_state="WARN").value == 1
        assert transitions.labels(objective="miss", to_state="PAGE").value == 1
        assert registry.get("repro_slo_evaluations_total").value == 3

    def test_transitions_land_in_the_timeline(self, traced_memory):
        registry = MetricsRegistry()
        engine, clock, bad, total = _miss_rate_engine(registry)
        engine.evaluate(0.0)
        total.inc(100)
        bad.inc(50)
        engine.evaluate(10.0)
        (entry,) = timeline().entries(kind="slo")
        assert entry["objective"] == "miss"
        assert entry["tenant"] == "t"
        assert (entry["from_state"], entry["to_state"]) == ("OK", "WARN")
        assert entry["burn_fast"] > 0.0


class TestEngine:
    def test_duplicate_objective_name_raises(self):
        engine = SLOEngine(registry=MetricsRegistry())
        engine.add(SLOObjective.availability("a"))
        with pytest.raises(ConfigError):
            engine.add(SLOObjective.availability("a"))

    def test_maybe_evaluate_is_rate_limited(self):
        registry = MetricsRegistry()
        clock = _Clock()
        engine = SLOEngine(
            objectives=(SLOObjective.availability("a"),),
            registry=registry,
            clock=clock,
            min_interval_s=1.0,
        )
        clock.now = 5.0
        engine.maybe_evaluate()
        clock.now = 5.5  # within min_interval_s of the last pass
        engine.maybe_evaluate()
        clock.now = 6.1
        engine.maybe_evaluate()
        assert registry.get("repro_slo_evaluations_total").value == 2

    def test_state_shape_matches_the_slo_endpoint(self):
        engine = SLOEngine(
            objectives=(
                SLOObjective.latency("l", tenant="t", threshold_s=0.25),
            ),
            registry=MetricsRegistry(),
        )
        state = engine.state()
        assert state["max_state"] == "OK"
        (objective,) = state["objectives"]
        assert objective["name"] == "l"
        assert objective["threshold_s"] == 0.25
        assert objective["windows"] == {"fast_s": 60.0, "slow_s": 300.0}
        assert objective["thresholds"]["page_burn"] == 4.0


class TestDrill:
    """Deterministic burn-rate drill on a fake clock.

    A synthetic latency history against a private registry: 31 healthy
    evaluation ticks (10s apart, 100 requests each at 10ms), then a
    12-tick regression in which 10% of requests wait 1s — ten times the
    100ms threshold — then recovery.  With a 60s/300s window pair, warn
    burn 1, page burn 4 and a 1% budget the alert timeline is exactly
    predictable:

    * WARN at regression tick 3 (slow-window burn reaches 1.0; the fast
      window was already over from tick 1 — multi-window AND);
    * PAGE at regression tick 12 (slow-window burn reaches 4.0);
    * PAGE → WARN 16 ticks after the regression ends (the fast window
      clears at tick 4 of recovery, plus 120s = 12 ticks of hysteresis);
    * WARN → OK 12 hysteresis ticks later, at recovery tick 28.

    ``/slo`` over HTTP is ``test_http.py::test_slo_serves_the_engine_state``.
    """

    def test_drill_passes_without_http(self, traced_memory):
        registry = MetricsRegistry()
        wait = registry.histogram(
            "repro_frontend_tenant_wait_seconds",
            "drill wait-time histogram",
            labelnames=("tenant",),
            buckets=(0.005, 0.01, 0.05, 0.1, 0.5, 1.0, 5.0),
        ).labels(tenant="drill")
        now = [0.0]
        engine = SLOEngine(
            registry=registry, clock=lambda: now[0], min_interval_s=0.0
        )
        engine.add(
            SLOObjective.latency(
                name="drill-latency",
                tenant="drill",
                threshold_s=0.1,
                target=0.99,
                fast_window_s=60.0,
                slow_window_s=300.0,
                warn_burn=1.0,
                page_burn=4.0,
                clear_after_s=120.0,
            )
        )
        transitions = []
        page_state = None
        for phase, ticks, bad_per_tick in (
            ("healthy", 31, 0),
            ("regression", 12, 10),
            ("recovery", 30, 0),
        ):
            for tick in range(1, ticks + 1):
                now[0] += 10.0
                for _ in range(100 - bad_per_tick):
                    wait.observe(0.01)
                for _ in range(bad_per_tick):
                    wait.observe(1.0)  # 10x the threshold
                engine.evaluate(now[0])
                state = engine.alerts()["drill-latency"]
                if not transitions or transitions[-1][2] != state:
                    transitions.append((phase, tick, state))
                    if state == "PAGE":
                        page_state = engine.state()

        assert transitions == [
            ("healthy", 1, "OK"),
            ("regression", 3, "WARN"),
            ("regression", 12, "PAGE"),
            ("recovery", 16, "WARN"),
            ("recovery", 28, "OK"),
        ]
        assert page_state["max_state"] == "PAGE"
        assert page_state["objectives"][0]["state"] == "PAGE"

        snapshot = registry.snapshot()
        assert snapshot["repro_slo_state{objective=drill-latency}"] == 0.0
        for to_state, count in (("WARN", 2), ("PAGE", 1), ("OK", 1)):
            key = (
                "repro_slo_transitions_total"
                f"{{objective=drill-latency,to_state={to_state}}}"
            )
            assert snapshot[key] == count, key

        assert [
            (e["from_state"], e["to_state"])
            for e in timeline().entries(kind="slo")
        ] == [("OK", "WARN"), ("WARN", "PAGE"), ("PAGE", "WARN"), ("WARN", "OK")]
