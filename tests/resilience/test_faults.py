"""Fault-plan semantics: determinism, budgets, combined exception types."""

import threading

import pytest

from repro.errors import (
    CodegenError,
    InjectedFault,
    ResilienceError,
    WorkerDeath,
)
from repro.resilience.faults import (
    FAULT_CLASSES,
    MODES,
    SITES,
    SITE_COMPILE,
    SITE_WORKER,
    FaultPlan,
    FaultSpec,
    active_plan,
    maybe_inject,
    random_plan,
    use_faults,
)


class TestFaultSpec:
    def test_defaults(self):
        spec = FaultSpec(SITE_WORKER)
        assert spec.mode == "exception"
        assert spec.probability == 1.0
        assert spec.max_fires is None

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"site": "nowhere"},
            {"site": SITE_WORKER, "mode": "explode"},
            {"site": SITE_WORKER, "probability": 0.0},
            {"site": SITE_WORKER, "probability": 1.5},
            {"site": SITE_WORKER, "max_fires": 0},
            {"site": SITE_WORKER, "mode": "hang", "hang_seconds": -1.0},
            {"site": SITE_WORKER, "mode": "hang", "hang_seconds": float("nan")},
        ],
    )
    def test_invalid_specs_rejected(self, kwargs):
        with pytest.raises(ResilienceError):
            FaultSpec(**kwargs)

    def test_a_zero_hang_is_valid(self):
        assert FaultSpec(SITE_WORKER, "hang", hang_seconds=0.0).hang_seconds == 0.0


class TestFaultPlan:
    def test_poll_respects_budget(self):
        plan = FaultPlan([FaultSpec(SITE_WORKER, max_fires=2)])
        assert plan.poll(SITE_WORKER) is not None
        assert plan.poll(SITE_WORKER) is not None
        assert plan.poll(SITE_WORKER) is None
        assert plan.fired[SITE_WORKER] == 2
        assert plan.total_fired() == 2

    def test_poll_filters_by_site_and_match(self):
        plan = FaultPlan([FaultSpec(SITE_WORKER, match="mm_kernel")])
        assert plan.poll(SITE_COMPILE, "mm_kernel") is None
        assert plan.poll(SITE_WORKER, "other_kernel") is None
        assert plan.poll(SITE_WORKER, "mm_kernel:0-4") is not None

    def test_seeded_probability_is_deterministic(self):
        outcomes = []
        for _ in range(2):
            plan = FaultPlan(
                [FaultSpec(SITE_WORKER, probability=0.5)], seed=123
            )
            outcomes.append(
                [plan.poll(SITE_WORKER) is not None for _ in range(32)]
            )
        assert outcomes[0] == outcomes[1]
        assert any(outcomes[0]) and not all(outcomes[0])

    def test_describe_names_sites_and_budgets(self):
        plan = FaultPlan([FaultSpec(SITE_WORKER, mode="hang", max_fires=3)])
        assert "shard.worker/hang x3" in plan.describe()
        assert FaultPlan([]).describe() == "(empty plan)"

    def test_concurrent_polls_respect_total_budget(self):
        plan = FaultPlan([FaultSpec(SITE_WORKER, max_fires=10)])
        hits = []

        def worker():
            for _ in range(20):
                if plan.poll(SITE_WORKER) is not None:
                    hits.append(1)

        threads = [threading.Thread(target=worker) for _ in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert len(hits) == 10


class TestActivePlan:
    def test_no_plan_by_default(self):
        assert active_plan() is None
        assert maybe_inject(SITE_WORKER) is None

    def test_use_faults_scopes_and_nests(self):
        outer = FaultPlan([FaultSpec(SITE_WORKER)])
        inner = FaultPlan([FaultSpec(SITE_COMPILE)])
        with use_faults(outer):
            assert active_plan() is outer
            with use_faults(inner):
                assert active_plan() is inner
            assert active_plan() is outer
        assert active_plan() is None

    def test_plan_visible_across_threads(self):
        # Process-global on purpose: pool workers never inherit
        # thread-local scopes.
        seen = []
        plan = FaultPlan([FaultSpec(SITE_WORKER)])
        with use_faults(plan):
            t = threading.Thread(target=lambda: seen.append(active_plan()))
            t.start()
            t.join()
        assert seen == [plan]


class TestMaybeInject:
    def test_exception_mode_raises_combined_type(self):
        plan = FaultPlan([FaultSpec(SITE_COMPILE, max_fires=1)])
        with use_faults(plan):
            with pytest.raises(CodegenError) as excinfo:
                maybe_inject(SITE_COMPILE, "k", exc=CodegenError)
        # The injected failure is BOTH the site's natural type and an
        # InjectedFault, so production fallbacks engage while tests can
        # still tell injections apart.
        assert isinstance(excinfo.value, InjectedFault)

    def test_dead_mode_raises_worker_death(self):
        plan = FaultPlan([FaultSpec(SITE_WORKER, mode="dead")])
        with use_faults(plan):
            with pytest.raises(WorkerDeath):
                maybe_inject(SITE_WORKER)

    def test_hang_mode_returns_after_sleeping(self):
        plan = FaultPlan(
            [FaultSpec(SITE_WORKER, mode="hang", hang_seconds=0.01)]
        )
        with use_faults(plan):
            spec = maybe_inject(SITE_WORKER)
        assert spec is not None and spec.mode == "hang"

    def test_nan_mode_returns_spec_for_caller(self):
        from repro.resilience.faults import SITE_OUTPUT

        plan = FaultPlan([FaultSpec(SITE_OUTPUT, mode="nan")])
        with use_faults(plan):
            spec = maybe_inject(SITE_OUTPUT)
        assert spec is not None and spec.mode == "nan"


class TestRandomPlan:
    def test_known_classes_cover_all_sites(self):
        from repro.resilience.faults import SITE_OVERLOAD

        # Every injectable-failure site has a chaos class.  The overload
        # seam is the one exception: it feeds a synthetic pressure signal
        # to the serving front-end (the conformance ``floor`` contract
        # ramps it), it never fires in the guarded-ladder fault cells.
        assert {site for site, _modes in FAULT_CLASSES.values()} == set(
            SITES
        ) - {SITE_OVERLOAD}
        for fault_class in FAULT_CLASSES:
            plan = random_plan(fault_class, seed=0)
            assert len(plan.specs) == 1
            assert plan.specs[0].mode in MODES

    def test_same_seed_same_plan(self):
        a = random_plan("worker_crash", seed=5)
        b = random_plan("worker_crash", seed=5)
        assert a.specs == b.specs

    def test_seeds_vary_the_plan(self):
        specs = {random_plan("nan_output", seed=s).specs[0] for s in range(16)}
        assert len(specs) > 1

    def test_unknown_class_rejected(self):
        with pytest.raises(ResilienceError):
            random_plan("meteor_strike")
