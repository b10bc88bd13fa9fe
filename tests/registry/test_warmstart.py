"""Registry-seeded tuning: warm starts, budgets, fallbacks, write-back."""

import pytest

from repro import DeviceKind, Paraprox
from repro.apps.gaussian import MeanFilterApp
from repro.device import spec_for
from repro.registry import VariantRegistry
from repro.runtime.tuner import GreedyTuner


@pytest.fixture()
def setup():
    app = MeanFilterApp(scale=0.05)
    variants = list(Paraprox(target_quality=0.9).compile(app))
    inputs = app.generate_inputs(seed=app.seed)
    spec = spec_for(DeviceKind.GPU)
    return app, variants, inputs, spec


def tune(setup, registry, exclude=(), seed=None):
    app, variants, inputs, spec = setup
    if seed is not None:
        inputs = app.generate_inputs(seed=seed)
    tuner = GreedyTuner(spec, toq=0.9, registry=registry)
    result = tuner.profile(app, variants, inputs, exclude=exclude)
    return tuner, result


class TestSeedModes:
    def test_no_registry_reports_off_mode(self, setup):
        tuner, result = tune(setup, registry=None)
        assert tuner.last_seed_mode == "off"
        assert result.seed_mode == "cold"
        assert tuner.last_registry_key is None

    def test_first_tune_is_cold_and_populates_registry(self, setup):
        registry = VariantRegistry()
        tuner, _ = tune(setup, registry)
        assert tuner.last_seed_mode == "cold"
        assert tuner.last_measured == len(setup[1])
        assert registry.points(tuner.last_registry_key)

    def test_second_tune_is_warm_and_agrees_with_cold(self, setup):
        registry = VariantRegistry()
        _, cold = tune(setup, registry)
        tuner, warm = tune(setup, registry)
        assert tuner.last_seed_mode == "warm"
        assert warm.seed_mode == "warm"
        assert warm.chosen.name == cold.chosen.name
        assert warm.chosen.quality >= 0.9

    def test_warm_budget_is_at_most_half_the_ladder(self, setup):
        registry = VariantRegistry()
        tune(setup, registry)
        tuner, _ = tune(setup, registry)
        assert tuner.last_measured <= max(1, len(setup[1]) // 2)

    def test_warm_start_transfers_across_input_seeds(self, setup):
        registry = VariantRegistry()
        _, cold = tune(setup, registry, seed=0)
        tuner, warm = tune(setup, registry, seed=1234)
        assert tuner.last_seed_mode == "warm"
        assert warm.chosen.name == cold.chosen.name


class TestPredictedProfiles:
    def test_unmeasured_rungs_are_marked_predicted(self, setup):
        registry = VariantRegistry()
        tune(setup, registry)
        tuner, warm = tune(setup, registry)
        predicted = [p for p in warm.profiles if p.predicted]
        measured = [
            p for p in warm.profiles if not p.predicted and not p.is_exact
        ]
        assert len(measured) == tuner.last_measured
        assert len(predicted) == len(setup[1]) - tuner.last_measured

    def test_chosen_is_never_a_predicted_profile(self, setup):
        registry = VariantRegistry()
        tune(setup, registry)
        _, warm = tune(setup, registry)
        assert not warm.chosen.predicted

    def test_resume_never_rechooses_a_predicted_profile(self, setup):
        """A quarantined choice is re-chosen on resume from measured
        evidence only, as a fresh profile would."""
        app, variants, _, spec = setup
        tuner, cold = tune(setup, None)
        runner_up = tuner.choose(cold.profiles, exclude={cold.chosen.name})
        assert not runner_up.is_exact
        data = cold.to_dict()
        for row in data["profiles"]:
            if row["name"] == runner_up.name:
                row["predicted"] = True
        resumed = GreedyTuner(spec, toq=0.9).resume(
            app, variants, data, exclude={cold.chosen.name}
        )
        assert resumed.resumed
        assert not resumed.chosen.predicted
        assert resumed.chosen.name not in {cold.chosen.name, runner_up.name}

    def test_predicted_profiles_survive_serialization(self, setup):
        from repro.runtime.tuner import TuningResult

        registry = VariantRegistry()
        tune(setup, registry)
        _, warm = tune(setup, registry)
        clone = TuningResult.from_dict(warm.to_dict())
        assert [p.predicted for p in clone.profiles] == [
            p.predicted for p in warm.profiles
        ]
        assert clone.seed_mode == "warm"


class TestFallbacks:
    def test_thin_evidence_falls_back_to_cold(self, setup):
        registry = VariantRegistry(min_points=99)
        tune(setup, registry)
        tuner, _ = tune(setup, registry)
        assert tuner.last_seed_mode == "cold"

    def test_stale_variant_names_fall_back_to_cold(self, setup):
        from repro.registry.pareto import ParetoPoint

        app, variants, inputs, spec = setup
        registry = VariantRegistry()
        tuner = GreedyTuner(spec, toq=0.9, registry=registry)
        key = registry.resolve_key(app, spec, inputs)
        registry.record_many(
            key,
            [
                ParetoPoint(variant=f"renamed-{i}", quality=0.95, speedup=2.0)
                for i in range(4)
            ],
        )
        tuner.profile(app, variants, inputs)
        assert tuner.last_seed_mode == "cold"

    def test_infeasible_front_falls_back_to_cold(self, setup):
        from repro.registry.pareto import ParetoPoint

        app, variants, inputs, spec = setup
        registry = VariantRegistry()
        key = registry.resolve_key(app, spec, inputs)
        registry.record_many(
            key,
            [
                ParetoPoint(
                    variant=v.name, quality=0.10 + 0.01 * i, speedup=2.0 + i
                )
                for i, v in enumerate(variants)
            ],
        )
        tuner = GreedyTuner(spec, toq=0.9, registry=registry)
        tuner.profile(app, variants, inputs)
        assert tuner.last_seed_mode == "cold"

    def test_warm_miss_steps_down_to_a_safer_rung(self, setup):
        # Poison the registry so the knee points at the *riskiest* rung;
        # refinement must measure its way down to something feasible.
        from repro.registry.pareto import ParetoPoint

        app, variants, inputs, spec = setup
        cold = GreedyTuner(spec, toq=0.9).profile(app, variants, inputs)
        truth = {p.name: p for p in cold.profiles if not p.is_exact}
        registry = VariantRegistry()
        key = registry.resolve_key(app, spec, inputs)
        registry.record_many(
            key,
            [
                ParetoPoint(
                    variant=name,
                    quality=0.99,  # lies: everything claims feasibility
                    speedup=truth[name].speedup,
                )
                for name in truth
            ],
        )
        tuner = GreedyTuner(spec, toq=0.9, registry=registry)
        result = tuner.profile(app, variants, inputs)
        assert tuner.last_seed_mode == "warm"
        # The chosen rung is genuinely feasible (measured, not believed).
        assert not result.chosen.predicted
        assert result.chosen.is_exact or result.chosen.quality >= 0.9


class TestExclusionsAndWriteBack:
    def test_excluded_variant_is_never_chosen_warm(self, setup):
        registry = VariantRegistry()
        _, cold = tune(setup, registry)
        banned = cold.chosen.name
        if cold.chosen.is_exact:
            pytest.skip("cold tuning already falls back to exact")
        _, warm = tune(setup, registry, exclude=(banned,))
        assert warm.chosen.name != banned

    def test_every_measured_profile_is_written_back(self, setup):
        registry = VariantRegistry()
        tuner, _ = tune(setup, registry)
        stored = {p.variant for p in registry.points(tuner.last_registry_key)}
        assert stored == {v.name for v in setup[1]}

    def test_predicted_profiles_are_not_written_back(self, setup):
        registry = VariantRegistry()
        tune(setup, registry)
        before = {
            (p.variant, p.samples)
            for key in registry.keys()
            for p in registry.points(key)
        }
        tuner, warm = tune(setup, registry)
        measured = {
            p.name for p in warm.profiles if not p.predicted and not p.is_exact
        }
        after = {
            (p.variant, p.samples)
            for key in registry.keys()
            for p in registry.points(key)
        }
        bumped = {v for (v, s) in after - before}
        assert bumped == measured
