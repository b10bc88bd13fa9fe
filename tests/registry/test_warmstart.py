"""Registry-seeded tuning: warm starts, budgets, fallbacks, write-back."""

import pytest

from repro import DeviceKind, Paraprox
from repro.apps.gaussian import MeanFilterApp
from repro.device import spec_for
from repro.registry import VariantRegistry
from repro.runtime.tuner import GreedyTuner
from repro.serve import Recalibrator


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


ROW = "mean_kernel__stencil_row_rd1"  # dominated by column_rd1 on GPU
COLUMN = "mean_kernel__stencil_column_rd1"


def profile_named(result, name):
    return next(p for p in result.profiles if p.name == name)


class TestStoredPoints:
    """A rung a warm tune does not re-measure reads the variant's stored
    measurement; a variant with no stored point stays off the ladder."""

    TOQ = 0.90

    def cold_then_warm(self, name, compact=False):
        from repro.apps.registry import make_app

        app = make_app(name)
        variants = Paraprox(target_quality=self.TOQ).compile(app)
        inputs = app.generate_inputs(seed=app.seed)
        spec = spec_for(DeviceKind.GPU)
        registry = VariantRegistry()
        cold = GreedyTuner(spec, toq=self.TOQ, registry=registry).profile(
            app, variants, inputs
        )
        if compact:
            registry.compact()
        tuner = GreedyTuner(spec, toq=self.TOQ, registry=registry)
        warm = tuner.profile(app, variants, inputs)
        return registry, tuner, cold, warm

    @pytest.mark.parametrize("name", ["convsep", "gamma", "kde", "meanfilter"])
    def test_predicted_profile_is_the_stored_point(self, name):
        registry, tuner, _, warm = self.cold_then_warm(name)
        stored = {
            p.variant: (p.quality, p.speedup)
            for p in registry.points(tuner.last_registry_key)
        }
        predicted = [p for p in warm.profiles if p.predicted]
        assert predicted
        for p in predicted:
            assert (p.quality, p.speedup) == stored[p.name], p.name

    def test_gc_leaves_no_unqualified_rung_below_the_choice(self):
        """After a front-only gc, kde's dominated reductions have no
        stored point; none may reach the ladder, so the first TOQ
        violation steps down to a rung measured at the TOQ."""
        _, tuner, cold, warm = self.cold_then_warm("kde", compact=True)
        assert tuner.last_seed_mode == "warm"
        measured = {p.name: p.quality for p in cold.profiles}
        recal = Recalibrator(warm, toq=self.TOQ)
        assert recal.ladder
        for rung in recal.ladder:
            assert measured[rung.name] >= self.TOQ, rung.name
        assert recal.current_name == "kde_kernel__red_l1_skip4"
        assert recal.step_down()
        assert recal.current_name == "kde_kernel__red_l1_skip2"

    @pytest.mark.parametrize("name", ["hotspot", "kde"])
    def test_warm_ladder_is_the_cold_ladder(self, name):
        """Stored points order the rungs as the cold tune measured them
        (hotspot's row and column rungs differ by 0.1 % in speedup)."""
        _, tuner, cold, warm = self.cold_then_warm(name)
        assert tuner.last_seed_mode == "warm"

        def rungs(result):
            return [p.name for p in Recalibrator(result, toq=self.TOQ).ladder]

        assert rungs(warm) == rungs(cold)

    def test_variant_without_a_point_reads_unknown(self, setup):
        app, variants, inputs, spec = setup
        source = VariantRegistry()
        tuner, _ = tune(setup, source)
        key = tuner.last_registry_key
        registry = VariantRegistry()
        assert registry.resolve_key(app, spec, inputs) == key
        registry.record_many(
            key, [p for p in source.points(key) if p.variant != COLUMN]
        )
        tuner, warm = tune(setup, registry)
        assert tuner.last_seed_mode == "warm"
        column = profile_named(warm, COLUMN)
        assert column.predicted
        assert (column.quality, column.speedup) == (0.0, 1.0)
        assert warm.chosen.name != COLUMN
        ladder = [p.name for p in Recalibrator(warm, toq=0.9).ladder]
        assert COLUMN not in ladder

    def test_predicted_cycles_follow_the_stored_speedup(self, setup):
        registry = VariantRegistry()
        tune(setup, registry)
        _, warm = tune(setup, registry)
        exact = next(p for p in warm.profiles if p.is_exact)
        predicted = [p for p in warm.profiles if p.predicted]
        assert predicted
        for p in predicted:
            assert p.cycles == pytest.approx(exact.cycles / p.speedup), p.name

    def test_record_observation_moves_what_warm_start_reads(self, setup):
        registry = VariantRegistry()
        tuner, cold = tune(setup, registry)
        key = tuner.last_registry_key
        before = profile_named(cold, ROW).quality
        assert registry.record_observation(key, ROW, 0.5)
        _, warm = tune(setup, registry)
        row = profile_named(warm, ROW)
        assert row.predicted
        assert row.quality == pytest.approx((before + 0.5) / 2)
        assert row.speedup == pytest.approx(profile_named(cold, ROW).speedup)

    def test_ingested_quality_sample_moves_what_warm_start_reads(
        self, setup
    ):
        registry = VariantRegistry()
        tuner, cold = tune(setup, registry)
        entry = {
            "kind": "quality_sample",
            "registry_key": tuner.last_registry_key,
            "variant": ROW,
            "quality": 0.25,
            "speedup": 1.0,
        }
        assert registry.ingest_timeline([entry]) == 1
        _, warm = tune(setup, registry)
        row = profile_named(warm, ROW)
        assert row.predicted
        before = profile_named(cold, ROW)
        assert row.quality == pytest.approx((before.quality + 0.25) / 2)
        assert row.speedup == pytest.approx((before.speedup + 1.0) / 2)
