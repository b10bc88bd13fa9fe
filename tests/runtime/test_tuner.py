"""Tests for the greedy TOQ tuner."""

import pytest

from repro.apps.blackscholes import BlackScholesApp
from repro.apps.gaussian import MeanFilterApp
from repro.approx.compiler import Paraprox
from repro.device import DeviceKind, spec_for
from repro.errors import TuningError
from repro.runtime.tuner import GreedyTuner, VariantProfile, variant_identity


def _profiles(specs):
    """Fabricate profiles: (name, quality, speedup)."""
    out = []
    for name, quality, speedup in specs:
        p = VariantProfile(
            variant=None if name == "exact" else object(),
            quality=quality,
            cycles=1.0 / speedup,
            speedup=speedup,
        )
        if name != "exact":
            p.variant = type("V", (), {"name": name})()
        out.append(p)
    return out


class TestChoicePolicy:
    def setup_method(self):
        self.tuner = GreedyTuner(spec_for(DeviceKind.GPU), toq=0.90)

    def test_fastest_eligible_wins(self):
        profiles = _profiles(
            [("exact", 1.0, 1.0), ("a", 0.95, 2.0), ("b", 0.91, 3.0), ("c", 0.80, 9.0)]
        )
        chosen = self.tuner.choose(profiles)
        assert chosen.name == "b"

    def test_falls_back_to_exact_when_nothing_qualifies(self):
        profiles = _profiles([("exact", 1.0, 1.0), ("a", 0.5, 10.0)])
        assert self.tuner.choose(profiles).name == "exact"

    def test_speedup_tie_broken_by_quality(self):
        profiles = _profiles(
            [("exact", 1.0, 1.0), ("worse", 0.91, 3.0), ("better", 0.97, 3.0)]
        )
        assert self.tuner.choose(profiles).name == "better"

    def test_full_tie_broken_by_name(self):
        profiles = _profiles(
            [("exact", 1.0, 1.0), ("zeta", 0.95, 3.0), ("alpha", 0.95, 3.0)]
        )
        assert self.tuner.choose(profiles).name == "alpha"

    def test_choice_is_order_independent(self):
        import itertools

        specs = [
            ("exact", 1.0, 1.0),
            ("zeta", 0.95, 3.0),
            ("alpha", 0.95, 3.0),
            ("mid", 0.99, 2.0),
        ]
        names = {
            self.tuner.choose(_profiles(list(perm))).name
            for perm in itertools.permutations(specs)
        }
        assert names == {"alpha"}

    def test_bad_toq_rejected(self):
        with pytest.raises(TuningError):
            GreedyTuner(spec_for(DeviceKind.GPU), toq=0.0)
        with pytest.raises(TuningError):
            GreedyTuner(spec_for(DeviceKind.GPU), toq=1.5)


class TestProfilingIntegration:
    def test_profile_includes_exact_baseline(self):
        app = MeanFilterApp(scale=0.05)
        paraprox = Paraprox(target_quality=0.90)
        variants = paraprox.compile(app)
        tuner = GreedyTuner(spec_for(DeviceKind.GPU), toq=0.90)
        result = tuner.profile(app, variants, app.generate_inputs(0))
        names = [p.name for p in result.profiles]
        assert "exact" in names
        exact_profile = next(p for p in result.profiles if p.name == "exact")
        assert exact_profile.speedup == 1.0 and exact_profile.quality == 1.0

    def test_chosen_meets_toq(self):
        app = MeanFilterApp(scale=0.05)
        paraprox = Paraprox(target_quality=0.95)
        result = paraprox.optimize(app, DeviceKind.GPU)
        assert result.quality >= 0.95

    def test_stricter_toq_never_faster(self):
        app = BlackScholesApp(scale=0.01)
        lax = Paraprox(target_quality=0.90).optimize(app, DeviceKind.GPU)
        strict = Paraprox(target_quality=0.995).optimize(app, DeviceKind.GPU)
        assert strict.speedup <= lax.speedup + 1e-9
        assert strict.quality >= 0.995

    def test_frontier_sorted_by_quality(self):
        app = MeanFilterApp(scale=0.05)
        result = Paraprox(target_quality=0.5).optimize(app, DeviceKind.GPU)
        qualities = [p.quality for p in result.frontier()]
        assert qualities == sorted(qualities, reverse=True)

    def test_summary_and_json_round_trip(self):
        import json

        app = MeanFilterApp(scale=0.05)
        result = Paraprox(target_quality=0.90).optimize(app, DeviceKind.GPU)
        summary = result.summary()
        assert summary["app"] == "Mean Filter"
        assert summary["chosen"]["name"] == result.chosen.name
        assert any(p["name"] == "exact" for p in summary["profiles"])
        # JSON-serialisable end to end (knobs contain tuples, enums...)
        restored = json.loads(result.to_json())
        assert restored["toq"] == 0.90

    def test_repeats_average_multiple_input_sets(self):
        app = MeanFilterApp(scale=0.05)
        paraprox = Paraprox(target_quality=0.90)
        variants = paraprox.compile(app)
        tuner = GreedyTuner(spec_for(DeviceKind.GPU), toq=0.90)
        result = tuner.profile(app, variants, app.generate_inputs(0), repeats=3)
        assert result.chosen.quality > 0.0


class TestIdentityKeys:
    """``variant_identity`` is what a registry point stores as the
    variant's content identity."""

    @pytest.fixture()
    def variants(self):
        return list(Paraprox(target_quality=0.5).compile(MeanFilterApp(scale=0.05)))

    def test_variant_identity_is_stable(self, variants):
        assert variant_identity(variants[0]) == variant_identity(variants[0])

    def test_variant_identity_distinguishes_variants(self, variants):
        identities = {variant_identity(v) for v in variants}
        assert len(identities) == len(variants)

    def test_identity_falls_back_to_name_and_knobs(self):
        class Bare:
            name = "thing"
            knobs = {"rate": 2}

        assert "thing" in variant_identity(Bare())
        assert "rate" in variant_identity(Bare())
