"""Round-trip serialization of ParaproxConfig and TuningResult, and the
resumable tuner built on top of it."""

import json
from functools import lru_cache

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from repro import DeviceKind, Paraprox, ParaproxConfig
from repro.apps.gaussian import GaussianFilterApp
from repro.device import spec_for
from repro.errors import ConfigError, SerializationError, TuningError
from repro.runtime.tuner import GreedyTuner, TuningResult


class TestConfigRoundTrip:
    def test_default_round_trips(self):
        config = ParaproxConfig()
        clone = ParaproxConfig.from_dict(config.to_dict())
        assert clone == config
        json.dumps(config.to_dict())  # JSON-serialisable as promised

    def test_custom_round_trips_with_tuple_restoration(self):
        config = ParaproxConfig(
            skipping_rates=(2, 16), memo_modes=("nearest", "linear"),
            memo_start_bits=7, memo_extra_tables=0,
        )
        clone = ParaproxConfig.from_dict(config.to_dict())
        assert clone == config
        assert isinstance(clone.skipping_rates, tuple)

    def test_unknown_keys_rejected(self):
        with pytest.raises(ConfigError, match="unknown keys"):
            ParaproxConfig.from_dict({"skip_rates": [2]})
        # the removed division-guard knob, whatever its value
        with pytest.raises(ConfigError, match="unknown keys"):
            ParaproxConfig.from_dict({"guard_divisions": "false"})

    def test_non_dict_rejected(self):
        with pytest.raises(ConfigError):
            ParaproxConfig.from_dict([1, 2])

    @pytest.mark.parametrize(
        "bad",
        [
            {"skipping_rates": (0,)},
            {"skipping_rates": (1,)},
            {"skipping_rates": (2.5,)},
            {"skipping_rates": 4},
            {"reaching_distances": (0,)},
            {"stencil_schemes": ("diagonal",)},
            {"scan_skip_fractions": (0.75,)},
            {"scan_skip_fractions": (0.0,)},
            {"memo_modes": ("cubic",)},
            {"memo_spaces": ("texture",)},
            {"memo_extra_tables": -1},
            {"memo_start_bits": 0},
            {"memo_extra_tables": True},
            {"memo_start_bits": True},
        ],
    )
    def test_bad_knobs_raise_at_construction(self, bad):
        with pytest.raises(ConfigError):
            ParaproxConfig(**bad)

    def test_config_error_is_a_value_error(self):
        with pytest.raises(ValueError):
            ParaproxConfig(skipping_rates=(0,))


class TestExecutorKnobRoundTrip:
    """``executor`` is a launch option, not a config field: a dict that
    carries it (an older release's ``to_dict()``) is refused whatever the
    value."""

    @pytest.mark.parametrize("bad", ["fork", "Process", "", 0])
    def test_unknown_executor_rejected_via_from_dict(self, bad):
        data = ParaproxConfig().to_dict()
        data["executor"] = bad
        with pytest.raises(ConfigError, match="executor"):
            ParaproxConfig.from_dict(data)

    @given(_garbage=st.deferred(lambda: _GARBAGE_VALUES))
    @settings(max_examples=100, deadline=None)
    def test_fuzzed_executor_loads_valid_or_raises_config_error(self, _garbage):
        data = ParaproxConfig().to_dict()
        data["executor"] = _garbage
        with pytest.raises(ConfigError, match="unknown keys"):
            ParaproxConfig.from_dict(data)


class TestToqValidation:
    def test_percentage_mistake_gets_a_hint(self):
        with pytest.raises(ValueError, match="0.9"):
            Paraprox(target_quality=90)

    @pytest.mark.parametrize("bad", [0.0, -0.5, 1.5, float("nan"), "0.9", None])
    def test_out_of_range_toq_rejected(self, bad):
        with pytest.raises(ValueError):
            Paraprox(target_quality=bad)

    def test_boundary_values_accepted(self):
        assert Paraprox(target_quality=1.0).toq == 1.0
        assert Paraprox(target_quality=0.01).toq == 0.01


class TestTuningResultRoundTrip:
    @pytest.fixture()
    def result(self):
        return Paraprox(target_quality=0.9).optimize(
            GaussianFilterApp(scale=0.05), DeviceKind.GPU
        )

    def test_round_trip_preserves_every_field(self, result):
        data = result.to_dict()
        json.dumps(data)
        clone = TuningResult.from_dict(data)
        assert clone.app == result.app
        assert clone.device == result.device
        assert clone.toq == result.toq
        assert clone.chosen.name == result.chosen.name
        assert [p.name for p in clone.profiles] == [
            p.name for p in result.profiles
        ]
        for original, restored in zip(result.profiles, clone.profiles):
            assert restored.quality == pytest.approx(original.quality)
            assert restored.cycles == pytest.approx(original.cycles)
            assert restored.speedup == pytest.approx(original.speedup)

    def test_rebind_restores_live_variants(self, result):
        variants = Paraprox(target_quality=0.9).compile(
            GaussianFilterApp(scale=0.05)
        )
        clone = TuningResult.from_dict(result.to_dict()).rebind(variants)
        for p in clone.profiles:
            if p.name != "exact":
                assert p.variant is not None

    def test_rebind_missing_chosen_raises(self, result):
        if result.chosen.variant is None:
            pytest.skip("exact chosen; nothing to unbind")
        clone = TuningResult.from_dict(result.to_dict())
        with pytest.raises(TuningError, match="rebind"):
            clone.rebind([])

    @pytest.mark.parametrize(
        "mutate",
        [
            lambda d: d.pop("app"),
            lambda d: d.update(toq=7.0),
            lambda d: d.update(chosen="no_such_variant"),
            lambda d: d["profiles"][0].pop("cycles"),
            lambda d: d["profiles"][0].update(quality="high"),
        ],
    )
    def test_malformed_data_raises_serialization_error(self, result, mutate):
        data = result.to_dict()
        mutate(data)
        with pytest.raises(SerializationError):
            TuningResult.from_dict(data)

    def test_from_dict_rejects_non_dict(self):
        with pytest.raises(SerializationError):
            TuningResult.from_dict("{}")

    def test_resumed_defaults_false_and_round_trips(self, result):
        assert result.resumed is False
        data = result.to_dict()
        assert data["resumed"] is False
        assert TuningResult.from_dict(data).resumed is False
        data["resumed"] = True
        assert TuningResult.from_dict(data).resumed is True

    def test_resumed_absent_key_stays_false(self, result):
        data = result.to_dict()
        del data["resumed"]  # snapshots persisted before the field existed
        assert TuningResult.from_dict(data).resumed is False


class TestTunerResume:
    def test_resume_skips_reprofiling_when_valid(self):
        app = GaussianFilterApp(scale=0.05)
        paraprox = Paraprox(target_quality=0.9)
        variants = paraprox.compile(app)
        tuner = GreedyTuner(spec_for(DeviceKind.GPU), toq=0.9)
        first = tuner.profile(app, variants, app.generate_inputs(seed=app.seed))
        resumed = tuner.resume(app, variants, first.to_dict())
        assert getattr(resumed, "resumed", False)
        assert resumed.chosen.name == first.chosen.name
        assert resumed.chosen.variant is not None or first.chosen.variant is None

    def test_resume_reprofiles_on_variant_set_change(self):
        app = GaussianFilterApp(scale=0.05)
        paraprox = Paraprox(target_quality=0.9)
        variants = paraprox.compile(app)
        tuner = GreedyTuner(spec_for(DeviceKind.GPU), toq=0.9)
        first = tuner.profile(app, variants, app.generate_inputs(seed=app.seed))
        fewer = list(variants)[:-1]
        resumed = tuner.resume(app, fewer, first.to_dict())
        assert not getattr(resumed, "resumed", False)
        assert len(resumed.profiles) == len(fewer) + 1  # + exact

    def test_resume_reprofiles_on_toq_change(self):
        app = GaussianFilterApp(scale=0.05)
        variants = Paraprox(target_quality=0.9).compile(app)
        tuner09 = GreedyTuner(spec_for(DeviceKind.GPU), toq=0.9)
        first = tuner09.profile(app, variants, app.generate_inputs(seed=app.seed))
        tuner05 = GreedyTuner(spec_for(DeviceKind.GPU), toq=0.5)
        resumed = tuner05.resume(app, variants, first.to_dict())
        assert not getattr(resumed, "resumed", False)
        assert resumed.toq == 0.5

    def test_resume_sets_the_dataclass_field(self):
        from dataclasses import fields

        assert any(f.name == "resumed" for f in fields(TuningResult))
        app = GaussianFilterApp(scale=0.05)
        variants = Paraprox(target_quality=0.9).compile(app)
        tuner = GreedyTuner(spec_for(DeviceKind.GPU), toq=0.9)
        first = tuner.profile(app, variants, app.generate_inputs(seed=app.seed))
        resumed = tuner.resume(app, variants, first.to_dict())
        assert resumed.resumed is True
        assert resumed.to_dict()["resumed"] is True

    def test_resume_survives_garbage(self):
        app = GaussianFilterApp(scale=0.05)
        variants = Paraprox(target_quality=0.9).compile(app)
        tuner = GreedyTuner(spec_for(DeviceKind.GPU), toq=0.9)
        resumed = tuner.resume(app, variants, {"not": "a result"})
        assert resumed.chosen is not None  # fell back to profiling


class TestFromDictHardening:
    """Malformed persisted snapshots must fail loudly, with the offending
    key/index named, and must never escape as anything other than the
    serialization error types."""

    def test_profiles_must_be_a_list(self):
        data = _tuning_dict()
        data["profiles"] = {"name": "rate2"}
        with pytest.raises(SerializationError, match="list"):
            TuningResult.from_dict(data)

    def test_profile_rows_must_be_dicts(self):
        data = _tuning_dict()
        data["profiles"][1] = ["rate2", 0.95]
        with pytest.raises(SerializationError, match="profile 1"):
            TuningResult.from_dict(data)

    def test_missing_keys_are_named(self):
        data = _tuning_dict()
        del data["device"]
        del data["chosen"]
        with pytest.raises(SerializationError, match="missing keys"):
            TuningResult.from_dict(data)

    @pytest.mark.parametrize("toq", [0.0, -1, 2.0, "0.9", None, [0.9]])
    def test_toq_out_of_range_or_wrong_type(self, toq):
        data = _tuning_dict()
        data["toq"] = toq
        with pytest.raises(SerializationError, match="toq"):
            TuningResult.from_dict(data)

    def test_config_mixed_type_keys_still_report_unknowns(self):
        # A corrupted snapshot can hold non-string keys; the unknown-key
        # report must not crash on an unorderable sort.
        with pytest.raises(ConfigError, match="unknown keys"):
            ParaproxConfig.from_dict({1: "x", "zzz": 2, ("a",): 3})


_GARBAGE_VALUES = st.recursive(
    st.one_of(
        st.none(),
        st.booleans(),
        st.integers(-10, 10),
        st.floats(allow_nan=True, allow_infinity=True),
        st.text(max_size=8),
    ),
    lambda children: st.lists(children, max_size=3)
    | st.dictionaries(st.text(max_size=4), children, max_size=3),
    max_leaves=8,
)
_GARBAGE_DICTS = st.dictionaries(
    st.one_of(st.text(max_size=8), st.integers(-5, 5)),
    _GARBAGE_VALUES,
    max_size=6,
)


@lru_cache(maxsize=1)
def _tuning_template() -> str:
    result = Paraprox(target_quality=0.9).optimize(
        GaussianFilterApp(scale=0.05), DeviceKind.GPU
    )
    return json.dumps(result.to_dict())


def _tuning_dict() -> dict:
    return json.loads(_tuning_template())


class TestFromDictFuzz:
    @given(_GARBAGE_DICTS)
    @settings(max_examples=150, deadline=None)
    def test_tuning_garbage_raises_only_serialization_errors(self, data):
        try:
            TuningResult.from_dict(data)
        except SerializationError:
            pass  # the contract: this type and nothing else

    @given(_GARBAGE_DICTS)
    @settings(max_examples=150, deadline=None)
    def test_config_garbage_raises_only_config_errors(self, data):
        try:
            ParaproxConfig.from_dict(data)
        except ConfigError:
            pass

    @given(
        st.sampled_from(["app", "device", "toq", "chosen", "profiles", "resumed"]),
        _GARBAGE_VALUES,
    )
    @settings(max_examples=100, deadline=None)
    def test_mutated_real_snapshot_loads_or_fails_cleanly(self, key, value):
        data = _tuning_dict()
        data[key] = value
        try:
            clone = TuningResult.from_dict(data)
        except SerializationError:
            return
        # If it loaded, the loaded object must round-trip stably.
        assert TuningResult.from_dict(clone.to_dict()).to_dict() == clone.to_dict()

    @given(st.integers(0, 3), st.sampled_from(["name", "quality", "cycles", "speedup", "knobs"]), _GARBAGE_VALUES)
    @settings(max_examples=100, deadline=None)
    def test_mutated_profile_rows_load_or_fail_cleanly(self, row, key, value):
        data = _tuning_dict()
        rows = data["profiles"]
        rows[row % len(rows)][key] = value
        try:
            TuningResult.from_dict(data)
        except SerializationError:
            pass
