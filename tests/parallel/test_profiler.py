"""Concurrent variant profiling: cache semantics, determinism, sessions."""

import numpy as np
import pytest

from repro import DeviceKind, LaunchOptions, Paraprox
from repro.apps.base import _input_fingerprint
from repro.apps.gaussian import MeanFilterApp
from repro.device import spec_for
from repro.parallel.profiler import ProfileCache, profile_key, variant_identity
from repro.runtime.tuner import GreedyTuner
from repro.serve.session import ApproxSession


class TestProfileCache:
    def test_get_put_and_counters(self):
        cache = ProfileCache()
        assert cache.get(("k",)) is None
        cache.put(("k",), (0.9, 100.0))
        assert cache.get(("k",)) == (0.9, 100.0)
        assert cache.snapshot() == {
            "entries": 1,
            "hits": 1,
            "misses": 1,
            "evictions": 0,
            "max_entries": 4096,
        }

    def test_eviction_keeps_size_bounded(self):
        cache = ProfileCache(max_entries=3)
        for i in range(5):
            cache.put((i,), (1.0, float(i)))
        assert len(cache) == 3
        # LRU with no intervening gets: the oldest entries went first
        assert cache.get((0,)) is None
        assert cache.get((4,)) == (1.0, 4.0)
        assert cache.snapshot()["evictions"] == 2

    def test_get_refreshes_recency(self):
        cache = ProfileCache(max_entries=2)
        cache.put(("a",), (1.0, 1.0))
        cache.put(("b",), (1.0, 2.0))
        cache.get(("a",))  # "a" is now the most recently used
        cache.put(("c",), (1.0, 3.0))  # evicts "b", not "a"
        assert cache.get(("a",)) == (1.0, 1.0)
        assert cache.get(("b",)) is None

    def test_max_entries_validated(self):
        from repro.errors import ConfigError

        with pytest.raises(ConfigError):
            ProfileCache(max_entries=0)

    def test_put_existing_key_does_not_evict(self):
        cache = ProfileCache(max_entries=2)
        cache.put(("a",), (1.0, 1.0))
        cache.put(("b",), (1.0, 2.0))
        cache.put(("a",), (1.0, 3.0))  # held already: the first value stays
        assert len(cache) == 2
        assert cache.get(("a",)) == (1.0, 1.0)
        assert cache.get(("b",)) == (1.0, 2.0)

    def test_clear_resets_everything(self):
        cache = ProfileCache()
        cache.put(("k",), (1.0, 1.0))
        cache.get(("k",))
        cache.clear()
        assert cache.snapshot() == {
            "entries": 0,
            "hits": 0,
            "misses": 0,
            "evictions": 0,
            "max_entries": 4096,
        }

    def test_repro_reset_leaves_a_session_cache_alone(self):
        # Each session owns its cache; only registered stores are process
        # state that ``repro.reset()`` empties.
        import repro

        cache = ProfileCache(max_entries=2)
        cache.put(("k",), (1.0, 1.0))
        repro.reset()
        assert cache.get(("k",)) == (1.0, 1.0)
        assert len(cache) == 1


class TestProfileCacheConcurrentEviction:
    """LRU eviction under concurrent profiling workers (workers=4)."""

    WORKERS = 4

    def _hammer(self, worker_fn):
        import threading

        barrier = threading.Barrier(self.WORKERS)
        errors = []

        def run(worker):
            try:
                barrier.wait(timeout=30)
                worker_fn(worker)
            except Exception as exc:  # pragma: no cover - failure path
                errors.append(exc)

        threads = [
            threading.Thread(target=run, args=(w,)) for w in range(self.WORKERS)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
        assert not errors, errors

    def test_capacity_invariant_holds_during_concurrent_churn(self):
        cache = ProfileCache(max_entries=8)
        observed_over_capacity = []

        def worker(w):
            for i in range(500):
                cache.put((w, i), (1.0, float(i)))
                if len(cache) > cache.max_entries:
                    observed_over_capacity.append((w, i))

        self._hammer(worker)
        assert not observed_over_capacity
        assert len(cache) == 8

    def test_eviction_counter_has_no_lost_updates(self):
        # Disjoint key ranges, each key put exactly once: every insert
        # past capacity must evict, so entries + evictions == total puts.
        # A racy unlocked counter would drop increments under contention.
        cache = ProfileCache(max_entries=16)
        per_worker = 400

        def worker(w):
            for i in range(per_worker):
                cache.put((w, i), (1.0, float(i)))

        self._hammer(worker)
        snapshot = cache.snapshot()
        assert snapshot["entries"] == 16
        assert (
            snapshot["entries"] + snapshot["evictions"]
            == self.WORKERS * per_worker
        )

    def test_hit_miss_counters_consistent_under_mixed_load(self):
        # Read-through pattern over a shared hot set larger than capacity:
        # every get is exactly one hit or one miss, never both or neither.
        cache = ProfileCache(max_entries=8)
        gets_per_worker = 300

        def worker(w):
            for i in range(gets_per_worker):
                key = (i % 24,)
                if cache.get(key) is None:
                    cache.put(key, (1.0, float(i)))

        self._hammer(worker)
        snapshot = cache.snapshot()
        assert (
            snapshot["hits"] + snapshot["misses"]
            == self.WORKERS * gets_per_worker
        )
        assert snapshot["entries"] <= 8

    def test_tuner_correct_with_evicting_cache_and_four_workers(self):
        # A cache too small for the variant set forces evictions *during*
        # concurrent profiling; the tuning outcome must match serial
        # tuning with no cache at all.
        app = MeanFilterApp(scale=0.05)
        variants = Paraprox(target_quality=0.9).compile(app)
        inputs = app.generate_inputs(seed=app.seed)
        spec = spec_for(DeviceKind.GPU)

        serial = GreedyTuner(spec, toq=0.9).profile(app, variants, inputs)
        cache = ProfileCache(max_entries=2)
        concurrent = GreedyTuner(
            spec, toq=0.9, workers=4, profile_cache=cache
        ).profile(app, variants, inputs)

        assert concurrent.chosen.name == serial.chosen.name
        assert [p.name for p in concurrent.profiles] == [
            p.name for p in serial.profiles
        ]
        assert len(cache) <= 2


class TestIdentityKeys:
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

    def test_profile_key_varies_with_inputs(self, variants):
        app = MeanFilterApp(scale=0.05)

        def key(seed):
            fingerprint = _input_fingerprint(app.generate_inputs(seed=seed))
            return profile_key(app.name, "gpu", variants[0], fingerprint)

        assert key(1) != key(2)
        assert key(1) == key(1)


class TestConcurrentTuning:
    def _tune(self, workers, cache=None):
        app = MeanFilterApp(scale=0.05)
        variants = Paraprox(target_quality=0.9).compile(app)
        tuner = GreedyTuner(
            spec_for(DeviceKind.GPU), toq=0.9, workers=workers, profile_cache=cache
        )
        return tuner.profile(app, variants, app.generate_inputs(seed=app.seed))

    def test_concurrent_profile_matches_serial(self):
        serial = self._tune(workers=1)
        concurrent = self._tune(workers=4)
        assert concurrent.to_dict() == serial.to_dict()

    def test_profile_order_preserved_under_concurrency(self):
        app = MeanFilterApp(scale=0.05)
        variants = Paraprox(target_quality=0.9).compile(app)
        result = self._tune(workers=4)
        assert [p.name for p in result.profiles] == ["exact"] + [
            v.name for v in variants
        ]

    def test_cache_skips_remeasurement(self):
        app = MeanFilterApp(scale=0.05)
        variants = Paraprox(target_quality=0.9).compile(app)
        inputs = app.generate_inputs(seed=app.seed)
        cache = ProfileCache()
        runs = []
        inner = app.run_variant

        def counting_run_variant(variant, ins):
            runs.append(variant.name)
            return inner(variant, ins)

        app.run_variant = counting_run_variant
        tuner = GreedyTuner(
            spec_for(DeviceKind.GPU), toq=0.9, workers=1, profile_cache=cache
        )
        first = tuner.profile(app, variants, inputs)
        measured = len(runs)
        assert measured == len(list(variants))
        second = tuner.profile(app, variants, inputs)
        assert len(runs) == measured, "warm profile must not re-measure"
        assert cache.hits >= measured
        assert first.to_dict() == second.to_dict()

    def test_cache_remeasures_on_new_inputs(self):
        app = MeanFilterApp(scale=0.05)
        variants = Paraprox(target_quality=0.9).compile(app)
        cache = ProfileCache()
        tuner = GreedyTuner(
            spec_for(DeviceKind.GPU), toq=0.9, workers=1, profile_cache=cache
        )
        tuner.profile(app, variants, app.generate_inputs(seed=1))
        before = len(cache)
        tuner.profile(app, variants, app.generate_inputs(seed=2))
        assert len(cache) == 2 * before  # different inputs -> different keys

    def test_workers_validated(self):
        from repro.errors import ConfigError

        with pytest.raises(ConfigError):
            GreedyTuner(spec_for(DeviceKind.GPU), toq=0.9, workers=0)


class TestSessionIntegration:
    def test_session_owns_a_profile_cache_across_retunes(self):
        with ApproxSession(MeanFilterApp(scale=0.05), target_quality=0.9) as session:
            session.tune()
            warm = session.profile_cache.snapshot()
            assert warm["entries"] > 0
            session.tune(force=True)
            again = session.profile_cache.snapshot()
            assert again["entries"] == warm["entries"]
            assert again["hits"] > warm["hits"], "retune must hit the memo"

    def test_metrics_snapshot_reports_parallel_section(self):
        with ApproxSession(
            MeanFilterApp(scale=0.05),
            target_quality=0.9,
            options=LaunchOptions(parallel=2),
        ) as session:
            session.tune()
            out = session.launch(session.app.generate_inputs(seed=3))
            assert isinstance(out, np.ndarray)
            snap = session.metrics_snapshot()
        parallel = snap["parallel"]
        assert parallel["workers"] == 2
        assert set(parallel["shards"]) == {
            "sharded_launches",
            "shards_run",
            "zero_copy",
            "staged",
            "staging_bytes",
            "overlay",
            "serial_unshardable",
            "serial_small_grid",
            "planned",
        }
        assert parallel["profile_cache"]["entries"] > 0
        assert isinstance(parallel["pools"], dict)

    def test_session_parallel_arg_overrides_config(self):
        with ApproxSession(
            MeanFilterApp(scale=0.05),
            target_quality=0.9,
            options=LaunchOptions(parallel=3),
        ) as session:
            assert session.parallel_workers == 3
        with ApproxSession(MeanFilterApp(scale=0.05), target_quality=0.9) as session:
            assert session.parallel_workers == 1  # the session's constant
