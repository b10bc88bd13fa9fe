"""The on-disk registry: durability, concurrency, unreadable input, maintenance."""

import json
import threading

import pytest

from repro.registry import store
from repro.registry.pareto import ParetoPoint
from repro.registry.store import VariantRegistry, resolve_registry


def P(variant, quality=0.9, speedup=2.0, **kw):
    kw.setdefault("knobs", {"rate": 4})
    kw.setdefault("identity", f"id-{variant}")
    return ParetoPoint(variant=variant, quality=quality, speedup=speedup, **kw)


class TestBasics:
    def test_memory_registry_round_trips(self):
        registry = VariantRegistry()
        registry.record("k", P("a"))
        front = registry.lookup("k")
        assert [p.variant for p in front] == ["a"]
        assert registry.stats()["root"] is None

    def test_disk_registry_survives_reopen(self, tmp_path):
        VariantRegistry(tmp_path).record_many(
            "k", [P("a", 0.95, 2.0), P("b", 0.85, 4.0)]
        )
        reopened = VariantRegistry(tmp_path)
        assert {p.variant for p in reopened.lookup("k")} == {"a", "b"}

    def test_lookup_miss_is_empty(self, tmp_path):
        assert VariantRegistry(tmp_path).lookup("nope") == []

    def test_repeat_records_merge_not_duplicate(self, tmp_path):
        registry = VariantRegistry(tmp_path)
        registry.record("k", P("a", 0.90, samples=1))
        registry.record("k", P("a", 0.96, samples=1))
        points = registry.points("k")
        assert len(points) == 1 and points[0].samples == 2

    def test_knee_for_applies_margin(self, tmp_path):
        registry = VariantRegistry(tmp_path, margin=0.0)
        registry.record_many("k", [P("safe", 0.99, 1.5), P("mid", 0.95, 3.0)])
        assert registry.knee_for("k", toq=0.90).variant == "mid"

    def test_record_observation_refines_existing_point(self, tmp_path):
        registry = VariantRegistry(tmp_path)
        registry.record("k", P("a", 0.90, 2.0, samples=1))
        assert registry.record_observation("k", "a", 0.80)
        point = registry.points("k")[0]
        assert point.quality == pytest.approx(0.85)
        assert point.speedup == pytest.approx(2.0)  # reused, not diluted

    def test_record_observation_unknown_variant_is_noop(self, tmp_path):
        registry = VariantRegistry(tmp_path)
        assert not registry.record_observation("k", "ghost", 0.9)

    def test_ingest_timeline_folds_stamped_samples(self, tmp_path):
        registry = VariantRegistry(tmp_path)
        registry.record("k", P("a", 0.90, 2.0))
        absorbed = registry.ingest_timeline(
            [
                {"kind": "quality_sample", "registry_key": "k",
                 "variant": "a", "quality": 0.70},
                {"kind": "quality_sample", "variant": "a", "quality": 0.1},
                {"kind": "quality_sample", "registry_key": "k",
                 "variant": "exact", "quality": 1.0},
                {"kind": "knob_change", "registry_key": "k", "variant": "a"},
            ]
        )
        assert absorbed == 1
        assert registry.points("k")[0].quality == pytest.approx(0.80)


class TestCrossProcessVisibility:
    def test_second_handle_sees_appends_on_lookup(self, tmp_path):
        writer = VariantRegistry(tmp_path)
        reader = VariantRegistry(tmp_path)
        writer.record("k", P("a"))
        assert [p.variant for p in reader.lookup("k")] == ["a"]

    def test_interleaved_writers_lose_nothing(self, tmp_path):
        one = VariantRegistry(tmp_path)
        two = VariantRegistry(tmp_path)
        one.record("k", P("a"))
        two.record("k", P("b"))
        one.record("k", P("c"))
        assert {p.variant for p in VariantRegistry(tmp_path).points("k")} == {
            "a", "b", "c",
        }

    def test_threaded_writers_keep_store_consistent(self, tmp_path):
        registry = VariantRegistry(tmp_path)
        barrier = threading.Barrier(4)

        def worker(w):
            barrier.wait(timeout=30)
            for i in range(20):
                registry.record_many(
                    f"key-{i % 2}", [P(f"w{w}-v{i}", 0.9, 1.0 + i)]
                )

        threads = [
            threading.Thread(target=worker, args=(w,)) for w in range(4)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
        reopened = VariantRegistry(tmp_path)
        assert reopened.unreadable == 0
        assert sum(
            len(reopened.points(k)) for k in reopened.keys()
        ) == 4 * 20


class TestDocument:
    """One ``registry.json``, replaced whole; what is not one is ignored."""

    def test_state_lives_in_one_document(self, tmp_path):
        VariantRegistry(tmp_path).record_many("k", [P("a"), P("b")])
        doc = json.loads((tmp_path / "registry.json").read_text())
        assert doc["format"] == 2
        assert [p["variant"] for p in doc["points"]["k"]] == ["a", "b"]
        assert sorted(p.name for p in tmp_path.iterdir()) == [
            ".lock", "registry.json",
        ]

    def test_failed_write_leaves_the_previous_document(
        self, tmp_path, monkeypatch
    ):
        registry = VariantRegistry(tmp_path)
        registry.record("k", P("a"))
        before = (tmp_path / "registry.json").read_bytes()

        def crash(*_args):
            raise OSError("crash before the rename")

        monkeypatch.setattr(store.os, "replace", crash)
        with pytest.raises(OSError):
            registry.record("k", P("b"))
        monkeypatch.undo()
        assert (tmp_path / "registry.json").read_bytes() == before
        assert {p.variant for p in registry.points("k")} == {"a"}
        assert {p.variant for p in VariantRegistry(tmp_path).points("k")} == {"a"}

    def test_leftover_temp_file_is_never_read(self, tmp_path):
        registry = VariantRegistry(tmp_path)
        registry.record("k", P("a"))
        (tmp_path / "registry.tmp").write_text(
            json.dumps(
                {"format": 2, "sketches": {},
                 "points": {"k": [P("half-written").to_dict()]}}
            )
        )
        assert sorted(p.name for p in tmp_path.iterdir()) == [
            ".lock", "registry.json", "registry.tmp",
        ]
        reopened = VariantRegistry(tmp_path)
        assert {p.variant for p in reopened.points("k")} == {"a"}
        registry.refresh()
        assert {p.variant for p in registry.points("k")} == {"a"}

    def test_segment_log_files_are_not_read(self, tmp_path):
        (tmp_path / "seg-000001.jsonl").write_text(
            json.dumps({"v": 1, "op": "point", "key": "k",
                        "point": P("old").to_dict()}) + "\n"
        )
        registry = VariantRegistry(tmp_path)
        assert registry.keys() == [] and registry.unreadable == 0

    @pytest.mark.parametrize(
        "text",
        [
            '{"format": 2, "sketches": {}, "points": {"k": [',
            json.dumps({"format": 1, "sketches": {}, "points": {}}),
            json.dumps(
                {"format": 2, "sketches": {},
                 "points": {"k": [{"variant": "a", "speedup": 2.0}]}}
            ),
        ],
        ids=["truncated", "format-1", "point-without-quality"],
    )
    def test_unreadable_document_is_ignored_counted_and_replaced(
        self, tmp_path, text
    ):
        from repro.obs.registry import get_registry

        VariantRegistry(tmp_path).record("k", P("a"))
        (tmp_path / "registry.json").write_text(text)
        family = get_registry().get("repro_registry_unreadable_total")
        counted = family.labels().value if family is not None else 0.0
        registry = VariantRegistry(tmp_path)
        assert registry.keys() == []  # reads like a fresh directory
        assert registry.stats()["unreadable"] == 1
        assert get_registry().get(
            "repro_registry_unreadable_total"
        ).labels().value == counted + 1
        registry.refresh()  # the same bad document is counted once
        assert registry.unreadable == 1
        registry.record("k", P("b"))
        healed = VariantRegistry(tmp_path)
        assert healed.unreadable == 0
        assert {p.variant for p in healed.points("k")} == {"b"}

    def test_reader_takes_no_lock(self, tmp_path):
        import fcntl

        VariantRegistry(tmp_path).record("k", P("a", 0.95, 2.0))
        reader = VariantRegistry(tmp_path)
        VariantRegistry(tmp_path).record("k", P("b", 0.85, 4.0))
        seen = []
        with open(tmp_path / ".lock", "a+b") as held:
            fcntl.flock(held.fileno(), fcntl.LOCK_EX)  # a writer mid-write
            thread = threading.Thread(
                target=lambda: seen.extend(p.variant for p in reader.lookup("k"))
            )
            thread.start()
            thread.join(timeout=10)
            blocked = thread.is_alive()
            fcntl.flock(held.fileno(), fcntl.LOCK_UN)
        thread.join(timeout=10)
        assert not blocked
        assert set(seen) == {"a", "b"}

    def test_ingest_timeline_writes_once(self, tmp_path, monkeypatch):
        samples = [
            ("k", "a", 0.70, None), ("k", "b", 0.60, 3.0), ("k", "a", 0.80, None),
            ("k2", "c", 0.50, None), ("k", "ghost", 0.1, None),
        ]

        def fresh(root):
            registry = VariantRegistry(root)
            registry.record_many("k", [P("a", 0.90, 2.0), P("b", 0.85, 4.0)])
            registry.record("k2", P("c", 0.95, 1.5))
            return registry

        sequential = fresh(tmp_path / "seq")
        absorbed = sum(
            sequential.record_observation(k, v, q, speedup=s)
            for k, v, q, s in samples
        )
        ingested = fresh(tmp_path / "ingest")
        replaced = []
        real = store.os.replace
        monkeypatch.setattr(
            store.os, "replace",
            lambda *a: (replaced.append(a), real(*a))[1],
        )
        entries = [
            {"kind": "quality_sample", "registry_key": k, "variant": v,
             "quality": q, "speedup": s}
            for k, v, q, s in samples
        ]
        assert ingested.ingest_timeline(entries) == absorbed == 4
        assert len(replaced) == 1
        assert (tmp_path / "ingest" / "registry.json").read_bytes() == (
            tmp_path / "seq" / "registry.json"
        ).read_bytes()


class TestMaintenance:
    def test_gc_keeps_only_the_front(self, tmp_path):
        registry = VariantRegistry(tmp_path)
        registry.record_many(
            "k",
            [P("best", 0.99, 9.0)] + [P(f"dom{i}", 0.5, 1.0) for i in range(5)],
        )
        assert registry.compact() == 5
        assert [p.variant for p in VariantRegistry(tmp_path).points("k")] == [
            "best"
        ]

    def test_merge_from_absorbs_other_registry(self, tmp_path):
        a = VariantRegistry(tmp_path / "a")
        b = VariantRegistry(tmp_path / "b")
        a.record("k1", P("x"))
        b.record("k2", P("y"))
        merged = a.merge_from(b)
        assert merged == 1
        assert set(a.keys()) == {"k1", "k2"}

    def test_merge_from_writes_once_and_matches_key_by_key(
        self, tmp_path, monkeypatch
    ):
        source = tmp_path / "src"
        source.mkdir()
        sketch = [["shape", [1.0, 2.0]]]
        (source / "registry.json").write_text(json.dumps({
            "format": 2,
            "sketches": {"k1": sketch, "k3": sketch},
            "points": {
                key: [P(v, q).to_dict() for v, q in (("a", 0.95), ("b", 0.8))]
                for key in ("k1", "k2", "k3")
            },
        }))
        # The reference: each key recorded on its own, its sketch pending.
        by_key = VariantRegistry(tmp_path / "by_key")
        other = VariantRegistry(source)
        for key in other.keys():
            if key in other._sketches:
                by_key._pending_sketches[key] = sketch
            by_key.record_many(key, other.points(key))

        replaces = []
        real_replace = store.os.replace
        monkeypatch.setattr(
            store.os, "replace",
            lambda *a: replaces.append(a) or real_replace(*a),
        )
        merged = VariantRegistry(tmp_path / "merged")
        assert merged.merge_from(VariantRegistry(source)) == 6
        assert len(replaces) == 1
        assert merged._pending_sketches == {}
        assert (tmp_path / "merged" / "registry.json").read_bytes() == (
            tmp_path / "by_key" / "registry.json"
        ).read_bytes()


class TestResolveRegistry:
    def test_none_stays_disabled(self):
        assert resolve_registry(None) is None

    def test_instance_passes_through(self):
        registry = VariantRegistry()
        assert resolve_registry(registry) is registry

    def test_path_opens_directory(self, tmp_path):
        registry = resolve_registry(tmp_path / "reg")
        assert isinstance(registry, VariantRegistry)
        assert (tmp_path / "reg").is_dir()

    def test_auto_without_env_is_disabled(self, monkeypatch):
        monkeypatch.delenv("REPRO_REGISTRY_DIR", raising=False)
        assert resolve_registry("auto") is None

    def test_auto_with_env_opens_it(self, monkeypatch, tmp_path):
        monkeypatch.setenv("REPRO_REGISTRY_DIR", str(tmp_path / "auto"))
        registry = resolve_registry("auto")
        assert registry is not None and registry.root == tmp_path / "auto"

    def test_constructor_arguments_tune_margin(self, monkeypatch, tmp_path):
        # The tuning values are constructor arguments only; the removed
        # REPRO_REGISTRY_* overrides must not leak back in.
        monkeypatch.setenv("REPRO_REGISTRY_MARGIN", "0.5")
        monkeypatch.setenv("REPRO_REGISTRY_MIN_POINTS", "99")
        registry = VariantRegistry(tmp_path, margin=0.05, min_points=7)
        assert registry.margin == 0.05 and registry.min_points == 7
        default = VariantRegistry(tmp_path / "default")
        assert default.margin == 0.005 and default.min_points == 2


class TestRemovedSurface:
    @pytest.mark.parametrize("kwargs", [{"segment_bytes": 1024}, {"fsync": True}])
    def test_log_knobs_are_gone(self, tmp_path, kwargs):
        with pytest.raises(TypeError):
            VariantRegistry(tmp_path, **kwargs)

    def test_points_carry_no_generation(self):
        with pytest.raises(TypeError):
            P("a", generation=3)
        assert "generation" not in P("a").to_dict()

    def test_compact_has_no_keep_all_mode(self):
        with pytest.raises(TypeError):
            VariantRegistry().compact(front_only=False)

    def test_stats_name_no_segments(self, tmp_path):
        stats = VariantRegistry(tmp_path).stats()
        assert not {"segments", "generation", "recovered_lines"} & set(stats)
