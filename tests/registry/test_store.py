"""The on-disk registry: durability, concurrency, recovery, maintenance."""

import json
import threading

import pytest

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
        registry = VariantRegistry(tmp_path, segment_bytes=1024)
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
        assert reopened.recovered_lines == 0
        assert sum(
            len(reopened.points(k)) for k in reopened.keys()
        ) == 4 * 20


class TestCrashRecovery:
    def _segment(self, tmp_path):
        segments = sorted(tmp_path.glob("seg-*.jsonl"))
        assert segments
        return segments[-1]

    def test_torn_final_line_is_dropped(self, tmp_path):
        registry = VariantRegistry(tmp_path)
        registry.record_many("k", [P("a"), P("b")])
        seg = self._segment(tmp_path)
        raw = seg.read_bytes()
        seg.write_bytes(raw[:-7])  # crash mid-append: no trailing newline
        recovered = VariantRegistry(tmp_path)
        assert {p.variant for p in recovered.points("k")} == {"a"}
        assert recovered.recovered_lines == 1

    def test_corrupt_line_poisons_rest_of_segment_only(self, tmp_path):
        registry = VariantRegistry(tmp_path)
        registry.record("k", P("a"))
        seg = self._segment(tmp_path)
        with seg.open("a", encoding="utf-8") as fh:
            fh.write("{definitely not json\n")
        # A later record in the SAME segment is unreachable (framing
        # cannot be trusted past the corruption)...
        with seg.open("a", encoding="utf-8") as fh:
            fh.write(
                json.dumps(
                    {"v": 1, "op": "point", "key": "k",
                     "point": P("lost").to_dict()}
                ) + "\n"
            )
        half = VariantRegistry(tmp_path)
        assert {p.variant for p in half.points("k")} == {"a"}
        assert half.recovered_lines >= 1
        # ...but new writes rotate past the poisoned tail into a fresh
        # segment, so nothing else is ever appended where replay cannot
        # reach it.
        half.record("k", P("b"))
        assert len(sorted(tmp_path.glob("seg-*.jsonl"))) == 2
        assert {p.variant for p in VariantRegistry(tmp_path).points("k")} == {
            "a", "b",
        }

    def test_truncated_compacted_segment_rebuilds_from_last_good_generation(
        self, tmp_path
    ):
        registry = VariantRegistry(tmp_path)
        registry.record_many("k", [P("a", 0.99, 1.5), P("b", 0.85, 4.0)])
        registry.compact()
        seg = self._segment(tmp_path)
        raw = seg.read_bytes()
        seg.write_bytes(raw[: len(raw) // 2])  # crash mid-compaction-write
        survivor = VariantRegistry(tmp_path)
        # Whatever survived parses cleanly; nothing crashes, and the next
        # write self-heals into a fresh good generation.
        assert survivor.recovered_lines >= 0
        survivor.record("k", P("c"))
        healed = VariantRegistry(tmp_path)
        assert "c" in {p.variant for p in healed.points("k")}

    def test_vanished_segment_forces_full_rebuild(self, tmp_path):
        registry = VariantRegistry(tmp_path, segment_bytes=1)  # rotate every write
        registry.record("k", P("a"))
        registry.record("k", P("b"))
        other = VariantRegistry(tmp_path)
        other.compact()  # collapses to one fresh segment
        registry.refresh()  # first handle must notice and rebuild
        assert {p.variant for p in registry.points("k")} == {"a", "b"}


class TestMaintenance:
    def test_segment_rotation(self, tmp_path):
        registry = VariantRegistry(tmp_path, segment_bytes=256)
        for i in range(20):
            registry.record("k", P(f"v{i}"))
        assert len(list(tmp_path.glob("seg-*.jsonl"))) > 1

    def test_compact_collapses_segments(self, tmp_path):
        registry = VariantRegistry(tmp_path, segment_bytes=256)
        for i in range(20):
            registry.record("k", P(f"v{i}", 0.9, 1.0 + i))
        removed = registry.compact()
        assert removed > 1
        assert len(list(tmp_path.glob("seg-*.jsonl"))) == 1
        assert len(VariantRegistry(tmp_path).points("k")) == 20

    def test_gc_keeps_only_the_front(self, tmp_path):
        registry = VariantRegistry(tmp_path)
        registry.record_many(
            "k",
            [P("best", 0.99, 9.0)] + [P(f"dom{i}", 0.5, 1.0) for i in range(5)],
        )
        registry.compact(front_only=True)
        assert [p.variant for p in VariantRegistry(tmp_path).points("k")] == [
            "best"
        ]

    def test_compaction_generation_supersedes_older_segments(self, tmp_path):
        registry = VariantRegistry(tmp_path)
        registry.record("k", P("a"))
        generation = registry.generation()
        registry.compact()
        assert registry.generation() == generation + 1

    def test_merge_from_absorbs_other_registry(self, tmp_path):
        a = VariantRegistry(tmp_path / "a")
        b = VariantRegistry(tmp_path / "b")
        a.record("k1", P("x"))
        b.record("k2", P("y"))
        merged = a.merge_from(b)
        assert merged == 1
        assert set(a.keys()) == {"k1", "k2"}


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
