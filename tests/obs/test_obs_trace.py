"""Structured tracing: spans, context, the disabled fast path, JSONL."""

import ast
import json
import pathlib
import re
import threading

from repro.obs import trace as obs_trace
from repro.obs.trace import NOOP_SPAN


class TestDisabledFastPath:
    def test_span_returns_shared_noop(self, untraced):
        first = obs_trace.span("a", x=1)
        second = obs_trace.span("b")
        assert first is NOOP_SPAN and second is NOOP_SPAN

    def test_noop_span_supports_full_api(self, untraced):
        with obs_trace.span("a") as span:
            span.set(x=1).event("e", y=2)
        assert span.trace_id is None

    def test_carry_returns_fn_unchanged(self, untraced):
        fn = lambda: 1  # noqa: E731
        assert obs_trace.carry(fn) is fn

    def test_emit_event_drops_records(self, untraced):
        obs_trace.emit_event({"type": "event", "kind": "x"})
        assert obs_trace.records() == []


class TestSpans:
    def test_nested_spans_share_trace_and_parent(self, traced_memory):
        with obs_trace.span("outer") as outer:
            with obs_trace.span("inner") as inner:
                assert obs_trace.current_span() is inner
            assert obs_trace.current_span() is outer
        assert inner.trace_id == outer.trace_id
        assert inner.parent_id == outer.span_id
        assert outer.parent_id is None

    def test_sibling_roots_get_distinct_traces(self, traced_memory):
        with obs_trace.span("one") as one:
            pass
        with obs_trace.span("two") as two:
            pass
        assert one.trace_id != two.trace_id

    def test_each_thread_keeps_its_own_span_stack(self, traced_memory):
        seen = {}

        def work():
            seen["ambient"] = obs_trace.current_span()
            with obs_trace.span("worker") as worker:
                seen["worker"] = worker

        with obs_trace.span("outer") as outer:
            thread = threading.Thread(target=work)
            thread.start()
            thread.join()
            assert obs_trace.current_span() is outer
        assert seen["ambient"] is None
        assert seen["worker"].parent_id is None
        assert seen["worker"].trace_id != outer.trace_id

    def test_carry_parents_another_threads_spans_to_the_caller(self, traced_memory):
        seen = {}

        def work():
            with obs_trace.span("shard") as shard:
                seen["shard"] = shard
            seen["after"] = obs_trace.current_span()

        with obs_trace.span("launch") as launch:
            thread = threading.Thread(target=obs_trace.carry(work))
            thread.start()
            thread.join()
        assert seen["shard"].parent_id == launch.span_id
        assert seen["shard"].trace_id == launch.trace_id
        assert seen["after"] is launch

    def test_attrs_and_events_land_in_the_record(self, traced_memory):
        with obs_trace.span("op", kernel="k") as span:
            span.set(workers=4)
            span.event("retry", shard=2)
        record = obs_trace.drain_records()[-1]
        assert record["type"] == "span"
        assert record["attrs"] == {"kernel": "k", "workers": 4}
        assert record["events"][0]["name"] == "retry"
        assert record["events"][0]["shard"] == 2
        assert record["duration"] >= 0.0

    def test_exception_marks_error_status(self, traced_memory):
        try:
            with obs_trace.span("boom"):
                raise ValueError("nope")
        except ValueError:
            pass
        record = obs_trace.drain_records()[-1]
        assert record["status"] == "error"
        assert "ValueError" in record["error"]

    def test_exceptions_still_propagate(self, traced_memory):
        import pytest

        with pytest.raises(ValueError):
            with obs_trace.span("boom"):
                raise ValueError("nope")


class TestSink:
    def test_records_written_as_jsonl(self, traced):
        with obs_trace.span("persisted", n=1):
            pass
        obs_trace.flush()
        lines = [
            json.loads(line)
            for line in traced.read_text().splitlines()
            if line.strip()
        ]
        spans = [r for r in lines if r["type"] == "span"]
        assert any(r["name"] == "persisted" for r in spans)

    def test_drain_clears_the_ring(self, traced_memory):
        with obs_trace.span("x"):
            pass
        assert obs_trace.drain_records()
        assert obs_trace.records() == []

    def test_trace_path_reports_the_file(self, traced):
        assert obs_trace.trace_path() == str(traced)


class TestRotation:
    """REPRO_OBS_TRACE_MAX_MB: cap the JSONL file with one .1 rollover."""

    def _traced_capped(self, tmp_path, max_mb):
        was_enabled = obs_trace.enabled()
        obs_trace.drain_records()
        path = tmp_path / "trace.jsonl"
        obs_trace.enable(path, max_mb=max_mb)
        return path, was_enabled

    def _restore(self, was_enabled):
        obs_trace.disable()
        obs_trace.drain_records()
        if was_enabled:
            obs_trace.enable()

    def test_rotation_rolls_to_dot_one(self, tmp_path):
        # ~1KB cap: a few hundred spans guarantee at least one rollover.
        path, was_enabled = self._traced_capped(tmp_path, 1 / 1024)
        try:
            for i in range(200):
                with obs_trace.span("rotated", i=i):
                    pass
            obs_trace.flush()
            rolled = tmp_path / "trace.jsonl.1"
            assert rolled.exists(), "no .1 rollover written"
            assert path.stat().st_size <= 1024
            assert rolled.stat().st_size <= 1024
            # Both files stay valid JSONL: rotation happens on line
            # boundaries, never mid-record.
            for file in (path, rolled):
                for line in file.read_text().splitlines():
                    if line.strip():
                        json.loads(line)
        finally:
            self._restore(was_enabled)

    def test_rotation_keeps_only_one_generation(self, tmp_path):
        path, was_enabled = self._traced_capped(tmp_path, 1 / 1024)
        try:
            for i in range(600):
                with obs_trace.span("many", i=i):
                    pass
            obs_trace.flush()
            generations = sorted(p.name for p in tmp_path.iterdir())
            assert generations == ["trace.jsonl", "trace.jsonl.1"]
        finally:
            self._restore(was_enabled)

    def test_existing_file_size_counts_against_the_cap(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        path.write_text("x" * 900 + "\n")  # pre-existing bytes
        was_enabled = obs_trace.enabled()
        obs_trace.drain_records()
        obs_trace.enable(path, max_mb=1 / 1024)
        try:
            for i in range(5):
                with obs_trace.span("appended", i=i):
                    pass
            obs_trace.flush()
            # The pre-existing 901 bytes pushed the first new record over
            # the cap, so the old content rotated out to .1.
            assert (tmp_path / "trace.jsonl.1").exists()
        finally:
            self._restore(was_enabled)

    def test_no_cap_means_no_rotation(self, traced):
        for i in range(200):
            with obs_trace.span("uncapped", i=i):
                pass
        obs_trace.flush()
        assert not (traced.parent / "trace.jsonl.1").exists()

    def test_env_knob_parses_and_junk_is_ignored(self, monkeypatch, tmp_path):
        was_enabled = obs_trace.enabled()
        obs_trace.disable()
        obs_trace.drain_records()
        monkeypatch.setenv("REPRO_OBS", "1")
        monkeypatch.setenv("REPRO_OBS_TRACE", str(tmp_path / "env.jsonl"))
        monkeypatch.setenv("REPRO_OBS_TRACE_MAX_MB", "not-a-number")
        try:
            obs_trace._init_from_env()  # junk cap: enabled, uncapped
            assert obs_trace.enabled()
            assert obs_trace._SINK._max_bytes is None
            obs_trace.disable()
            monkeypatch.setenv("REPRO_OBS_TRACE_MAX_MB", "2.5")
            obs_trace._init_from_env()
            assert obs_trace._SINK._max_bytes == int(2.5 * 1024 * 1024)
        finally:
            self._restore(was_enabled)


class TestSeamTable:
    """docs/OBSERVABILITY.md's "Instrumented seams" table names every span
    ``src/`` opens, and nothing else."""

    ROOT = pathlib.Path(__file__).resolve().parents[2]

    def emitted(self):
        names = set()
        for path in (self.ROOT / "src").rglob("*.py"):
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
                if not isinstance(node, ast.Call) or not node.args:
                    continue
                func = node.func
                called = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", "")
                if called in ("span", "emit_span"):
                    first = node.args[0]
                    assert isinstance(first, ast.Constant), (
                        f"{path.name}:{node.lineno}: a span name must be a literal"
                    )
                    names.add(first.value)
        return names

    def documented(self):
        doc = (self.ROOT / "docs" / "OBSERVABILITY.md").read_text(encoding="utf-8")
        table = doc.split("Instrumented seams:", 1)[1].split("\n\n", 2)[1]
        names = set()
        for row in table.splitlines()[2:]:
            names.update(re.findall(r"`([a-z_.]+)`", row.split("|")[1]))
        return names

    def test_the_table_lists_exactly_the_spans_src_emits(self):
        emitted = self.emitted()
        assert {"serve.launch", "engine.launch", "proc.shard"} <= emitted
        assert self.documented() == emitted
