"""End-to-end: a served launch under tracing produces a linked story.

The acceptance path for the observability layer: one ``ApproxSession``
launch traced to JSONL must yield a span tree linking session launch →
ladder rung → backend launch → shards, quality-timeline entries carrying
the launch correlation id, a populated ``session.last_launch``, and a
``metrics_snapshot()`` whose legacy keys survive the registry rewiring.
"""

import json

import pytest

from repro import LaunchOptions
from repro.apps.gaussian import GaussianFilterApp
from repro.obs import build_trees, load_trace, render_prometheus
from repro.obs import trace as obs_trace
from repro.obs.timeline import timeline
from repro.serve import ApproxSession, LaunchRecord, MonitorConfig


@pytest.fixture(scope="class")
def served(request, tmp_path_factory):
    """Six traced launches of a small served app, then the parsed trace."""
    was_enabled = obs_trace.enabled()
    obs_trace.drain_records()
    timeline().clear()
    path = tmp_path_factory.mktemp("obs") / "trace.jsonl"
    obs_trace.enable(path)
    app = GaussianFilterApp(scale=0.05)
    session = ApproxSession(
        app,
        target_quality=0.9,
        options=LaunchOptions(backend="codegen", parallel=2),
        monitor=MonitorConfig(sample_every=2),
    )
    infos = []
    for seed in range(6):
        session.launch(app.generate_inputs(seed=seed))
        infos.append(session.last_launch)
    session.close()
    obs_trace.disable()
    spans, events = load_trace(path)
    request.cls.session = session
    request.cls.infos = infos
    request.cls.spans = spans
    request.cls.events = events
    yield
    obs_trace.drain_records()
    timeline().clear()
    if was_enabled:
        obs_trace.enable()


@pytest.mark.usefixtures("served")
class TestServedTrace:
    def test_launch_ids_are_monotonic_and_exposed(self):
        assert [info.launch_id for info in self.infos] == list(range(6))
        assert all(isinstance(info, LaunchRecord) for info in self.infos)
        assert self.session.last_launch is self.infos[-1]
        assert self.infos == list(self.session.metrics.records)

    def test_every_launch_has_a_root_span_with_its_launch_id(self):
        roots = [s for s in self.spans if s["name"] == "serve.launch"]
        assert len(roots) == 6
        by_launch = {s["attrs"]["launch_id"]: s for s in roots}
        for info in self.infos:
            assert by_launch[info.launch_id]["trace_id"] == info.trace_id

    def test_span_tree_links_launch_to_rung_backend_and_shards(self):
        forest = build_trees(self.spans)
        info = self.infos[-1]
        (root,) = forest[info.trace_id]
        assert root["name"] == "serve.launch"
        rungs = [c for c in root["children"] if c["name"] == "ladder.rung"]
        assert rungs, "launch span has no ladder rung child"
        engine = [
            c for c in rungs[0]["children"] if c["name"] == "engine.launch"
        ]
        assert engine, "rung span has no backend launch child"
        all_spans = self._flatten(root)
        shard_spans = [s for s in all_spans if s["name"] == "shard.run"]
        assert shard_spans, "no shard spans under the launch tree"
        for shard in shard_spans:
            assert shard["trace_id"] == info.trace_id

    @staticmethod
    def _flatten(span):
        out = [span]
        for child in span["children"]:
            out.extend(TestServedTrace._flatten(child))
        return out

    def test_quality_timeline_carries_launch_correlation_ids(self):
        samples = [e for e in self.events if e["kind"] == "quality_sample"]
        assert samples, "no quality samples in six launches at cadence 2"
        sampled_ids = {info.launch_id for info in self.infos if info.sampled}
        trace_by_launch = {info.launch_id: info.trace_id for info in self.infos}
        for sample in samples:
            assert sample["launch_id"] in sampled_ids
            assert sample["trace_id"] == trace_by_launch[sample["launch_id"]]
            assert sample["session"] == self.session.metrics.label

    def test_quality_check_span_says_what_ran_the_golden(self):
        checks = [s for s in self.spans if s["name"] == "serve.quality_check"]
        assert len(checks) == 3
        forest = build_trees(self.spans)
        for check in checks:
            # Fresh inputs every launch: each check ran the exact program,
            # on the session's backend, with no interpreter fallback.
            assert check["attrs"]["backend"] == "codegen"
            assert check["attrs"]["golden"] == "miss"
            assert "fallback" not in check["attrs"]
        (root,) = forest[checks[-1]["trace_id"]]
        (node,) = [c for c in root["children"] if c["name"] == "serve.quality_check"]
        ran = [s for s in self._flatten(node) if s["name"] == "engine.launch"]
        assert [s["attrs"]["backend"] for s in ran] == ["codegen"]

    def test_trace_file_is_valid_jsonl(self):
        for record in self.spans + self.events:
            json.dumps(record)  # round-trippable

    def test_metrics_snapshot_keeps_legacy_keys(self):
        snap = self.session.metrics_snapshot()
        assert snap["launches"] == 6
        assert snap["cache"]["compile_misses"] == 1
        for key in (
            "kernel_launches", "backend_launches", "codegen", "parallel",
            "resilience", "sampled_checks", "sampling_overhead",
            "toq_violations", "drift_events", "recalibrations",
            "timings", "transitions", "recent_launches", "session",
        ):
            assert key in snap, key
        assert snap["parallel"] == {"workers": 2}
        for key in (
            "faults", "fallback_depths", "fallback_launches",
            "quarantines", "readmissions", "breakers", "guard_policy",
        ):
            assert key in snap["resilience"], key

    def test_launch_records_carry_correlation_and_duration(self):
        records = list(self.session.metrics.records)
        assert [r.launch_id for r in records] == list(range(6))
        assert all(r.trace_id for r in records)
        assert all(r.duration > 0.0 for r in records)

    def test_session_series_appear_in_prometheus_exposition(self):
        label = self.session.metrics.label
        text = render_prometheus()
        assert f'repro_session_launches_total{{session="{label}"}} 6' in text
        assert "# TYPE repro_session_launch_seconds histogram" in text
        assert f'repro_session_launch_seconds_count{{session="{label}"}} 6' in text


def test_tuning_measures_each_variant_once_on_the_calling_thread(traced_memory):
    """One ``tune.measure`` span per variant, each on the tuning thread and
    carrying only what it measured: there is no cache to report on."""
    import threading

    app = GaussianFilterApp(scale=0.05)
    with ApproxSession(app, options=LaunchOptions(parallel=2)) as session:
        result = session.tune()
    measures = [
        r for r in obs_trace.drain_records() if r.get("name") == "tune.measure"
    ]
    names = [p.name for p in result.profiles if p.name != "exact"]
    assert sorted(r["attrs"]["variant"] for r in measures) == sorted(names)
    for record in measures:
        assert set(record["attrs"]) == {"variant", "input_sets"}
        assert record["thread"] == threading.current_thread().name
