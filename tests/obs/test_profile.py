"""Sampling profiler: attribution, collapsed output, rendering."""

import re
import threading
import time
from pathlib import Path

import pytest

import repro
from repro.apps.gaussian import GaussianFilterApp
from repro.obs import span
from repro.obs import trace as obs_trace
from repro.obs.export import load_collapsed, render_flame, render_top
from repro.obs.profile import (
    SEAMS,
    SamplingProfiler,
    active_profiler,
)
from repro.obs import profile as obs_profile
from repro.obs.registry import MetricsRegistry
from repro.resilience.guard import GuardPolicy, run_ladder

SRC = Path(__file__).resolve().parents[2] / "src"


def _busy(stop, tag):
    """A worker with a recognisable frame, spinning until told to stop."""
    while not stop.is_set():
        sum(range(200))


def _profiled_worker(profiler, target, min_samples=5, timeout=5.0):
    """Run ``target(stop)`` in a thread while the profiler samples it."""
    stop = threading.Event()
    worker = threading.Thread(target=target, args=(stop,), daemon=True)
    worker.start()
    try:
        with profiler:
            deadline = time.monotonic() + timeout
            while (
                profiler.sample_count() < min_samples
                and time.monotonic() < deadline
            ):
                time.sleep(0.01)
    finally:
        stop.set()
        worker.join(timeout=5)
    assert profiler.sample_count() >= min_samples, "profiler never sampled"


class TestSampling:
    def test_samples_accumulate_and_metrics_count(self):
        registry = MetricsRegistry()
        profiler = SamplingProfiler(interval_s=0.002, registry=registry)
        _profiled_worker(profiler, lambda stop: _busy(stop, "plain"))
        assert registry.get("repro_profile_samples_total").value >= 5
        collapsed = profiler.collapsed_stacks()
        assert "_busy" in collapsed

    def test_spans_become_synthetic_root_frames(self, traced_memory):
        registry = MetricsRegistry()
        profiler = SamplingProfiler(interval_s=0.002, registry=registry)

        def target(stop):
            with span("shard.run", kernel="blackscholes", variant="loop[4]"):
                _busy(stop, "in-span")

        _profiled_worker(profiler, target)
        spanned = [
            line
            for line in profiler.collapsed_stacks().splitlines()
            if line.startswith("shard.run;")
        ]
        assert spanned, "no stack rooted at the span name"

    def test_seam_attribution_reads_span_attrs(self, traced_memory):
        registry = MetricsRegistry()
        profiler = SamplingProfiler(interval_s=0.002, registry=registry)

        def target(stop):
            with span("engine.launch", kernel="sobel"):
                with span("shard.run", kernel="sobel", variant="tile[8]"):
                    _busy(stop, "seamed")

        _profiled_worker(profiler, target)
        top = profiler.top()
        assert top, "no seam-attributed samples"
        hottest = top[0]
        # Innermost seam wins: shard.run, not the enclosing engine.launch.
        assert hottest["seam"] == "shard.run"
        assert hottest["kernel"] == "sobel"
        assert hottest["variant"] == "tile[8]"
        assert hottest["seconds"] == pytest.approx(
            hottest["samples"] * profiler.interval_s
        )
        seam_metric = registry.get("repro_profile_seam_samples_total")
        assert seam_metric.labels(seam="shard.run").value >= 1

    def test_reset_clears_accumulated_data(self):
        profiler = SamplingProfiler(interval_s=0.002, registry=MetricsRegistry())
        _profiled_worker(profiler, lambda stop: _busy(stop, "reset"))
        profiler.reset()
        assert profiler.sample_count() == 0
        assert profiler.collapsed_stacks() == ""

    def test_start_is_idempotent_and_stop_joins(self):
        profiler = SamplingProfiler(interval_s=0.002, registry=MetricsRegistry())
        profiler.start()
        assert profiler.start() is profiler
        assert profiler.running
        profiler.stop()
        assert not profiler.running
        profiler.stop()  # second stop is a no-op


class TestGlobalProfiler:
    def test_start_stop_roundtrip(self):
        # The CI shard runs with REPRO_OBS_PROFILE=1, so a global
        # profiler may already be live; restore its state on exit.
        was_running = (
            active_profiler() is not None and active_profiler().running
        )
        profiler = obs_profile.start(
            interval_s=0.005, registry=MetricsRegistry()
        )
        try:
            assert active_profiler() is profiler
            assert profiler.running
        finally:
            obs_profile.stop()
        assert not profiler.running
        if was_running:
            obs_profile.start()


class TestCollapsedFormat:
    def test_export_and_reload_roundtrip(self, tmp_path):
        profiler = SamplingProfiler(interval_s=0.002, registry=MetricsRegistry())
        _profiled_worker(profiler, lambda stop: _busy(stop, "export"))
        path = tmp_path / "profile.collapsed"
        profiler.export_collapsed(path)
        stacks = load_collapsed(path)
        assert stacks
        assert sum(stacks.values()) > 0
        assert all(
            isinstance(k, tuple) and isinstance(v, int)
            for k, v in stacks.items()
        )

    def test_render_flame_folds_and_percentages(self):
        stacks = {
            ("main", "hot", "inner"): 90,
            ("main", "cold"): 10,
        }
        text = render_flame(stacks, min_percent=5.0)
        assert "total: 100 samples" in text
        assert "hot" in text and "90" in text

    def test_render_flame_folds_rare_branches(self):
        stacks = {("main", "hot"): 999, ("main", "rare"): 1}
        text = render_flame(stacks, min_percent=5.0)
        assert "rare" not in text

    def test_render_top_ranks_leaf_self_time(self):
        stacks = {
            ("a", "leaf1"): 70,
            ("b", "leaf2"): 30,
        }
        text = render_top(stacks, limit=10)
        lines = [l for l in text.splitlines() if "leaf" in l]
        assert "leaf1" in lines[0]

    def test_seams_cover_the_instrumented_spans(self):
        # The attribution seams must track the production span names.
        assert "engine.launch" in SEAMS
        assert "shard.run" in SEAMS
        assert "serve.batch" in SEAMS
        assert "proc.launch" in SEAMS

    def test_every_seam_is_a_span_a_guarded_launch_or_src_emits(self, traced_memory):
        app = GaussianFilterApp(scale=0.05)
        with repro.options(
            backend="codegen", parallel=2, min_shard_threads=1, guard=GuardPolicy()
        ):
            run_ladder(app, app.generate_inputs(seed=0), None)
        launched = {r["name"] for r in obs_trace.drain_records() if r.get("type") == "span"}
        assert {"ladder.rung", "engine.launch", "shard.run"} <= launched
        opened = set()
        for path in SRC.rglob("*.py"):
            opened.update(re.findall(r'span\(\s*"([a-z_.]+)"', path.read_text()))
        assert set(SEAMS) - launched - opened == set()
