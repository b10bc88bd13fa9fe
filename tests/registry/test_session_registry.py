"""Serving integration: sessions and frontends over a shared registry."""

import numpy as np
import pytest

from repro.apps.gaussian import MeanFilterApp
from repro.obs import trace as obs_trace
from repro.obs.timeline import timeline
from repro.registry import VariantRegistry
from repro.serve import ApproxSession, ServeFrontend
from repro.serve.monitor import MonitorConfig


def make_session(registry=None, **kw):
    return ApproxSession(
        MeanFilterApp(scale=0.05), target_quality=0.9, registry=registry, **kw
    )


class TestSessionSeedModes:
    def test_registryless_session_reports_disabled(self):
        with make_session() as session:
            session.tune()
            snap = session.metrics_snapshot()
        assert snap["registry"] == {"enabled": False}

    def test_first_session_is_cold_second_is_warm(self):
        registry = VariantRegistry()
        with make_session(registry) as session:
            first = session.tune()
            assert first.seed_mode == "cold"
        with make_session(registry) as session:
            second = session.tune()
            assert second.seed_mode == "warm"
            assert second.chosen.name == first.chosen.name
            snap = session.metrics_snapshot()
        assert snap["registry"]["seed_mode"] == "warm"
        assert snap["registry"]["key"]
        assert snap["registry"]["keys"] == 1

    def test_path_argument_opens_a_store(self, tmp_path):
        with make_session(tmp_path / "reg") as session:
            session.tune()
            assert isinstance(session.registry, VariantRegistry)
        assert (tmp_path / "reg" / "registry.json").is_file()

    def test_warm_restart_retunes_from_the_registry(self):
        registry = VariantRegistry()
        with make_session(registry) as session:
            cold = session.tune()
            restarted = session.warm_restart()
            assert restarted.seed_mode == "warm"
            assert restarted.chosen.name == cold.chosen.name
            # warm_restart discards the persisted result: this is a real
            # re-tune, not a resume.
            assert not restarted.resumed

    def test_plain_retune_resumes_without_measuring(self):
        registry = VariantRegistry()
        with make_session(registry) as session:
            session.tune()
        with make_session(registry) as session:
            session.tune()
            snap = session.metrics_snapshot()
            assert snap["registry"]["seed_mode"] == "warm"


class TestAttachRegistry:
    def test_attach_before_tune_takes_effect(self):
        registry = VariantRegistry()
        with make_session() as session:
            session.attach_registry(registry)
            assert session.registry is registry
            session.tune()
        assert registry.keys()

    def test_attach_does_not_replace_an_existing_registry(self):
        mine = VariantRegistry()
        other = VariantRegistry()
        with make_session(mine) as session:
            session.attach_registry(other)
            assert session.registry is mine

    def test_frontend_sessions_adopt_the_shared_registry(self):
        registry = VariantRegistry()
        with ServeFrontend(registry=registry) as frontend:
            with make_session() as session:
                inputs = session.app.generate_inputs(seed=3)
                out = frontend.submit_app(session, inputs).result(timeout=60)
                assert isinstance(out, np.ndarray)
                assert session.registry is registry
        assert registry.keys()

    def test_frontend_without_registry_leaves_sessions_alone(self):
        with ServeFrontend() as frontend:
            with make_session() as session:
                inputs = session.app.generate_inputs(seed=3)
                frontend.submit_app(session, inputs).result(timeout=60)
                assert session.registry is None


class TestTimelineStamping:
    def _drain(self):
        timeline().clear()
        obs_trace.drain_records()

    def test_quality_samples_carry_the_registry_key(self):
        registry = VariantRegistry()
        was_enabled = obs_trace.enabled()
        obs_trace.enable()
        self._drain()
        try:
            with make_session(
                registry, monitor=MonitorConfig(sample_every=1)
            ) as session:
                session.tune()
                inputs = session.app.generate_inputs(seed=5)
                for _ in range(3):
                    session.launch(inputs)
                key = session.metrics_snapshot()["registry"]["key"]
            samples = [
                e for e in timeline().entries() if e["kind"] == "quality_sample"
            ]
            assert samples
            assert all(e["registry_key"] == key for e in samples)
        finally:
            self._drain()
            if not was_enabled:
                obs_trace.disable()

    def test_registryless_samples_omit_the_key(self):
        was_enabled = obs_trace.enabled()
        obs_trace.enable()
        self._drain()
        try:
            with make_session(
                monitor=MonitorConfig(sample_every=1)
            ) as session:
                session.tune()
                session.launch(session.app.generate_inputs(seed=5))
            samples = [
                e for e in timeline().entries() if e["kind"] == "quality_sample"
            ]
            assert samples
            assert all("registry_key" not in e for e in samples)
        finally:
            self._drain()
            if not was_enabled:
                obs_trace.disable()

    def test_exported_timeline_feeds_back_into_the_registry(self):
        registry = VariantRegistry()
        was_enabled = obs_trace.enabled()
        obs_trace.enable()
        self._drain()
        try:
            with make_session(
                registry, monitor=MonitorConfig(sample_every=1)
            ) as session:
                session.tune()
                inputs = session.app.generate_inputs(seed=5)
                for _ in range(3):
                    session.launch(inputs)
            entries = list(timeline().entries())
            absorbed = registry.ingest_timeline(entries)
            assert absorbed >= 1
        finally:
            self._drain()
            if not was_enabled:
                obs_trace.disable()


class TestSnapshotShape:
    def test_registry_section_contains_store_stats(self):
        registry = VariantRegistry()
        with make_session(registry) as session:
            session.tune()
            snap = session.metrics_snapshot()["registry"]
        assert snap["root"] is None  # in-memory store
        assert snap["points"] >= 1
        assert snap["seed_mode"] in ("cold", "warm")
        assert isinstance(snap["key"], str) and snap["key"]
