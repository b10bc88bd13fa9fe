"""Metrics registry: families, labels, idempotent registration, views."""

import pytest

from repro.errors import ConfigError
from repro.obs import render_prometheus
from repro.obs.registry import (
    DEFAULT_BUCKETS,
    MetricsRegistry,
    REGISTRY,
    get_registry,
)


class TestRegistration:
    def test_counter_inc_and_value(self):
        registry = MetricsRegistry()
        launches = registry.counter("launches_total", "launches")
        launches.inc()
        launches.inc(2)
        assert launches.value == 3

    def test_reregistration_is_idempotent(self):
        registry = MetricsRegistry()
        first = registry.counter("x_total", "x", labelnames=("pool",))
        again = registry.counter("x_total", "other help", labelnames=("pool",))
        assert again is first

    def test_kind_mismatch_raises(self):
        registry = MetricsRegistry()
        registry.counter("x_total")
        with pytest.raises(ConfigError):
            registry.gauge("x_total")

    def test_labelset_mismatch_raises(self):
        registry = MetricsRegistry()
        registry.counter("x_total", labelnames=("pool",))
        with pytest.raises(ConfigError):
            registry.counter("x_total", labelnames=("session",))

    def test_global_registry_is_shared(self):
        assert get_registry() is REGISTRY


class TestLabels:
    def test_labels_select_independent_series(self):
        registry = MetricsRegistry()
        family = registry.counter("tasks_total", labelnames=("pool",))
        family.labels(pool="shard").inc(5)
        family.labels(pool="profile").inc(1)
        assert family.labels(pool="shard").value == 5
        assert family.labels(pool="profile").value == 1

    def test_same_labels_return_same_child(self):
        registry = MetricsRegistry()
        family = registry.counter("tasks_total", labelnames=("pool",))
        assert family.labels(pool="shard") is family.labels(pool="shard")

    def test_missing_or_extra_labels_raise(self):
        registry = MetricsRegistry()
        family = registry.counter("tasks_total", labelnames=("pool",))
        with pytest.raises(ConfigError):
            family.labels()
        with pytest.raises(ConfigError):
            family.labels(pool="shard", extra="nope")

    def test_labelled_family_rejects_anonymous_use(self):
        registry = MetricsRegistry()
        family = registry.counter("tasks_total", labelnames=("pool",))
        with pytest.raises(ConfigError):
            family.inc()

    def test_series_lists_labels_and_children(self):
        registry = MetricsRegistry()
        family = registry.counter("tasks_total", labelnames=("pool",))
        family.labels(pool="shard").inc(2)
        series = family.series()
        assert series == [({"pool": "shard"}, family.labels(pool="shard"))]


class TestGaugesAndHistograms:
    def test_gauge_set_and_max_ratchet(self):
        registry = MetricsRegistry()
        gauge = registry.gauge("workers")
        gauge.set(4)
        anon = gauge.labels()
        anon.max(2)  # lower value: ratchet holds
        assert gauge.value == 4
        anon.max(8)
        assert gauge.value == 8

    def test_histogram_buckets_are_cumulative(self):
        registry = MetricsRegistry()
        hist = registry.histogram("seconds", buckets=(0.01, 0.1, 1.0))
        for value in (0.005, 0.05, 0.5, 5.0):
            hist.observe(value)
        snap = hist.labels().histogram_snapshot()
        assert snap["buckets"] == [0.01, 0.1, 1.0]
        assert snap["counts"] == [1, 2, 3, 4]  # le-style cumulative
        assert snap["count"] == 4
        assert snap["sum"] == pytest.approx(5.555)

    def test_default_buckets_cover_wall_times(self):
        assert DEFAULT_BUCKETS[0] <= 0.001
        assert DEFAULT_BUCKETS[-1] >= 1.0


class TestViews:
    def test_snapshot_flattens_label_sets(self):
        registry = MetricsRegistry()
        family = registry.counter("tasks_total", labelnames=("pool",))
        family.labels(pool="shard").inc(3)
        snap = registry.snapshot()
        assert snap["tasks_total{pool=shard}"] == 3

    def test_prometheus_rendering(self):
        registry = MetricsRegistry()
        registry.counter("repro_tasks_total", "tasks", labelnames=("pool",)).labels(
            pool="shard"
        ).inc(3)
        registry.gauge("repro_workers", "size").set(4)
        text = render_prometheus(registry)
        assert "# HELP repro_tasks_total tasks" in text
        assert "# TYPE repro_tasks_total counter" in text
        assert 'repro_tasks_total{pool="shard"} 3' in text
        assert "# TYPE repro_workers gauge" in text
        assert "repro_workers 4" in text

    def test_prometheus_histogram_expansion(self):
        registry = MetricsRegistry()
        hist = registry.histogram("repro_seconds", "wall", buckets=(0.1, 1.0))
        hist.observe(0.05)
        hist.observe(0.5)
        text = render_prometheus(registry)
        assert 'repro_seconds_bucket{le="0.1"} 1' in text
        assert 'repro_seconds_bucket{le="1"} 2' in text
        assert 'repro_seconds_bucket{le="+Inf"} 2' in text
        assert "repro_seconds_sum 0.55" in text
        assert "repro_seconds_count 2" in text

    def test_prometheus_escapes_label_values(self):
        registry = MetricsRegistry()
        registry.counter("repro_x_total", labelnames=("k",)).labels(
            k='say "hi"'
        ).inc()
        assert 'k="say \\"hi\\""' in render_prometheus(registry)

    def test_prometheus_escapes_line_feeds_in_label_values(self):
        # A tenant named by a caller must not split its sample in two.
        registry = MetricsRegistry()
        family = registry.counter("repro_x_total", labelnames=("tenant",))
        family.labels(tenant="a\nb").inc()
        family.labels(tenant="c\\n").inc()
        text = render_prometheus(registry)
        assert 'repro_x_total{tenant="a\\nb"} 1' in text
        assert 'repro_x_total{tenant="c\\\\n"} 1' in text
        samples = [line for line in text.splitlines() if not line.startswith("#")]
        assert len(samples) == 2

    def test_prometheus_writes_non_finite_values(self):
        registry = MetricsRegistry()
        registry.gauge("repro_up").set(float("inf"))
        registry.gauge("repro_down").set(float("-inf"))
        registry.gauge("repro_unknown").set(float("nan"))
        lines = render_prometheus(registry).splitlines()
        assert "repro_up +Inf" in lines
        assert "repro_down -Inf" in lines
        assert "repro_unknown NaN" in lines


class TestSubsystemFamilies:
    """The rewired subsystems register into the global registry."""

    def test_core_families_exist(self):
        # Importing the subsystems is what registers their families.
        import repro.codegen.cache  # noqa: F401
        import repro.parallel.shard  # noqa: F401
        import repro.resilience.guard  # noqa: F401

        registry = get_registry()
        for name in (
            "repro_codegen_compiles",
            "repro_shard_sharded_launches",
            "repro_guard_guarded_launches",
        ):
            assert registry.get(name) is not None, name

    def test_stats_shims_read_registry(self):
        from repro.parallel.shard import STATS

        before = STATS.shards_run
        STATS.inc("shards_run", 2)
        metric = get_registry().get("repro_shard_shards_run")
        assert int(metric.value) == before + 2
        assert STATS.snapshot()["shards_run"] == before + 2
        with pytest.raises(AttributeError):
            STATS.shards_run += 1  # the racy read-then-write idiom is gone

    @pytest.mark.parametrize(
        "module_name,field",
        [
            ("repro.codegen.cache", "cache_hits"),
            ("repro.parallel.shard", "shards_run"),
            ("repro.parallel.procpool", "tasks"),
            ("repro.resilience.guard", "shard_retries"),
        ],
    )
    def test_concurrent_increments_are_not_lost(self, module_name, field):
        """4 threads x 20 000 bumps of one counter per stats group land
        exactly: every increment is one locked add on the series."""
        import importlib
        import sys
        import threading

        stats = importlib.import_module(module_name).STATS
        threads_n, bumps = 4, 20_000
        before = getattr(stats, field)
        start = threading.Barrier(threads_n)

        def bump():
            start.wait()
            for _ in range(bumps):
                stats.inc(field)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [threading.Thread(target=bump) for _ in range(threads_n)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert getattr(stats, field) == before + threads_n * bumps


class TestQuantiles:
    """Histogram.quantile(q): linear interpolation over bucket bounds."""

    def _hist(self):
        registry = MetricsRegistry()
        return registry.histogram(
            "repro_q_seconds", "q", buckets=(0.01, 0.1, 1.0)
        )

    def test_empty_histogram_has_no_quantile(self):
        assert self._hist().quantile(0.5) is None

    def test_single_bucket_interpolates_from_zero(self):
        hist = self._hist()
        for _ in range(10):
            hist.observe(0.005)
        # All mass in [0, 0.01): the median interpolates to the middle.
        assert hist.quantile(0.5) == pytest.approx(0.005, rel=0.01)

    def test_quantiles_split_across_buckets(self):
        hist = self._hist()
        for _ in range(90):
            hist.observe(0.005)
        for _ in range(10):
            hist.observe(0.5)
        # p50 in the first bucket, p95/p99 inside (0.1, 1.0].
        assert hist.quantile(0.5) < 0.01
        assert 0.1 < hist.quantile(0.95) < 1.0
        assert hist.quantile(0.99) == pytest.approx(0.91, rel=0.01)

    def test_inf_bucket_clamps_to_last_finite_bound(self):
        hist = self._hist()
        for _ in range(10):
            hist.observe(50.0)  # beyond every bound
        assert hist.quantile(0.99) == 1.0

    def test_out_of_range_quantile_raises(self):
        with pytest.raises(ConfigError):
            self._hist().quantile(1.5)

    def test_labelled_series_quantile(self):
        registry = MetricsRegistry()
        family = registry.histogram(
            "repro_ql_seconds", "q", labelnames=("tenant",),
            buckets=(0.01, 0.1, 1.0),
        )
        family.labels(tenant="a").observe(0.005)
        family.labels(tenant="b").observe(0.5)
        assert family.labels(tenant="a").quantile(0.5) < 0.01
        assert family.labels(tenant="b").quantile(0.5) > 0.1

    def test_quantile_table_renders_comment_lines(self):
        from repro.obs.export import quantile_table

        registry = MetricsRegistry()
        hist = registry.histogram("repro_qt_seconds", "q")
        hist.observe(0.05)
        text = quantile_table(registry)
        assert text.startswith("#")
        assert "repro_qt_seconds" in text
        assert "p50=" in text and "p95=" in text and "p99=" in text
        # Every line is a comment: appending to an exposition keeps it valid.
        assert all(line.startswith("#") for line in text.splitlines())

    def test_quantile_table_skips_empty_series(self):
        from repro.obs.export import quantile_table

        registry = MetricsRegistry()
        registry.histogram("repro_qe_seconds", "q")
        assert quantile_table(registry) == ""
