"""The shard pool, the ambient parallelism policy, and parallel_map."""

import threading
import time

import pytest

from repro import ApproxSession, LaunchOptions, current_options, options
from repro.apps.gaussian import MeanFilterApp
from repro.errors import ConfigError
from repro.parallel.pool import (
    AUTO_WORKERS,
    DEFAULT_MIN_SHARD_THREADS,
    ParallelPolicy,
    host_worker_count,
    parallel_map,
    policy_from_options,
    pool_stats,
    resolve_workers,
)


def ambient_policy():
    """The policy a launch on this thread would resolve right now."""
    return policy_from_options(current_options())


class TestResolveWorkers:
    def test_positive_ints_pass_through(self):
        assert resolve_workers(1) == 1
        assert resolve_workers(7) == 7

    def test_auto_resolves_to_host_cores(self):
        assert resolve_workers(AUTO_WORKERS) == host_worker_count()
        assert host_worker_count() >= 1

    @pytest.mark.parametrize("bad", [0, -1, True, False, 2.5, "four", None, []])
    def test_invalid_values_raise_config_error(self, bad):
        with pytest.raises(ConfigError):
            resolve_workers(bad)


class TestPolicy:
    def test_defaults_are_serial(self):
        policy = ParallelPolicy()
        assert policy.serial
        assert policy.min_shard_threads == DEFAULT_MIN_SHARD_THREADS

    def test_auto_workers_resolve_at_construction(self):
        policy = ParallelPolicy(workers=AUTO_WORKERS)
        assert policy.workers == host_worker_count()

    @pytest.mark.parametrize("bad", [0, -3, True, 1.5, "many"])
    def test_bad_min_shard_threads_rejected(self, bad):
        with pytest.raises(ConfigError):
            ParallelPolicy(workers=2, min_shard_threads=bad)

    def test_ambient_default_is_serial(self):
        assert ambient_policy().serial

    def test_use_parallel_scopes_and_nests(self):
        assert ambient_policy().workers == 1
        with options(parallel=4):
            assert ambient_policy().workers == 4
            with options(parallel=2, min_shard_threads=16):
                assert ambient_policy().workers == 2
                assert ambient_policy().min_shard_threads == 16
            assert ambient_policy().workers == 4
            # inner scope did not leak its threshold
            assert ambient_policy().min_shard_threads == DEFAULT_MIN_SHARD_THREADS
        assert ambient_policy().serial

    def test_use_parallel_accepts_a_policy(self):
        # ... spelled as the three fields it resolves from
        policy = ParallelPolicy(workers=3, min_shard_threads=1, executor="process")
        with options(parallel=3, min_shard_threads=1, executor="process") as active:
            assert active.parallel == 3
            assert ambient_policy() == policy

    def test_policy_scope_is_thread_local(self):
        seen = {}

        def worker():
            seen["policy"] = ambient_policy()

        with options(parallel=4):
            t = threading.Thread(target=worker)
            t.start()
            t.join()
        # a fresh thread starts from the serial default, not the spawning
        # thread's scope — pool workers must not inherit shard policies
        assert seen["policy"].serial

    def test_resolve_policy_none_uses_ambient(self):
        with options(parallel=3):
            assert policy_from_options(
                LaunchOptions().merged_over(current_options())
            ).workers == 3
        assert policy_from_options(LaunchOptions()).serial

    def test_resolve_policy_int_keeps_ambient_threshold(self):
        # a per-call worker count overrides the scope's but keeps its threshold
        with options(parallel=2, min_shard_threads=64):
            policy = policy_from_options(
                LaunchOptions(parallel=5).merged_over(current_options())
            )
            assert policy.workers == 5
            assert policy.min_shard_threads == 64

    def test_resolve_policy_rejects_a_policy_as_an_option(self):
        # ParallelPolicy is what options resolve *to*, not an option value
        with pytest.raises(ConfigError, match="min_shard_threads= and executor="):
            LaunchOptions(parallel=ParallelPolicy(workers=2))


class TestParallelMap:
    def test_preserves_item_order(self):
        def slow_identity(i):
            # later items finish first; order must still hold
            time.sleep(0.02 * (4 - i))
            return i * 10

        assert parallel_map(4, slow_identity, range(4)) == [0, 10, 20, 30]

    def test_serial_bypass_with_one_worker(self):
        before = pool_stats().snapshot()["batches"]
        assert parallel_map(1, lambda i: i + 1, [1, 2, 3]) == [2, 3, 4]
        assert pool_stats().snapshot()["batches"] == before

    def test_serial_bypass_with_one_item(self):
        before = pool_stats().snapshot()["batches"]
        assert parallel_map(8, lambda i: i + 1, [41]) == [42]
        assert pool_stats().snapshot()["batches"] == before

    def test_first_exception_in_item_order_propagates(self):
        def boom(i):
            if i in (1, 3):
                raise ValueError(f"item {i}")
            return i

        with pytest.raises(ValueError, match="item 1"):
            parallel_map(4, boom, range(4))

    def test_empty_items(self):
        assert parallel_map(4, lambda i: i, []) == []

    def test_stats_record_tasks_and_workers(self):
        before = pool_stats().snapshot()
        parallel_map(3, lambda i: i, range(5))
        after = pool_stats().snapshot()
        assert after["tasks"] == before["tasks"] + 5
        assert after["batches"] == before["batches"] + 1
        assert after["max_workers"] >= 3

    def test_snapshot_has_the_four_counters(self):
        parallel_map(2, lambda i: i, range(2))
        assert set(pool_stats().snapshot()) == {
            "tasks", "batches", "max_workers", "workers_restarted"
        }


    def test_pool_families_are_unlabelled(self):
        """One pool, one series per family: no ``pool`` label."""
        from repro.obs import render_prometheus

        parallel_map(2, lambda i: i, range(3))
        series = [
            line for line in render_prometheus().splitlines()
            if line.startswith("repro_pool_")
        ]
        names = {line.split()[0] for line in series}
        assert names == {
            "repro_pool_tasks_total",
            "repro_pool_batches_total",
            "repro_pool_max_workers",
            "repro_pool_workers_restarted_total",
        }
        assert len(series) == 4

class TestSessionParallel:
    """A session's ``parallel=`` governs its launches' shards only."""

    def test_metrics_snapshot_reports_parallel_section(self):
        """The section holds the session's own setting; what its launches
        did to the shared pool is read from ``pool_stats()``."""
        before = pool_stats().snapshot()
        with ApproxSession(
            MeanFilterApp(scale=0.05),
            target_quality=0.9,
            options=LaunchOptions(parallel=2),
        ) as session:
            session.tune()
            session.launch(session.app.generate_inputs(seed=3))
            snap = session.metrics_snapshot()
        after = pool_stats().snapshot()
        assert snap["parallel"] == {"workers": 2}
        assert after["tasks"] - before["tasks"] >= after["batches"] - before["batches"] >= 1

    def test_pool_counts_are_process_wide(self):
        """Two sessions in one process, one after the other: the pool's
        counters move with the sharded session's launch and stay put over
        the serial one's."""
        with ApproxSession(
            MeanFilterApp(scale=0.05),
            target_quality=0.9,
            options=LaunchOptions(parallel=2, min_shard_threads=1),
        ) as sharded:
            sharded.tune()
            before = pool_stats().snapshot()
            sharded.launch(sharded.app.generate_inputs(seed=3))
            after = pool_stats().snapshot()
        assert after["tasks"] - before["tasks"] >= 2
        assert after["batches"] - before["batches"] >= 1
        with ApproxSession(MeanFilterApp(scale=0.05), target_quality=0.9) as serial:
            serial.tune()
            before = pool_stats().snapshot()
            serial.launch(serial.app.generate_inputs(seed=3))
            assert pool_stats().snapshot() == before

    def test_sessions_alive_at_once_report_no_process_wide_section(self):
        """A snapshot counts only its own session's work, so none holds a
        delta of a counter every session alive at once moves."""
        sharded = ApproxSession(
            MeanFilterApp(scale=0.05),
            target_quality=0.9,
            options=LaunchOptions(parallel=2, min_shard_threads=1),
        )
        serial = ApproxSession(MeanFilterApp(scale=0.05), target_quality=0.9)
        with sharded, serial:
            for session in (sharded, serial):
                session.tune()
                session.launch(session.app.generate_inputs(seed=3))
            snaps = [s.metrics_snapshot() for s in (sharded, serial)]
        for snap, workers in zip(snaps, (2, 1)):
            assert snap["parallel"] == {"workers": workers}
            assert set(snap["codegen"]) == {"variants"}
            assert "guard" not in snap["resilience"]

    def test_session_parallel_arg_overrides_config(self):
        with ApproxSession(
            MeanFilterApp(scale=0.05),
            target_quality=0.9,
            options=LaunchOptions(parallel=3),
        ) as session:
            assert session.parallel_workers == 3
        with ApproxSession(MeanFilterApp(scale=0.05), target_quality=0.9) as session:
            assert session.parallel_workers == 1  # the session's constant

    def test_tuning_starts_no_thread_pool(self):
        """Variants are profiled on the calling thread: tuning under
        ``parallel=2`` submits nothing and starts no thread."""
        before = {t.ident for t in threading.enumerate()}
        batches = pool_stats().snapshot()["batches"]
        with ApproxSession(
            MeanFilterApp(scale=0.05), options=LaunchOptions(parallel=2)
        ) as session:
            session.tune()
        started = [t.name for t in threading.enumerate() if t.ident not in before]
        assert started == []
        assert pool_stats().snapshot()["batches"] == batches

    def test_parallel_does_not_change_the_tuning_result(self):
        results = []
        for workers in (1, 2):
            with ApproxSession(
                MeanFilterApp(scale=0.05), options=LaunchOptions(parallel=workers)
            ) as session:
                results.append(session.tune().to_dict())
        assert results[0] == results[1]


    def test_a_forced_retune_measures_every_variant_again(self):
        """A session keeps no memo of measurements: a retune on the same
        training inputs profiles each variant afresh, to the same result."""
        app = MeanFilterApp(scale=0.05)
        with ApproxSession(app, options=LaunchOptions(parallel=2)) as session:
            first = session.tune().to_dict()
            measured = []
            run_variant = app.run_variant

            def counting(variant, inputs):
                measured.append(variant.name)
                return run_variant(variant, inputs)

            app.run_variant = counting
            again = session.tune(force=True).to_dict()
        assert not hasattr(session, "profile_cache")
        profiled = [row["name"] for row in first["profiles"] if row["name"] != "exact"]
        assert profiled and sorted(measured) == sorted(profiled)
        assert again == first

class TestHostWorkerCount:
    """Container CPU limits must cap ``workers="auto"`` resolution."""

    def _fake_files(self, monkeypatch, files):
        import builtins
        import io

        real_open = builtins.open

        def fake_open(path, *args, **kwargs):
            spath = str(path)
            if spath in files:
                content = files[spath]
                if content is None:
                    raise OSError(f"unreadable {spath}")
                return io.StringIO(content)
            return real_open(path, *args, **kwargs)

        monkeypatch.setattr(builtins, "open", fake_open)

    def _fake_affinity(self, monkeypatch, cores):
        import os

        monkeypatch.setattr(
            os, "sched_getaffinity", lambda _pid: set(range(cores)),
            raising=False,
        )

    def test_cgroup_v2_quota_caps_affinity(self, monkeypatch):
        self._fake_affinity(monkeypatch, 64)
        self._fake_files(
            monkeypatch, {"/sys/fs/cgroup/cpu.max": "200000 100000\n"}
        )
        assert host_worker_count() == 2

    def test_cgroup_v2_unlimited_defers_to_affinity(self, monkeypatch):
        self._fake_affinity(monkeypatch, 6)
        self._fake_files(
            monkeypatch, {"/sys/fs/cgroup/cpu.max": "max 100000\n"}
        )
        assert host_worker_count() == 6

    def test_cgroup_v1_fallback(self, monkeypatch):
        self._fake_affinity(monkeypatch, 64)
        self._fake_files(
            monkeypatch,
            {
                "/sys/fs/cgroup/cpu.max": None,  # no cgroup v2
                "/sys/fs/cgroup/cpu/cpu.cfs_quota_us": "400000\n",
                "/sys/fs/cgroup/cpu/cpu.cfs_period_us": "100000\n",
            },
        )
        assert host_worker_count() == 4

    def test_sub_core_quota_still_yields_one_worker(self, monkeypatch):
        self._fake_affinity(monkeypatch, 8)
        self._fake_files(
            monkeypatch, {"/sys/fs/cgroup/cpu.max": "50000 100000\n"}
        )
        assert host_worker_count() == 1

    def test_no_cgroup_files_defers_to_affinity(self, monkeypatch):
        self._fake_affinity(monkeypatch, 3)
        self._fake_files(
            monkeypatch,
            {
                "/sys/fs/cgroup/cpu.max": None,
                "/sys/fs/cgroup/cpu/cpu.cfs_quota_us": None,
            },
        )
        assert host_worker_count() == 3

    def test_garbled_quota_is_ignored(self, monkeypatch):
        self._fake_affinity(monkeypatch, 5)
        self._fake_files(
            monkeypatch, {"/sys/fs/cgroup/cpu.max": "banana\n"}
        )
        assert host_worker_count() == 5
