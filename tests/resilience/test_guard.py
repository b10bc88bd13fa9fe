"""Guarded launches: containment, deadlines, the fallback ladder."""

import threading
import time

import numpy as np
import pytest

import kernel_zoo as zoo
import repro
from repro.apps.registry import make_app
from repro import LaunchOptions, options
from repro.engine import Grid, launch, launch_hook
from repro.errors import ExecutionError, ResilienceError, ShardTimeout, WorkerDeath
from repro.parallel import procpool
from repro.parallel.pool import get_pool, pool_stats
from repro.resilience.faults import (
    SITE_OUTPUT,
    SITE_WORKER,
    FaultPlan,
    FaultSpec,
    use_faults,
)
from repro.resilience.guard import (
    STATS,
    GuardPolicy,
    current_policy,
    guarded_map,
    run_ladder,
)
from repro.parallel.shard import STATS as SHARD_STATS
from repro.resilience.validate import corrupt_output, validate_output


@pytest.fixture(autouse=True)
def _reset_guard_stats():
    STATS.reset()
    yield
    STATS.reset()


FAST = GuardPolicy(deadline_seconds=5.0)


class TestGuardPolicy:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"deadline_seconds": 0.0},
            {"deadline_seconds": -1.0},
            {"deadline_seconds": float("nan")},
            {"deadline_seconds": float("inf")},
            {"deadline_seconds": True},
            {"deadline_seconds": "30"},
            {"value_limit": 0.0},
            {"value_limit": -1.0},
            {"value_limit": float("nan")},
            {"value_limit": float("inf")},
            {"value_limit": True},
            {"value_limit": "10"},
        ],
    )
    def test_invalid_knobs_rejected(self, kwargs):
        with pytest.raises(ResilienceError):
            GuardPolicy(**kwargs)

    def test_finite_positive_knobs_accepted(self):
        policy = GuardPolicy(deadline_seconds=1, value_limit=1e30)
        assert policy.deadline_seconds == 1 and policy.value_limit == 1e30
        assert GuardPolicy().value_limit is None

    def test_use_guard_scopes_per_thread(self):
        assert current_policy() is None
        with options(guard=FAST):
            assert current_policy() is FAST
            seen = []
            t = threading.Thread(target=lambda: seen.append(current_policy()))
            t.start()
            t.join()
            assert seen == [None]  # thread-local, unlike fault plans
        assert current_policy() is None


class TestValidateOutput:
    def test_finite_output_passes(self):
        assert validate_output(np.ones(8, np.float32)) is None
        assert validate_output((np.ones(4), np.arange(4))) is None

    def test_non_array_and_integer_outputs_pass(self):
        assert validate_output(42) is None
        assert validate_output(np.arange(8)) is None

    @pytest.mark.parametrize("poison", [np.nan, np.inf, -np.inf])
    def test_non_finite_values_flagged(self, poison):
        arr = np.ones(8, np.float32)
        arr[3] = poison
        note = validate_output(arr)
        assert note is not None and "non-finite" in note

    def test_value_limit_flags_magnitude(self):
        arr = np.array([1.0, -50.0, 2.0])
        assert validate_output(arr, value_limit=10.0) is not None
        assert validate_output(arr, value_limit=100.0) is None

    def test_corrupt_output_writes_poison(self):
        arr = np.ones(100, np.float32)
        assert corrupt_output(arr, "nan")
        assert np.isnan(arr[0])
        assert not corrupt_output(np.arange(4), "nan")  # ints can't hold NaN


class TestGuardedMap:
    def test_results_in_item_order(self):
        def slow_first(i):
            if i == 0:
                time.sleep(0.02)
            return i * 10

        assert guarded_map("test", 4, slow_first, range(6), FAST) == [
            0, 10, 20, 30, 40, 50
        ]

    def test_a_failed_task_is_not_retried(self):
        """Items 1 and 3 fail: the lowest one's exception propagates, and
        no item ran twice (tasks not started by then are cancelled)."""
        calls = []
        lock = threading.Lock()

        def flaky(i):
            with lock:
                calls.append(i)
            if i in (1, 3):
                raise ValueError(f"failed {i}")
            return i

        with pytest.raises(ValueError, match="failed 1"):
            guarded_map("test", 4, flaky, range(5), FAST)
        time.sleep(0.05)  # items past the failing one may still be running
        assert len(calls) == len(set(calls)) and {0, 1} <= set(calls)
        assert STATS.shard_retries == 0

    def test_exhausted_retries_reraise_the_shard_exception(self):
        def always(i):
            if i == 2:
                raise ValueError("persistent")
            return i

        with pytest.raises(ValueError, match="persistent"):
            guarded_map("test", 4, always, range(4), FAST)

    def test_a_worker_death_raises_and_keeps_the_pool(self):
        """An injected thread death kills no thread: it propagates like
        any task's exception, for the caller's serial fallback."""
        pool = get_pool("test", 2)
        restarts = pool_stats("test").snapshot()["workers_restarted"]

        def mortal(i):
            if i == 1:
                raise WorkerDeath("injected")
            return i

        with pytest.raises(WorkerDeath):
            guarded_map("test", 2, mortal, range(4), FAST)
        assert STATS.pool_replacements == 0
        assert get_pool("test", 2) is pool
        assert pool_stats("test").snapshot()["workers_restarted"] == restarts

    def test_deadline_expiry_raises_shard_timeout(self):
        policy = GuardPolicy(deadline_seconds=0.05)

        def hang(i):
            if i == 1:
                time.sleep(0.5)
            return i

        started = time.monotonic()
        with pytest.raises(ShardTimeout):
            guarded_map("test", 2, hang, range(2), policy)
        assert time.monotonic() - started < 0.45  # did not wait out the hang
        assert STATS.shard_timeouts == 1 and STATS.pool_replacements == 1

    def test_serial_bypass_for_one_worker(self):
        assert guarded_map("test", 1, lambda i: i + 1, range(3), FAST) == [
            1, 2, 3
        ]


class TestGuardedShardedLaunch:
    def _launch_square(self, n=4096, policy=None, workers=4, seed=0):
        x = np.random.default_rng(seed).random(n, dtype=np.float32)
        out = np.zeros(n, np.float32)
        with options(guard=policy):
            launch(
                zoo.square_map,
                Grid.for_elements(n),
                [out, x, n],
                options=LaunchOptions(
                    backend="codegen", parallel=workers, min_shard_threads=1
                ),
            )
        return out, x * x

    def test_guarded_launch_is_bit_exact(self, staging):
        before = SHARD_STATS.snapshot()
        out, expected = self._launch_square(policy=FAST)
        np.testing.assert_array_equal(out, expected)
        assert STATS.guarded_sharded == 1
        # square_map's stores are private and into an array it never loads:
        # the shards wrote one staged copy of ``out`` in place
        after = SHARD_STATS.snapshot()
        assert after["staged"] == before["staged"] + 1
        assert after["zero_copy"] == before["zero_copy"] + 1
        assert after["staging_bytes"] == before["staging_bytes"] + out.nbytes
        assert len(staging.idle()) == 1  # and gave it back

    def test_worker_crashes_fall_back_to_serial_reexecution(self, staging):
        plan = FaultPlan([FaultSpec(SITE_WORKER, mode="exception")])
        with use_faults(plan):
            out, expected = self._launch_square(policy=FAST)
        np.testing.assert_array_equal(out, expected)
        assert STATS.serial_reexecutions == 1
        assert plan.total_fired() > 0
        # other shards of the failed launch may still be writing it
        assert staging.idle() == []

    def test_one_crash_re_runs_the_launch_serially_once(self, staging):
        plan = FaultPlan([FaultSpec(SITE_WORKER, mode="exception", max_fires=1)])
        before = SHARD_STATS.snapshot()
        with use_faults(plan):
            out, expected = self._launch_square(policy=FAST, workers=2)
        assert out.tobytes() == expected.tobytes()
        assert plan.total_fired() == 1
        assert STATS.shard_retries == 0 and STATS.serial_reexecutions == 1
        after = SHARD_STATS.snapshot()
        assert after["staged"] == before["staged"]
        assert after["zero_copy"] == before["zero_copy"]
        assert staging.idle() == []  # the failed launch's staging is dropped

    @pytest.mark.parametrize("guarded", [False, True], ids=["unguarded", "guarded"])
    @pytest.mark.parametrize("executor", ["thread", "process"])
    def test_a_kernel_error_propagates_from_the_failing_shard(self, executor, guarded):
        """An undersized ``out``: the second of two shards raises the bounds
        error.  Every lane, guarded or not, raises that shard's error, not a
        serial re-run's, and nothing is retried or re-executed."""
        n = 1 << 16
        out, x = np.zeros(n // 2, np.float32), np.ones(n, np.float32)
        before = procpool.STATS.serial_reexecutions
        try:
            with options(guard=FAST if guarded else None), pytest.raises(
                ExecutionError,
                match=r"'out' out of range \[32768, 65535\] vs size 32768",
            ):
                launch(
                    zoo.square_map,
                    Grid.for_elements(n),
                    [out, x, n],
                    options=LaunchOptions(
                        backend="codegen", parallel=2, executor=executor,
                        min_shard_threads=1,
                    ),
                )
        finally:
            repro.reset()
        assert STATS.shard_retries == 0 and STATS.serial_reexecutions == 0
        assert procpool.STATS.serial_reexecutions == before

    def test_hung_workers_hit_the_deadline_then_serial(self):
        policy = GuardPolicy(deadline_seconds=0.05)
        plan = FaultPlan(
            [FaultSpec(SITE_WORKER, mode="hang", hang_seconds=0.4)]
        )
        with use_faults(plan):
            out, expected = self._launch_square(policy=policy)
        np.testing.assert_array_equal(out, expected)
        assert STATS.shard_timeouts == 1
        assert STATS.serial_reexecutions == 1

    def test_the_staging_of_a_timed_out_launch_is_never_handed_out_again(
        self, staging
    ):
        """One shard sleeps through the deadline and later wakes to run its
        kernel on the launch's staging.  That buffer must be nobody's by
        then: launches of the same shapes issued while it sleeps and after
        it wakes stay byte-equal to serial, and the caller's array of the
        timed-out launch is what the serial re-execution wrote."""
        policy = GuardPolicy(deadline_seconds=0.05)
        self._launch_square(policy=policy, workers=2)
        (abandoned,) = staging.idle()  # the next launch takes this one
        hang = 1.0
        plan = FaultPlan(
            [FaultSpec(SITE_WORKER, mode="hang", hang_seconds=hang, max_fires=1)]
        )
        started = time.monotonic()
        with use_faults(plan):
            out, expected = self._launch_square(policy=policy, workers=2, seed=1)
        assert STATS.shard_timeouts == 1 and STATS.serial_reexecutions == 1
        assert out.tobytes() == expected.tobytes()
        assert staging.idle() == []
        for seed in range(2, 6):  # the abandoned shard is still asleep
            later, want = self._launch_square(policy=policy, workers=2, seed=seed)
            assert later.tobytes() == want.tobytes()
        assert time.monotonic() - started < hang
        time.sleep(hang + 0.2)  # it woke and stored seed 1's squares
        assert out.tobytes() == expected.tobytes()
        for seed in range(6, 10):
            later, want = self._launch_square(policy=policy, workers=2, seed=seed)
            assert later.tobytes() == want.tobytes()
        assert all(raw is not abandoned for raw in staging.idle())
        assert STATS.serial_reexecutions == 1  # only the timed-out launch fell back

    def test_unguarded_launch_unchanged(self, staging):
        before = SHARD_STATS.snapshot()
        out, expected = self._launch_square(policy=None)
        np.testing.assert_array_equal(out, expected)
        assert STATS.guarded_sharded == 0
        # nothing can fail over the caller's buffers: written directly
        after = SHARD_STATS.snapshot()
        assert after["zero_copy"] == before["zero_copy"] + 1
        assert after["staged"] == before["staged"]
        assert staging.idle() == []


class TestRunLadder:
    @pytest.fixture(scope="class")
    def app(self):
        return make_app("gamma", seed=0)

    @pytest.fixture(scope="class")
    def setup(self, app):
        inputs = app.generate_inputs(seed=app.seed)
        with options(backend="interp", parallel=1):
            golden, _ = app.run_exact(inputs)
        return inputs, np.asarray(golden)

    def test_disabled_policy_is_a_passthrough(self, app, setup):
        inputs, golden = setup
        out, report = run_ladder(
            app, inputs, None, backend="interp",
            policy=GuardPolicy(enabled=False),
        )
        np.testing.assert_array_equal(np.asarray(out), golden)
        assert report.served == "exact" and report.primary_ok
        assert STATS.guarded_launches == 0

    def test_healthy_primary_serves_at_depth_zero(self, app, setup):
        inputs, golden = setup
        out, report = run_ladder(
            app, inputs, None, backend="interp", policy=FAST
        )
        np.testing.assert_array_equal(np.asarray(out), golden)
        assert report.depth == 0 and report.primary_ok
        assert not report.faults

    def _walk_under_a_sharding_scope(self, app, inputs, **keywords):
        """(output, launch backends, launches that sharded) of one walk."""
        events = []
        before = SHARD_STATS.sharded_launches
        with options(
            backend="codegen", parallel=2, min_shard_threads=1, guard=FAST
        ), launch_hook(events.append):
            out, report = run_ladder(app, inputs, None, **keywords)
        assert report.served == "exact" and report.primary_ok
        backends = {e.backend for e in events}
        return np.asarray(out), backends, SHARD_STATS.sharded_launches - before

    def test_first_rung_is_the_calling_scope(self, app, setup):
        inputs, golden = setup
        out, backends, sharded = self._walk_under_a_sharding_scope(app, inputs)
        np.testing.assert_array_equal(out, golden)
        assert backends == {"codegen"} and sharded > 0
        assert STATS.guarded_launches == 1  # the scope's guard, too

    def test_explicit_keywords_override_the_scope(self, app, setup):
        inputs, golden = setup
        out, backends, sharded = self._walk_under_a_sharding_scope(
            app, inputs, backend="interp", workers=1,
            policy=GuardPolicy(enabled=False),
        )
        np.testing.assert_array_equal(out, golden)
        assert backends == {"interp"} and sharded == 0
        assert STATS.guarded_launches == 0

    def test_corrupted_primary_falls_back_to_exact(self, app, setup):
        inputs, golden = setup
        plan = FaultPlan([FaultSpec(SITE_OUTPUT, mode="nan", max_fires=1)])
        with use_faults(plan):
            out, report = run_ladder(
                app, inputs, None, backend="codegen", policy=FAST
            )
        np.testing.assert_array_equal(np.asarray(out), golden)
        assert report.depth > 0
        assert any(a.site == "output.validate" for a in report.faults)
        assert STATS.validation_trips == 1

    def test_final_rung_exceptions_propagate(self, app, setup):
        inputs, _golden = setup

        class Broken:
            name = "broken"

            def run_exact(self, _inputs):
                raise RuntimeError("the bedrock itself is broken")

            def run_variant(self, _variant, _inputs):
                raise RuntimeError("variant broken too")

        with pytest.raises(RuntimeError, match="bedrock"):
            run_ladder(Broken(), inputs, None, backend="interp", policy=FAST)
        # Non-final rungs were contained before the final one propagated.
        assert STATS.containments >= 1
