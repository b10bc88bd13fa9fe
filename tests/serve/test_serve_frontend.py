"""Multi-tenant front-end: arrival-order dispatch, admission, backpressure.

The dispatcher is a real thread, so the deterministic tests park it on a
gated request first — everything enqueued behind the gate then runs in
arrival order with no timing dependence (the dispatcher pops the queue
head, never anything else).
"""

import pathlib
import re
import threading
import time

import numpy as np
import pytest

import kernel_zoo as zoo
from repro import LaunchOptions
from repro.engine import Grid
from repro.errors import AdmissionError, BackpressureError, ServeError
from repro.obs.export import render_prometheus
from repro.obs.registry import get_registry
from repro.parallel import shutdown_process_pool
from repro.serve import ServeFrontend, Tenant

N = 1 << 12


def _square_args(n=N, seed=0):
    rng = np.random.default_rng(seed)
    return [np.zeros(n, np.float32), rng.random(n, dtype=np.float32), n]


def _gated_frontend(**kwargs):
    """A frontend whose dispatcher is parked on a blocker request.

    Returns once the blocker has started running, so everything the
    caller enqueues next waits behind it.
    """
    frontend = ServeFrontend(**kwargs)
    gate = threading.Event()
    started = threading.Event()

    def block():
        started.set()
        return gate.wait(10)

    blocker = frontend._enqueue("default", block)
    assert started.wait(5), "dispatcher never took the blocker"
    return frontend, gate, blocker


class TestDispatchOrder:
    def test_dispatch_follows_arrival_order_across_kernels(self):
        """A later launch of kernel ``a`` never runs ahead of an earlier
        launch of kernel ``b``: the dispatcher groups nothing by key."""
        frontend, gate, blocker = _gated_frontend()
        try:
            order = []
            grid = Grid.for_elements(64)
            futures = []
            for tag, kernel in (
                ("a1", zoo.square_map), ("b1", zoo.clamp_map),
                ("a2", zoo.square_map),
            ):
                future = frontend.submit(kernel, grid, _square_args(64))
                future.add_done_callback(lambda _f, t=tag: order.append(t))
                futures.append(future)
            gate.set()
            for future in futures:
                future.result(timeout=30)
            assert order == ["a1", "b1", "a2"]
        finally:
            gate.set()
            frontend.close()

    def test_interleaved_tenants_keep_fifo_order(self):
        frontend, gate, blocker = _gated_frontend()
        try:
            frontend.register_tenant("alpha")
            frontend.register_tenant("beta")
            order = []
            futures = []
            for i, tenant in enumerate(["alpha", "beta"] * 3):
                tag = f"{tenant}:{i}"
                futures.append(
                    frontend._enqueue(
                        tenant, lambda t=tag: order.append(t) or t
                    )
                )
            gate.set()
            for future in futures:
                future.result(timeout=10)
            assert order == [f"{t}:{i}" for i, t in
                             enumerate(["alpha", "beta"] * 3)]
        finally:
            gate.set()
            frontend.close()

    def test_removed_batching_surface_raises(self):
        with pytest.raises(TypeError):
            ServeFrontend(max_batch=8)
        with pytest.raises(ServeError, match="batching was removed"):
            ServeFrontend(batch_window_s=0.002)
        with ServeFrontend(batch_window_s=0.0) as frontend:
            assert frontend.batch_window_s == 0.0

    def test_removed_slo_surface_raises(self):
        from repro.obs.http import ObsHTTPServer

        with pytest.raises(TypeError, match="slo"):
            ServeFrontend(slo=())
        with pytest.raises(TypeError, match="slo"):
            ObsHTTPServer(port=0, slo=None)


class TestAdmission:
    def test_unknown_tenant_rejected(self):
        with ServeFrontend() as frontend:
            with pytest.raises(AdmissionError, match="unknown tenant"):
                frontend.submit(
                    zoo.square_map,
                    Grid.for_elements(64),
                    _square_args(64),
                    tenant="ghost",
                )

    def test_toq_floor_rejects_weak_session(self):
        class _Stub:
            toq = 0.85

        with ServeFrontend() as frontend:
            frontend.register_tenant("strict", toq_floor=0.95)
            with pytest.raises(AdmissionError, match="target quality"):
                frontend.submit_app(_Stub(), inputs=None, tenant="strict")

    def test_tenant_budget_backpressure(self):
        frontend, gate, blocker = _gated_frontend()
        try:
            frontend.register_tenant("small", max_queue_depth=1)
            frontend._enqueue("small", lambda: 1)
            with pytest.raises(BackpressureError, match="small"):
                frontend._enqueue("small", lambda: 2)
            # other tenants are unaffected by 'small' being at budget
            frontend._enqueue("default", lambda: 3)
        finally:
            gate.set()
            frontend.close()

    def test_global_queue_backpressure(self):
        frontend, gate, blocker = _gated_frontend(max_queue_depth=2)
        try:
            frontend._enqueue("default", lambda: 1)
            frontend._enqueue("default", lambda: 2)
            with pytest.raises(BackpressureError, match="queue is full"):
                frontend._enqueue("default", lambda: 3)
        finally:
            gate.set()
            frontend.close()

    def test_rejects_are_counted_by_reason(self):
        with ServeFrontend() as frontend:
            rejects = frontend.metrics._rejects.labels(reason="unknown_tenant")
            before = rejects.value
            with pytest.raises(AdmissionError):
                frontend.submit(
                    zoo.square_map,
                    Grid.for_elements(64),
                    _square_args(64),
                    tenant="ghost",
                )
            assert rejects.value == before + 1

    def test_tenant_validation(self):
        with pytest.raises(ServeError):
            Tenant("t", max_queue_depth=0)
        with pytest.raises(ServeError):
            Tenant("t", toq_floor=1.5)


class TestLifecycle:
    def test_closed_frontend_rejects_submissions(self):
        frontend = ServeFrontend()
        frontend.close()
        with pytest.raises(ServeError, match="closed"):
            frontend._enqueue("default", lambda: 1)

    def test_close_drains_inflight_work(self):
        frontend = ServeFrontend()
        futures = [
            frontend._enqueue("default", lambda i=i: i)
            for i in range(3)
        ]
        frontend.close()
        assert [f.result(timeout=1) for f in futures] == [0, 1, 2]
        assert frontend.outstanding() == 0

    def test_request_exception_lands_in_future(self):
        def boom():
            raise ValueError("kernel went sideways")

        with ServeFrontend() as frontend:
            future = frontend._enqueue("default", boom)
            with pytest.raises(ValueError, match="sideways"):
                future.result(timeout=10)
            assert frontend.outstanding() == 0


class TestEndToEnd:
    def test_kernel_launch_is_bit_exact_under_process_executor(self):
        shutdown_process_pool()
        serial = _square_args(seed=3)
        from repro.engine import launch

        launch(
            zoo.square_map,
            Grid.for_elements(N),
            serial,
            options=LaunchOptions(backend="codegen"),
        )
        options = LaunchOptions(
            backend="codegen", parallel=2, executor="process",
            min_shard_threads=1,
        )
        try:
            with ServeFrontend(options=options) as frontend:
                args = _square_args(seed=3)
                trace = frontend.launch(
                    zoo.square_map, Grid.for_elements(N), args
                )
                assert trace is not None
                assert np.array_equal(args[0], serial[0])
        finally:
            shutdown_process_pool()

    def test_session_launches_serialize_on_the_dispatcher(self):
        from repro import ApproxSession
        from repro.apps.gaussian import GaussianFilterApp

        app = GaussianFilterApp(scale=0.05)
        session = ApproxSession(app, target_quality=0.9)
        with session, ServeFrontend() as frontend:
            first = frontend.submit_app(session, app.generate_inputs(seed=3))
            second = frontend.submit_app(session, app.generate_inputs(seed=4))
            assert first.result(timeout=60) is not None
            assert second.result(timeout=60) is not None
            assert session.metrics_snapshot()["launches"] == 2


class TestCloseDrain:
    def test_close_waits_for_a_slow_batch_then_drains_the_queue(self):
        """Regression: a queued request behind a slow in-flight request must
        be dispatched during close(), not failed, while the timeout has
        not expired."""
        frontend = ServeFrontend()
        release = threading.Event()

        def slow():
            release.wait(5)
            return "slow"

        slow_future = frontend._enqueue("default", slow)
        time.sleep(0.05)  # dispatcher picks the slow request up
        queued = frontend._enqueue("default", lambda: "queued")
        closer = threading.Thread(target=frontend.close, kwargs={"timeout": 10})
        closer.start()
        time.sleep(0.05)
        release.set()
        closer.join(timeout=10)
        assert not closer.is_alive()
        assert slow_future.result(timeout=1) == "slow"
        assert queued.result(timeout=1) == "queued", (
            "close() must drain through dispatch, not fail pending futures"
        )
        assert frontend.outstanding() == 0

    def test_close_timeout_fails_only_undispatched_leftovers(self):
        frontend = ServeFrontend()
        release = threading.Event()

        def hung():
            release.wait(30)
            return "eventually"

        hung_future = frontend._enqueue("default", hung)
        time.sleep(0.05)  # dispatcher is now stuck inside the request
        leftover = frontend._enqueue("default", lambda: 1)
        frontend.close(timeout=0.2)
        with pytest.raises(ServeError, match="closed before dispatch"):
            leftover.result(timeout=1)
        # Unblock the hung request: its future must still resolve cleanly
        # (close never touches dispatched requests).
        release.set()
        assert hung_future.result(timeout=10) == "eventually"

    def test_close_from_dispatcher_thread_does_not_deadlock(self):
        frontend = ServeFrontend()
        seen = []

        def closing_request():
            frontend.close(timeout=1)
            seen.append("ran")
            return "done"

        first = frontend._enqueue("default", closing_request)
        second = frontend._enqueue("default", lambda: "after")
        assert first.result(timeout=10) == "done"
        # The dispatch loop itself drains what was already admitted.
        assert second.result(timeout=10) == "after"
        frontend.close()
        assert seen == ["ran"]


class TestConcurrency:
    TENANTS = 8

    def test_concurrent_submits_racing_close_all_resolve(self):
        """8 submitter threads race close(): every accepted Future must
        resolve (result or ServeError), nothing hangs, bookkeeping
        returns to zero."""
        frontend = ServeFrontend(max_queue_depth=512)
        start = threading.Barrier(self.TENANTS + 1)
        futures = []
        futures_lock = threading.Lock()
        rejected = []

        def submitter(worker):
            start.wait(5)
            for i in range(40):
                try:
                    future = frontend._enqueue("default", lambda i=i: i)
                except ServeError:
                    rejected.append(worker)  # closed under us: fine
                    return
                with futures_lock:
                    futures.append(future)

        threads = [
            threading.Thread(target=submitter, args=(w,))
            for w in range(self.TENANTS)
        ]
        for thread in threads:
            thread.start()
        start.wait(5)
        time.sleep(0.01)  # let submissions interleave with dispatch
        frontend.close(timeout=10)
        for thread in threads:
            thread.join(timeout=10)
            assert not thread.is_alive()
        resolved = 0
        for future in futures:
            try:
                future.result(timeout=10)
                resolved += 1
            except ServeError:
                pass  # failed leftover: still resolved, never hung
        assert resolved > 0, "some requests must have been served"
        assert frontend.queue_depth() == 0
        assert frontend.outstanding() == 0

    def test_backpressure_and_admission_errors_under_contention(self):
        """8 threads hammer a tiny queue: every rejection is a typed
        error, every accepted request resolves, and the queue empties."""
        frontend, gate, blocker = _gated_frontend(max_queue_depth=4)
        frontend.register_tenant("narrow", max_queue_depth=2)
        outcomes = {"served": 0, "backpressure": 0, "admission": 0}
        lock = threading.Lock()
        start = threading.Barrier(self.TENANTS)

        def worker(idx):
            start.wait(5)
            tenant = ["default", "narrow", "ghost"][idx % 3]
            for i in range(20):
                try:
                    future = frontend._enqueue(tenant, lambda: 1)
                except BackpressureError:
                    with lock:
                        outcomes["backpressure"] += 1
                    time.sleep(0.001)
                    continue
                except AdmissionError:
                    with lock:
                        outcomes["admission"] += 1
                    continue
                gate.set()  # open the gate so the queue keeps draining
                future.result(timeout=10)
                with lock:
                    outcomes["served"] += 1

        threads = [
            threading.Thread(target=worker, args=(w,))
            for w in range(self.TENANTS)
        ]
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=30)
                assert not thread.is_alive()
        finally:
            gate.set()
            frontend.close()
        assert outcomes["admission"] > 0, "unknown tenant must be refused"
        assert outcomes["backpressure"] > 0, "tiny queue must push back"
        assert outcomes["served"] > 0
        assert frontend.queue_depth() == 0
        assert frontend.outstanding() == 0
        assert frontend.outstanding("narrow") == 0


class TestFamilyTable:
    """docs/OBSERVABILITY.md has one row for each front-end and brownout
    family the registry holds, and no row for any other."""

    @pytest.mark.parametrize("prefix", ["repro_frontend_", "repro_brownout_"])
    def test_doc_rows_match_registered_families(self, prefix):
        with ServeFrontend(overload=True):
            registered = {
                metric.name for metric in get_registry().collect()
                if metric.name.startswith(prefix)
            }
        doc = pathlib.Path(__file__).resolve().parents[2] / "docs" / "OBSERVABILITY.md"
        documented = set()
        for line in doc.read_text(encoding="utf-8").splitlines():
            if line.startswith(f"| `{prefix}"):
                documented.update(
                    re.findall(r"`(repro_[a-z_]+)`", line.split("|")[1])
                )
        assert documented == registered

    def test_only_the_request_counter_is_per_tenant(self):
        """Tenant traffic with a deadline miss registers no per-tenant
        wait or miss series: misses are counted per front-end."""
        with ServeFrontend(overload=True) as frontend:
            frontend.register_tenant("a", priority=1)
            gate = threading.Event()
            blocker = frontend._enqueue("a", lambda: gate.wait(5))
            late = frontend._enqueue("a", lambda: None, deadline_s=0.001)
            time.sleep(0.02)
            gate.set()
            blocker.result(timeout=10)
            late.result(timeout=10)
            assert frontend.deadline_misses() >= 1
        tenant_labelled = {
            metric.name for metric in get_registry().collect()
            if metric.name.startswith("repro_frontend_")
            and "tenant" in metric.labelnames
        }
        assert tenant_labelled == {"repro_frontend_requests_total"}


class TestIdleTicks:
    """Only an overload controller wakes the dispatch loop while the
    queue is empty; without one the dispatcher stays parked."""

    @pytest.fixture
    def idle_returns(self, monkeypatch):
        counts = {}
        take = ServeFrontend._take_request

        def counting(frontend):
            request = take(frontend)
            if request is None and not frontend._closed:
                counts[frontend.label] = counts.get(frontend.label, 0) + 1
            return request

        monkeypatch.setattr(ServeFrontend, "_take_request", counting)
        return counts

    def test_no_idle_tick_without_overload(self, idle_returns):
        with ServeFrontend() as frontend:
            time.sleep(0.35)
            assert idle_returns.get(frontend.label, 0) == 0

    def test_overload_gets_idle_ticks(self, idle_returns):
        with ServeFrontend(overload=True) as frontend:
            deadline = time.monotonic() + 10
            while (
                idle_returns.get(frontend.label, 0) < 2
                and time.monotonic() < deadline
            ):
                time.sleep(0.05)
            assert idle_returns.get(frontend.label, 0) >= 2
