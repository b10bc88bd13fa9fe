"""Multi-tenant serving front-end: one queue, dispatched in arrival order.

:class:`ServeFrontend` sits in front of the launch machinery (and of
:class:`~repro.serve.ApproxSession` instances) and turns many concurrent
callers into one disciplined execution stream:

* **Admission** — every request names a *tenant*.  Tenants are
  registered with a queue-depth budget (how many of their requests may
  be outstanding at once) and an optional *TOQ floor* (sessions serving
  below that target quality are refused — a tenant paying for 0.95
  quality must not be routed through a 0.80 session).  Violations raise
  :class:`~repro.errors.BackpressureError` /
  :class:`~repro.errors.AdmissionError` at ``submit`` time, in the
  caller's thread, so backpressure propagates to the producer instead
  of growing an unbounded queue.
* **Dispatch** — one dispatcher thread takes the queue head, runs it
  and resolves its Future, then takes the next: requests run one at a
  time in global arrival order, across tenants and keys alike, and
  nothing waits for company.  They run under the front-end's default
  :class:`~repro.LaunchOptions` — typically ``executor="process"`` so
  shards land on the :mod:`repro.parallel.procpool` workers and the
  front-end thread stays responsive.  Results land in
  :class:`concurrent.futures.Future` objects returned by ``submit``.

``python -m repro.conformance`` holds the front-end to the ``exact``
contract: every benchmark app's exact pipeline submitted through the
queue is byte-compared against the interpreter.
"""

from __future__ import annotations

import itertools
import threading
import time
from collections import deque
from concurrent.futures import Future
from dataclasses import dataclass, field
from typing import Deque, Dict, List, Optional

from .._options import LaunchOptions, options as options_scope
from ..errors import AdmissionError, BackpressureError, ServeError
from ..obs.registry import get_registry
from .overload import (
    OverloadConfig,
    OverloadController,
    PressureSample,
    degraded_variant,
)

#: Default per-tenant outstanding-request budget.
DEFAULT_TENANT_DEPTH = 64

#: Default global queue bound.
DEFAULT_QUEUE_DEPTH = 256


@dataclass(frozen=True)
class Tenant:
    """One registered traffic source and its admission budgets.

    Attributes:
        name: tenant id, stamped on spans and metrics labels.
        max_queue_depth: outstanding requests this tenant may hold.
        toq_floor: minimum session target quality this tenant accepts;
            0.0 admits everything (plain kernel launches are exact and
            always admitted).  Under brownout it is also the quality
            floor degradation must respect for this tenant.
        priority: shed ordering under overload — when the front-end's
            overload controller reaches SHED, only tenants at the lowest
            priority among the requester and the senders of the last
            ``OverloadConfig.window`` requests (refused ones included)
            are rejected, so a tenant that stops sending ages out of the
            floor.  The highest registered priority is never shed:
            shedding exists to protect it, and with nothing above it
            the queue bound alone turns away the excess.
        degradable: whether brownout may serve this tenant's session
            launches from a lower (faster) rung of the approximation
            ladder; False pins the tenant to each session's own choice.
    """

    name: str
    max_queue_depth: int = DEFAULT_TENANT_DEPTH
    toq_floor: float = 0.0
    priority: int = 0
    degradable: bool = True

    def __post_init__(self) -> None:
        if self.max_queue_depth < 1:
            raise ServeError(
                f"tenant {self.name!r}: max_queue_depth must be >= 1, "
                f"got {self.max_queue_depth}"
            )
        if not 0.0 <= self.toq_floor <= 1.0:
            raise ServeError(
                f"tenant {self.name!r}: toq_floor must be in [0, 1], "
                f"got {self.toq_floor}"
            )


@dataclass
class _Request:
    """One queued launch and everything needed to run and resolve it."""

    tenant: str
    run: object  # callable producing the result; session runs accept
    # a ``variant=`` override from the brownout controller
    future: Future = field(default_factory=Future)
    enqueued: float = 0.0
    session: object = None  # the ApproxSession for submit_app requests
    deadline_s: Optional[float] = None  # queue-wait budget (miss signal)


class _FrontendMetrics:
    """Registry-backed counters for one front-end instance.

    Families are shared across instances (the registry deduplicates by
    name); per-tenant series are labelled.
    """

    def __init__(self) -> None:
        registry = get_registry()
        self._requests = registry.counter(
            "repro_frontend_requests_total",
            "requests admitted to the front-end queue",
            labelnames=("tenant",),
        )
        self._admitted: Dict[str, object] = {}  # tenant -> its series, held
        self._rejects = registry.counter(
            "repro_frontend_rejects_total",
            "requests refused at admission",
            labelnames=("reason",),
        )
        self.batches = registry.counter(
            "repro_frontend_batches_total",
            "requests dispatched (kept while bench/layers.py reads it, "
            "ROADMAP 4(d))",
        )
        self.batched = registry.counter(
            "repro_frontend_batched_requests_total",
            "requests dispatched (kept while bench/layers.py reads it, "
            "ROADMAP 4(d))",
        )
        self.queue_depth = registry.gauge(
            "repro_frontend_queue_depth", "requests waiting in the queue"
        )
        self.wait_seconds = registry.histogram(
            "repro_frontend_wait_seconds",
            "queue wait from admission to execution start",
        )
        self._deadline_misses = registry.counter(
            "repro_frontend_deadline_misses_total",
            "requests whose queue wait exceeded their deadline",
            labelnames=("frontend",),
        )

    def admitted(self, tenant: str) -> None:
        child = self._admitted.get(tenant)
        if child is None:
            child = self._admitted[tenant] = self._requests.labels(tenant=tenant)
        child.inc()

    def rejected(self, reason: str) -> None:
        self._rejects.labels(reason=reason).inc()

    def deadline_missed(self, frontend: str) -> None:
        self._deadline_misses.labels(frontend=frontend).inc()


class ServeFrontend:
    """The multi-tenant front-end over the launch machinery.

    Args:
        options: default :class:`~repro.LaunchOptions` every request
            executes under (its own per-request options merge on top).
            The typical serving configuration is
            ``LaunchOptions(backend="codegen", parallel=W,
            executor="process")``.
        batch_window_s: accepted only as ``0.0``; any other value raises
            :class:`~repro.errors.ServeError`, since request batching was
            removed.
        max_queue_depth: global bound on queued requests.
        registry: cross-session variant registry shared by every session
            served through this front-end (a
            :class:`~repro.registry.VariantRegistry`, a path, ``"auto"``
            or None).  Sessions submitted without their own registry
            adopt it at :meth:`submit_app` time, before first tune.
        overload: brownout overload control — an
            :class:`~repro.serve.overload.OverloadConfig` (a controller
            is built from it), a ready
            :class:`~repro.serve.overload.OverloadController`, or None
            (the default: overload stays a binary admit/reject and the
            dispatch fast path is untouched).
        serve_http: the embedded ops endpoint — ``True`` (ephemeral
            loopback port), a port number, ``"host:port"``, or None (the
            default: also honours ``REPRO_OBS_HTTP`` from the
            environment).  The started
            :class:`~repro.obs.http.ObsHTTPServer` is available as
            ``self.http`` and serves this front-end's readiness; it
            stops with :meth:`close`.
    """

    _ids = itertools.count()

    #: Always 0.0: the dispatcher never waits for more requests.  Kept
    #: while bench/serving.py reads it (ROADMAP 4(d)).
    batch_window_s = 0.0

    def __init__(
        self,
        options: Optional[LaunchOptions] = None,
        batch_window_s: float = 0.0,
        max_queue_depth: int = DEFAULT_QUEUE_DEPTH,
        registry: Optional[object] = None,
        overload: Optional[object] = None,
        serve_http: Optional[object] = None,
    ) -> None:
        from ..registry import resolve_registry
        from .signals import track_frontend
        if batch_window_s != 0.0:
            raise ServeError(
                "request batching was removed: the dispatcher serves in "
                f"arrival order, so batch_window_s must be 0.0, got "
                f"{batch_window_s}"
            )
        if max_queue_depth < 1:
            raise ServeError(
                f"max_queue_depth must be >= 1, got {max_queue_depth}"
            )
        self.options = options if options is not None else LaunchOptions()
        self.registry = resolve_registry(registry)
        self.max_queue_depth = max_queue_depth
        self.metrics = _FrontendMetrics()
        self.label = f"f{next(self._ids)}"
        if overload is None:
            self.overload: Optional[OverloadController] = None
        elif isinstance(overload, OverloadController):
            self.overload = overload
        else:
            self.overload = OverloadController(
                OverloadConfig() if overload is True else overload,
                label=self.label,
            )
        self._miss_window: Deque[float] = deque(
            maxlen=self.overload.config.window if self.overload else 1
        )
        self._deadline_miss_count = 0
        self.http = self._start_http(serve_http)
        self._tenants: Dict[str, Tenant] = {}
        self._outstanding: Dict[str, int] = {}
        # Senders of the last ``window`` admission attempts: the SHED
        # floor is the lowest priority among them.
        self._recent_senders: Deque[str] = deque(
            maxlen=self.overload.config.window if self.overload else 1
        )
        # When the controller last escalated (perf_counter): a request
        # queued before it is not sampled.
        self._escalated_at = float("-inf")
        self._queue: Deque[_Request] = deque()
        self._lock = threading.Lock()
        self._wake = threading.Condition(self._lock)
        self._closed = False
        self._dispatcher = threading.Thread(
            target=self._dispatch_loop, name="repro-frontend", daemon=True
        )
        self._dispatcher.start()
        self.register_tenant("default")
        track_frontend(self)

    def _start_http(self, serve_http):
        """Start the embedded ops endpoint when asked to (argument or
        ``REPRO_OBS_HTTP``); None otherwise."""
        import os

        from ..obs.http import ObsHTTPServer, parse_http_spec

        spec = parse_http_spec(
            serve_http
            if serve_http is not None
            else os.environ.get("REPRO_OBS_HTTP")
        )
        if spec is None:
            return None
        host, port = spec
        return ObsHTTPServer(port=port, host=host, frontend=self).start()

    # -- tenants ---------------------------------------------------------------

    def register_tenant(
        self,
        name: str,
        max_queue_depth: int = DEFAULT_TENANT_DEPTH,
        toq_floor: float = 0.0,
        priority: int = 0,
        degradable: bool = True,
    ) -> Tenant:
        """Register (or re-register with new budgets) a tenant."""
        tenant = Tenant(name, max_queue_depth, toq_floor, priority, degradable)
        with self._lock:
            self._tenants[name] = tenant
            self._outstanding.setdefault(name, 0)
        return tenant

    def tenants(self) -> List[Tenant]:
        with self._lock:
            return list(self._tenants.values())

    # -- admission -------------------------------------------------------------

    def _admit(self, tenant_name: str, toq: Optional[float]) -> Tenant:
        """Check every admission rule; returns the tenant record.

        Called under ``self._lock``.
        """
        tenant = self._tenants.get(tenant_name)
        if tenant is None:
            self.metrics.rejected("unknown_tenant")
            raise AdmissionError(
                f"unknown tenant {tenant_name!r}; register_tenant() first"
            )
        controller = self.overload
        if controller is not None:
            self._recent_senders.append(tenant_name)
        if toq is not None and toq < tenant.toq_floor:
            self.metrics.rejected("toq_floor")
            raise AdmissionError(
                f"tenant {tenant_name!r} requires target quality >= "
                f"{tenant.toq_floor}, session serves {toq}"
            )
        if controller is not None and controller.is_shedding:
            # SHED is the ladder's last rung: degradation is exhausted,
            # so reject — but only the lowest-priority tenants among the
            # recent senders, never the highest registered priority (the
            # traffic shedding protects; the queue bound still caps it),
            # and only while the controller stays in SHED.
            lowest = min(
                self._tenants[name].priority for name in self._recent_senders
            )
            top = max(other.priority for other in self._tenants.values())
            if tenant.priority <= lowest and tenant.priority < top:
                self.metrics.rejected("shed")
                controller.record_shed(tenant_name)
                raise BackpressureError(
                    f"tenant {tenant_name!r} shed: front-end is in "
                    f"{controller.state_name()} (priority {tenant.priority})"
                )
        if len(self._queue) >= self.max_queue_depth:
            self.metrics.rejected("queue_full")
            raise BackpressureError(
                f"front-end queue is full ({self.max_queue_depth} requests)"
            )
        if self._outstanding[tenant_name] >= tenant.max_queue_depth:
            self.metrics.rejected("tenant_full")
            raise BackpressureError(
                f"tenant {tenant_name!r} has {self._outstanding[tenant_name]} "
                f"requests outstanding (budget {tenant.max_queue_depth})"
            )
        return tenant

    def _enqueue(
        self, tenant: str, run, toq=None, session=None, deadline_s=None
    ) -> Future:
        with self._lock:
            if self._closed:
                raise ServeError("front-end is closed")
            self._admit(tenant, toq)
            request = _Request(
                tenant=tenant,
                run=run,
                enqueued=time.perf_counter(),
                session=session,
                deadline_s=deadline_s,
            )
            self._queue.append(request)
            self._outstanding[tenant] += 1
            self.metrics.admitted(tenant)
            self.metrics.queue_depth.set(len(self._queue))
            self._wake.notify()
        return request.future

    # -- submission ------------------------------------------------------------

    def submit(
        self,
        kernel,
        grid,
        args,
        tenant: str = "default",
        options: Optional[LaunchOptions] = None,
        bounds_check: bool = True,
        deadline_s: Optional[float] = None,
    ) -> Future:
        """Queue one kernel launch; returns a Future resolving to its Trace.

        Array arguments are written in place, exactly as by
        :func:`repro.launch`; the Future resolves after those writes are
        visible.
        """
        from ..engine.interpreter import launch as _launch

        opts = (
            options.merged_over(self.options)
            if options is not None
            else self.options
        )

        def run():
            return _launch(
                kernel, grid, args, bounds_check=bounds_check, options=opts
            )

        return self._enqueue(tenant, run, deadline_s=deadline_s)

    def submit_app(
        self,
        session,
        inputs,
        tenant: str = "default",
        deadline_s: Optional[float] = None,
    ) -> Future:
        """Queue one :meth:`ApproxSession.launch`; Future resolves to its
        output.

        Requests run one at a time in arrival order on the dispatcher
        thread (sessions are not thread-safe; the front-end is their
        serialization point).  The tenant's TOQ floor is checked against
        the session's target.

        Sessions without a registry of their own adopt the front-end's,
        so a whole fleet of tenants shares one store of tuning knowledge.

        Under an overload controller in brownout, a degradable tenant's
        launch may be served from a lower rung of the session's tuned
        ladder — never one calibrated below the tenant's ``toq_floor``.
        ``deadline_s`` is this request's queue-wait budget for the
        controller's deadline-miss signal (not an execution timeout).
        """
        if self.registry is not None and hasattr(session, "attach_registry"):
            session.attach_registry(self.registry)

        def run(variant=None):
            with options_scope(self.options):
                if variant is None:
                    return session.launch(inputs)
                return session.launch(inputs, variant=variant)

        return self._enqueue(
            tenant, run, toq=session.toq, session=session,
            deadline_s=deadline_s,
        )

    def launch(self, kernel, grid, args, **kwargs):
        """Synchronous :meth:`submit`: block until the launch ran."""
        return self.submit(kernel, grid, args, **kwargs).result()

    # -- dispatch --------------------------------------------------------------

    def _take_request(self) -> Optional[_Request]:
        """Pop the queue head (called on the dispatcher thread); None on
        an idle tick or once the queue is closed and drained."""
        with self._wake:
            while not self._queue and not self._closed:
                self._wake.wait(timeout=0.1)
                if self.overload is not None:
                    # Surface each idle tick to the dispatch loop so the
                    # controller keeps observing (and recovering) while
                    # no traffic arrives.
                    break
            if not self._queue:
                return None
            request = self._queue.popleft()
            self.metrics.queue_depth.set(len(self._queue))
            return request

    def _dispatch_loop(self) -> None:
        while True:
            request = self._take_request()
            if request is None:
                if self._closed and not self._queue:
                    return
                if self.overload is not None:
                    self._observe_pressure(None, time.perf_counter())
                continue
            self._serve_request(request)

    def _observe_pressure(self, request: Optional[_Request], now: float) -> int:
        """Feed one dispatched request's (or one idle tick's) pressure
        sample to the controller; returns the level to serve at.

        The queue-delay component is the request's wait plus any
        synthetic delay the ``serve.overload`` fault seam injects (the
        chaos drill's load ramp — a signal, never a real sleep).

        A request queued before the controller's last escalation is
        served at the current level but not sampled: its wait was spent
        partly under the old level, so it cannot show whether the new
        one keeps up.  Escalation therefore moves at most one level per
        queue turnover, and a burst of backlogged requests cannot walk
        the controller to SHED while a lower level keeps up.
        """
        from ..resilience.faults import SITE_OVERLOAD, active_plan

        controller = self.overload
        if request is not None:
            deadline = (
                request.deadline_s
                if request.deadline_s is not None
                else controller.config.deadline_s
            )
            missed = (now - request.enqueued) > deadline
            self._miss_window.append(1.0 if missed else 0.0)
            if missed:
                self._deadline_miss_count += 1
                self.metrics.deadline_missed(self.label)
            if request.enqueued < self._escalated_at:
                return controller.level
        delay = now - request.enqueued if request is not None else 0.0
        plan = active_plan()
        if plan is not None:
            spec = plan.poll(SITE_OVERLOAD, self.label)
            if spec is not None:
                delay += spec.hang_seconds
        miss_rate = (
            sum(self._miss_window) / len(self._miss_window)
            if self._miss_window
            else 0.0
        )
        with self._lock:
            depth = len(self._queue)
        before = controller.level
        level = controller.observe(
            PressureSample(
                queue_delay_s=delay,
                miss_rate=miss_rate,
                saturation=depth / float(self.max_queue_depth),
            )
        )
        if level > before:
            self._escalated_at = now
        return level

    def _degradation_for(self, request: _Request, level: int) -> Optional[str]:
        """The brownout variant override for one session request."""
        with self._lock:
            tenant = self._tenants.get(request.tenant)
        if tenant is None or not tenant.degradable:
            return None
        return degraded_variant(
            request.session, level, self.overload.config.levels,
            tenant.toq_floor,
        )

    def _serve_request(self, request: _Request) -> None:
        started = time.perf_counter()
        self.metrics.batches.inc()
        self.metrics.batched.inc()
        level = (
            self._observe_pressure(request, started)
            if self.overload is not None
            else 0
        )
        self.metrics.wait_seconds.observe(started - request.enqueued)
        if not request.future.set_running_or_notify_cancel():
            self._done(request)
            return
        override = (
            self._degradation_for(request, level)
            if level > 0 and request.session is not None
            else None
        )
        try:
            result = (
                request.run(variant=override)
                if override is not None
                else request.run()
            )
        except BaseException as exc:  # noqa: BLE001 - future carries it
            request.future.set_exception(exc)
        else:
            request.future.set_result(result)
        self._done(request)

    def _done(self, request: _Request) -> None:
        with self._lock:
            self._outstanding[request.tenant] -= 1

    # -- introspection / teardown ----------------------------------------------

    def queue_depth(self) -> int:
        with self._lock:
            return len(self._queue)

    def outstanding(self, tenant: str = "default") -> int:
        with self._lock:
            return self._outstanding.get(tenant, 0)

    def deadline_misses(self) -> int:
        """Requests whose queue wait exceeded their deadline (0 without
        an overload controller — the signal is only sampled then)."""
        return self._deadline_miss_count

    def close(self, timeout: float = 10.0) -> None:
        """Stop admitting, drain the queue *through dispatch*, stop the
        dispatcher.

        Every already-admitted request gets the chance to execute: the
        dispatcher keeps taking requests until the queue is empty, and
        ``close`` waits up to ``timeout`` for that drain.  Only requests
        still undispatched after the timeout (or after a dispatcher
        death) are failed with :class:`~repro.errors.ServeError` — never
        a request the dispatcher already picked up, whose Future the
        dispatcher itself resolves.  Safe to call from a Future callback
        on the dispatcher thread: admission stops immediately and the
        dispatch loop itself finishes draining the queue before exiting.
        """
        with self._lock:
            if self._closed:
                return
            self._closed = True
            self._wake.notify_all()
        if threading.current_thread() is self._dispatcher:
            return
        self._dispatcher.join(timeout=timeout)
        with self._lock:
            while self._queue:  # drain timed out; fail leftovers loudly
                request = self._queue.popleft()
                if not request.future.done():
                    request.future.set_exception(
                        ServeError("front-end closed before dispatch")
                    )
                self._outstanding[request.tenant] -= 1
            self.metrics.queue_depth.set(0)
        if self.http is not None:
            # Readiness already flipped to 503 when _closed was set;
            # the listener stays up through the drain (load balancers
            # keep getting a definitive answer) and goes away last.
            self.http.stop()

    def __enter__(self) -> "ServeFrontend":
        return self

    def __exit__(self, *_exc) -> None:
        self.close()
