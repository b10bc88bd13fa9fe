"""The five serving workloads: sessions behind one front-end, driven by a
closed loop (one caller waiting for each reply) or an open loop (Poisson
arrivals on a schedule, whatever the system does).

Execution is configured only through ``LaunchOptions`` / ``repro.options`` and
public constructors, so the deprecation round of ROADMAP item 3 cannot break
the yardstick.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np

import repro
from repro import ApproxSession, LaunchOptions, MonitorConfig, ServeFrontend
from repro.apps.registry import make_app

from . import spec
from .speed import SpeedGauge
from .stats import SpanRecorder, geomean, median, percentile

clock = time.perf_counter


@dataclass
class Stack:
    """What one serving workload keeps alive between set-up and teardown."""

    workload: spec.Workload
    frontend: ServeFrontend
    apps: Dict[str, object]
    sessions: Dict[str, ApproxSession]
    pools: Dict[str, List[dict]]
    shapes: Dict[str, tuple] = field(default_factory=dict)
    #: verification and request failures, as one line each
    failures: List[str] = field(default_factory=list)
    attempted: int = 0

    def variant(self, name: str):
        """The variant object the session serves now (None = exact program)."""
        session = self.sessions[name]
        current = session.current_variant
        for profile in session.tuning.profiles:
            if profile.name == current:
                return profile.variant
        return None

    def served_names(self) -> Dict[str, str]:
        return {n: s.current_variant for n, s in self.sessions.items()}

    def close(self) -> None:
        self.frontend.close()
        if self.workload.executor == "process":
            from repro.parallel.procpool import shutdown_process_pool

            shutdown_process_pool()


def session_options(workload: spec.Workload) -> LaunchOptions:
    return LaunchOptions(
        backend="codegen", parallel=workload.parallel, executor=workload.executor
    )


def output_ok(out, shape: Optional[tuple]) -> bool:
    return (
        isinstance(out, np.ndarray)
        and out.size > 0
        and (shape is None or out.shape == shape)
        and bool(np.isfinite(out).all())
    )


def make_pool(app, seed: int, size: int = spec.POOL_SIZE) -> List[dict]:
    """The app's input sets for one benchmark seed."""
    return [app.generate_inputs(seed=1000 * seed + i) for i in range(size)]


def build_stack(workload: spec.Workload, seed: int, pool_size: int = spec.POOL_SIZE) -> Stack:
    """Set-up: sessions compiled and tuned, pools generated, executor pools
    warm, and one checked response served by every session."""
    if workload.kind == "open":
        # Default 2 ms window.  Queue bounds are raised so that overload
        # shows as latency and a failed rate step, not as refusals.
        frontend = ServeFrontend(max_queue_depth=spec.OPEN_QUEUE_DEPTH)
    else:
        # A lone caller can never fill a batch: no window to wait out.
        frontend = ServeFrontend(batch_window_s=0.0)
    stack = Stack(workload, frontend, {}, {}, {})
    try:
        if workload.kind == "open":
            for tenant in spec.OPEN_TENANTS:
                frontend.register_tenant(tenant, max_queue_depth=spec.OPEN_QUEUE_DEPTH)
        for name in spec.SERVING_APPS:
            app = make_app(name, scale=workload.scales[name])
            stack.apps[name] = app
            stack.sessions[name] = ApproxSession(
                app,
                target_quality=spec.TARGET_QUALITY,
                options=session_options(workload),
                monitor=MonitorConfig(sample_every=spec.SAMPLE_EVERY),
            )
            stack.pools[name] = make_pool(app, seed, pool_size)
        for name, session in stack.sessions.items():
            out = frontend.submit_app(session, stack.pools[name][0]).result()
            stack.attempted += 1
            if not output_ok(out, None):
                stack.failures.append(f"{name}: first response is not finite")
            stack.shapes[name] = np.shape(out)
    except BaseException:
        stack.close()
        raise
    return stack


# ------------------------------------------------------------ verification


def verify(stack: Stack) -> float:
    """Check every app on every pool input, outside any timed region.

    (a) the exact program served under the workload's own options is
    bit-equal to the interpreter — the independent reference, never the
    compiler under test — on every ``spec.INTERP_EVERY``-th input, and is
    itself the reference on the inputs between; (b) the served variant
    through the front-end and the workload's executor is bit-equal to the
    same variant under serial codegen; (c) outputs are finite and of the
    reference's shape.  Returns the mean quality of the served variant, the
    ``quality_mean`` metric.
    """
    qualities = []
    frontend = stack.frontend
    for name, app in stack.apps.items():
        session = stack.sessions[name]
        variant = stack.variant(name)
        for i, inputs in enumerate(stack.pools[name]):
            where = f"{name}[{i}]"
            stack.attempted += 2
            with repro.options(frontend.options):
                reference = session.launch(inputs, variant="exact")
            if i % spec.INTERP_EVERY == 0:
                with repro.options(backend="interp"):
                    interpreted, _trace = app.run_exact(inputs)
                if not np.array_equal(interpreted, reference, equal_nan=True):
                    stack.failures.append(f"{where}: exact path differs from interpreter")
                reference = interpreted
            served = frontend.submit_app(session, inputs).result()
            with repro.options(backend="codegen"):
                if variant is None:
                    serial, _trace = app.run_exact(inputs)
                else:
                    serial, _trace = app.run_variant(variant, inputs)
            if not np.array_equal(served, serial, equal_nan=True):
                stack.failures.append(f"{where}: served variant differs from serial codegen")
            if not output_ok(served, np.shape(reference)):
                stack.failures.append(f"{where}: output not finite or wrong shape")
            # == app.evaluate(served, inputs): its golden output is the exact
            # program under the default backend, i.e. the interpreter's.
            qualities.append(float(app.quality(served, reference)))
    return sum(qualities) / len(qualities)


# -------------------------------------------------------------- closed loop


class Rotation:
    """Apps round-robin; each app's pool cycled in order."""

    def __init__(self, stack: Stack) -> None:
        self.stack = stack
        self.count = 0

    def next(self) -> Tuple[str, ApproxSession, dict]:
        apps = spec.SERVING_APPS
        name = apps[self.count % len(apps)]
        pool = self.stack.pools[name]
        inputs = pool[(self.count // len(apps)) % len(pool)]
        self.count += 1
        return name, self.stack.sessions[name], inputs


@dataclass
class Round:
    """``spec.ROUND`` consecutive requests of a closed loop: every session
    serves ``SAMPLE_EVERY`` launches, so each pays exactly one quality check
    and any two rounds are the same work."""

    #: per app, in the order served
    latencies: Dict[str, List[float]]
    work_s: float  # wall time less the benchmark's own checks and gauge
    sampled: int  # requests that paid a quality check
    #: (app, latency, sampled) per request, filled on traced rounds only
    tagged: List[Tuple[str, float, bool]] = field(default_factory=list)

    @property
    def requests(self) -> int:
        return sum(len(v) for v in self.latencies.values())


@dataclass
class Block:
    """Whole rounds served back to back for about ``block_s``, and the speed
    factor measured between their requests."""

    rounds: List[Round]
    factor: float

    @property
    def requests(self) -> int:
        return sum(r.requests for r in self.rounds)

    def throughput(self, factor: float) -> float:
        return self.requests / (sum(r.work_s for r in self.rounds) / factor)

    def app_p50(self, name: str) -> float:
        return median([t for r in self.rounds for t in r.latencies[name]])


def run_round(
    stack: Stack, rotation: Rotation, gauge: SpeedGauge,
    recorder: Optional[SpanRecorder] = None,
) -> Round:
    """Serve one round of requests back to back.

    With a ``recorder`` every request leaves a ``request`` span and its
    ``serve.frontend.submit`` child — the traced run.
    """
    frontend = stack.frontend
    rnd = Round({name: [] for name in spec.SERVING_APPS}, 0.0, 0)
    overhead = 0.0
    started = clock()
    for _ in range(spec.ROUND):
        name, session, inputs = rotation.next()
        stack.attempted += 1
        t0 = clock()
        try:
            future = frontend.submit_app(session, inputs)
            t1 = clock()
            out = future.result()
        except Exception as exc:  # a refused or failed request is a failure
            stack.failures.append(f"{name}: {type(exc).__name__}: {exc}")
            continue
        t2 = clock()
        rnd.latencies[name].append(t2 - t0)
        sampled = session.last_launch.sampled
        rnd.sampled += sampled
        if recorder is not None:
            parent = recorder.add("request", t0, t2, rotation.count)
            recorder.add("serve.frontend.submit", t0, t1, rotation.count, parent)
            rnd.tagged.append((name, t2 - t0, sampled))
        if not output_ok(out, stack.shapes[name]):
            stack.failures.append(f"{name}: timed response not finite or wrong shape")
        gauge.tick()
        overhead += clock() - t2
    rnd.work_s = clock() - started - overhead
    return rnd


def run_block(
    stack: Stack, rotation: Rotation, gauge: SpeedGauge, block_s: float,
    recorder: Optional[SpanRecorder] = None,
) -> Block:
    rounds = []
    deadline = clock() + block_s
    while not rounds or clock() < deadline:
        rounds.append(run_round(stack, rotation, gauge, recorder))
    return Block(rounds, gauge.factor())


def timed_phase(
    stack: Stack, rotation: Rotation, gauge: SpeedGauge, seconds: float, block_s: float,
    min_requests: int = 0,
) -> List[Block]:
    """Blocks for ``seconds`` — the last one is not started if it would end
    later than that — and on until ``min_requests`` are served, which on a
    machine running slow takes longer, but never for more than four times
    ``seconds``."""
    blocks: List[Block] = []
    started = clock()
    longest = 0.0
    while True:
        elapsed = clock() - started
        served = sum(b.requests for b in blocks)
        if blocks and elapsed + longest > seconds and (
            served >= min_requests or elapsed > 4 * seconds
        ):
            return blocks
        blocks.append(run_block(stack, rotation, gauge, block_s))
        longest = max(longest, clock() - started - elapsed)


def warm_up(stack: Stack, rotation: Rotation) -> None:
    """One more pass over every pool (verification was the first), so lazy
    set-up and caches are done."""
    for _ in range(sum(len(pool) for pool in stack.pools.values())):
        name, session, inputs = rotation.next()
        stack.frontend.submit_app(session, inputs).result()


def closed_metrics(blocks: List[Block], normalise: bool = True) -> Dict[str, float]:
    """Throughput and latency of a timed phase, at reference speed unless
    ``normalise`` is off.  Medians over blocks: what is left after dividing
    by the speed factor has no preferred direction."""

    def factor(block: Block) -> float:
        return block.factor if normalise else 1.0

    return {
        "throughput_rps": median([b.throughput(factor(b)) for b in blocks]),
        # Per app first: the four apps' latencies form separate clusters, and
        # the median of the pooled mixture sits in the gap between two of them.
        "latency_p50_ms": 1e3 * sum(
            median([b.app_p50(name) / factor(b) for b in blocks])
            for name in spec.SERVING_APPS
        ) / len(spec.SERVING_APPS),
        # Per app as well, over the whole phase.  An app's p99 lies among its
        # quality-sampled requests (1 in 40), so this prices the sample path of
        # all four apps.  The p99 of the pooled mixture lies among the sampled
        # requests of the second dearest app alone — a quarter of the samples,
        # three to five on the sharded workloads — and ten runs spread by twice
        # as much.
        "latency_p99_ms": 1e3 * sum(
            percentile(
                [t / factor(b) for b in blocks for r in b.rounds for t in r.latencies[name]],
                99,
            )
            for name in spec.SERVING_APPS
        ) / len(spec.SERVING_APPS),
    }


def speedup_ratio(session: ApproxSession, pool: List[dict], pairs: int) -> float:
    """Median time of the exact program over that of the served variant, from
    interleaved pairs of ``session.launch`` on the pool's inputs in turn."""
    exact, served = [], []
    for k in range(pairs):
        inputs = pool[k % len(pool)]
        t0 = clock()
        session.launch(inputs, variant="exact")
        t1 = clock()
        session.launch(inputs)
        t2 = clock()
        exact.append(t1 - t0)
        served.append(t2 - t1)
    return median(exact) / median(served)


def approx_speedup(stack: Stack, pairs: int) -> float:
    """Wall-clock Fig. 11: :func:`speedup_ratio` per app under the workload's
    own options, geomean over apps."""
    with repro.options(stack.frontend.options):
        return geomean(
            speedup_ratio(session, stack.pools[name], pairs)
            for name, session in stack.sessions.items()
        )


def interp_ms_per_kthread(app, inputs: dict, repeats: int) -> float:
    """Median time of the exact program under the interpreter, per 1 000
    threads of the grids it launches."""
    from repro.engine import launch_hook

    threads = [0]

    def count(event) -> None:
        threads[0] += event.grid.threads

    runs = []
    with repro.options(backend="interp"), launch_hook(count):
        for _ in range(repeats):
            t0 = clock()
            app.run_exact(inputs)
            runs.append(clock() - t0)
    return 1e3 * median(runs) / (threads[0] / repeats / 1000.0)


# ---------------------------------------------------------------- open loop


def arrival_schedule(seed: int, seconds: float) -> List[List[Tuple[float, int, int]]]:
    """Per segment of ``spec.OPEN_SEGMENTS``, the Poisson arrivals as (due
    offset, app index, tenant index) — a function of the seed alone.

    A segment holds exactly ``rate * duration`` arrivals, at the times a
    Poisson process puts them given that it made that many (independent
    uniform times, sorted).  Every seed therefore sends the same number of
    requests: the run's sample count, which the p99 needs 1 000 of, is not
    left to the draw."""
    rng = random.Random(seed)
    segments = []
    tenant = 0
    for rate, share in spec.OPEN_SEGMENTS:
        duration = share * seconds
        arrivals = []
        for offset in sorted(duration * rng.random() for _ in range(round(rate * duration))):
            arrivals.append((offset, rng.randrange(len(spec.SERVING_APPS)), tenant))
            tenant = (tenant + 1) % len(spec.OPEN_TENANTS)
        segments.append(arrivals)
    return segments


@dataclass
class Segment:
    """One stretch of arrivals at one rate, drained before the next.  Times
    are at reference speed (:func:`run_segment`) except ``lateness``, which
    is about the harness."""

    rate: int
    sent: int
    refused: int
    latencies: List[float]  # from due time, verified responses only
    lateness: List[float]  # how late the generator submitted, wall clock
    submit_costs: List[float]
    drain_s: float  # last arrival -> last response
    busy_s: float  # first arrival due -> last response
    factor: float  # the speed factor the times were divided by

    @property
    def ok(self) -> int:
        return sum(latency <= spec.OPEN_LIMIT_S for latency in self.latencies)

    @property
    def passes(self) -> bool:
        """Failed and refused requests are in ``sent`` and so count as misses."""
        return (
            self.ok >= spec.OPEN_OK_SHARE * self.sent
            and self.drain_s < spec.OPEN_DRAIN_LIMIT_S
        )


def run_segment(
    stack: Stack, rate: int, arrivals, cursors: Dict[str, int], gauge: SpeedGauge
) -> Segment:
    """Offer one segment and drain it (bounded) before returning.

    The speed factor is the segment's own: the reference loop is timed just
    before it, just after it, and inside it on the generator thread, in gaps
    between arrivals that have room for it.  (That takes the one CPU and the
    interpreter lock from the dispatcher for 2 ms in every 40, the same in
    every run.  The two readings around a segment alone were tried first: they
    jump by 1.5x from one gap to the next and say little about the second in
    between.)  Times are divided by the factor except the first
    ``batch_window_s`` of a latency: that much of it is the front-end's timer
    running out, which takes as long on a slow machine as on a fast one.
    """
    frontend = stack.frontend
    window = frontend.batch_window_s
    n = len(arrivals)
    done_at: List[Optional[float]] = [None] * n
    futures: List[Tuple[int, str, object]] = []
    lateness, submit_costs = [], []
    refused = 0
    gauge.sample(spec.OPEN_GAUGE_SAMPLES)
    started = clock()
    for i, (offset, app_index, tenant_index) in enumerate(arrivals):
        name = spec.SERVING_APPS[app_index]
        pool = stack.pools[name]
        inputs = pool[cursors[name] % len(pool)]
        cursors[name] += 1
        due = started + offset
        if due - clock() > spec.OPEN_TICK_ROOM_S or gauge.idle_s() > spec.OPEN_TICK_FORCE_S:
            gauge.tick()
        delay = due - clock()
        if delay > 0:
            time.sleep(delay)
        stack.attempted += 1
        t0 = clock()
        try:
            future = frontend.submit_app(
                stack.sessions[name], inputs, tenant=spec.OPEN_TENANTS[tenant_index]
            )
        except Exception as exc:
            refused += 1
            stack.failures.append(f"{name}@{rate}: refused: {type(exc).__name__}")
            continue
        t1 = clock()
        # Runs on the dispatcher thread the moment the future resolves.
        future.add_done_callback(lambda _f, i=i: done_at.__setitem__(i, clock()))
        lateness.append(t0 - due)
        submit_costs.append(t1 - t0)
        futures.append((i, name, future))
    offered_until = clock()
    give_up = offered_until + spec.OPEN_DRAIN_GIVE_UP_S
    latencies = []
    for i, name, future in futures:
        try:
            out = future.result(timeout=max(0.0, give_up - clock()))
        except Exception as exc:
            stack.failures.append(f"{name}@{rate}: {type(exc).__name__}: {exc}")
            continue
        if not output_ok(out, stack.shapes[name]):
            stack.failures.append(f"{name}@{rate}: response not finite or wrong shape")
            continue
        if done_at[i] is None:  # result() can wake before the callback runs
            done_at[i] = clock()
        latencies.append(done_at[i] - (started + arrivals[i][0]))
    last_done = max((t for t in done_at if t is not None), default=offered_until)
    gauge.sample(spec.OPEN_GAUGE_SAMPLES)
    factor = gauge.factor()
    return Segment(
        rate, n, refused,
        [min(t, window) + max(0.0, t - window) / factor for t in latencies],
        lateness, [t / factor for t in submit_costs],
        drain_s=max(0.0, last_done - offered_until) / factor,
        busy_s=(max(last_done, offered_until) - started) / factor,
        factor=factor,
    )


def open_loop(
    stack: Stack, seed: int, seconds: float, gauge: SpeedGauge
) -> Dict[int, List[Segment]]:
    """Every segment in schedule order; returned by rate, lowest first."""
    cursors = {name: 0 for name in spec.SERVING_APPS}
    by_rate: Dict[int, List[Segment]] = {}
    for (rate, _share), arrivals in zip(
        spec.OPEN_SEGMENTS, arrival_schedule(seed, seconds)
    ):
        by_rate.setdefault(rate, []).append(
            run_segment(stack, rate, arrivals, cursors, gauge)
        )
    return dict(sorted(by_rate.items()))


def quiet_segments(segments: List[Segment], q: float) -> List[Segment]:
    """The two thirds of a rate's segments with the lowest ``q``-th
    percentile of latency.

    Dividing by a speed factor read before and after a segment does less for
    an open loop than for a closed one: a slow episode inside the segment
    raises the dispatcher's utilisation, and queueing delay grows faster than
    in proportion (at 400 req/s a 1.3x episode is 60 % against 80 % busy, and
    the p99 triples).  But neighbours only ever slow the machine down, so the
    worst third of the segments is set aside.
    """
    keep = max(1, (2 * len(segments) + 2) // 3)
    ranked = sorted(
        segments,
        key=lambda s: percentile(s.latencies, q) if s.latencies else float("inf"),
    )
    return ranked[:keep]


def reference_latencies(by_rate: Dict[int, List[Segment]], q: float) -> List[float]:
    """Latencies the reference rate's ``q``-th percentile is taken over."""
    segments = quiet_segments(by_rate[spec.OPEN_REFERENCE_RATE], q)
    return [t for s in segments for t in s.latencies]


def step_summary(rate: int, segments: List[Segment]) -> dict:
    """One rate step as the report shows it (all its segments pooled)."""
    latencies = [t for s in segments for t in s.latencies]
    lateness = [t for s in segments for t in s.lateness]
    late_p99 = percentile(lateness, 99) if lateness else 0.0
    return {
        "rate_rps": rate,
        "segments": len(segments),
        "sent": sum(s.sent for s in segments),
        "ok": sum(s.ok for s in segments),
        "refused": sum(s.refused for s in segments),
        "passes": all(s.passes for s in quiet_segments(segments, 50)),
        "latency_p50_ms": 1e3 * median(latencies) if latencies else None,
        "latency_p99_ms": 1e3 * percentile(latencies, 99) if latencies else None,
        "drain_s": max(s.drain_s for s in segments),
        "speed_factors": [s.factor for s in segments],
        "gen_late_p99_ms": 1e3 * late_p99,
        "gen_late_flagged": late_p99 > spec.OPEN_LATE_FLAG_S,
    }


def open_metrics(by_rate: Dict[int, List[Segment]]) -> Dict[str, float]:
    top = by_rate[max(by_rate)]
    passing = 0
    for rate, segments in by_rate.items():  # the highest rate up to which all pass
        if not all(s.passes for s in quiet_segments(segments, 50)):
            break
        passing = rate
    lateness = [t for segments in by_rate.values() for s in segments for t in s.lateness]
    return {
        # The top rate offers more than the dispatcher can serve, so what a
        # segment completes per second, drain included, is the front-end's
        # capacity with batching on (and reads as the offered rate if it ever
        # keeps up).
        "throughput_rps": median([len(s.latencies) / s.busy_s for s in top]),
        "latency_p50_ms": 1e3 * median(reference_latencies(by_rate, 50)),
        "latency_p99_ms": 1e3 * percentile(reference_latencies(by_rate, 99), 99),
        "rate_ok_rps": float(passing),
        "serve.frontend.gen_late_p99_ms": 1e3 * percentile(lateness, 99),
    }
