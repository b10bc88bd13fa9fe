"""The traced run of a serving workload: which layer owns the request's time.

Everything is measured from outside ``src/``.  Times come from a *layer
peel*: pool inputs are replayed through each public entry point down the
stack — ``ServeFrontend.submit_app().result()`` → ``ApproxSession.launch`` →
``run_ladder`` → ``Application.run_variant`` → ``engine.launch`` →
``get_compiled`` + ``CompiledKernel.run`` — and a layer's self time is its
median minus the median of the entry point below it.  Counts come from the
program's own public snapshots, differenced across the timed phase.
"""

from __future__ import annotations

import time
from typing import Dict, List, Tuple

import repro
from repro import LaunchOptions
from repro.apps.base import KernelApplication
from repro.apps.scanlib import ScanProgram
from repro.codegen import clear_cache, get_compiled, stats_snapshot as codegen_stats
from repro.engine import bind_arguments, launch
from repro.engine.launch import resolve_kernel, resolve_module
from repro.obs.registry import get_registry, histogram_quantile
from repro.parallel.analysis import analyze_function
from repro.parallel.procpool import stats_snapshot as procpool_stats
from repro.parallel.shard import stats_snapshot as shard_stats
from repro.resilience.guard import GuardPolicy, run_ladder, stats_snapshot as guard_stats

from . import spec
from .serving import Stack, interp_ms_per_kthread
from .speed import SpeedGauge
from .stats import SpanRecorder, geomean, median, self_time_by_name

clock = time.perf_counter

#: Entry points of the peel, outermost first; each is also a span name.
LEVELS = (
    "serve.frontend",
    "serve.session",
    "resilience.ladder",
    "apps.run_variant",
    "engine.launch",
    "codegen.kernel",
)
#: The per-layer metric each level's self time is reported as.
SELF_METRICS = dict(zip(LEVELS[:-1], (
    "serve.frontend.self_ms",
    "serve.session.self_ms",
    "resilience.ladder.self_ms",
    "apps.run_variant.self_ms",
    "engine.launch.self_ms",
)))


# ---------------------------------------------------------------- counters


def _histogram(name: str):
    metric = get_registry().get(name)
    return metric.labels().raw_counts() if metric is not None else None


def _counter_sum(name: str) -> float:
    metric = get_registry().get(name)
    return sum(child.value for _labels, child in metric.series()) if metric else 0.0


def snapshot(stack: Stack) -> dict:
    """The program's public counters, flattened."""
    sessions = [s.metrics_snapshot() for s in stack.sessions.values()]
    return {
        "codegen": codegen_stats(),
        "shard": shard_stats(),
        "procpool": procpool_stats(),
        "guard": guard_stats(),
        "launches": sum(s["launches"] for s in sessions),
        "kernel_launches": sum(s["kernel_launches"] for s in sessions),
        "sampled": sum(s["sampled_checks"] for s in sessions),
        "recalibrations": sum(
            s["recalibrations"]["down"] + s["recalibrations"]["up"] for s in sessions
        ),
        "fallbacks": sum(s["resilience"]["fallback_launches"] for s in sessions),
        "batches": _counter_sum("repro_frontend_batches_total"),
        "batched": _counter_sum("repro_frontend_batched_requests_total"),
        "refused": _counter_sum("repro_frontend_rejects_total"),
        "wait": _histogram("repro_frontend_wait_seconds"),
    }


def counter_metrics(before: dict, after: dict) -> Dict[str, float]:
    """Per-layer counts of one timed phase (``after`` minus ``before``)."""

    def delta(*path) -> float:
        a, b = after, before
        for key in path:
            a, b = a[key], b[key]
        return float(a - b)

    launches = delta("launches")
    proc_launches = delta("procpool", "launches")
    out = {
        "codegen.cache.hits": delta("codegen", "cache_hits"),
        "codegen.cache.compiles": delta("codegen", "compiles"),
        "codegen.cache.fallbacks": delta("codegen", "fallbacks"),
        "parallel.shard.sharded_launches": delta("shard", "sharded_launches"),
        "parallel.shard.zero_copy": delta("shard", "zero_copy"),
        "parallel.shard.overlay": delta("shard", "overlay"),
        "parallel.shard.serial_small_grid": delta("shard", "serial_small_grid"),
        "parallel.procpool.tasks": delta("procpool", "tasks"),
        "parallel.procpool.direct": delta("procpool", "direct"),
        "parallel.procpool.diff": delta("procpool", "diff"),
        "parallel.procpool.workers_restarted": delta("procpool", "workers_replaced"),
        "parallel.procpool.shm_mb_per_launch": (
            delta("procpool", "shm_bytes") / 2**20 / proc_launches
            if proc_launches
            else 0.0
        ),
        "resilience.guard.fallbacks": delta("fallbacks"),
        "resilience.guard.retries": delta("guard", "shard_retries"),
        "serve.session.sampled": delta("sampled"),
        "serve.session.recalibrations": delta("recalibrations"),
        "serve.frontend.refused": delta("refused"),
    }
    if launches:
        out["engine.launches_per_request"] = delta("kernel_launches") / launches
    if delta("batches"):
        out["serve.frontend.batch_size_mean"] = delta("batched") / delta("batches")
    if before["wait"] is not None:
        buckets, counts_after, _sum, _n = after["wait"]
        counts = [a - b for a, b in zip(counts_after, before["wait"][1])]
        if sum(counts):
            for q, key in ((0.5, "p50"), (0.99, "p99")):
                out[f"serve.frontend.queue_wait_{key}_ms"] = 1e3 * histogram_quantile(
                    buckets, counts, q
                )
    return out


# -------------------------------------------------------------- layer peel


class RecordingScanProgram(ScanProgram):
    """A ``ScanProgram`` that remembers the kernel launches it makes."""

    def __init__(self, block: int) -> None:
        super().__init__(block=block)
        self.recorded: List[tuple] = []

    def launch(self, kernel, grid, args, **kwargs):
        self.recorded.append((kernel, grid, args, kwargs.get("module")))
        return super().launch(kernel, grid, args, **kwargs)


def capture_launches(app, variant, inputs) -> List[tuple]:
    """The (kernel, grid, args, module) of every ``engine.launch`` one request
    makes, rebuilt through the app's public protocol."""
    if isinstance(app, KernelApplication):
        out = app.make_output(inputs)
        args = app.make_args(inputs, out)
        if variant is None:
            return [(app.kernel, app.grid(inputs), args, None)]
        return [(
            variant.module[variant.kernel], app.grid(inputs),
            variant.launch_args(args), variant.module,
        )]
    from repro.apps.cumhist import BLOCK

    program = RecordingScanProgram(BLOCK)
    with repro.options(backend="codegen"):
        if variant is None:
            program.run(inputs["freqs"])
        else:
            variant.run(program, inputs["freqs"])
    return program.recorded


#: Consecutive replays through one entry point before the peel moves on to
#: the next one.
PEEL_CHUNK = 5


def peel(
    stack: Stack, samples: int, budget_s: float, recorder: SpanRecorder, gauge: SpeedGauge
) -> Dict[str, Dict[str, List[float]]]:
    """Per app, per level, the durations of up to ``samples`` replays (wall
    clock; the gauge is ticked between replays for the caller to read).

    Each level is driven the way the workload drives the front-end: apps
    round-robin, every replay on the app's next pool input, ``PEEL_CHUNK``
    rounds in a row, so that a level is timed in its own steady state.  (One
    replay per level in turn would hand each level the arrays and the code
    the level before it had just pulled into the cache, and bill the misses
    to whichever ran first.)  The levels take turns chunk by chunk, so a
    change in the machine's speed falls on all of them alike.

    Beside the six levels: ``sampled`` (``session.launch`` calls that paid a
    quality check, kept out of ``serve.session``), ``codegen.cache``
    (``get_compiled`` hits) and, on a sharding workload,
    ``engine.launch.serial``.
    """
    workload = stack.workload
    workers = workload.parallel or 1
    guard = GuardPolicy()
    inner = LaunchOptions(
        backend="codegen", parallel=workers, executor=workload.executor, guard=guard
    )
    serial = LaunchOptions(backend="codegen", guard=guard)
    ambient = LaunchOptions(executor=workload.executor)
    frontend = stack.frontend
    extra = ("sampled", "codegen.cache", "engine.launch.serial")
    times = {n: {level: [] for level in LEVELS + extra} for n in stack.apps}
    cursors = {n: 0 for n in stack.apps}

    def next_inputs(name: str) -> dict:
        cursors[name] += 1
        pool = stack.pools[name]
        return pool[cursors[name] % len(pool)]

    def replay(level: str, name: str, request: int) -> None:
        app, session = stack.apps[name], stack.sessions[name]
        variant = stack.variant(name)
        row = times[name]

        def record(t0: float, t1: float) -> None:
            # Replays follow one another, so each is a root span; the request
            # id ties the replays of one sample index together.
            row[level].append(t1 - t0)
            recorder.add(level, t0, t1, request)

        inputs = next_inputs(name)
        if level == "serve.frontend":
            t0 = clock()
            frontend.submit_app(session, inputs).result()
            record(t0, clock())
        elif level == "serve.session":
            with repro.options(frontend.options):
                t0 = clock()
                session.launch(inputs)
                t1 = clock()
            if session.last_launch.sampled:
                row["sampled"].append(t1 - t0)
            else:
                record(t0, t1)
        elif level == "resilience.ladder":
            with repro.options(ambient):
                t0 = clock()
                run_ladder(
                    app, inputs, variant, backend="codegen", workers=workers,
                    policy=guard,
                )
                record(t0, clock())
        elif level == "apps.run_variant":
            with repro.options(inner):
                t0 = clock()
                if variant is None:
                    app.run_exact(inputs)
                else:
                    app.run_variant(variant, inputs)
                record(t0, clock())
        elif level in ("engine.launch", "engine.launch.serial"):
            options = inner if level == "engine.launch" else serial
            launches = capture_launches(app, variant, inputs)
            t0 = clock()
            for kernel, grid, args, module in launches:
                launch(kernel, grid, args, module=module, options=options)
            t1 = clock()
            if level == "engine.launch":
                record(t0, t1)
            else:
                row[level].append(t1 - t0)
        else:  # codegen.kernel
            launches = capture_launches(app, variant, inputs)
            lookup = run = 0.0
            begin = clock()
            for kernel, grid, args, module in launches:
                fn, mod = resolve_kernel(kernel), resolve_module(kernel, module)
                t0 = clock()
                compiled = get_compiled(fn, mod, grid, True)
                t1 = clock()
                bound = bind_arguments(fn, args)
                t2 = clock()
                compiled.run(grid, bound)
                lookup += t1 - t0
                run += clock() - t2
            row["codegen.cache"].append(lookup / len(launches))
            record(begin, begin + run)  # the runs, closed up

    levels = LEVELS + (("engine.launch.serial",) if workload.parallel else ())
    deadline = clock() + budget_s
    for done in range(0, samples, PEEL_CHUNK):
        if done >= 20 and clock() > deadline:
            break
        for level in levels:
            for k in range(done, min(done + PEEL_CHUNK, samples)):
                gauge.tick()
                for index, name in enumerate(stack.apps):
                    replay(level, name, k * len(stack.apps) + index)
    return times


def peel_metrics(stack: Stack, times, factor: float) -> Dict[str, float]:
    """Self time per layer: the median of a level minus the median of the
    level below it, per app, averaged over the four apps — the way
    ``latency_p50_ms`` averages them — and at reference speed."""

    def level_ms(level: str) -> float:
        return 1e3 * sum(median(row[level]) for row in times.values()) / len(times) / factor

    def pooled(level: str) -> List[float]:
        return [t for row in times.values() for t in row[level]]

    out = {
        SELF_METRICS[upper]: level_ms(upper) - level_ms(lower)
        for upper, lower in zip(LEVELS, LEVELS[1:])
    }
    # base: the peel's own request time, i.e. the sum of the self times
    out["codegen.kernel_share"] = level_ms("codegen.kernel") / level_ms("serve.frontend")
    out["codegen.cache.hit_us"] = 1e6 * median(pooled("codegen.cache")) / factor
    workers = stack.workload.parallel
    for name, row in times.items():
        out[f"codegen.kernel_ms.{name}"] = 1e3 * median(row["codegen.kernel"]) / factor
        if workers:
            sharded = median(row["engine.launch"])
            one = median(row["engine.launch.serial"])
            # base: serial engine.launch of the same launches
            out[f"parallel.shard.speedup.{name}"] = one / sharded
            out[f"parallel.shard.overhead_ms.{name}"] = (
                1e3 * (sharded - one / workers) / factor
            )
    return out


def sample_cost_ms(tagged: List[Tuple[str, float, bool]]) -> float:
    """p50 of requests that paid a quality check minus p50 of those that did
    not, per app, averaged over the apps that had both."""
    costs = []
    for name in spec.SERVING_APPS:
        sampled = [lat for n, lat, s in tagged if n == name and s]
        plain = [lat for n, lat, s in tagged if n == name and not s]
        if sampled and plain:
            costs.append(median(sampled) - median(plain))
    return 1e3 * sum(costs) / len(costs) if costs else 0.0


# ------------------------------------------------------- one-off measures


def one_off_metrics(stack: Stack, gauge: SpeedGauge) -> Dict[str, float]:
    """Measures that are not part of a request: the interpreter's rate, a
    golden-cache miss, a cold compile, a cold shardability analysis.  Runs
    last — it clears the compiled-kernel cache."""
    out: Dict[str, float] = {}
    gauge.sample(5)
    interp, evals = [], []
    for name, app in stack.apps.items():
        variant = stack.variant(name)
        inputs = stack.pools[name][0]
        interp.append(interp_ms_per_kthread(app, inputs, 3))
        with repro.options(backend="codegen"):
            served, _trace = app.run_exact(inputs)

        misses = []
        for k in range(3):  # inputs the golden cache has never seen
            fresh = app.generate_inputs(seed=10**6 + k)
            t0 = clock()
            app.evaluate(served, fresh)
            misses.append(clock() - t0)
        evals.append(median(misses))

        launches = capture_launches(app, variant, inputs)
        t0 = clock()
        for kernel, _grid, _args, module in launches:
            analyze_function(resolve_kernel(kernel), resolve_module(kernel, module))
        out[f"parallel.analysis_ms.{name}"] = 1e3 * (clock() - t0)

        clear_cache()
        before = codegen_stats()
        with repro.options(backend="codegen"):
            for kernel, grid, args, module in launches:
                launch(kernel, grid, args, module=module)
        after = codegen_stats()
        out[f"codegen.compile_ms.{name}"] = 1e3 * (
            after["compile_seconds"] - before["compile_seconds"]
        )
        out[f"codegen.source_bytes.{name}"] = float(
            after["source_bytes"] - before["source_bytes"]
        )
    out["engine.interp.ms_per_kthread"] = sum(interp) / len(interp)
    out["runtime.quality.eval_ms"] = 1e3 * sum(evals) / len(evals)
    gauge.sample(5)
    factor = gauge.factor()
    return {
        name: value if name.startswith("codegen.source_bytes") else value / factor
        for name, value in out.items()
    }


# ------------------------------------------------------- the traced phases


def _overhead(blocks, plain) -> float:
    """Share of the plain loop's block throughput that a mode costs."""
    return 1.0 - median([b.throughput(b.factor) for b in blocks]) / median(
        [b.throughput(b.factor) for b in plain]
    )


def closed_phase(stack: Stack, rotation, gauge, seconds: float, block_s: float, recorder):
    """The timed phase of a traced closed loop.

    Blocks take turns: plain, with the benchmark's own spans, with the
    program's ``repro.obs`` tracing on (in memory) — so each overhead is a
    ratio of block throughputs of the same loop in the same process.
    Returns the plain blocks and the per-layer metrics of the phase.
    """
    from repro.obs import trace as obs_trace

    from .serving import run_block

    by_mode = {"plain": [], "spans": [], "obs": []}
    before = snapshot(stack)
    deadline = clock() + seconds
    turn = 0
    while turn < len(by_mode) or clock() < deadline:
        mode = tuple(by_mode)[turn % len(by_mode)]
        turn += 1
        if mode == "obs":
            obs_trace.enable()
        try:
            by_mode[mode].append(
                run_block(
                    stack, rotation, gauge, block_s, recorder if mode == "spans" else None
                )
            )
        finally:
            if mode == "obs":
                obs_trace.disable()
                obs_trace.drain_records()
    out = counter_metrics(before, snapshot(stack))
    # The traced blocks left a ``request`` span per request with its
    # ``serve.frontend.submit`` child; a childless span's self time is its
    # duration.
    out["serve.frontend.submit_us"] = (
        1e6 * self_time_by_name(recorder.spans)["serve.frontend.submit"]
        / median([b.factor for b in by_mode["spans"]])
    )
    out["bench.trace_overhead_frac"] = _overhead(by_mode["spans"], by_mode["plain"])
    out["obs.enabled_overhead_frac"] = _overhead(by_mode["obs"], by_mode["plain"])
    out["serve.session.sample_ms"] = sample_cost_ms(
        [
            (name, latency / block.factor, sampled)
            for block in by_mode["spans"]
            for rnd in block.rounds
            for name, latency, sampled in rnd.tagged
        ]
    )
    return by_mode["plain"], out


def after_phase(
    stack: Stack, samples: int, budget_s: float, recorder, gauge: SpeedGauge
) -> Dict[str, float]:
    """Layer peel, then the one-off measures (which clear the kernel cache)."""
    times = peel(stack, samples, budget_s, recorder, gauge)
    out = peel_metrics(stack, times, gauge.factor())
    out.update(one_off_metrics(stack, gauge))
    out["runtime.tuner.modelled_speedup"] = geomean(
        session.tuning.speedup for session in stack.sessions.values()
    )
    return out
