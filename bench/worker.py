"""One workload, in this process: ``python3 -m bench.worker --workload NAME``.

``bench/__main__.py`` starts one of these per workload so that every workload
meets a fresh interpreter.  The last line of standard output is one JSON
object: ``correct``, ``attempted``, ``failed``, every metric the run measured
by name, and a ``detail`` block for the report.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time
import warnings

from . import spec
from .speed import SpeedGauge

clock = time.perf_counter


def peak_rss_mb(with_children: bool) -> float:
    """``ru_maxrss`` of this process (KiB on Linux), plus that of its largest
    waited-for child — the process executor's workers — when asked."""
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if with_children:
        peak += resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return peak / 1024.0


def pin_to_one_cpu() -> int:
    """Keep this process, every thread it starts and every worker process it
    spawns on one CPU.

    One caller waits while the dispatcher thread serves it.  Left alone, the
    kernel sometimes wakes the dispatcher on the caller's CPU and sometimes on
    the other one, for minutes at a time; across CPUs each hand-off waits for
    a halted virtual CPU to be scheduled and finds the caches cold, and a
    ``small_closed`` request takes 1.5x as long (``bench/README.md``,
    "Noise").  No reference loop tracks that, so the benchmark chooses the
    placement: the same CPU.

    The sharding workloads are pinned too.  Their two shard workers then take
    turns on the one CPU, so what these workloads time is what sharding adds
    to a request — planning, fan-out, staging, IPC, assembly — and not what
    running the shards side by side would save.  On two virtual CPUs shared
    with other tenants the second CPU is there in some seconds and not in
    others, a reference loop on one thread cannot see which, and ten runs of
    an unchanged tree spread by 0.2-0.25; on one CPU they spread by 0.06.
    """
    cpu = max(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    return cpu


def timed_setup(gauge: SpeedGauge, setup_started: float, metrics: dict, detail: dict) -> None:
    """Close the set-up interval that began when the parent spawned this
    process; the gauge was sampled first thing and is sampled again now."""
    raw = time.time() - setup_started
    gauge.sample(10)
    factor = gauge.factor()
    metrics["setup_s"] = raw / factor
    detail["raw"] = {"setup_s": raw}
    detail["setup_speed_factor"] = factor


def run_serving(workload: spec.Workload, args, setup_started: float, gauge: SpeedGauge) -> dict:
    from . import serving
    from .stats import SpanRecorder, median

    if args.trace:
        from . import layers
    seconds = 0.0 if args.quick else args.seconds
    block_s = 0.5 if args.quick else spec.BLOCK_S
    # A smoke run verifies three inputs per app, not the whole pool.
    stack = serving.build_stack(
        workload, args.seed, 3 if args.quick else spec.POOL_SIZE
    )
    metrics: dict = {}
    detail: dict = {}
    timed_setup(gauge, setup_started, metrics, detail)
    try:
        if args.setup_only:
            return result(stack.failures, stack.attempted, metrics, detail)
        metrics["quality_mean"] = serving.verify(stack)
        served_before = stack.served_names()
        recorder = SpanRecorder()
        if workload.kind == "closed":
            rotation = serving.Rotation(stack)
            serving.warm_up(stack, rotation)
            if args.trace:
                # Shorter than the end-to-end run's: the peel needs the time.
                timed, layer = layers.closed_phase(
                    stack, rotation, gauge, 0.6 * seconds, block_s, recorder
                )
                metrics.update(layer)
            else:
                timed = serving.timed_phase(
                    stack, rotation, gauge, seconds, block_s,
                    0 if args.quick else workload.min_requests,
                )
            requests = sum(b.requests for b in timed)
            metrics.update(serving.closed_metrics(timed))
            detail["raw"].update(serving.closed_metrics(timed, normalise=False))
            detail["blocks"] = len(timed)
            detail["speed_factor"] = median([b.factor for b in timed])
        else:
            if args.trace:
                before = layers.snapshot(stack)
            by_rate = serving.open_loop(stack, args.seed, seconds or 1.0, gauge)
            if args.trace:
                metrics.update(layers.counter_metrics(before, layers.snapshot(stack)))
                metrics["serve.frontend.submit_us"] = 1e6 * median(
                    [t for segs in by_rate.values() for s in segs for t in s.submit_costs]
                )
            requests = len(serving.reference_latencies(by_rate, 99))
            metrics.update(serving.open_metrics(by_rate))
            detail["steps"] = [serving.step_summary(r, segs) for r, segs in by_rate.items()]
            detail["speed_factor"] = median(
                [s.factor for segs in by_rate.values() for s in segs]
            )
        detail["timed_requests"] = requests
        # An end-to-end run that served too little is not a measurement.
        if not (args.quick or args.trace) and requests < workload.min_requests:
            stack.failures.append(
                f"only {requests} timed requests; the run needs {workload.min_requests}"
            )
        metrics["approx_speedup"] = serving.approx_speedup(
            stack, 3 if args.quick else spec.SPEEDUP_PAIRS
        )
        detail["served"] = stack.served_names()
        detail["unstable"] = detail["served"] != served_before
        if args.trace:
            metrics.update(
                layers.after_phase(
                    stack, 20 if args.quick else spec.PEEL_SAMPLES, 0.3 * args.seconds,
                    recorder, gauge,
                )
            )
            spec.OUT_DIR.mkdir(exist_ok=True)
            recorder.dump(spec.OUT_DIR / f"spans-{workload.name}-seed{args.seed}.jsonl")
    finally:
        stack.close()
    metrics["peak_rss_mb"] = peak_rss_mb(workload.executor == "process")
    return result(stack.failures, stack.attempted, metrics, detail)


def run_cold(args, setup_started: float, gauge: SpeedGauge) -> dict:
    from .coldstart import ColdStart
    from .stats import median

    tmp_root = spec.OUT_DIR / f"tmp-{os.getpid()}"
    tmp_root.mkdir(parents=True, exist_ok=True)
    cold = ColdStart(args.seed, tmp_root, gauge)
    metrics: dict = {}
    detail: dict = {}
    timed_setup(gauge, setup_started, metrics, detail)
    try:
        if args.setup_only:
            return result(cold.failures, cold.attempted, metrics, detail)
        if args.quick:
            cold.run(0.0, min_sweeps=1)
        else:
            cold.run(args.seconds)
        metrics.update(cold.metrics())
        metrics["approx_speedup"] = cold.approx_speedup(2 if args.quick else 6)
        detail["raw"]["cold_start_s"] = cold.raw_cold_start_s()
        detail["speed_factor"] = median(gauge.factors)
        detail["sweeps"] = cold.sweeps
        detail["served"] = {n: s.current_variant for n, s in cold.sessions.items()}
        if args.trace:
            metrics.update(cold.layer_extras())
    finally:
        cold.close()
    metrics["peak_rss_mb"] = peak_rss_mb(False)
    return result(cold.failures, cold.attempted, metrics, detail)


def result(failures, attempted: int, metrics: dict, detail: dict) -> dict:
    failed = len(failures)
    metrics["failed_frac"] = failed / max(attempted, 1)
    detail["failures"] = failures[:20]
    return {
        "correct": failed == 0,
        "attempted": max(attempted, 1),
        "failed": failed,
        "metrics": metrics,
        "detail": detail,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="python3 -m bench.worker")
    parser.add_argument("--workload", required=True, choices=sorted(spec.WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, default=0)
    parser.add_argument("--quick", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument(
        "--spawned-at", type=float, default=None,
        help="time.time() of the parent just before it started this process",
    )
    args = parser.parse_args(argv)
    setup_started = args.spawned_at if args.spawned_at is not None else time.time()
    if not (spec.SRC / "repro" / "__init__.py").is_file():
        print(f"bench: no program to measure at {spec.SRC}", file=sys.stderr)
        return 2
    workload = spec.WORKLOADS[args.workload]
    allowed = os.sched_getaffinity(0)
    pinned = pin_to_one_cpu()
    try:
        gauge = SpeedGauge()
        gauge.sample(10)  # the machine's speed as set-up begins, before the imports
        sys.path.insert(0, str(spec.SRC))
        # The benchmark's own code may not lean on anything deprecated.
        warnings.filterwarnings("error", category=DeprecationWarning, module=r"bench(\.|$)")
        if workload.kind == "cold":
            out = run_cold(args, setup_started, gauge)
        else:
            out = run_serving(workload, args, setup_started, gauge)
    finally:
        os.sched_setaffinity(0, allowed)  # for a caller that is not a fresh process
    out["detail"]["pinned_cpu"] = pinned
    print(json.dumps(out))
    return 0 if out["correct"] else 1


if __name__ == "__main__":
    raise SystemExit(main())
