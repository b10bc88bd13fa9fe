"""What the benchmark runs and what it reports: workloads, scales, metric names.

``BENCHMARK.json`` at the repository root is the declaration the driver
reads; this module loads it so that names, units and bounds live in one
place, and adds what the JSON contract has no room for (input scales,
launch options, rate steps).
"""

from __future__ import annotations

import functools
import json
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, Optional

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = BENCH_DIR / "out"
HISTORY = BENCH_DIR / "history.jsonl"

#: One app per pattern family: map/memoization, stencil, reduction, scan.
SERVING_APPS = ("blackscholes", "gaussian", "matmul", "cumhist")

#: Input sets per app, cycled in order: more than twice
#: ``Application.GOLDEN_CACHE_SIZE``, so a sampled quality check misses the
#: golden cache as a real stream would.  17, not 16: with 16 the 1-in-40
#: cadence would only ever sample pool inputs 7 and 15, which the cache holds.
POOL_SIZE = 17

#: The paper's §3.5 sampling cadence (one launch in 40 pays a quality check).
SAMPLE_EVERY = 40

TARGET_QUALITY = 0.90

#: Verification runs the interpreter — the independent reference — on every
#: third pool input (6 of 17) and holds the exact program's compiled output to
#: it bit for bit; on the inputs between, that compiled exact output is the
#: reference.  On the large grids the interpreter takes 0.3 s an input, and
#: all 17 of them cost each run 3 s of the driver's time cap.
INTERP_EVERY = 3

#: One round of a closed loop: every session serves SAMPLE_EVERY launches and
#: so pays exactly one quality check — rounds are equal work.
ROUND = SAMPLE_EVERY * len(SERVING_APPS)

#: A block is whole rounds lasting at least this long; it gets one speed
#: factor (bench/speed.py), and the timed phase is as many blocks as fit.
BLOCK_S = 1.0

#: Requests per app replayed through every entry point by the layer peel.
PEEL_SAMPLES = 200

#: Interleaved (exact, served) launch pairs per app behind ``approx_speedup``.
SPEEDUP_PAIRS = 12

#: The smallest grids the apps make (cumhist and matmul stop shrinking at
#: 4 096 elements and 32x32), except that matmul stays at 48x48: below it the
#: tuner no longer picks a reduction-skipping variant, the family matmul is
#: here for.
SMALL_SCALES = {"blackscholes": 0.0005, "gaussian": 0.01, "matmul": 0.02, "cumhist": 0.001}
#: Sized so a serial request is about 5 ms: the compiled kernel is >= 80 % of
#: it and a run still times more than 1 000 requests.
LARGE_SCALES = {"blackscholes": 0.0275, "gaussian": 0.55, "matmul": 0.05, "cumhist": 0.078}

#: Open-loop schedule: (offered rate in req/s, share of ``--seconds``), in the
#: order offered; the queue is drained between segments.  The reference rate
#: (whose latencies are the workload's end-to-end metrics) comes in ten
#: segments spread over the run and the top rate (which saturates the
#: dispatcher and so measures its capacity) in three, each with its own speed
#: factor, so that an episode of noise spoils some of them and not the metric
#: (``serving.quiet_segments``).  A segment holds exactly rate x duration
#: arrivals, so the quieter two thirds of the reference segments hold 1 400
#: requests whatever the seed.  The shares add up to 1.24: the reference rate
#: alone is given all of ``--seconds``, because its p99 is the eleventh-highest
#: of a thousand latencies and steadies only with more of them (ten runs
#: spread by 0.17 with 7 s of it, see ``bench/README.md``), and the steps come
#: on top.
#:
#: The reference is 200 req/s, not the 400 the issue proposed.  At 400 the
#: dispatcher is 60 % busy on a quiet machine and 80 % busy in a 1.3x noise
#: episode, and queueing delay triples: ten runs of an unchanged tree spread by
#: 0.15-0.30 on the p99 and 0.13-0.16 on the p50.  At 200 (30 % busy) an
#: episode leaves the queue empty; what the latency then prices is the batch
#: window and the hand-offs, which is what this workload is for.  400 and up
#: stay in the schedule as steps.
OPEN_SEGMENTS = (
    (200, 0.10), (400, 0.06), (200, 0.10), (1000, 0.04), (200, 0.10), (600, 0.03),
    (200, 0.10), (1000, 0.04), (200, 0.10), (800, 0.03), (200, 0.10), (1000, 0.04),
    (200, 0.10), (200, 0.10), (200, 0.10), (200, 0.10),
)
OPEN_REFERENCE_RATE = 200
#: Reference-loop timings taken just before and just after a segment; the
#: rest of its speed factor is timed inside it, in the generator's idle gaps.
OPEN_GAUGE_SAMPLES = 5
#: Inside a segment the generator times the reference loop when the next
#: arrival is at least this far off ...
OPEN_TICK_ROOM_S = 0.004
#: ... and in any case when it has not for this long (the top rate leaves no
#: gaps; there the queue is growing anyway and capacity is what is measured).
OPEN_TICK_FORCE_S = 0.08
OPEN_TENANTS = ("tenant-a", "tenant-b", "tenant-c")
#: A request is "ok" when it resolves within this long of its due time.
OPEN_LIMIT_S = 0.050
OPEN_OK_SHARE = 0.99
OPEN_DRAIN_LIMIT_S = 0.5
#: A request still unresolved this long after its step's last arrival failed.
OPEN_DRAIN_GIVE_UP_S = 20.0
OPEN_LATE_FLAG_S = 0.005
OPEN_QUEUE_DEPTH = 4096


@dataclass(frozen=True)
class Workload:
    """One row of the workload table in ``bench/README.md``."""

    name: str
    kind: str  # "closed", "open" or "cold"
    scales: Optional[Dict[str, float]] = None
    parallel: Optional[int] = None
    executor: Optional[str] = None
    #: Timed requests an end-to-end run must serve, however slow the machine is
    #: running.  An app's p99 rests on its quality-sampled requests, one per
    #: round: five rounds on ``large_serial`` (which serves 1 100 requests in
    #: ten quiet seconds) and three on the sharded workloads, which serve about
    #: 75 req/s.  The open loop pools its p99 and needs 1 000 requests, ten
    #: beyond the percentile.
    min_requests: int = 1000


WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        Workload("small_closed", "closed", SMALL_SCALES),
        Workload("large_serial", "closed", LARGE_SCALES, min_requests=800),
        Workload("large_thread", "closed", LARGE_SCALES, parallel=2, executor="thread",
                 min_requests=480),
        Workload("large_process", "closed", LARGE_SCALES, parallel=2, executor="process",
                 min_requests=480),
        Workload("small_open", "open", SMALL_SCALES),
        Workload("cold_start", "cold"),
    )
}


@functools.lru_cache(maxsize=None)
def load_declaration() -> dict:
    """``BENCHMARK.json``, read once; callers do not change it."""
    with (ROOT / "BENCHMARK.json").open(encoding="utf-8") as fh:
        return json.load(fh)


def declared(kind: str) -> Dict[str, dict]:
    """``end_to_end`` or ``per_layer`` metrics of ``BENCHMARK.json`` by name."""
    return {m["name"]: m for m in load_declaration()[kind]}


def metric_units() -> Dict[str, str]:
    decl = load_declaration()
    return {m["name"]: m["unit"] for m in decl["end_to_end"] + decl["per_layer"]}
