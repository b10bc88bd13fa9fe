"""Grid-sharded execution of compiled kernels.

The codegen backend runs a whole grid as one NumPy callable on one core.
When the shardability analysis (:mod:`repro.parallel.analysis`) proves
blocks independent, the launch can instead split the *block* range into
per-worker sub-grids — blocks are contiguous in linear thread order, so
each shard's geometry is a zero-copy slice of the full grid's
(:meth:`repro.codegen.runtime.Geometry.shard`), cached on it by span: a
shard runs the kernel a serial launch runs, address plans included, and
from its third launch a span reads its plan.

This module owns the sharded launch, once, for both executors:

* the **shard body** (:func:`run_shard`) — run blocks ``b0:b1`` in
  place, returning whether the launch read a complete address plan;
* **where shards write** — one copy of each written array, in place.
  The analysis lets a kernel shard only when every global store is
  provably thread- or block-private and no written array is also loaded
  (:mod:`repro.parallel.analysis`): no two shards store to one element.
  Every other kernel runs serial.  In place means into the caller's
  buffers when nothing can fail over them (a thread launch outside any
  guard), otherwise into one **launch-private staging copy** of each
  written array, which the parent fills from the caller's array before
  any shard starts and copies back once, after *every* shard succeeded:
  shared-memory segments on the process lane
  (:mod:`repro.parallel.procpool`), heap buffers from
  :class:`_StagingList` on a guarded thread launch;
* the **fallback** — a failed shard is never retried.  When the
  transport fails (deadline, lost worker, injected fault) the launch is
  re-run serially on the caller's buffers, which no shard was allowed to
  touch.

Only the *transport* differs per executor, because the failure modes
genuinely differ: ``"thread"`` maps the body over the shard thread
pool (``parallel_map``, or ``guarded_map`` under a guard, which adds the
deadline — a hung thread cannot be killed, only abandoned, so the
staging of a launch that did not fully succeed is dropped, never reused:
a shard that wakes later writes memory nobody reads); ``"process"`` runs
the first shard on the launching thread and ships the rest to the
:mod:`repro.parallel.procpool` workers, all on shared-memory staging
copies (a dead or hung worker is respawned for the next launch before
its segments are reused; the caller's buffers are out of reach by
construction).

Every other exception (e.g. a bounds-check failure) propagates from the
lowest failing shard on both lanes, guarded or not, matching the serial
order of discovery; the reported index range may cover a sub-grid rather
than the whole launch.
"""

from __future__ import annotations

import threading
from typing import Dict, Iterable, List, Tuple

import numpy as np

from .._state import on_reset
from ..codegen.cache import CompiledKernel
from ..codegen.runtime import Geometry, geometry
from ..engine.launch import Grid
from ..errors import InjectedFault, ShardTimeout
from ..kernel import ir
from ..obs import trace as obs_trace
from ..obs.registry import CounterGroup
from ..resilience import guard as guard_mod
from ..resilience.faults import SITE_WORKER, maybe_inject
from . import procpool
from .analysis import Shardability, analyze_shardability
from .pool import ParallelPolicy, parallel_map

# ------------------------------------------------------------------ stats

#: Registry field -> help text; each becomes ``repro_shard_<field>``.
_FIELDS = {
    "sharded_launches": "launches split across the shard pool",
    "shards_run": "individual shards executed",
    "zero_copy": "sharded launches whose shards wrote in place — caller's "
    "buffers or launch staging; every one that did not fall back to serial",
    "staged": "of zero_copy, launches that wrote launch-private staging, "
    "copied back once (guarded thread lane, process lane)",
    "staging_bytes": "bytes copied into heap staging buffers (thread lane; the "
    "process lane counts repro_procpool_shm_bytes)",
    "overlay": "always 0 (shards write in place or the launch runs serial); "
    "kept while bench/layers.py reads it, ROADMAP item 4",
    "serial_unshardable": "launches kept serial by the shardability analysis",
    "serial_small_grid": "launches kept serial below the shard threshold",
    "planned": "shards that read a complete address plan (of shards_run)",
}

#: Process-wide sharding counters (``repro_shard_*`` registry series).
STATS = CounterGroup("shard", _FIELDS)


def stats_snapshot() -> Dict[str, int]:
    return STATS.snapshot()


# ------------------------------------------------------------------- plans


def plan_shards(total_blocks: int, workers: int) -> List[Tuple[int, int]]:
    """Split ``[0, total_blocks)`` into ``<= workers`` contiguous ranges.

    Ranges differ in size by at most one block (remainder blocks go to
    the leading shards), every range is non-empty, and their ascending
    order is the serial block order.
    """
    shards = max(1, min(workers, total_blocks))
    base, extra = divmod(total_blocks, shards)
    plan: List[Tuple[int, int]] = []
    start = 0
    for i in range(shards):
        size = base + (1 if i < extra else 0)
        plan.append((start, start + size))
        start += size
    return plan


# ----------------------------------------------------------------- staging

#: Bytes of idle staging the free list keeps (as
#: ``procpool._KEPT_BYTES_MAX``); a buffer that does not fit is left to
#: the garbage collector when its launch is over.
_STAGING_KEPT_BYTES_MAX = 64 << 20


class _StagingList:
    """Heap staging for guarded thread launches: idle byte buffers wait on
    a free list per size class (:func:`procpool.size_class`), up to
    :data:`_STAGING_KEPT_BYTES_MAX` in all.

    A buffer is on the list or with exactly one launch, never both:
    ``take`` pops under the lock, and only a launch whose every shard has
    returned gives its buffers back — so no abandoned shard can hold a
    buffer a later launch is handed.
    """

    def __init__(self) -> None:
        self.lock = threading.Lock()
        self.free: Dict[int, List[np.ndarray]] = {}
        self.free_bytes = 0

    def take(self, array: np.ndarray) -> np.ndarray:
        """A staged copy of ``array``: a view spanning it exactly, over an
        idle buffer of its size class (else a new one), overwritten whole —
        what a longer array left behind the view is never read."""
        size = procpool.size_class(array.nbytes)
        raw = None
        with self.lock:
            if self.free.get(size):
                raw = self.free[size].pop()
                self.free_bytes -= size
        if raw is None:
            raw = np.empty(size, np.uint8)
        view = raw[: array.nbytes].view(array.dtype).reshape(array.shape)
        view[...] = array
        STATS.inc("staging_bytes", array.nbytes)
        return view

    def give(self, views: Iterable[np.ndarray]) -> None:
        """Back on the free list (a view's ``base`` is the buffer it was
        taken over), or dropped if the list is full."""
        with self.lock:
            for view in views:
                raw = view.base
                if self.free_bytes + raw.nbytes <= _STAGING_KEPT_BYTES_MAX:
                    self.free.setdefault(raw.nbytes, []).append(raw)
                    self.free_bytes += raw.nbytes

    def idle(self) -> List[np.ndarray]:
        """The buffers on the free list (hold ``lock`` to touch them)."""
        return [raw for raws in self.free.values() for raw in raws]


_STAGING = _StagingList()


@on_reset
def _drop_staging() -> None:
    """Empty the free list."""
    with _STAGING.lock:
        _STAGING.free.clear()
        _STAGING.free_bytes = 0


def scribble_staging() -> None:
    """Fill every idle staging buffer with 0xFF (an all-ones NaN in every
    float width) so that a shard reading staged bytes its launch did not
    refill shows in the output.  A correct launch reads none: ``take``
    overwrites the whole view.  Buffers a launch holds are not idle."""
    with _STAGING.lock:
        for raw in _STAGING.idle():
            raw.fill(0xFF)


# --------------------------------------------------------------- execution


def run_shard(
    compiled: CompiledKernel,
    geo: Geometry,
    block_threads: int,
    values: Dict[str, object],
    span: Tuple[int, int],
) -> bool:
    """The shard body: run blocks ``span`` of ``compiled`` over ``values``,
    writing them in place.  Returns whether the kernel computed none of
    its launch-invariant sites, reading them all from the span's plan."""
    shard_geo = geo.shard(span[0], span[1], block_threads)
    return bool(
        compiled.entry(shard_geo, *[values[name] for name in compiled.param_names])
    )


def run_sharded(
    compiled: CompiledKernel,
    grid: Grid,
    bound: Dict[str, object],
    workers: int,
    analysis: Shardability,
    executor: str = "thread",
    fn: ir.Function = None,
    module: ir.Module = None,
) -> None:
    """Execute a launch as shards, unconditionally (caller checked policy).

    ``executor="process"`` routes the shards to the
    :mod:`repro.parallel.procpool` worker processes (``fn``/``module``
    must be supplied — workers recompile from the IR).  An ambient guard
    adds a deadline on the thread lane and sets the deadline on the
    process lane; the module docstring says how the copy shards write and
    the fallback follow from the executor and the guard.
    """
    plan = plan_shards(grid.total_blocks, workers)
    guard = guard_mod.current_policy()
    guarded = guard is not None
    on_processes = executor == "process" and fn is not None
    # In place is on the caller's buffers only when nothing can fail over
    # them; a process worker can always die and a guard times out and
    # abandons, so those launches write staging, copied back at the end.
    staged = on_processes or guarded
    staging: Dict[str, np.ndarray] = {}
    try:
        if on_processes:
            deadline = (
                guard.deadline_seconds
                if guarded
                else procpool.DEFAULT_DEADLINE_SECONDS
            )
            results = procpool.run_shards(
                fn, module, compiled, grid, bound, plan, workers,
                analysis.written_arrays, deadline,
            )
        else:
            geo = geometry(grid)
            mode = "staged" if staged else "direct"
            values = bound
            if staged:
                for name in analysis.written_arrays:
                    staging[name] = _STAGING.take(bound[name])
                values = {**bound, **staging}

            def on_thread(span: Tuple[int, int]) -> bool:
                with obs_trace.span(
                    "shard.run",
                    kernel=compiled.fn_name,
                    blocks=f"{span[0]}:{span[1]}",
                    mode=mode,
                ) as traced:
                    if guarded:
                        maybe_inject(
                            SITE_WORKER, f"{compiled.fn_name}:{span[0]}-{span[1]}"
                        )
                    planned = run_shard(compiled, geo, grid.block_threads, values, span)
                    traced.set(planned=planned)
                    return planned

            if guarded:
                guard_mod.STATS.inc("guarded_sharded")
                results = guard_mod.guarded_map(workers, on_thread, plan, guard)
            else:
                results = parallel_map(workers, on_thread, plan)
    except (ShardTimeout, procpool.WorkerLost, InjectedFault):
        # A transport fault — deadline, lost worker, injected fault — left
        # the caller's buffers untouched, so serial re-execution is exact.
        # Its staging is dropped, not given back: a shard may still be
        # running on it.  Any other exception is not a fault to absorb: it
        # propagates as the serial path's would.
        (procpool.STATS if on_processes else guard_mod.STATS).inc(
            "serial_reexecutions"
        )
        compiled.run(grid, bound)
    else:
        STATS.inc("zero_copy")
        STATS.inc("staged", staged)
        STATS.inc("planned", sum(results))
        if staging:
            # Every shard returned: the thread lane's staging goes to the
            # caller and back on the free list (the process lane copied
            # its segments back itself).
            for name, view in staging.items():
                bound[name][...] = view
            _STAGING.give(staging.values())
    STATS.inc("sharded_launches")
    STATS.inc("shards_run", len(plan))


def maybe_run_sharded(
    fn: ir.Function,
    module: ir.Module,
    compiled: CompiledKernel,
    grid: Grid,
    bound: Dict[str, object],
    policy: ParallelPolicy,
) -> bool:
    """Shard the launch if the policy and the analysis both allow it.

    Returns True when the kernel ran (sharded); False means the caller
    must run it serially — either the grid is too small to pay for the
    pool handoff or the kernel is not shardable.
    """
    if policy.serial:
        return False
    if grid.threads < policy.min_shard_threads or grid.total_blocks < 2:
        STATS.inc("serial_small_grid")
        return False
    analysis = analyze_shardability(
        fn, module, compiled.fingerprint, flat=grid.threads_per_block_y == 1
    )
    if not analysis.shardable:
        STATS.inc("serial_unshardable")
        return False
    run_sharded(
        compiled, grid, bound, policy.workers, analysis,
        executor=policy.executor, fn=fn, module=module,
    )
    return True
