"""Process-based shard execution with shared-memory array handoff.

The thread pool in :mod:`repro.parallel.pool` scales only while shards
spend their time inside GIL-releasing NumPy ufuncs.  Kernels dominated
by Python-level work — the interpreter backend, tight scalar loops in
generated code, observer callbacks — serialize on the GIL no matter how
many threads run.  This module provides the ``executor="process"`` lane:
a long-lived pool of ``multiprocessing`` workers that each *recompile*
the kernel from its (small, picklable) IR and execute sub-grids against
arrays staged in :mod:`multiprocessing.shared_memory` segments, so the
payload crossing the process boundary per launch is a few kilobytes of
IR plus shard geometry — never the arrays.

Execution protocol, per sharded launch:

1. The parent stages every array argument into a shared-memory segment
   (one copy in) and splits the block range with
   :func:`repro.parallel.shard.plan_shards`.
2. Shards are assigned statically — shard ``i`` goes to worker
   ``i % W`` — and each worker receives *one* task message carrying the
   kernel IR, the grid, its shard list and the segment names.  Workers
   cache compiled kernels per-process (:func:`repro.codegen.get_compiled`
   keys on the IR fingerprint), so recompilation happens once per
   worker, not once per launch.
3. Each worker runs the one shard body,
   :func:`repro.parallel.shard.run_shard`, on its attached views, in
   the mode the caller (:func:`repro.parallel.shard.run_sharded`) chose:

   * ``direct`` (``Shardability.disjoint_writes``) — workers write the
     shared output segments in place; the parent copies each written
     segment back to the caller's buffer once (no per-shard pickling at
     all).
   * ``diff`` — workers run against private copies and return, per
     shard, a mask of the bytes that changed relative to the pristine
     segment and their new values; the caller overlays them in ascending shard
     order, byte-exactly reproducing the serial store order.

Containment mirrors the guarded thread lane and is *always on* here,
because a worker process can genuinely die: the caller's buffers are
never touched before every shard has succeeded, a worker that exits
without reporting is respawned and its task re-submitted (a bounded
number of times), and a wall-clock deadline terminates hung workers.
Every unrecoverable outcome is raised (:class:`~repro.errors.ShardTimeout`,
:class:`WorkerLost`) for ``run_sharded``'s bit-exact serial re-execution
in the parent.  Kernel-raised exceptions (e.g. bounds checks) are not
faults to absorb: the error from the lowest failing shard propagates,
matching the serial order of discovery.

Fault injection for tests rides in the ``REPRO_PROC_INJECT`` environment
variable (it must cross the process boundary, which the in-process fault
plans of :mod:`repro.resilience.faults` cannot):
``die@<b0>:<once-path>`` makes the worker running the shard that starts
at block ``b0`` exit hard (once; the path records that the fault fired),
and ``hang@<b0>:<seconds>`` makes it sleep through the deadline.
"""

from __future__ import annotations

import atexit
import os
import pickle
import queue as queue_mod
import threading
import time
import multiprocessing
from multiprocessing import get_context, resource_tracker
from multiprocessing import shared_memory as shm_mod
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..errors import ExecutionError, ResilienceError, ShardTimeout
from ..obs import trace as obs_trace
from ..obs.registry import CounterGroup

#: Wall-clock bound on one process-sharded launch outside any guard
#: scope; a :class:`~repro.resilience.GuardPolicy` overrides it.
DEFAULT_DEADLINE_SECONDS = 120.0

#: Times one task is re-submitted after its worker died mid-run before
#: the launch gives up on the pool and re-executes serially.
MAX_RESPAWNS_PER_TASK = 2

#: Environment variable holding a worker-side fault directive.
INJECT_ENV = "REPRO_PROC_INJECT"

#: ``fork`` keeps worker start cheap and inherits the imported modules;
#: platforms without it (Windows, macOS defaults notwithstanding) get
#: ``spawn``, which works because the worker entry point is module-level.
_START_METHOD = (
    "fork" if "fork" in multiprocessing.get_all_start_methods() else "spawn"
)


class WorkerLost(ResilienceError):
    """A worker process died mid-task more times than the respawn budget.

    An infrastructure failure, not a kernel error: the launch falls back
    to bit-exact serial re-execution in the parent.
    """


# ------------------------------------------------------------------ stats


#: Registry field -> help text; each becomes ``repro_procpool_<field>``.
_FIELDS = {
    "launches": "sharded launches executed on the process pool",
    "tasks": "worker tasks submitted (one per worker per launch)",
    "shards_run": "individual shards executed by worker processes",
    "direct": "launches assembled by direct shared-memory writes",
    "diff": "launches assembled by diff overlay",
    "workers_spawned": "worker processes started",
    "workers_replaced": "workers respawned after dying mid-task",
    "deadline_timeouts": "launches that overran their deadline",
    "serial_reexecutions": "launches recomputed serially after containment",
    "shm_bytes": "bytes staged into shared-memory segments",
}


#: Process-pool counters (``repro_procpool_*`` registry series).
STATS = CounterGroup("procpool", _FIELDS)


def stats_snapshot() -> Dict[str, int]:
    return STATS.snapshot()


# ----------------------------------------------------------- worker side


def _maybe_fault(b0: int) -> None:
    """Honour a ``REPRO_PROC_INJECT`` directive for the shard at ``b0``."""
    spec = os.environ.get(INJECT_ENV, "")
    if not spec:
        return
    kind, _, rest = spec.partition("@")
    target, _, arg = rest.partition(":")
    if target != str(b0):
        return
    if kind == "die":
        if arg:
            # The once-file makes the fault single-shot: the respawned
            # worker (or a retried task) sees it and runs normally.
            try:
                fd = os.open(arg, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
            except FileExistsError:
                return
            os.close(fd)
        os._exit(17)
    elif kind == "hang":
        time.sleep(float(arg) if arg else 3600.0)


def _attach_arrays(
    arrays: Dict[str, Tuple[str, int, str]]
) -> Tuple[Dict[str, np.ndarray], List[shm_mod.SharedMemory]]:
    """Map the parent's segments into this worker as 1-D NumPy views."""
    views: Dict[str, np.ndarray] = {}
    segments: List[shm_mod.SharedMemory] = []
    for name, (seg_name, length, dtype_str) in arrays.items():
        # CPython registers *attached* segments with the resource tracker
        # too (gh-82300).  Every worker shares the parent's tracker
        # (_Worker.spawn starts it first), where that is a duplicate of
        # the parent's own registration and its unlink clears it.
        seg = shm_mod.SharedMemory(name=seg_name)
        segments.append(seg)
        views[name] = np.ndarray(length, dtype=np.dtype(dtype_str), buffer=seg.buf)
    return views, segments


def _run_task(payload: dict) -> List[tuple]:
    """Execute one worker task: all this worker's shards of one launch.

    Returns one ``(b0, b1, start, end, diff)`` entry per shard:
    perf-counter stamps around :func:`repro.parallel.shard.run_shard`
    and what it returned (None when the shard wrote the staged arrays in
    place, per-array byte diffs otherwise).
    """
    from ..codegen.cache import get_compiled
    from ..codegen.runtime import geometry
    from .shard import run_shard

    grid = payload["grid"]
    compiled = get_compiled(
        payload["fn"], payload["module"], grid, payload["bounds_check"]
    )
    geo = geometry(grid)
    views, segments = _attach_arrays(payload["arrays"])
    try:
        values = dict(payload["scalars"])
        values.update(views)
        shards: List[tuple] = []
        for b0, b1 in payload["shards"]:
            _maybe_fault(b0)
            start = time.perf_counter()
            diff = run_shard(
                compiled, geo, grid.block_threads, values, (b0, b1),
                payload["private"],
            )
            shards.append((b0, b1, start, time.perf_counter(), diff))
        return shards
    finally:
        # Views must be dropped before the segments close: an exported
        # buffer keeps SharedMemory.close() from releasing the mapping.
        del views, values
        for seg in segments:
            seg.close()


def _worker_main(worker_id: int, task_q, result_q) -> None:
    """Worker loop: take one task message, run it, report, repeat."""
    while True:
        item = task_q.get()
        if item is None:
            return
        epoch, task_id, payload = item
        try:
            result_q.put(("ok", epoch, task_id, _run_task(payload)))
        except BaseException as exc:  # noqa: BLE001 - must report, not die
            b0 = payload["shards"][0][0] if payload["shards"] else -1
            failing = getattr(exc, "_proc_b0", b0)
            try:
                pickle.dumps(exc)
            except Exception:
                exc = ExecutionError(f"{type(exc).__name__}: {exc}")
            result_q.put(("err", epoch, task_id, failing, exc))


# ----------------------------------------------------------- parent side


class _Worker:
    """One pool slot: a process plus its private task queue.

    A respawn replaces both — a worker killed mid-``get`` can leave its
    queue's feeder state inconsistent, so the replacement starts clean.
    """

    def __init__(self, ctx, worker_id: int, result_q) -> None:
        self.ctx = ctx
        self.worker_id = worker_id
        self.result_q = result_q
        self.task_q = None
        self.process = None
        self.spawn()

    def spawn(self) -> None:
        # A worker started before the parent's resource tracker exists
        # would launch a tracker of its own on first attach, and that
        # one unlinks the parent's segments when the worker exits.
        resource_tracker.ensure_running()
        self.task_q = self.ctx.Queue()
        self.process = self.ctx.Process(
            target=_worker_main,
            args=(self.worker_id, self.task_q, self.result_q),
            name=f"repro-proc-{self.worker_id}",
            daemon=True,
        )
        self.process.start()
        STATS.inc("workers_spawned")

    def alive(self) -> bool:
        return self.process is not None and self.process.is_alive()

    def respawn(self) -> None:
        self.terminate()
        self.spawn()
        STATS.inc("workers_replaced")

    def submit(self, epoch: int, task_id: int, payload: dict) -> None:
        self.task_q.put((epoch, task_id, payload))

    def terminate(self) -> None:
        if self.process is not None and self.process.is_alive():
            self.process.terminate()
            self.process.join(timeout=2.0)
            if self.process.is_alive():  # pragma: no cover - stuck in D state
                self.process.kill()
                self.process.join(timeout=2.0)
        if self.task_q is not None:
            self.task_q.close()

    def stop(self) -> None:
        """Graceful shutdown: sentinel, short join, then terminate."""
        if self.process is not None and self.process.is_alive():
            try:
                self.task_q.put(None)
            except Exception:  # pragma: no cover - queue already broken
                pass
            self.process.join(timeout=1.0)
        self.terminate()


class ProcessShardPool:
    """A fixed set of worker processes executing shard tasks.

    The pool is long-lived and shared across launches (module-level
    singleton via :func:`get_process_pool`); launches are serialized by
    an internal lock, which matches how the serving front-end uses it —
    one fused submission at a time, each already sharded across every
    worker.
    """

    def __init__(self, workers: int) -> None:
        self.ctx = get_context(_START_METHOD)
        self.result_q = self.ctx.Queue()
        self.workers = [
            _Worker(self.ctx, i, self.result_q) for i in range(workers)
        ]
        self.lock = threading.Lock()
        self._epoch = 0

    @property
    def size(self) -> int:
        return len(self.workers)

    def grow(self, workers: int) -> None:
        with self.lock:
            while len(self.workers) < workers:
                self.workers.append(
                    _Worker(self.ctx, len(self.workers), self.result_q)
                )

    def shutdown(self) -> None:
        with self.lock:
            for worker in self.workers:
                worker.stop()
            self.workers = []

    # -- one launch ---------------------------------------------------------

    def run_tasks(
        self,
        payloads: Dict[int, dict],
        deadline_seconds: float,
    ) -> Dict[int, List[tuple]]:
        """Run one task per worker index; gather every result.

        Returns ``{task_id: shard entries}`` (see :func:`_run_task`) on
        full success.  Raises
        the lowest-shard kernel exception on worker-reported errors,
        :class:`~repro.errors.ShardTimeout` on deadline expiry, and
        :class:`WorkerLost` when a task's worker died past its respawn
        budget.  In every raising path the workers that
        hold abandoned tasks have been terminated and respawned, so the
        next launch starts from a clean pool.
        """
        with self.lock:
            self._epoch += 1
            epoch = self._epoch
            deadline = time.monotonic() + deadline_seconds
            outstanding: Dict[int, int] = {}  # task_id -> worker index
            respawns: Dict[int, int] = {}
            results: Dict[int, List[tuple]] = {}
            errors: List[Tuple[int, BaseException]] = []  # (failing b0, exc)

            for task_id, payload in payloads.items():
                worker = self.workers[task_id % len(self.workers)]
                if not worker.alive():
                    worker.respawn()
                worker.submit(epoch, task_id, payload)
                outstanding[task_id] = task_id % len(self.workers)
                STATS.inc("tasks")

            def abandon() -> None:
                for task_id, widx in outstanding.items():
                    self.workers[widx].respawn()

            while outstanding:
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    abandon()
                    STATS.inc("deadline_timeouts")
                    raise ShardTimeout(
                        f"process-sharded launch overran its "
                        f"{deadline_seconds:.3f}s deadline with "
                        f"{len(outstanding)} task(s) outstanding"
                    )
                try:
                    msg = self.result_q.get(timeout=min(0.05, remaining))
                except queue_mod.Empty:
                    # No result yet: check for workers that died mid-task.
                    for task_id, widx in list(outstanding.items()):
                        worker = self.workers[widx]
                        if worker.alive():
                            continue
                        respawns[task_id] = respawns.get(task_id, 0) + 1
                        worker.respawn()
                        if respawns[task_id] > MAX_RESPAWNS_PER_TASK:
                            abandon()
                            raise WorkerLost(
                                f"process shard task {task_id} lost its "
                                f"worker {respawns[task_id]} times"
                            )
                        worker.submit(epoch, task_id, payloads[task_id])
                    continue
                kind, msg_epoch, task_id = msg[0], msg[1], msg[2]
                if msg_epoch != epoch or task_id not in outstanding:
                    continue  # stale result from an abandoned launch
                outstanding.pop(task_id)
                if kind == "ok":
                    results[task_id] = msg[3]
                else:
                    errors.append((msg[3], msg[4]))
            if errors:
                # Lowest failing shard wins, matching serial discovery
                # order; workers that errored are alive and reusable.
                errors.sort(key=lambda pair: pair[0])
                raise errors[0][1]
            return results


_POOL_LOCK = threading.Lock()
_POOL: Optional[ProcessShardPool] = None


def get_process_pool(workers: int) -> ProcessShardPool:
    """The shared worker-process pool, grown to at least ``workers``."""
    global _POOL
    with _POOL_LOCK:
        if _POOL is None:
            _POOL = ProcessShardPool(workers)
        elif _POOL.size < workers:
            _POOL.grow(workers)
        return _POOL


def shutdown_process_pool() -> None:
    """Tear down the worker processes (tests and interpreter exit)."""
    global _POOL
    with _POOL_LOCK:
        if _POOL is not None:
            _POOL.shutdown()
            _POOL = None


atexit.register(shutdown_process_pool)


# ------------------------------------------------------------- staging


def _stage_arrays(
    bound: Dict[str, object], param_names: List[str]
) -> Tuple[
    Dict[str, Tuple[str, int, str]],
    Dict[str, object],
    Dict[str, np.ndarray],
    List[shm_mod.SharedMemory],
]:
    """Copy array arguments into fresh shared-memory segments.

    Returns ``(array_specs, scalars, staged_views, segments)``; the
    views alias the segments and must be dropped before the segments are
    closed and unlinked.
    """
    specs: Dict[str, Tuple[str, int, str]] = {}
    scalars: Dict[str, object] = {}
    views: Dict[str, np.ndarray] = {}
    segments: List[shm_mod.SharedMemory] = []
    for name in param_names:
        value = bound[name]
        if not isinstance(value, np.ndarray):
            scalars[name] = value
            continue
        seg = shm_mod.SharedMemory(create=True, size=max(1, value.nbytes))
        segments.append(seg)
        view = np.ndarray(value.size, dtype=value.dtype, buffer=seg.buf)
        view[...] = value
        views[name] = view
        specs[name] = (seg.name, value.size, value.dtype.str)
        STATS.inc("shm_bytes", value.nbytes)
    return specs, scalars, views, segments


def _release(views: Dict[str, np.ndarray], segments) -> None:
    views.clear()
    for seg in segments:
        try:
            seg.close()
            seg.unlink()
        except FileNotFoundError:  # pragma: no cover - already unlinked
            pass


# ------------------------------------------------------------- execution


def run_shards(
    fn,
    module,
    compiled,
    grid,
    bound: Dict[str, object],
    plan: List[Tuple[int, int]],
    workers: int,
    written: Sequence[str],
    direct: bool,
    deadline_seconds: float,
) -> List[Optional[dict]]:
    """The process transport: run the shard body over ``plan`` on the
    worker processes and return its results in plan order, or raise.

    Workers run against staged shared-memory copies of ``bound``; the
    caller's buffers are only written here, after every shard has
    succeeded.  With ``direct`` the shards write the staged ``written``
    arrays in place and those are copied back once; otherwise they run
    against private copies of them and the returned per-shard diffs are
    the caller's to assemble.  Raises the lowest-shard kernel exception,
    :class:`~repro.errors.ShardTimeout` or :class:`WorkerLost` (see
    :meth:`ProcessShardPool.run_tasks`).
    """
    mode = "direct" if direct else "diff"
    pool = get_process_pool(workers)
    count = min(workers, pool.size, len(plan))

    specs, scalars, views, segments = _stage_arrays(bound, compiled.param_names)
    try:
        payloads: Dict[int, dict] = {
            widx: {
                "fn": fn,
                "module": module,
                "grid": grid,
                "bounds_check": compiled.bounds_check,
                "shards": [plan[i] for i in range(widx, len(plan), count)],
                "arrays": specs,
                "scalars": scalars,
                "private": [] if direct else list(written),
            }
            for widx in range(count)
        }
        with obs_trace.span(
            "proc.launch",
            kernel=compiled.fn_name,
            mode=mode,
            workers=count,
            shards=len(plan),
        ):
            results = pool.run_tasks(payloads, deadline_seconds)
            for task_id in sorted(results):
                for b0, b1, start, end, _diff in results[task_id]:
                    obs_trace.emit_span(
                        "proc.shard",
                        start,
                        end,
                        kernel=compiled.fn_name,
                        blocks=f"{b0}:{b1}",
                        mode=mode,
                        worker=task_id,
                    )
            if direct:
                for name in written:
                    bound[name][...] = views[name]
        # Workers took the plan in strides; ascending b0 restores its order.
        shards = sorted(
            (entry for entries in results.values() for entry in entries),
            key=lambda entry: entry[0],
        )
        STATS.inc("shards_run", len(shards))
        STATS.inc("launches")
        STATS.inc(mode)
        return [diff for _b0, _b1, _start, _end, diff in shards]
    finally:
        _release(views, segments)
