"""Process-based shard execution with shared-memory array handoff.

The thread pool in :mod:`repro.parallel.pool` scales only while shards
spend their time inside GIL-releasing NumPy ufuncs.  Kernels dominated
by Python-level work — the interpreter backend, tight scalar loops in
generated code, observer callbacks — serialize on the GIL no matter how
many threads run.  This module provides the ``executor="process"`` lane:
a long-lived pool of ``multiprocessing`` workers that each *recompile*
the kernel from its (small, picklable) IR and execute sub-grids against
arrays staged in :mod:`multiprocessing.shared_memory` segments.  What the
lane builds it keeps — segments, the workers' attachments to them, the
workers' kernels — so the payload crossing the process boundary on a warm
launch is a kernel key, the grid, shard spans, scalars and segment names:
a few hundred bytes, never the arrays and not the IR.

Execution protocol, per sharded launch:

1. The parent stages every array argument into a shared-memory segment
   (one copy in) taken from the pool's free list — segments come in
   power-of-two size classes, named ``repro-<pid>-…``, and go back on the
   list after the launch; the list is bounded, and what it holds is
   unlinked at :func:`shutdown_process_pool` / exit (each segment is
   registered with the resource tracker, so a parent that dies leaks
   nothing).  The staged view spans the array exactly and is overwritten
   whole, so whatever an earlier, larger array left behind it is never
   read.  The block range is split with
   :func:`repro.parallel.shard.plan_shards`.
2. Shards are assigned statically — shard ``i`` goes to worker
   ``i % W`` — and each worker receives *one* task message carrying the
   kernel's key ``(fingerprint, grid class, bounds_check)``, the grid,
   its shard list and the segment names.  The IR rides along only the
   first time a worker process is handed that key: it compiles
   (:func:`repro.codegen.get_compiled`) and keeps the kernel in a table
   of its own, so the unpickle, the fingerprint and the compile are paid
   once per (worker process, kernel).  The parent's record of what a
   worker was sent starts empty with every (re)spawn, so a task
   re-submitted after its worker died carries the IR again.
3. Each worker maps the segments by name — attachments are kept across
   launches, bounded, least recently used closed first — and runs the
   one shard body, :func:`repro.parallel.shard.run_shard`, on views of
   them, in the mode the caller
   (:func:`repro.parallel.shard.run_sharded`) chose:

   * ``direct`` (``Shardability.in_place``: private stores into arrays
     the kernel never loads) — workers write the shared output segments
     in place; the parent copies each written segment back to the
     caller's buffer once (no per-shard pickling at all).  A task
     re-submitted after its worker died runs over what the dead worker
     already stored, and stores the same bytes.
   * ``diff`` — workers run against private copies and return, per
     shard, a mask of the bytes that changed relative to the pristine
     segment and their new values; the caller overlays them in ascending shard
     order, byte-exactly reproducing the serial store order.  A
     re-submitted task starts again from the pristine segment, which is
     why a kernel that loads an array it stores runs here.

   A worker's shard views (:meth:`repro.codegen.runtime.Geometry.shard`)
   are cached like the parent's, so its second launch of a span builds
   the span's address plan and later ones read it.

Containment mirrors the guarded thread lane and is *always on* here,
because a worker process can genuinely die: the caller's buffers are
never touched before every shard has succeeded, a worker that exits
without reporting is respawned and its task re-submitted (a bounded
number of times), and a wall-clock deadline terminates hung workers —
before the launch returns its segments to the free list, so no process
still running an abandoned task can write into a later launch's staging.
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
import secrets
import threading
import time
import multiprocessing
from collections import OrderedDict
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

#: Smallest segment size class (a page); classes double from here.
_SEGMENT_MIN_BYTES = 1 << 12
#: Bytes of idle segments the parent's free list keeps, and bytes of
#: attachments one worker keeps mapped.  A segment that does not fit is
#: unlinked (parent) or closed (worker) as soon as its launch is over.
_KEPT_BYTES_MAX = 64 << 20

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
    "segments_reused": "staged arrays that took a segment from the free list",
    "kernels_sent": "task messages that carried a kernel's IR (first use by a "
    "worker process, or a re-submission)",
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


def size_class(nbytes: int) -> int:
    """The staging size class for ``nbytes``: the next power of two, at
    least a page.  Shared with the thread lane's heap staging
    (:mod:`repro.parallel.shard`)."""
    return max(_SEGMENT_MIN_BYTES, 1 << (nbytes - 1).bit_length())


class _Kept:
    """What one worker process keeps between tasks: its compiled kernels,
    by the key the parent names them with, and its mapped segments by
    name, least recently used first."""

    def __init__(self) -> None:
        self.kernels: Dict[tuple, object] = {}
        self.attached: "OrderedDict[str, shm_mod.SharedMemory]" = OrderedDict()

    def attach(self, seg_name: str) -> shm_mod.SharedMemory:
        """The parent's segment ``seg_name``, mapped into this worker once."""
        seg = self.attached.get(seg_name)
        if seg is None:
            # CPython registers *attached* segments with the resource
            # tracker too (gh-82300).  Every worker shares the parent's
            # tracker (_Worker.spawn starts it first), where that is a
            # duplicate of the parent's own registration and its unlink
            # clears it.
            seg = self.attached[seg_name] = shm_mod.SharedMemory(name=seg_name)
        else:
            self.attached.move_to_end(seg_name)
        return seg

    def trim(self) -> None:
        """Close the least recently used attachments beyond the byte bound.
        Only between tasks: a NumPy view does not keep its mapping alive."""
        held = sum(seg.size for seg in self.attached.values())
        while held > _KEPT_BYTES_MAX:
            _, seg = self.attached.popitem(last=False)
            held -= seg.size
            seg.close()


def _run_task(payload: dict, kept: _Kept) -> List[tuple]:
    """Execute one worker task: all this worker's shards of one launch.

    Returns one ``(b0, b1, start, end, planned, diff)`` entry per shard:
    perf-counter stamps around :func:`repro.parallel.shard.run_shard`
    and what it returned (whether the shard read a complete address plan;
    None when it wrote the staged arrays in place, per-array byte diffs
    otherwise).
    """
    from ..codegen.cache import get_compiled
    from ..codegen.runtime import geometry
    from .shard import run_shard

    grid = payload["grid"]
    ir = payload.get("ir")
    if ir is not None:
        kept.kernels[payload["kernel"]] = get_compiled(*ir, grid, payload["kernel"][2])
    compiled = kept.kernels[payload["kernel"]]
    geo = geometry(grid)
    values = dict(payload["scalars"])
    try:
        for name, (seg_name, length, dtype_str) in payload["arrays"].items():
            values[name] = np.ndarray(
                length, dtype=np.dtype(dtype_str), buffer=kept.attach(seg_name).buf
            )
        shards: List[tuple] = []
        for b0, b1 in payload["shards"]:
            _maybe_fault(b0)
            start = time.perf_counter()
            planned, diff = run_shard(
                compiled, geo, grid.block_threads, values, (b0, b1),
                payload["private"],
            )
            shards.append((b0, b1, start, time.perf_counter(), planned, diff))
        return shards
    finally:
        del values
        kept.trim()


def _worker_main(worker_id: int, task_q, result_q) -> None:
    """Worker loop: take one task message, run it, report, repeat."""
    kept = _Kept()
    while True:
        item = task_q.get()
        if item is None:
            return
        epoch, task_id, payload = item
        try:
            result_q.put(("ok", epoch, task_id, _run_task(payload, kept)))
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
    """One pool slot: a process, its private task queue and the kernel
    keys whose IR that process has been sent.

    A respawn replaces all three — a worker killed mid-``get`` can leave
    its queue's feeder state inconsistent, and the new process knows no
    kernel, so the replacement starts clean.
    """

    def __init__(self, ctx, worker_id: int, result_q) -> None:
        self.ctx = ctx
        self.worker_id = worker_id
        self.result_q = result_q
        self.task_q = None
        self.process = None
        self.sent: set = set()
        self.spawn()

    def spawn(self) -> None:
        # A worker started before the parent's resource tracker exists
        # would launch a tracker of its own on first attach, and that
        # one unlinks the parent's segments when the worker exits.
        resource_tracker.ensure_running()
        self.sent = set()
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

    def submit(self, epoch: int, task_id: int, payload: dict, ir: tuple) -> None:
        """Queue one task; ``ir`` (``(fn, module)``) goes with it only if
        this process has not been sent the payload's kernel yet."""
        if payload["kernel"] not in self.sent:
            self.sent.add(payload["kernel"])
            payload = dict(payload, ir=ir)
            STATS.inc("kernels_sent")
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


class _SegmentList:
    """The parent's staging segments: idle ones wait on a free list per
    size class (powers of two), up to :data:`_KEPT_BYTES_MAX` in all."""

    def __init__(self) -> None:
        self.lock = threading.Lock()
        self.free: Dict[int, List[shm_mod.SharedMemory]] = {}
        self.free_bytes = 0
        self.closed = False

    def take(self, nbytes: int) -> shm_mod.SharedMemory:
        """A segment of at least ``nbytes``: an idle one, else a new one."""
        size = size_class(nbytes)
        with self.lock:
            idle = self.free.get(size)
            if idle:
                self.free_bytes -= size
                STATS.inc("segments_reused")
                return idle.pop()
        # The pid makes a process's segments recognisable in /dev/shm.
        name = f"repro-{os.getpid()}-{secrets.token_hex(6)}"
        return shm_mod.SharedMemory(name=name, create=True, size=size)

    def give(self, seg: shm_mod.SharedMemory) -> None:
        """Back on the free list, or unlinked if the list is full (or the
        pool was shut down while the launch ran).  No view of ``seg`` may
        be in use: a NumPy view does not keep an unlinked mapping alive."""
        with self.lock:
            if not self.closed and self.free_bytes + seg.size <= _KEPT_BYTES_MAX:
                self.free.setdefault(seg.size, []).append(seg)
                self.free_bytes += seg.size
                return
        _unlink(seg)

    def close(self) -> None:
        with self.lock:
            self.closed = True
            idle = [seg for segs in self.free.values() for seg in segs]
            self.free.clear()
            self.free_bytes = 0
        for seg in idle:
            _unlink(seg)


def _unlink(seg: shm_mod.SharedMemory) -> None:
    try:
        seg.close()
        seg.unlink()
    except FileNotFoundError:  # pragma: no cover - already unlinked
        pass


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
        self.segments = _SegmentList()
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
        """Stop the workers, then unlink the idle segments (a launch still
        running unlinks its own when it ends)."""
        with self.lock:
            for worker in self.workers:
                worker.stop()
            self.workers = []
        self.segments.close()

    # -- one launch ---------------------------------------------------------

    def run_tasks(
        self,
        payloads: Dict[int, dict],
        ir: tuple,
        deadline_seconds: float,
    ) -> Dict[int, List[tuple]]:
        """Run one task per worker index; gather every result.  ``ir`` is
        the ``(fn, module)`` of the kernel every payload names.

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
                worker.submit(epoch, task_id, payload, ir)
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
                        worker.submit(epoch, task_id, payloads[task_id], ir)
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
    segments: _SegmentList,
    bound: Dict[str, object],
    param_names: List[str],
    views: Dict[str, np.ndarray],
    taken: List[shm_mod.SharedMemory],
) -> Tuple[Dict[str, Tuple[str, int, str]], Dict[str, object]]:
    """Copy array arguments into shared-memory segments from ``segments``.

    Returns ``(array_specs, scalars)`` and fills ``views`` (the staged
    arrays) and ``taken`` (their segments, the caller's to give back even
    if staging fails half way).  Each view spans its array exactly — a
    reused segment may be larger and hold an earlier launch's bytes past
    it — and must be dropped before its segment is given back.
    """
    specs: Dict[str, Tuple[str, int, str]] = {}
    scalars: Dict[str, object] = {}
    for name in param_names:
        value = bound[name]
        if not isinstance(value, np.ndarray):
            scalars[name] = value
            continue
        seg = segments.take(value.nbytes)
        taken.append(seg)
        view = np.ndarray(value.size, dtype=value.dtype, buffer=seg.buf)
        view[...] = value
        views[name] = view
        specs[name] = (seg.name, value.size, value.dtype.str)
        STATS.inc("shm_bytes", value.nbytes)
    return specs, scalars


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
) -> List[Tuple[bool, Optional[dict]]]:
    """The process transport: run the shard body over ``plan`` on the
    worker processes and return what it returned
    (:func:`repro.parallel.shard.run_shard`) in plan order, or raise.

    Workers run against staged shared-memory copies of ``bound``; the
    caller's buffers are only written here, after every shard has
    succeeded.  With ``direct`` the shards write the staged ``written``
    arrays in place and those are copied back once; otherwise they run
    against private copies of them and the returned per-shard diffs are
    the caller's to assemble.  Raises the lowest-shard kernel exception,
    :class:`~repro.errors.ShardTimeout` or :class:`WorkerLost` (see
    :meth:`ProcessShardPool.run_tasks`) — by then no worker is running a
    shard of this launch, so its segments are free to be reused.
    """
    mode = "direct" if direct else "diff"
    pool = get_process_pool(workers)
    count = min(workers, pool.size, len(plan))

    views: Dict[str, np.ndarray] = {}
    taken: List[shm_mod.SharedMemory] = []
    try:
        specs, scalars = _stage_arrays(
            pool.segments, bound, compiled.param_names, views, taken
        )
        payloads: Dict[int, dict] = {
            widx: {
                "kernel": (compiled.fingerprint, compiled.grid_class, compiled.bounds_check),
                "grid": grid,
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
            results = pool.run_tasks(payloads, (fn, module), deadline_seconds)
            for task_id in sorted(results):
                for b0, b1, start, end, planned, _diff in results[task_id]:
                    obs_trace.emit_span(
                        "proc.shard",
                        start,
                        end,
                        kernel=compiled.fn_name,
                        blocks=f"{b0}:{b1}",
                        mode=mode,
                        planned=planned,
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
        return [(planned, diff) for *_stamps, planned, diff in shards]
    finally:
        views.clear()
        for seg in taken:
            pool.segments.give(seg)
