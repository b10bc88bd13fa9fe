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
2. The launching thread keeps the first shard, ``plan[0]``, for itself;
   the pool holds ``parallel − 1`` processes and ``plan[1:]`` strides
   over them — its shard ``i`` goes to worker ``i % W``.  Each worker is
   sent *one* task message over its own duplex pipe (no feeder thread on
   either side), carrying the kernel's key ``(fingerprint, grid class,
   bounds_check)``, the grid, its shard list and the segment names.  The
   IR rides along only the first time a worker process is handed that
   key: it compiles (:func:`repro.codegen.get_compiled`) and keeps the
   kernel in a table of its own, so the unpickle, the fingerprint and the
   compile are paid once per (worker process, kernel).  The parent's
   record of what a worker was sent starts empty with every (re)spawn,
   so a task re-submitted after its worker died carries the IR again.
3. The caller runs its shard on its own views of the segments while the
   workers run theirs; then it waits on each outstanding worker's pipe
   and process sentinel at once, so a reply and a death are both seen
   the moment they happen.  Each worker maps the segments by name —
   attachments are kept across launches, bounded, least recently used
   closed first — and replies on its pipe.  Caller and workers run the
   one shard body, :func:`repro.parallel.shard.run_shard`, in the mode
   :func:`repro.parallel.shard.run_sharded` chose:

   * ``direct`` (``Shardability.in_place``: private stores into arrays
     the kernel never loads) — shards write the shared output segments
     in place; the parent copies each written segment back to the
     caller's buffer once (no per-shard pickling at all).  A task
     re-submitted after its worker died runs over what the dead worker
     already stored, and stores the same bytes.
   * ``diff`` — shards run against private copies and return a mask of
     the bytes that changed relative to the pristine segment and their
     new values; the caller overlays them in ascending shard order,
     byte-exactly reproducing the serial store order.  A
     re-submitted task starts again from the pristine segment, which is
     why a kernel that loads an array it stores runs here.

   Shard views (:meth:`repro.codegen.runtime.Geometry.shard`) are cached
   per process, so the second launch of a span builds the span's address
   plan and later ones read it — the caller's in the parent, the others'
   in the workers.

Containment mirrors the guarded thread lane and is *always on* here,
because a worker process can genuinely die: the caller's buffers are
never touched before every shard has succeeded, a worker that exits
without reporting — or whose pipe breaks under a send — is respawned
with a fresh pipe and its task re-submitted (a bounded number of times),
and a wall-clock deadline, which the caller's own shard counts against,
terminates hung workers — before the launch returns its segments to the
free list, so no process still running an abandoned task can write into
a later launch's staging.  Every unrecoverable outcome is raised
(:class:`~repro.errors.ShardTimeout`, :class:`WorkerLost`, an injected
fault) for ``run_sharded``'s bit-exact serial re-execution in the parent.
Kernel-raised exceptions (e.g. bounds checks) are not faults to absorb:
the error from the lowest failing shard propagates, matching the serial
order of discovery — the caller's shard is the lowest, and a worker
names the shard that raised.

Faults come from the active :class:`~repro.resilience.faults.FaultPlan`,
as on the thread lane.  The parent polls ``shard.worker`` once per shard,
context ``"<kernel>:<b0>-<b1>"``: the caller's shard first, which acts
out what fired in-process, then a worker task's shards each time the
task is sent, so a re-send after a death draws again.  What fired rides
in the task: a forked worker holds no plan, and exits hard (``dead``),
sleeps (``hang``) or fails the shard (``exception``) on cue.
"""

from __future__ import annotations

import atexit
import os
import pickle
import secrets
import threading
import time
import traceback
import multiprocessing
from collections import OrderedDict
from multiprocessing import get_context, resource_tracker
from multiprocessing import shared_memory as shm_mod
from multiprocessing.connection import wait as wait_ready
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from .._state import on_reset
from ..errors import ExecutionError, ResilienceError, ShardTimeout
from ..obs import trace as obs_trace
from ..obs.registry import CounterGroup
from ..resilience.faults import SITE_WORKER, FaultSpec, active_plan, fire

#: Wall-clock bound on one process-sharded launch outside any guard
#: scope; a :class:`~repro.resilience.GuardPolicy` overrides it.
DEFAULT_DEADLINE_SECONDS = 120.0

#: Times one task is re-submitted after its worker died mid-run before
#: the launch gives up on the pool and re-executes serially.
MAX_RESPAWNS_PER_TASK = 2

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
    "tasks": "worker tasks: parallel − 1 per launch",
    "shards_run": "individual shards executed (the caller's included)",
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


def _run_task(payload: dict, kept: _Kept) -> tuple:
    """Execute one worker task: all this worker's shards of one launch.

    Returns ``("ok", entries)`` with one ``(b0, b1, start, end, planned,
    diff)`` entry per shard — perf-counter stamps around
    :func:`repro.parallel.shard.run_shard` and what it returned (whether
    the shard read a complete address plan; None when it wrote the staged
    arrays in place, per-array byte diffs otherwise) — or, once a shard
    raises, ``("err", b0, exc)`` naming that shard.  A fault the parent
    drew for a shard (``payload["faults"]``) is acted out as it starts."""
    from ..codegen.cache import get_compiled
    from ..codegen.runtime import geometry
    from .shard import run_shard

    grid = payload["grid"]
    values = dict(payload["scalars"])
    # Blamed for what fails before the first shard starts (the compile, an
    # attach), then rebound to each shard as it runs.
    b0 = payload["shards"][0][0]
    try:
        ir = payload.get("ir")
        if ir is not None:
            kept.kernels[payload["kernel"]] = get_compiled(
                *ir, grid, payload["kernel"][2]
            )
        compiled = kept.kernels[payload["kernel"]]
        geo = geometry(grid)
        for name, (seg_name, length, dtype_str) in payload["arrays"].items():
            values[name] = np.ndarray(
                length, dtype=np.dtype(dtype_str), buffer=kept.attach(seg_name).buf
            )
        faults = payload.get("faults", {})
        shards: List[tuple] = []
        for b0, b1 in payload["shards"]:
            if b0 in faults:
                if faults[b0].mode == "dead":
                    os._exit(17)
                fire(faults[b0], SITE_WORKER, f"{compiled.fn_name}:{b0}-{b1}")
            start = time.perf_counter()
            planned, diff = run_shard(
                compiled, geo, grid.block_threads, values, (b0, b1),
                payload["private"],
            )
            shards.append((b0, b1, start, time.perf_counter(), planned, diff))
        return ("ok", shards)
    except Exception as exc:  # reported to the parent, which raises it
        # Its frames hold views of the segments, which trim may close.
        exc = exc.with_traceback(None)
        try:
            pickle.dumps(exc)
        except Exception:
            exc = ExecutionError(f"{type(exc).__name__}: {exc}")
        return ("err", b0, exc)
    finally:
        del values
        kept.trim()


def _worker_main(conn) -> None:
    """Worker loop: receive a task on ``conn``, run it, send the reply,
    repeat — until a ``None`` task or the parent's end closing."""
    kept = _Kept()
    while True:
        try:
            payload = conn.recv()
        except EOFError:
            return
        if payload is None:
            return
        conn.send(_run_task(payload, kept))


# ----------------------------------------------------------- parent side


def _draw_faults(kernel: str, shards: List[Tuple[int, int]]) -> Dict[int, FaultSpec]:
    """What the active fault plan fires on ``shards`` of ``kernel``, by
    first block: one ``shard.worker`` poll per shard."""
    plan = active_plan()
    if plan is None:
        return {}
    drawn = {b0: plan.poll(SITE_WORKER, f"{kernel}:{b0}-{b1}") for b0, b1 in shards}
    return {b0: spec for b0, spec in drawn.items() if spec is not None}


class _Worker:
    """One pool slot: a process, the parent's end of the duplex pipe to it
    and the kernel keys whose IR that process has been sent.

    A respawn replaces all three — a worker killed mid-message leaves
    half of it in the pipe, and the new process knows no kernel, so the
    replacement starts clean.
    """

    def __init__(self, ctx, worker_id: int) -> None:
        self.ctx = ctx
        self.worker_id = worker_id
        self.conn = None
        self.process = None
        self.sent: set = set()
        self.spawn()

    def spawn(self) -> None:
        # A worker started before the parent's resource tracker exists
        # would launch a tracker of its own on first attach, and that
        # one unlinks the parent's segments when the worker exits.
        resource_tracker.ensure_running()
        self.sent = set()
        self.conn, child = self.ctx.Pipe()
        self.process = self.ctx.Process(
            target=_worker_main,
            args=(child,),
            name=f"repro-proc-{self.worker_id}",
            daemon=True,
        )
        self.process.start()
        # The worker holds the only other end now, so its death reads as
        # end of file here.
        child.close()
        STATS.inc("workers_spawned")

    def alive(self) -> bool:
        return self.process is not None and self.process.is_alive()

    def respawn(self) -> None:
        self.terminate()
        self.spawn()
        STATS.inc("workers_replaced")

    def submit(self, payload: dict, ir: tuple) -> None:
        """Send one task; ``ir`` (``(fn, module)``) goes with it only if
        this process has not been sent the payload's kernel yet.  Raises
        :class:`BrokenPipeError` (or another :class:`OSError`) if the
        worker is gone."""
        key = payload["kernel"]
        if key in self.sent:
            self.conn.send(payload)
            return
        self.conn.send(dict(payload, ir=ir))
        self.sent.add(key)
        STATS.inc("kernels_sent")

    def receive(self) -> Optional[tuple]:
        """The worker's reply, or None if it died before sending one whole.
        Call once the pipe or the process sentinel is ready."""
        try:
            return self.conn.recv()
        except (EOFError, OSError):
            return None

    def terminate(self) -> None:
        """End the process and release its pipe and sentinel."""
        if self.process is not None:
            if self.process.is_alive():
                self.process.terminate()
                self.process.join(timeout=2.0)
                if self.process.is_alive():  # pragma: no cover - stuck in D state
                    self.process.kill()
                    self.process.join(timeout=2.0)
            if not self.process.is_alive():
                self.process.close()
                self.process = None
        if self.conn is not None:
            self.conn.close()

    def stop(self) -> None:
        """Graceful shutdown: a ``None`` task, short join, then terminate."""
        if self.process is not None and self.process.is_alive():
            try:
                self.conn.send(None)
            except OSError:
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
        self.workers = [_Worker(self.ctx, i) for i in range(workers)]
        self.lock = threading.Lock()
        self.segments = _SegmentList()

    @property
    def size(self) -> int:
        return len(self.workers)

    def grow(self, workers: int) -> None:
        with self.lock:
            while len(self.workers) < workers:
                self.workers.append(_Worker(self.ctx, len(self.workers)))

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
        own: Callable[[], object],
    ) -> Tuple[object, Dict[int, List[tuple]]]:
        """Send one task per worker index, run ``own`` — the caller's
        shard, which precedes every task's in the plan — meanwhile, then
        gather every reply.  ``ir`` is the ``(fn, module)`` of the kernel
        every payload names; each send of a task carries the faults the
        active plan fires on its shards then (:func:`_draw_faults`).

        Returns ``own()`` and ``{task_id: shard entries}`` (see
        :func:`_run_task`) on full success.  Raises the lowest-shard
        kernel exception (``own``'s first) once no task is outstanding,
        :class:`~repro.errors.ShardTimeout` when a task has not replied
        by the deadline, and :class:`WorkerLost` when a task's worker died
        past its respawn budget.  Whatever leaves with tasks still
        outstanding (those two, an interrupt) first terminates and
        respawns their workers, so the next launch starts from a clean
        pool and no pipe holds a reply meant for an earlier launch.
        """
        with self.lock:
            deadline = time.monotonic() + deadline_seconds
            outstanding: Dict[int, _Worker] = {}
            respawns: Dict[int, int] = {}
            results: Dict[int, List[tuple]] = {}
            errors: List[Tuple[int, BaseException]] = []  # (failing b0, exc)

            def replace(task_id: int) -> None:
                """The task's worker died: respawn it, within the budget."""
                respawns[task_id] = respawns.get(task_id, 0) + 1
                if respawns[task_id] > MAX_RESPAWNS_PER_TASK:
                    raise WorkerLost(
                        f"process shard task {task_id} lost its "
                        f"worker {respawns[task_id]} times"
                    )
                outstanding[task_id].respawn()

            def send(task_id: int) -> None:
                payload = payloads[task_id]
                faults = _draw_faults(ir[0].name, payload["shards"])
                if faults:
                    payload = dict(payload, faults=faults)
                while True:
                    try:
                        outstanding[task_id].submit(payload, ir)
                        return
                    except OSError:  # a dead pipe is a dead worker
                        replace(task_id)

            own_error: Optional[Exception] = None
            try:
                for task_id in payloads:
                    worker = self.workers[task_id % len(self.workers)]
                    if not worker.alive():
                        worker.respawn()  # died between launches
                    outstanding[task_id] = worker
                    send(task_id)
                    STATS.inc("tasks")
                try:
                    mine = own()
                except Exception as exc:
                    own_error = exc
                    # Its frames hold the caller's views of the segments; a
                    # view does not keep its mapping alive, so one read
                    # after the segment is closed would fault.
                    traceback.clear_frames(exc.__traceback__)
                while outstanding:
                    handles = {}
                    for task_id, worker in outstanding.items():
                        handles[worker.conn] = task_id
                        handles[worker.process.sentinel] = task_id
                    ready = wait_ready(
                        list(handles), max(0.0, deadline - time.monotonic())
                    )
                    if not ready:
                        STATS.inc("deadline_timeouts")
                        raise ShardTimeout(
                            f"process-sharded launch overran its "
                            f"{deadline_seconds:.3f}s deadline with "
                            f"{len(outstanding)} task(s) outstanding"
                        )
                    # One reply or one death per task: its pipe and its
                    # sentinel can both be ready.
                    for task_id in dict.fromkeys(handles[h] for h in ready):
                        reply = outstanding[task_id].receive()
                        if reply is None:
                            replace(task_id)
                            send(task_id)
                        elif reply[0] == "ok":
                            results[task_id] = reply[1]
                            del outstanding[task_id]
                        else:
                            errors.append((reply[1], reply[2]))
                            del outstanding[task_id]
            except BaseException:
                # Nothing may run on in segments the launch gives back.
                for worker in outstanding.values():
                    worker.respawn()
                raise
            if own_error is not None:
                raise own_error
            if errors:
                # Lowest failing shard wins, matching serial discovery
                # order; workers that errored are alive and reusable.
                errors.sort(key=lambda pair: pair[0])
                raise errors[0][1]
            return mine, results


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


@on_reset
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
    """The process transport: run the shard body over ``plan`` — its
    first shard on this thread, the rest on ``workers − 1`` worker
    processes — and return what it returned
    (:func:`repro.parallel.shard.run_shard`) in plan order, or raise.

    Every shard runs against staged shared-memory copies of ``bound``;
    the caller's buffers are only written here, after every shard has
    succeeded.  With ``direct`` the shards write the staged ``written``
    arrays in place and those are copied back once; otherwise they run
    against private copies of them and the returned per-shard diffs are
    the caller's to assemble.  Raises the lowest-shard kernel exception,
    :class:`~repro.errors.ShardTimeout` or :class:`WorkerLost` (see
    :meth:`ProcessShardPool.run_tasks`) — by then no worker is running a
    shard of this launch, so its segments are free to be reused.
    """
    from ..codegen.runtime import geometry
    from .shard import run_shard

    mode = "direct" if direct else "diff"
    private = [] if direct else list(written)
    pool = get_process_pool(workers - 1)
    count = min(workers - 1, pool.size, len(plan) - 1)

    views: Dict[str, np.ndarray] = {}
    values: Dict[str, object] = {}
    taken: List[shm_mod.SharedMemory] = []
    try:
        specs, scalars = _stage_arrays(
            pool.segments, bound, compiled.param_names, views, taken
        )
        values.update(scalars)
        values.update(views)
        payloads: Dict[int, dict] = {
            widx: {
                "kernel": (compiled.fingerprint, compiled.grid_class, compiled.bounds_check),
                "grid": grid,
                "shards": plan[1 + widx :: count],
                "arrays": specs,
                "scalars": scalars,
                "private": private,
            }
            for widx in range(count)
        }

        # The caller's shard draws first, as it comes first in the plan.
        fault = _draw_faults(compiled.fn_name, plan[:1]).get(plan[0][0])

        def own() -> Tuple[bool, Optional[dict]]:
            """The caller's shard: ``plan[0]``, on the staged views."""
            with obs_trace.span(
                "proc.shard",
                kernel=compiled.fn_name,
                blocks=f"{plan[0][0]}:{plan[0][1]}",
                mode=mode,
                worker="caller",
            ) as traced:
                if fault is not None:
                    b0, b1 = plan[0]
                    fire(fault, SITE_WORKER, f"{compiled.fn_name}:{b0}-{b1}")
                result = run_shard(
                    compiled, geometry(grid), grid.block_threads, values, plan[0],
                    private,
                )
                traced.set(planned=result[0])
                return result

        with obs_trace.span(
            "proc.launch",
            kernel=compiled.fn_name,
            mode=mode,
            workers=count,
            shards=len(plan),
        ):
            mine, results = pool.run_tasks(
                payloads, (fn, module), deadline_seconds, own
            )
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
        # Workers took plan[1:] in strides; ascending b0 restores its order.
        shards = sorted(
            (entry for entries in results.values() for entry in entries),
            key=lambda entry: entry[0],
        )
        STATS.inc("shards_run", 1 + len(shards))
        STATS.inc("launches")
        STATS.inc(mode)
        return [mine] + [(planned, diff) for *_stamps, planned, diff in shards]
    finally:
        # A traceback may still hold this frame: no view may outlive it.
        views.clear()
        values.clear()
        for seg in taken:
            pool.segments.give(seg)
