"""Worker pools and the parallelism policy.

Two long-lived :class:`~concurrent.futures.ThreadPoolExecutor` pools back
the parallel runtime:

* ``"shard"`` — runs the per-shard sub-grid invocations of a compiled
  kernel (:mod:`repro.parallel.shard`).
* ``"profile"`` — runs per-variant tuner evaluations
  (:mod:`repro.parallel.profiler`).

They are separate on purpose: a profiling task *launches* kernels, and a
launch may itself fan out shards — routing both through one pool could
fill every worker with profiling tasks that then block waiting for shard
tasks that can never start.  Shard tasks never submit work, so each pool
drains independently.

Threads (not processes) are the right vehicle here because the compiled
NumPy callables spend their time inside vectorized ufuncs, which release
the GIL; array views also let shards write disjoint slices of the same
output buffer with zero copies.

Parallelism is requested through :class:`repro.LaunchOptions`
(``parallel``/``min_shard_threads``/``executor``);
:func:`policy_from_options` resolves a merged record to the
:class:`ParallelPolicy` the shard runtime consumes.
"""

from __future__ import annotations

import os
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Callable, Dict, Iterable, List, Optional, Sequence

from .._options import LaunchOptions, validate_executor
from .._state import on_reset
from ..errors import ConfigError
from ..obs import trace as obs_trace
from ..obs.registry import get_registry

#: Grids smaller than this many threads run serially even when a policy
#: asks for workers: the pool handoff and geometry slicing cost more than
#: the NumPy work they would split.  Tests and benchmarks lower it through
#: ``LaunchOptions(min_shard_threads=...)``.
DEFAULT_MIN_SHARD_THREADS = 2048

#: Accepted by every ``workers=`` knob: resolve to the usable host cores.
AUTO_WORKERS = "auto"


def _cgroup_cpu_quota() -> Optional[int]:
    """CPU limit imposed by the container's cgroup, in whole cores.

    Containers usually cap CPU with a bandwidth quota rather than by
    shrinking the affinity mask, so ``sched_getaffinity`` alone
    oversubscribes (e.g. a "2 CPU" Kubernetes pod on a 64-core node
    reports 64).  Reads cgroup v2 (``cpu.max``: ``"<quota> <period>"``
    or ``"max <period>"``) and falls back to cgroup v1
    (``cpu.cfs_quota_us`` / ``cpu.cfs_period_us``).  Returns None when
    no quota applies or the files are unreadable.
    """
    try:
        with open("/sys/fs/cgroup/cpu.max", encoding="ascii") as fh:
            quota_s, _, period_s = fh.read().strip().partition(" ")
        if quota_s != "max":
            quota, period = int(quota_s), int(period_s or "100000")
            if quota > 0 and period > 0:
                return max(1, quota // period)
        return None
    except (OSError, ValueError):
        pass
    try:
        with open(
            "/sys/fs/cgroup/cpu/cpu.cfs_quota_us", encoding="ascii"
        ) as fh:
            quota = int(fh.read().strip())
        with open(
            "/sys/fs/cgroup/cpu/cpu.cfs_period_us", encoding="ascii"
        ) as fh:
            period = int(fh.read().strip())
        if quota > 0 and period > 0:
            return max(1, quota // period)
    except (OSError, ValueError):
        pass
    return None


def host_worker_count() -> int:
    """Usable host cores — the resolution of ``workers="auto"``.

    The minimum of the scheduling-affinity mask and the cgroup CPU quota
    (containers and CI runners restrict either or both below the
    physical core count), falling back to ``os.cpu_count()`` where
    neither is available.  Sizing pools from this instead of the raw
    core count keeps thread *and* process pools from oversubscribing
    CPU-limited containers.
    """
    try:
        usable = max(1, len(os.sched_getaffinity(0)))
    except (AttributeError, OSError):  # pragma: no cover - non-Linux hosts
        usable = max(1, os.cpu_count() or 1)
    quota = _cgroup_cpu_quota()
    if quota is not None:
        usable = min(usable, quota)
    return usable


def validate_workers(workers) -> object:
    """Return a ``workers`` knob unchanged if it is a positive integer or
    the literal ``"auto"``; anything else raises
    :class:`~repro.errors.ConfigError`.  Never probes the host."""
    if workers == AUTO_WORKERS:
        return workers
    if isinstance(workers, bool) or not isinstance(workers, int):
        raise ConfigError(
            f"workers must be a positive integer or {AUTO_WORKERS!r}, "
            f"got {workers!r}"
        )
    if workers < 1:
        raise ConfigError(f"workers must be >= 1, got {workers}")
    return workers


def resolve_workers(workers) -> int:
    """Normalize a ``workers`` knob to a positive int: ``"auto"`` is the
    host's usable cores (:func:`host_worker_count`, probed per call)."""
    if validate_workers(workers) == AUTO_WORKERS:
        return host_worker_count()
    return workers


@dataclass(frozen=True)
class ParallelPolicy:
    """How parallel one launch (or profiling run) is allowed to be.

    Attributes:
        workers: sub-grids / concurrent evaluations to aim for; 1 = serial.
        min_shard_threads: grids with fewer threads than this never shard.
        executor: ``"thread"`` (in-process pool; NumPy-bound kernels
            release the GIL) or ``"process"`` (the
            :mod:`repro.parallel.procpool` workers with shared-memory
            handoff; true multicore for GIL-bound kernels).
    """

    workers: int = 1
    min_shard_threads: int = DEFAULT_MIN_SHARD_THREADS
    executor: str = "thread"

    def __post_init__(self) -> None:
        object.__setattr__(self, "workers", resolve_workers(self.workers))
        if (
            isinstance(self.min_shard_threads, bool)
            or not isinstance(self.min_shard_threads, int)
            or self.min_shard_threads < 1
        ):
            raise ConfigError(
                f"min_shard_threads must be a positive integer, "
                f"got {self.min_shard_threads!r}"
            )
        validate_executor(self.executor)

    @property
    def serial(self) -> bool:
        return self.workers <= 1


def policy_from_options(opts: LaunchOptions) -> ParallelPolicy:
    """The :class:`ParallelPolicy` a merged options record resolves to:
    its ``parallel``/``min_shard_threads``/``executor`` fields over the
    serial defaults.  ``parallel="auto"`` probes the host here, so the
    engine calls this once per launch plan, not once per launch."""
    return ParallelPolicy(
        workers=opts.parallel if opts.parallel is not None else 1,
        min_shard_threads=(
            opts.min_shard_threads
            if opts.min_shard_threads is not None
            else DEFAULT_MIN_SHARD_THREADS
        ),
        executor=opts.executor if opts.executor is not None else "thread",
    )


# ----------------------------------------------------------------- pools


class PoolStats:
    """Counters for one named pool, served from the metrics registry.

    The series are labelled ``pool=<kind>`` (``repro_pool_tasks_total``,
    ``repro_pool_batches_total``, ``repro_pool_max_workers``,
    ``repro_pool_workers_restarted_total``), so every pool shares four
    metric families and the snapshot is a registry view.
    """

    __slots__ = ("_tasks", "_batches", "_workers", "_restarts")

    def __init__(self, kind: str = "default") -> None:
        registry = get_registry()
        label = {"pool": kind}
        self._tasks = registry.counter(
            "repro_pool_tasks_total", "tasks submitted", labelnames=("pool",)
        ).labels(**label)
        self._batches = registry.counter(
            "repro_pool_batches_total", "parallel_map batches", labelnames=("pool",)
        ).labels(**label)
        self._workers = registry.gauge(
            "repro_pool_max_workers", "pool size high-water mark",
            labelnames=("pool",),
        ).labels(**label)
        self._restarts = registry.counter(
            "repro_pool_workers_restarted_total",
            "pool replacements after all workers died or a deadline expired",
            labelnames=("pool",),
        ).labels(**label)

    def record(self, tasks: int, workers: int) -> None:
        self._tasks.inc(tasks)
        self._batches.inc()
        self._workers.max(workers)

    def record_restart(self) -> None:
        self._restarts.inc()

    def snapshot(self) -> Dict[str, int]:
        return {
            "tasks": int(self._tasks.value),
            "batches": int(self._batches.value),
            "max_workers": int(self._workers.value),
            "workers_restarted": int(self._restarts.value),
        }


_POOL_LOCK = threading.Lock()
_POOLS: Dict[str, ThreadPoolExecutor] = {}
_POOL_SIZES: Dict[str, int] = {}
_POOL_STATS: Dict[str, PoolStats] = {}


def _pool_healthy(pool: ThreadPoolExecutor) -> bool:
    """Whether ``pool`` can still make progress.

    A ``ThreadPoolExecutor`` never respawns a worker that exited (a thread
    killed by a ``None`` sentinel slipped into its queue, or that died in
    an interpreter-level failure, is simply gone) — with every worker dead
    the pool accepts submissions that can never run.  An executor with no
    threads yet is healthy: workers spawn on first submit.
    """
    if pool._shutdown:  # noqa: SLF001 - stdlib exposes no public probe
        return False
    threads = list(pool._threads)  # noqa: SLF001
    return not threads or any(t.is_alive() for t in threads)


def _stats_locked(kind: str) -> PoolStats:
    """``pool_stats`` body for callers already holding ``_POOL_LOCK``."""
    stats = _POOL_STATS.get(kind)
    if stats is None:
        stats = _POOL_STATS[kind] = PoolStats(kind)
    return stats


def _fresh_pool_locked(kind: str, workers: int) -> ThreadPoolExecutor:
    # The old executor is dropped, never shut down: whoever fetched it and
    # has not submitted yet can still submit.  Once the last holder lets
    # go it is collected and its idle threads exit.
    pool = ThreadPoolExecutor(
        max_workers=workers, thread_name_prefix=f"repro-{kind}"
    )
    _POOLS[kind] = pool
    _POOL_SIZES[kind] = workers
    return pool


def get_pool(kind: str, workers: int) -> ThreadPoolExecutor:
    """The shared executor for ``kind`` with at least ``workers`` threads.

    Pools only ever grow, and grow in place: asking for more workers than
    the pool holds raises the bound its next ``submit`` spawns threads up
    to, so a caller that fetched the executor a moment ago still holds a
    live one (replacing it here left that caller with ``cannot schedule
    new futures after shutdown``).  A pool whose workers have all died is
    replaced — submitting to it would deadlock forever — and the
    replacement counts as a worker restart.
    """
    workers = resolve_workers(workers)
    with _POOL_LOCK:
        pool = _POOLS.get(kind)
        if pool is not None and not _pool_healthy(pool):
            _stats_locked(kind).record_restart()
            pool = None
        if pool is None:
            pool = _fresh_pool_locked(kind, max(workers, _POOL_SIZES.get(kind, 0)))
        elif _POOL_SIZES[kind] < workers:
            pool._max_workers = _POOL_SIZES[kind] = workers  # noqa: SLF001
        return pool


def replace_pool(kind: str, workers: int) -> ThreadPoolExecutor:
    """Force-replace the ``kind`` pool with a fresh one.

    Used by the guarded launch path after a deadline expired: the old
    executor stays usable by any caller already holding it (hung workers
    finish against private buffers and exit once it is collected) and the
    restart is counted.
    """
    workers = resolve_workers(workers)
    with _POOL_LOCK:
        _stats_locked(kind).record_restart()
        return _fresh_pool_locked(kind, max(workers, _POOL_SIZES.get(kind, 0)))


def parallel_map(
    kind: str, workers: int, fn: Callable, items: Sequence, timeout=None
) -> List:
    """``[fn(item) for item in items]`` over the ``kind`` pool.

    Results come back in item order regardless of completion order — the
    deterministic-assembly property every caller relies on.  The first
    exception in item order propagates, as in the serial loop.  With one
    worker (or one item) the pool is bypassed entirely.  ``timeout``
    bounds the wait for every result, in seconds from the call; on expiry
    the tasks not yet started are cancelled and
    :class:`concurrent.futures.TimeoutError` is raised.
    """
    items = list(items)
    workers = resolve_workers(workers)
    if workers <= 1 or len(items) <= 1:
        return [fn(item) for item in items]
    pool = get_pool(kind, workers)
    stats = pool_stats(kind)
    stats.record(len(items), workers)
    # Spans started inside the tasks must parent to the submitting
    # thread's ambient span (no-op wrap while tracing is disabled).
    return list(pool.map(obs_trace.carry(fn), items, timeout=timeout))


def pool_stats(kind: str) -> PoolStats:
    with _POOL_LOCK:
        return _stats_locked(kind)


def pools_snapshot() -> Dict[str, Dict[str, int]]:
    """Per-pool counters for ``metrics_snapshot()``."""
    with _POOL_LOCK:
        return {kind: stats.snapshot() for kind, stats in _POOL_STATS.items()}


@on_reset
def shutdown_pools() -> None:
    """Tear down every pool (pools are recreated on demand)."""
    with _POOL_LOCK:
        for pool in _POOLS.values():
            pool.shutdown(wait=True)
        _POOLS.clear()
        _POOL_SIZES.clear()
