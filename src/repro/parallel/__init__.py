"""Multicore parallel runtime: grid-sharded launches.

When the static shardability analysis (:mod:`repro.parallel.analysis`)
proves a kernel's blocks independent, the codegen backend splits the
block grid into per-worker sub-grids and runs them on the shard thread
pool (:mod:`repro.parallel.shard`, :mod:`repro.parallel.pool`) or — with
``executor="process"`` — on the :mod:`repro.parallel.procpool` worker
processes with shared-memory handoff, bit-exact with serial execution
either way.  Scope it with ``repro.options(parallel=..., executor=...)``
or per launch via ``launch(..., options=...)``.  Tuning does not use it:
variants are profiled serially, on the calling thread.

``python -m repro.conformance`` proves sharded == serial == interpreter
for every registered app on both executors.
"""

from .analysis import Shardability, analyze_shardability
from .pool import (
    AUTO_WORKERS,
    DEFAULT_MIN_SHARD_THREADS,
    ParallelPolicy,
    host_worker_count,
    parallel_map,
    resolve_workers,
    shutdown_pools,
)
from .procpool import ProcessShardPool, get_process_pool, shutdown_process_pool
from .procpool import stats_snapshot as procpool_stats_snapshot
from .shard import STATS, maybe_run_sharded, plan_shards, run_sharded
from .shard import stats_snapshot as shard_stats_snapshot

__all__ = [
    "ProcessShardPool",
    "get_process_pool",
    "procpool_stats_snapshot",
    "shutdown_process_pool",
    "AUTO_WORKERS",
    "DEFAULT_MIN_SHARD_THREADS",
    "ParallelPolicy",
    "STATS",
    "Shardability",
    "analyze_shardability",
    "host_worker_count",
    "maybe_run_sharded",
    "parallel_map",
    "plan_shards",
    "resolve_workers",
    "run_sharded",
    "shard_stats_snapshot",
    "shutdown_pools",
]
