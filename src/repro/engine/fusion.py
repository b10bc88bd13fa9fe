"""Cross-launch fusion: one compiled callable for producer/consumer pairs.

Serving pipelines repeatedly issue the same back-to-back kernel launches
where the first kernel's output array feeds the second's input (ConvSep's
row pass writing the ``tmp`` the column pass reads).  With both kernels
already compiled by :mod:`repro.codegen`, the launch boundary between
them buys nothing — it only forces the intermediate to be materialized in
a caller-owned array and pays a second trip through launch dispatch.

This module is a launch-graph peephole over that boundary, opt-in via
``LaunchOptions(fuse=True)``:

* **Learn.**  The first time a producer/consumer adjacency is observed
  (same grid, same bounds-check setting, the producer's written array —
  per the :mod:`repro.parallel` shardability/aliasing analysis — appears
  as exactly one argument of each launch), a :class:`FusedPlan` is
  recorded and a fused driver callable is compiled.
* **Defer.**  The next time the producer launches under an active
  ``fuse`` scope, it is *deferred*: its trace/notification happen
  eagerly, the kernel body does not run yet.
* **Fuse.**  When the consumer arrives and matches the plan (fingerprint,
  grid, and array-identity checks against the deferred launch), both
  stages run as the fused callable against a plan-owned scratch buffer —
  the caller's intermediate array is never written.
* **Flush.**  Any non-matching launch, ladder-rung boundary or explicit
  :func:`flush` first runs the deferred producer normally, so the
  deferral is invisible to everything except the fused pair itself.

The elision contract: after a fused pair, the contents of the caller's
intermediate array are **unspecified** (it keeps its pre-launch bytes).
Pipelines that read the intermediate on the host must not enable ``fuse``
— which is why :class:`~repro.serve.ApproxSession` leaves it off unless
asked.  Scratch is seeded from the intermediate's pre-launch contents per
fused run, so partially-written intermediates keep bit-exact semantics
for every *output* array.

State is thread-local; the window never spans threads.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np

from ..obs.registry import CounterGroup

#: Registry field -> help text; each becomes ``repro_fusion_<field>``.
_FIELDS = {
    "plans_learned": "producer/consumer fusion plans learned",
    "deferred": "producer launches deferred awaiting their consumer",
    "fused_runs": "producer/consumer pairs executed as one fused callable",
    "elided_writes": "intermediate arrays elided (never written) by fusion",
    "flushes": "deferred producers flushed (consumer never arrived)",
}


#: Process-wide fusion counters (``repro_fusion_*`` registry series).
STATS = CounterGroup("fusion", _FIELDS)


def stats_snapshot() -> Dict[str, int]:
    return STATS.snapshot()


def _data_ptr(value) -> Optional[Tuple[int, int]]:
    """Identity key of an ndarray's storage: (address, nbytes).

    ``bind_arguments`` rebinds caller arrays as fresh ``reshape(-1)``
    views, so object identity is useless — two launches touch "the same
    array" iff their views cover the same memory."""
    if not isinstance(value, np.ndarray):
        return None
    return value.__array_interface__["data"][0], value.nbytes


def _array_ptrs(bound: Dict[str, object]) -> Dict[str, Tuple[int, int]]:
    out = {}
    for name, value in bound.items():
        ptr = _data_ptr(value)
        if ptr is not None:
            out[name] = ptr
    return out


@dataclass
class _LaunchRecord:
    """One codegen launch, as the window remembers it."""

    fn: object  # ir.Function
    module: object
    compiled: object  # codegen.cache.CompiledKernel
    grid: object
    bounds_check: bool
    bound: Dict[str, object]
    effective: object  # LaunchOptions snapshot (sharding decisions)
    ptrs: Dict[str, Tuple[int, int]] = field(default_factory=dict)

    def __post_init__(self) -> None:
        self.ptrs = _array_ptrs(self.bound)


@dataclass
class FusedPlan:
    """A learned producer/consumer pair and its fused driver."""

    fp_a: str
    fp_b: str
    grid: object
    bounds_check: bool
    mid_a: str  # intermediate's param name in the producer
    mid_b: str  # intermediate's param name in the consumer
    fn_a: object
    module_a: object
    compiled_a: object
    fn_b: object
    module_b: object
    compiled_b: object
    source: str = ""
    driver: object = None
    scratch: Optional[np.ndarray] = None

    def describe(self) -> str:
        return (
            f"{self.compiled_a.fn_name} -> {self.compiled_b.fn_name} "
            f"(mid {self.mid_a!r}/{self.mid_b!r}, grid_class "
            f"{self.compiled_a.grid_class})"
        )


def _compile_driver(plan: FusedPlan) -> None:
    """Build the fused callable: one function body running both compiled
    stage entries back to back over one geometry (same technique as the
    per-kernel lowering: source + ``exec`` with entries in globals, which
    sidesteps any namespace collision between the two generated modules)."""
    plan.source = (
        f"def _fused(_G, _a_args, _b_args):\n"
        f"    # {plan.compiled_a.fn_name} then {plan.compiled_b.fn_name};\n"
        f"    # the intermediate flows through plan-owned scratch.\n"
        f"    _entry_a(_G, *_a_args)\n"
        f"    _entry_b(_G, *_b_args)\n"
    )
    namespace = {
        "_entry_a": plan.compiled_a.entry,
        "_entry_b": plan.compiled_b.entry,
    }
    exec(compile(plan.source, f"<fused:{plan.compiled_a.fn_name}+{plan.compiled_b.fn_name}>", "exec"), namespace)
    plan.driver = namespace["_fused"]


class _Window(threading.local):
    """Per-thread fusion state: last launch, learned plans, pending defer."""

    def __init__(self) -> None:
        self.last: Optional[_LaunchRecord] = None
        #: (producer fp, grid, bounds_check) -> plan
        self.plans: Dict[Tuple[str, object, bool], FusedPlan] = {}
        self.pending: Optional[Tuple[FusedPlan, _LaunchRecord]] = None


_WINDOW = _Window()

_MAX_PLANS = 64


def _run_stage(record: _LaunchRecord) -> None:
    """Run one recorded launch now (shard-aware), exactly as launch()
    would have."""
    from .interpreter import _maybe_shard

    if not _maybe_shard(
        record.fn,
        record.module,
        record.compiled,
        record.grid,
        record.bound,
        record.effective,
    ):
        record.compiled.run(record.grid, record.bound)


def flush() -> None:
    """Run any deferred producer launch now.  Safe to call at any time;
    a no-op when nothing is deferred."""
    pending = _WINDOW.pending
    if pending is None:
        return
    _WINDOW.pending = None
    STATS.inc("flushes")
    _plan, record = pending
    _run_stage(record)


def reset() -> None:
    """Drop all fusion state on this thread (tests)."""
    flush()
    _WINDOW.last = None
    _WINDOW.plans.clear()
    _WINDOW.pending = None


def plan_count() -> int:
    return len(_WINDOW.plans)


def plans() -> List[FusedPlan]:
    return list(_WINDOW.plans.values())


def _unique_param_for_ptr(
    ptr: Tuple[int, int], ptrs: Dict[str, Tuple[int, int]]
) -> Optional[str]:
    """The single param bound to this storage, or None if absent/aliased."""
    names = [name for name, p in ptrs.items() if p == ptr]
    return names[0] if len(names) == 1 else None


def _try_learn(last: _LaunchRecord, current: _LaunchRecord) -> None:
    """Learn a plan from an adjacent (producer=last, consumer=current)
    pair when the eligibility guards hold."""
    if last.grid is not current.grid and last.grid != current.grid:
        return
    if last.bounds_check != current.bounds_check:
        return
    from ..parallel.analysis import analyze_shardability

    written = analyze_shardability(
        last.fn, last.module, fingerprint=last.compiled.fingerprint
    ).written_arrays
    pairs: List[Tuple[str, str]] = []
    for w in written:
        ptr = last.ptrs.get(w)
        if ptr is None:
            continue
        # Aliasing guards: the storage must be bound to exactly one param
        # on each side, and the producer-side param must be ``w`` itself.
        if _unique_param_for_ptr(ptr, last.ptrs) != w:
            continue
        consumer_param = _unique_param_for_ptr(ptr, current.ptrs)
        if consumer_param is not None:
            pairs.append((w, consumer_param))
    if len(pairs) != 1:
        return  # zero candidates, or ambiguous — don't guess
    mid_a, mid_b = pairs[0]
    plan = FusedPlan(
        fp_a=last.compiled.fingerprint,
        fp_b=current.compiled.fingerprint,
        grid=last.grid,
        bounds_check=last.bounds_check,
        mid_a=mid_a,
        mid_b=mid_b,
        fn_a=last.fn,
        module_a=last.module,
        compiled_a=last.compiled,
        fn_b=current.fn,
        module_b=current.module,
        compiled_b=current.compiled,
    )
    _compile_driver(plan)
    if len(_WINDOW.plans) >= _MAX_PLANS:
        _WINDOW.plans.pop(next(iter(_WINDOW.plans)))
    _WINDOW.plans[(plan.fp_a, plan.grid, plan.bounds_check)] = plan
    STATS.inc("plans_learned")


def _consumer_matches(
    plan: FusedPlan, producer: _LaunchRecord, consumer: _LaunchRecord
) -> bool:
    if consumer.compiled.fingerprint != plan.fp_b:
        return False
    if consumer.grid != producer.grid or consumer.bounds_check != producer.bounds_check:
        return False
    ptr = producer.ptrs.get(plan.mid_a)
    if ptr is None or _unique_param_for_ptr(ptr, producer.ptrs) != plan.mid_a:
        return False
    return _unique_param_for_ptr(ptr, consumer.ptrs) == plan.mid_b


def _run_fused(plan: FusedPlan, producer: _LaunchRecord, consumer: _LaunchRecord) -> None:
    """Execute the pair with the intermediate elided into plan scratch."""
    from ..obs import trace as obs_trace
    from .interpreter import _maybe_shard

    mid = producer.bound[plan.mid_a]
    scratch = plan.scratch
    if scratch is None or scratch.size != mid.size or scratch.dtype != mid.dtype:
        scratch = plan.scratch = np.empty(mid.size, dtype=mid.dtype)
    # Seed scratch with the intermediate's pre-launch contents: lanes the
    # producer leaves unwritten must read back their prior values in the
    # consumer, exactly as without fusion.
    np.copyto(scratch, mid)
    bound_a = dict(producer.bound)
    bound_a[plan.mid_a] = scratch
    bound_b = dict(consumer.bound)
    bound_b[plan.mid_b] = scratch
    with obs_trace.span(
        "engine.fused_launch",
        producer=plan.compiled_a.fn_name,
        consumer=plan.compiled_b.fn_name,
        threads=producer.grid.threads,
    ):
        sharded_a = _maybe_shard(
            plan.fn_a, plan.module_a, plan.compiled_a, producer.grid, bound_a,
            producer.effective,
        )
        if sharded_a:
            # Stage boundary is a natural barrier; run the consumer the
            # same way rather than through the single-thread driver.
            if not _maybe_shard(
                plan.fn_b, plan.module_b, plan.compiled_b, consumer.grid,
                bound_b, consumer.effective,
            ):
                plan.compiled_b.run(consumer.grid, bound_b)
        else:
            from ..codegen.runtime import geometry

            geo = geometry(producer.grid)
            plan.driver(
                geo,
                [bound_a[name] for name in plan.compiled_a.param_names],
                [bound_b[name] for name in plan.compiled_b.param_names],
            )
    STATS.inc("fused_runs")
    STATS.inc("elided_writes")


def offer(fn, module, compiled, grid, bound, effective, bounds_check: bool) -> bool:
    """Offer one about-to-run codegen launch to the fusion window.

    Returns True when the window took ownership of the execution (the
    launch was deferred as a producer, or ran as the consumer half of a
    fused pair); the caller must then skip the normal kernel run but
    still account the launch (trace count + notification).  False means
    "run it normally".
    """
    current = _LaunchRecord(
        fn=fn,
        module=module,
        compiled=compiled,
        grid=grid,
        bounds_check=bounds_check,
        bound=bound,
        effective=effective,
    )
    pending = _WINDOW.pending
    if pending is not None:
        plan, producer = pending
        if _consumer_matches(plan, producer, current):
            _WINDOW.pending = None
            _run_fused(plan, producer, current)
            _WINDOW.last = None  # the pair is consumed; restart the window
            return True
        flush()  # not our consumer: run the deferred producer first
    plan = _WINDOW.plans.get((compiled.fingerprint, grid, bounds_check))
    if plan is not None:
        _WINDOW.pending = (plan, current)
        _WINDOW.last = None
        STATS.inc("deferred")
        return True
    if _WINDOW.last is not None:
        _try_learn(_WINDOW.last, current)
    _WINDOW.last = current
    return False
