"""Runtime support library for generated kernel code.

Most helpers here are the extraction of one code path of
:class:`repro.engine.interpreter._Execution` into a free function: masked
assignment merging, lane liveness under divergent ``return``, and the
exact scalar/array casting rules are the interpreter's *by construction*.

Memory access and integer division are not.  :func:`resolve_index` and
:func:`_c_div64` decide with one reduction whether the interpreter's
check-then-clamp (``_flatten_index`` / ``_check_bounds``) or sign fix-up
(``_c_divide`` / ``_c_mod``) could change anything, and skip it when it
could not: they share its semantics *by test*
(``tests/codegen/test_runtime_access.py``).  The interpreter is the
reference — the ``exact`` contract and the benchmark's verification
compare compiled kernels against it — and was deliberately left alone,
so that it stays an independent implementation of what they must preserve.

**Address plans** live here too, beside the cached :class:`Geometry`: what a
kernel's launch-invariant sites resolved to (branch masks, in-range
verdicts, clamped / flattened / compacted indices) per (kernel, scalars,
buffer sizes), each access in the cheapest stored form that reproduces it
element for element, all plans under one byte cap.  A site is computed by
the same helpers as ever and *offered*; it is read back only on later
launches.  They share the interpreter's semantics by test as well
(``tests/codegen/test_address_plan.py``).

The **launch workspace** is here as well: one arena per thread, from which
a generated module's numbered slots are carved (:func:`frame`); the helpers
that produce an array take the slot to produce it into (``out=``).

Generated modules receive this module under the name ``rt``.
"""

from __future__ import annotations

import itertools
import os
import threading
import weakref
from bisect import bisect_right
from typing import Dict, Optional, Tuple

import numpy as np

from .._state import Store, on_reset
from ..engine.launch import Grid
from ..errors import ExecutionError
from ..obs.registry import CounterGroup

#: Marker for a local that has not been assigned yet.  The interpreter
#: models this as absence from the frame environment; generated code
#: initializes every local to UNSET so ``assign`` can reproduce the
#: "first write under a mask is a plain bind" rule.
UNSET = object()


# ---------------------------------------------------------------------- masks


def live_mask(mask, retm):
    """Lanes executing right now (``_Execution._live_mask``)."""
    if retm is None:
        return mask
    if mask is None:
        return ~retm
    return mask & ~retm


def live_count(mask, retm, T: int) -> int:
    live = live_mask(mask, retm)
    return T if live is None else int(live.sum())


def and_mask(cond, base):
    """Then-arm mask of a divergent ``if`` (``_exec_if``)."""
    return cond if base is None else (cond & base)


def andnot_mask(cond, base):
    """Else-arm mask of a divergent ``if``."""
    inv = ~cond
    return inv if base is None else (inv & base)


def any_lanes(mask) -> bool:
    """Whether a branch arm has any active lane (``active == 0`` skip)."""
    return bool(mask.any())


# ----------------------------------------------------------------- locals


def check_defined(value, name: str, fname: str):
    if value is UNSET:
        raise ExecutionError(f"{fname}: read of unassigned variable {name!r}")
    return value


def assign(old, value, live):
    """Masked assignment to a local (``_Execution._assign``)."""
    if live is None or old is UNSET:
        return value
    return np.where(live, value, old)


# ------------------------------------------------------------------- casting


def cast_result(value, np_dtype):
    """The result cast every BinOp/builtin applies (``_eval_binop`` tail)."""
    if np.ndim(value) == 0:
        return np_dtype.type(value)
    return np.asarray(value).astype(np_dtype, copy=False)


def cast_value(value, np_dtype):
    """An explicit IR ``Cast`` (well-defined-garbage NaN/Inf -> int)."""
    with np.errstate(invalid="ignore"):
        if np.ndim(value) == 0:
            return np_dtype.type(value)
        return np.asarray(value).astype(np_dtype)


def select(cond, a, b, np_dtype):
    """Branch-free selection (IR ``Select``)."""
    if np.ndim(cond) == 0:
        chosen = a if bool(cond) else b
        if np.ndim(chosen):
            # A copy: the arm may live in a workspace slot its owner reuses.
            return np.array(chosen, dtype=np_dtype)
        return np_dtype.type(chosen)
    return np.where(cond, a, b).astype(np_dtype, copy=False)


def cast_into(out, value, np_dtype):
    """:func:`cast_value` of a ``(T,)`` array into the workspace slot
    ``out``: the same cast loop ``astype`` runs, without its allocation.
    ``out`` is None where a device function's caller passed no slot."""
    if out is None:
        return cast_value(value, np_dtype)
    np.copyto(out, value, casting="unsafe")
    return out


def lnot(value):
    """Logical not with the interpreter's scalar/array split."""
    if np.ndim(value):
        return ~np.asarray(value, dtype=bool)
    return not value


def _c_div64(a, b):
    """``(a64, b64, a / b truncated toward zero)``: the quotient step of
    :func:`c_divide_int` and :func:`c_mod_int`.

    Under a positive scalar divisor and a dividend with no negative lane
    (``gid / w``, ``t % 16``: thread ids over positive extents) the floor
    quotient *is* the truncating one and the fix-up passes are skipped;
    anything else takes ``_c_divide``'s fix-up unchanged."""
    a64 = np.asarray(a, dtype=np.int64)
    b64 = np.asarray(b, dtype=np.int64)
    q = np.floor_divide(a64, b64)
    if b64.ndim or b64 <= 0 or not a64.size or a64.min() < 0:
        r = a64 - q * b64
        q = q + ((r != 0) & ((a64 < 0) != (b64 < 0)))
    return a64, b64, q


def c_divide_int(a, b):
    """C truncation-toward-zero integer division (``_c_divide``)."""
    return _c_div64(a, b)[2]


def c_mod_int(a, b):
    """C remainder, sign follows the dividend (``_c_mod``)."""
    a64, b64, q = _c_div64(a, b)
    return a64 - q * b64


# ------------------------------------------------------------------ counters
#
# The one ``codegen`` counter group lives here rather than beside the compile
# cache (``cache.py`` re-exports it) because plan hits are counted from
# generated code, and ``cache`` imports this module.

#: Registry field -> help text; each becomes ``repro_codegen_<field>``.
_FIELDS = {
    "compiles": "kernels lowered and compiled to NumPy callables",
    "cache_hits": "compiled-kernel cache hits",
    "compile_seconds": "wall time spent lowering and compiling",
    "source_bytes": "bytes of generated source",
    "fallbacks": "auto-mode launches that fell back to the interpreter",
    "cast_elisions": "identity result casts elided at lowering",
    "planned_sites": "launch-invariant sites the lowering handed to address plans",
    "plan_builds": "address plans started (second launch of a key, or a retry)",
    "plan_hits": "launches that read a resident address plan",
    "plan_evictions": "address plans released (colder than a newcomer, over the cap, "
    "geometry evicted, cache cleared)",
    "plan_bytes": "bytes resident address plans hold now (falls on eviction)",
    "plan_form_slice": "planned accesses stored as a slice",
    "plan_form_runs": "planned gathers stored as a run list",
    "plan_form_block": "planned shared-memory gathers stored as a per-block index",
    "plan_form_shift": "planned gathers stored as a shift of the site's first iteration",
    "plan_form_mask": "planned masked stores that reuse the live mask as their index",
    "plan_form_index": "planned accesses stored as an intp index array (the fallback)",
    "workspace_bytes": "bytes the per-thread launch workspaces hold now, all threads",
    "workspace_overflows": "launches whose slots did not fit the workspace cap "
    "and were allocated afresh",
}

#: Process-wide codegen counters (``repro_codegen_*`` registry series).
STATS = CounterGroup("codegen", _FIELDS, floats=("compile_seconds",))


# ------------------------------------------------------------- address plans
#
# What a kernel's thread-id arithmetic resolves to -- branch masks, in-range
# verdicts, clamped and flattened indices, live-lane compactions -- depends on
# the grid, a few scalar arguments and the sizes of the buffers, never on the
# data.  The lowering marks each such *site*; generated code reads it from the
# launch's plan and, where the plan has no entry yet, computes it through the
# helpers below exactly as an unplanned launch does and offers the result.
# docs/CODEGEN.md, "Address plans", has the measurements behind each choice.

#: Bytes all resident plans of the process may hold together.
PLAN_BYTE_CAP = 4 << 20
#: Longest run list a clamped index is stored as.
PLAN_MAX_RUNS = 8
#: Keys one geometry remembers (seen once, or planned).
_PLAN_KEYS_MAX = 128
#: Shard views one geometry keeps: the spans of a few worker counts.
_SHARD_VIEWS_MAX = 16
#: Lanes per run below which ``take`` through an index beats a run list
#: (0.3 us + 0.75 ns a lane, against 0.4 us a run).
_RUNS_PAY = 512
#: What one stored site costs beside its arrays (site, closure, key, slot).
_SITE_BYTES = 400
#: Planned-kernel launches of the whole process after which a key nobody
#: launched counts as the coldest there is, however hot it once was.  About
#: twice the longest gap a key that is *in use* sees in the serving mix the
#: benchmark models: the exact program behind a 1-in-40 quality check, four
#: apps taking turns at ~7 planned launches a round (~280 ticks).
PLAN_IDLE_LAUNCHES = 512

_PLAN_LOCK = threading.Lock()
_RESIDENT: set = set()
_plan_bytes = 0
#: The process-wide launch clock plans age on: one tick per grid launched.
#: A shard ticks its share of the grid's threads (:attr:`Geometry.share`), so
#: a sharded launch ages the other keys as the serial launch would, not once
#: per worker.
_plan_clock = 0.0


def _reset_in_child() -> None:
    """A shard worker forked while another thread resolved a site would
    inherit the lock held, and wait on it for ever.  It would also inherit
    the parent's resident plans: full-grid plans a worker never launches,
    counted against the cap that decides whether its shard plans fit.  The
    geometries stay (their id arrays are what a worker would rebuild).
    The ``plan_bytes`` gauge is left alone -- its lock may be held too."""
    global _PLAN_LOCK, _plan_bytes
    _PLAN_LOCK = threading.Lock()
    _RESIDENT.clear()
    _plan_bytes = 0
    for geo in _GEOMETRY_CACHE.values():
        geo.plans = {}
        geo.shards.clear()


os.register_at_fork(after_in_child=_reset_in_child)


class _Entry:
    """What one geometry knows about one plan key: how often it launched,
    when it last did (on the process-wide clock) and the plan it holds now,
    if any."""

    __slots__ = ("launches", "last", "plan", "need")

    def __init__(self) -> None:
        self.launches = 1
        self.last = _plan_clock
        self.plan: Optional["_Plan"] = None
        #: Bytes its plan had reached when it last left residency (did not
        #: fit, or was evicted): the room a launch must find before it builds
        #: again.  A lower bound -- a plan that did not fit was not finished.
        self.need = 0

    def heat(self) -> int:
        """What eviction ranks by: the lifetime launch count while the key
        is in use, nothing once it has sat out :data:`PLAN_IDLE_LAUNCHES`
        launches of other keys."""
        return self.launches if _plan_clock - self.last <= PLAN_IDLE_LAUNCHES else 0


class _Plan:
    """The resolved sites of one (kernel, scalars, buffer sizes) on one
    geometry.  Every stored site is truthy: generated code reads one with
    ``sites.get(key) or <compute and offer>``.  A dead plan (evicted, over
    the cap, or :data:`NO_PLAN`) takes no offers."""

    __slots__ = ("sites", "bases", "held", "nbytes", "complete", "dead", "entry")

    def __init__(self, entry: Optional[_Entry]) -> None:
        self.sites: Dict[object, object] = {}
        self.bases: Dict[int, tuple] = {}  # site id -> its first iteration's index
        self.held: Dict[int, np.ndarray] = {}  # id -> array, each counted once
        self.nbytes = 0
        self.complete = False
        self.dead = entry is None
        self.entry = entry


#: The plan of a launch that does not plan: first launch of a key, or a key
#: whose plan did not fit.  Empty, and deaf to offers.
NO_PLAN = _Plan(None)


class _Site:
    """One planned access.  ``run`` reproduces the helper call it replaces
    element for element -- a load's ``run(buf, out=None)`` into the
    workspace slot ``out`` when the kernel passes one; ``arrays`` is what it
    holds (for the byte cap)."""

    __slots__ = ("form", "run", "arrays")

    def __init__(self, form: str, run, arrays: tuple = ()) -> None:
        self.form = form
        self.run = run
        self.arrays = arrays


def scalar_key(value) -> Tuple[str, bytes]:
    """A scalar argument as a plan-key part: dtype and bit pattern, so
    ``-0.0`` is not ``0.0`` and a NaN equals itself."""
    try:
        return value.dtype.char, value.tobytes()
    except AttributeError:
        value = np.asarray(value)
        return value.dtype.char, value.tobytes()


def plan(geo: "Geometry", key: tuple):
    """``(plan, site lookup, building)`` for one launch of the
    kernel/scalars/sizes in ``key``.  ``building`` is False only when every
    site the launch will reach is already resolved."""
    global _plan_clock
    plans = geo.plans
    _plan_clock += geo.share  # unlocked: a lost tick only ages a plan later
    entry = plans.get(key)
    if entry is not None:
        entry.launches += 1
        entry.last = _plan_clock
        current = entry.plan
        if current is not None:
            STATS.inc("plan_hits")
            return current, current.sites.get, not current.complete
    current = _plan_miss(plans, key)
    return current, current.sites.get, True


def _plan_miss(plans: Dict[tuple, _Entry], key: tuple) -> _Plan:
    with _PLAN_LOCK:
        entry = plans.get(key)
        if entry is None:
            if len(plans) >= _PLAN_KEYS_MAX:
                # Forget the oldest key that holds nothing; failing that,
                # the oldest.
                old = next((k for k, e in plans.items() if e.plan is None), None)
                if old is None:
                    old = next(iter(plans))
                    _release(plans[old].plan)
                del plans[old]
            plans[key] = _Entry()
            return NO_PLAN
        if entry.plan is not None:
            return entry.plan
        if _victims(entry, entry.need) is None:
            return NO_PLAN  # still no room for what it had reached last time
        started = entry.plan = _Plan(entry)
        _RESIDENT.add(started)
    STATS.inc("plan_builds")
    return started


def plan_built(plan: _Plan) -> None:
    """End of a launch that may have resolved sites: every site the key
    reaches is in the plan now (control flow around a site is invariant
    too), so later launches skip what only the sites' computation read."""
    if not plan.dead:
        plan.complete = True


def _release(plan: _Plan) -> None:
    """Drop a whole plan from residency (caller holds the lock).  Launches
    still running on it keep their reference and finish on it."""
    global _plan_bytes
    plan.dead = True
    _RESIDENT.discard(plan)
    _plan_bytes -= plan.nbytes
    entry = plan.entry
    if entry.plan is plan:
        entry.plan = None
        entry.need = max(entry.need, plan.nbytes)
    STATS.inc("plan_evictions")
    STATS.inc("plan_bytes", -plan.nbytes)


def _release_all(plans: Dict[tuple, _Entry]) -> None:
    """Release what a geometry that is going away holds (caller holds the
    lock)."""
    for entry in plans.values():
        if entry.plan is not None:
            _release(entry.plan)


def _victims(entry: _Entry, nbytes: int) -> Optional[list]:
    """The resident plans to release so that ``nbytes`` more fit under the
    cap, or None when that many cannot be freed (caller holds the lock).

    Only plans at most half as hot as ``entry`` (:meth:`_Entry.heat`: launched
    half as often, or gone idle) give way: keys launched about equally often
    -- the exact programs behind several sessions' quality checks -- keep
    what they hold instead of displacing one another each time one of them
    is a launch ahead.  Whole plans, coldest first and among equally cold
    the largest (fewest plans lost for the room): which plans go follows from
    what is resident, never from the order a set iterates in or the order
    the shards of one launch happened to start in."""
    over = _plan_bytes + nbytes - PLAN_BYTE_CAP
    if over <= 0:
        return []
    if nbytes > PLAN_BYTE_CAP:
        return None
    mine = entry.heat()
    chosen = []
    for victim in sorted(
        (p for p in _RESIDENT if p.entry is not entry and 2 * p.entry.heat() <= mine),
        key=lambda p: (p.entry.heat(), -p.nbytes),
    ):
        chosen.append(victim)
        over -= victim.nbytes
        if over <= 0:
            return chosen
    return None


def _offer(plan: _Plan, key, value, arrays=(), form: str = "") -> None:
    """Store one resolved site.  A plan that would not fit is dropped
    whole, never truncated; what it holds becomes read-only."""
    global _plan_bytes
    with _PLAN_LOCK:
        if plan.dead or key in plan.sites:
            return
        fresh = {id(a): a for a in arrays if id(a) not in plan.held}
        nbytes = _SITE_BYTES + sum(a.nbytes for a in fresh.values())
        victims = _victims(plan.entry, nbytes)
        if victims is None:
            plan.entry.need = max(plan.entry.need, plan.nbytes + nbytes)
            _release(plan)
            return
        for victim in victims:
            _release(victim)
        for array in fresh.values():
            array.flags.writeable = False
        plan.held.update(fresh)
        plan.nbytes += nbytes
        _plan_bytes += nbytes
        plan.sites[key] = value
    STATS.inc("plan_bytes", nbytes)
    if form:
        STATS.inc("plan_form_" + form)


@on_reset
def drop_plans() -> None:
    """Release every plan (their compiled kernels are gone)."""
    with _PLAN_LOCK:
        for resident in list(_RESIDENT):
            _release(resident)
        for geo in _GEOMETRY_CACHE.values():
            geo.plans.clear()
            geo.shards.clear()


def plan_masks(plan: _Plan, key, cond, base, has_else: bool):
    """The masks and ``any_lanes`` verdicts of a divergent ``if`` whose
    condition is launch-invariant: ``(then, else, any_then, any_else)``.
    An arm without a live lane is skipped, so its mask is not kept."""
    cond = np.asarray(cond, dtype=bool)
    then = and_mask(cond, base)
    any_then = any_lanes(then)
    other, any_other = None, False
    if has_else:
        other = andnot_mask(cond, base)
        any_other = any_lanes(other)
    site = (then if any_then else None, other if any_other else None, any_then, any_other)
    if not plan.dead:
        _offer(plan, key, site, [m for m in site[:2] if m is not None])
    return site


def plan_value(plan: _Plan, key, value) -> tuple:
    """A launch-invariant operand of a data expression, as the 1-tuple its
    site stores (an array has no truth value; a tuple holding one does)."""
    if not plan.dead:
        _offer(plan, key, (value,), (value,) if isinstance(value, np.ndarray) else ())
    return (value,)


def _as_slice(idx: np.ndarray, size: int) -> Optional[slice]:
    """The slice selecting exactly the elements of the non-empty 1-D index
    ``idx`` in order (an arithmetic progression inside ``[0, size)`` with a
    positive step), or None."""
    n = idx.size
    first, last = int(idx[0]), int(idx[-1])
    if first < 0 or last >= size:
        return None
    if n == 1:
        return slice(first, first + 1)
    step, rest = divmod(last - first, n - 1)
    if rest or step < 1 or not np.array_equal(idx, np.arange(first, last + 1, step)):
        return None
    return slice(first, last + 1, step)


def _as_runs(idx: np.ndarray, size: int):
    """``idx`` (1-D, at least two lanes) as at most :data:`PLAN_MAX_RUNS`
    ``(lanes, source)`` pairs -- ``source`` a slice (stride 1) or one
    element (stride 0) of ``[0, size)`` -- or None.  What a clamp does to an
    affine index."""
    n = idx.size
    head = np.diff(idx[:258])  # most indices that are not runs show it at once
    if np.count_nonzero(head[1:] != head[:-1]) > 2 * PLAN_MAX_RUNS:
        return None
    d = np.diff(idx)
    cuts = np.flatnonzero(d[1:] != d[:-1]) + 1
    if cuts.size > 2 * PLAN_MAX_RUNS:
        return None
    edges = cuts.tolist() + [n - 1]
    runs, expanded, lane = [], [], 0
    while lane < n:
        if len(runs) == PLAN_MAX_RUNS:
            return None
        start = int(idx[lane])
        stride = int(d[lane]) if lane < n - 1 else 0
        if stride in (0, 1):
            stop = edges[bisect_right(edges, lane)] + 1 if lane < n - 1 else n
        else:
            stride, stop = 0, lane + 1
        length = stop - lane
        if start < 0 or start + (length if stride else 1) > size:
            return None
        if stride:
            runs.append((slice(lane, stop), slice(start, start + length)))
            expanded.append(np.arange(start, start + length))
        else:
            runs.append((slice(lane, stop), start))
            expanded.append(np.full(length, start))
        lane = stop
    # Kept only if re-expanding it gives the index back.
    if not np.array_equal(np.concatenate(expanded), idx):
        return None
    return tuple(runs)


def _block_local(flat: np.ndarray, size: int, nsb: int, ssize: int):
    """The in-block index every block of a flat shared-memory index
    ``b*ssize + local`` repeats, or None (not shared memory, or the blocks
    differ)."""
    if not nsb or size != nsb * ssize or flat.size % nsb:
        return None
    rows = flat.reshape(nsb, flat.size // nsb)
    local = rows[0]
    if local.min() < 0 or local.max() >= ssize:
        return None
    offsets = (np.arange(nsb, dtype=flat.dtype) * ssize)[:, None]
    return local if np.array_equal(rows, local + offsets) else None


def _take(buf, idx, out):
    """``buf.take(idx)`` into ``out`` when there is one.  ``idx`` is already
    in range, and ``mode="clip"`` is what lets ``take`` write ``out``
    directly (under the default it gathers into a buffer of its own first)."""
    if out is None:
        return buf.take(idx)
    return buf.take(idx, None, out, "clip")


def _copy(view, out):
    if out is None:
        return view.copy()
    np.copyto(out, view)
    return out


def _gather_site(plan: _Plan, key, flat, size: int, nsb: int, ssize: int) -> _Site:
    """The cheapest stored form that reproduces ``buf.take(flat)`` element
    for element, decided by looking at the resolved index ``flat``: a
    slice, a shift of the site's first loop iteration, a run list, a
    per-block index (shared memory, ``nsb`` blocks of ``ssize``), or --
    always correct -- the index itself as intp (never int32: ``take`` walks
    it 1.5-5x slower).  Every load returns a fresh array, or ``out``."""
    flat = np.asarray(flat)
    n = flat.size
    if flat.ndim != 1 or n == 0:
        idx = flat.astype(np.intp)
        return _Site("index", lambda buf, out=None: _take(buf, idx, out), (idx,))
    where = _as_slice(flat, size)
    if where is not None:
        return _Site("slice", lambda buf, out=None: _copy(buf[where], out))
    # A site inside loops: iterations after the first are often the first
    # one moved by a constant (``tk*16 + tx``), and then share its index.
    first = plan.bases.get(key[0]) if isinstance(key, tuple) else None
    if first is not None:
        blocked, base, top = first
        idx = _block_local(flat, size, nsb, ssize) if blocked else flat
        if idx is not None and idx.shape == base.shape:
            shift = int(idx[0]) - int(base[0])
            if (
                0 <= shift < (ssize if blocked else size) - top
                and np.array_equal(idx, base + shift)
            ):
                return _index_site("shift", base, shift, blocked, nsb, ssize)
    runs = _as_runs(flat, size) if n >= _RUNS_PAY * 2 else None
    if runs is not None and n >= _RUNS_PAY * len(runs):

        def load_runs(buf, out=None):
            if out is None:
                out = np.empty(n, dtype=buf.dtype)
            for lanes, source in runs:
                out[lanes] = buf[source]
            return out

        return _Site("runs", load_runs)
    local = _block_local(flat, size, nsb, ssize)
    blocked = local is not None
    idx = (local if blocked else flat).astype(np.intp)
    if first is None and isinstance(key, tuple) and idx.min() >= 0:
        plan.bases[key[0]] = (blocked, idx, int(idx.max()))
    cols = _as_slice(idx, ssize) if blocked else None
    if cols is not None:

        def load_block(buf, out=None):
            rows = buf.reshape(nsb, ssize)[:, cols]
            if out is None:
                return rows.copy().reshape(-1)
            np.copyto(out.reshape(rows.shape), rows)
            return out

        return _Site("block", load_block)
    return _index_site("block" if blocked else "index", idx, 0, blocked, nsb, ssize)


def _index_site(form: str, idx, shift: int, blocked: bool, nsb: int, ssize: int) -> _Site:
    """A gather through the stored intp index ``idx`` moved by ``shift``:
    into the flat buffer, or into every block's row of it."""
    if blocked:

        def load_rows(buf, out=None):
            rows = buf.reshape(nsb, ssize)[:, shift:]
            if out is None:
                return rows.take(idx, axis=1).reshape(-1)
            rows.take(idx, 1, out.reshape(nsb, idx.size), "clip")
            return out

        return _Site(form, load_rows, (idx,))
    return _Site(form, lambda buf, out=None: _take(buf[shift:], idx, out), (idx,))


def _store_value(buf, value, T: int):
    return np.broadcast_to(np.asarray(value, dtype=buf.dtype), (T,))


def _scatter_site(flat, size: int, live, T: int, nsb: int = 0, ssize: int = 0) -> _Site:
    """The stored form of one store's resolved index and live-lane
    compaction; ``run(buf, value)`` is :func:`_masked_store`.  Slice, block
    and mask forms write each element once (their indices are unique by
    construction); the intp fallback is the same fancy assignment as
    today, so NumPy's last-writer order on duplicates is kept."""
    flat = np.asarray(flat)
    if live is None:
        whole = flat.ndim == 1 and flat.size == T > 0
        where = _as_slice(flat, size) if whole else None
        if where is not None:

            def store_slice(buf, value):
                buf[where] = np.asarray(value, dtype=buf.dtype)

            return _Site("slice", store_slice)
        local = _block_local(flat, size, nsb, ssize) if whole else None
        cols = _as_slice(local, ssize) if local is not None else None
        if cols is not None:
            # Per-block scatter only through a slice: a 2-D fancy scatter
            # is slower than the flat intp one.
            def store_block(buf, value):
                value = np.asarray(value, dtype=buf.dtype)
                buf.reshape(nsb, ssize)[:, cols] = (
                    value.reshape(nsb, -1) if value.ndim else value
                )

            return _Site("block", store_block)
        idx = flat.astype(np.intp)
        if not idx.ndim:

            def store_one(buf, value):
                value = np.asarray(value, dtype=buf.dtype)
                # A uniform index: the last lane wins, as under a mask.
                buf[idx] = value[-1] if value.ndim else value

            return _Site("index", store_one, (idx,))

        def store_all(buf, value):
            buf[idx] = np.asarray(value, dtype=buf.dtype)

        return _Site("index", store_all, (idx,))
    fi = np.broadcast_to(flat, (T,))[live]
    lanes = np.flatnonzero(live)
    # Which lanes of the value are written: a slice when the live lanes
    # are a progression (``gid < n``, ``t == bdim - 1``), else the mask.
    pick = _as_slice(lanes, T) if lanes.size else None
    held = ()
    if pick is None:
        pick, held = live, (live,)
    where = _as_slice(fi, size) if fi.size else None
    if where is not None:

        def store_live_slice(buf, value):
            buf[where] = _store_value(buf, value, T)[pick]

        return _Site("slice", store_live_slice, held)
    base = int(fi[0]) - int(lanes[0]) if fi.size else -1
    if base >= 0 and np.array_equal(fi, lanes + base):
        # The index is the lane id (past ``base``, where a shard that does
        # not start at block 0 begins): the live mask is the scatter.
        m = min(T, size - base)
        mask = live[:m]

        def store_mask(buf, value):
            np.copyto(buf[base : base + m], _store_value(buf, value, T)[:m], where=mask)

        return _Site("mask", store_mask, (live,))
    idx = fi.astype(np.intp)

    def store_live(buf, value):
        buf[idx] = _store_value(buf, value, T)[pick]

    return _Site("index", store_live, (idx,) + held)


def _atomic_site(flat, live, T: int) -> _Site:
    """The compacted index of one atomic; ``run(buf, value, op)`` is
    :func:`_masked_atomic`."""
    fi = np.broadcast_to(np.asarray(flat), (T,))
    idx = (fi if live is None else fi[live]).astype(np.intp)

    def atomic(buf, value, op):
        val = _store_value(buf, value, T)
        _atomic_update(buf, idx, val if live is None else val[live], op)

    return _Site("index", atomic, (idx,) if live is None else (idx, live))


def _offer_site(plan: _Plan, key, site: _Site) -> None:
    _offer(plan, key, site, site.arrays, site.form)


# ------------------------------------------------------------------- memory
#
# Each helper ends in ``plan, key``: a planned site passes its launch's plan
# and, after the access has succeeded the way it always did, offers what it
# resolved.  An access that raises stores nothing, so it raises again -- the
# interpreter's text, at the interpreter's point -- on every launch.


def check_bounds(idx_arr, size, live, fname: str, aname: str) -> None:
    """Raise on out-of-range indices among live lanes (``_check_bounds``)."""
    checked = idx_arr
    if live is not None and np.ndim(idx_arr) != 0:
        checked = idx_arr[live]
    if np.ndim(checked) != 0 and checked.size == 0:
        return
    lo, hi = checked.min(), checked.max()
    if lo < 0 or hi >= size:
        raise ExecutionError(
            f"{fname}: index into {aname!r} out of range "
            f"[{int(lo)}, {int(hi)}] vs size {size}"
        )


#: Same-width unsigned twin of each index dtype the IR has (i32, u32, i64;
#: a Python int arrives as int64).  Reinterpreting a signed index as
#: unsigned (zero-copy) turns "negative" into "huge", so one ``max()``
#: decides ``0 <= idx < size`` for every lane at once.
_UNSIGNED = {
    np.dtype(np.int32): np.uint32,
    np.dtype(np.uint32): np.uint32,
    np.dtype(np.int64): np.uint64,
}


def resolve_index(idx, size, live, bc: bool, fname: str, aname: str):
    """The in-range index array every memory helper gathers/scatters with
    (``_flatten_index``: check live lanes, then clamp).

    Common case, one reduction and no allocation: if the largest index,
    read as unsigned, is below ``size`` then *every* lane — live or
    predicated off — is in range, so the live-lane check would pass and
    the clamp would be the identity; the index is returned as given.
    Anything that test cannot decide (a dead stencil-border lane at
    ``-1``, a genuinely bad index, an empty or non-integer index, an
    empty buffer) takes the interpreter's path: check, then clamp.
    """
    idx_arr = np.asarray(idx)
    unsigned = _UNSIGNED.get(idx_arr.dtype)
    if unsigned is not None and idx_arr.size and idx_arr.view(unsigned).max() < size:
        return idx_arr
    if bc:
        check_bounds(idx_arr, size, live, fname, aname)
    return np.clip(idx_arr, 0, max(size - 1, 0))


def load_global(
    buf, idx, live, bc: bool, fname: str, aname: str, plan=NO_PLAN, key=None, out=None
):
    """``array[index]`` on a flat global/constant buffer (``_eval_load``),
    into the workspace slot ``out`` when the kernel passes one.

    ``take``, not ``buf[...]``: the same elements, but fancy indexing walks
    an int32 index — what ``i32`` arithmetic produces — through a generic
    casting path at 2-3x the cost on the grids served here."""
    flat_idx = resolve_index(idx, buf.size, live, bc, fname, aname)
    value = _take(buf, flat_idx, out)
    if not plan.dead:
        _offer_site(plan, key, _gather_site(plan, key, flat_idx, buf.size, 0, 0))
    return value


def _shared_index(size, idx, bids, live, bc: bool, fname: str, aname: str):
    """Per-block flattening ``b*size + i`` of a resolved shared index."""
    return bids * np.int64(size) + resolve_index(idx, size, live, bc, fname, aname)


def load_shared(
    buf, size, idx, bids, live, bc: bool, fname: str, aname: str,
    plan=NO_PLAN, key=None, nsb: int = 0, out=None,
):
    """``shared[index]``."""
    flat_idx = _shared_index(size, idx, bids, live, bc, fname, aname)
    value = _take(buf, flat_idx, out)
    if not plan.dead:
        _offer_site(plan, key, _gather_site(plan, key, flat_idx, buf.size, nsb, size))
    return value


def store_global(
    buf, idx, value, live, T: int, bc: bool, fname: str, aname: str,
    plan=NO_PLAN, key=None,
):
    flat_idx = resolve_index(idx, buf.size, live, bc, fname, aname)
    _masked_store(buf, flat_idx, value, live, T)
    if not plan.dead:
        _offer_site(plan, key, _scatter_site(flat_idx, buf.size, live, T))


def store_shared(
    buf, size, idx, value, bids, live, T: int, bc: bool, fname: str, aname: str,
    plan=NO_PLAN, key=None, nsb: int = 0,
):
    flat_idx = _shared_index(size, idx, bids, live, bc, fname, aname)
    _masked_store(buf, flat_idx, value, live, T)
    if not plan.dead:
        _offer_site(plan, key, _scatter_site(flat_idx, buf.size, live, T, nsb, size))


def _masked_store(buf, flat_idx, value, live, T: int) -> None:
    """The store tail of ``_Execution._store`` (trace recording elided)."""
    value = np.asarray(value, dtype=buf.dtype)
    if live is None:
        if value.ndim and not np.ndim(flat_idx):
            value = value[-1]  # a uniform index: the last lane wins, as under a mask
        buf[flat_idx] = value
    else:
        fi = np.broadcast_to(np.asarray(flat_idx), (T,))[live]
        val = np.broadcast_to(value, (T,))[live]
        buf[fi] = val


_ATOMIC_UFUNCS = {
    "add": np.add,
    "min": np.minimum,
    "max": np.maximum,
    "and": np.bitwise_and,
    "or": np.bitwise_or,
    "xor": np.bitwise_xor,
}


def atomic_global(
    buf, idx, value, live, T: int, op: str, bc: bool, fname: str, aname: str,
    plan=NO_PLAN, key=None,
):
    flat_idx = resolve_index(idx, buf.size, live, bc, fname, aname)
    _masked_atomic(buf, flat_idx, value, live, T, op)
    if not plan.dead:
        _offer_site(plan, key, _atomic_site(flat_idx, live, T))


def atomic_shared(
    buf, size, idx, value, bids, live, T: int, op: str, bc: bool, fname: str, aname: str,
    plan=NO_PLAN, key=None,
):
    flat_idx = _shared_index(size, idx, bids, live, bc, fname, aname)
    _masked_atomic(buf, flat_idx, value, live, T, op)
    if not plan.dead:
        _offer_site(plan, key, _atomic_site(flat_idx, live, T))


def _masked_atomic(buf, flat_idx, value, live, T: int, op: str) -> None:
    """The read-modify-write tail of ``_Execution._atomic``."""
    fi = np.broadcast_to(np.asarray(flat_idx), (T,))
    val = np.broadcast_to(np.asarray(value, dtype=buf.dtype), (T,))
    if live is not None:
        fi, val = fi[live], val[live]
    _atomic_update(buf, fi, val, op)


def _atomic_update(buf, fi, val, op: str) -> None:
    if op == "inc":
        np.add.at(buf, fi, np.ones_like(val))
    else:
        _ATOMIC_UFUNCS[op].at(buf, fi, val)


# ---------------------------------------------------------------- workspace
#
# A compiled function computes its array temporaries into numbered *slots*
# -- ``np.add(a, b, out=_w3)`` -- that the lowering assigned by liveness
# (docs/CODEGEN.md, "Workspace and liveness").  The slots of one generated
# module (the kernel's, then each device function's frame above it) are
# views carved from one per-thread arena: no grid-sized allocation, no page
# fault and no cold cache line on a warm launch.  Nothing from the arena is
# visible outside the launch: stores copy, and plans hold only what was
# computed outside it.

#: Bytes one thread's arena may grow to.  A launch whose slots need more
#: gets fresh arrays instead (and counts as a ``workspace_overflow``).
WORKSPACE_BYTE_CAP = 16 << 20
#: Slots start on cache-line boundaries: a ufunc writing a 16-byte-aligned
#: ``out`` ran 1.5x slower here than into a 64-byte-aligned one.
_SLOT_ALIGN = 64
#: (layout, T) view tuples one thread keeps.
_VIEWS_MAX = 64

_LAYOUT_IDS = itertools.count()


class Layout:
    """The slots of one generated module: a dtype each, numbered as the
    source names them (``_w0`` ...)."""

    __slots__ = ("dtypes", "key")

    def __init__(self, dtype_names) -> None:
        self.dtypes = tuple(np.dtype(name) for name in dtype_names)
        self.key = next(_LAYOUT_IDS)  # never reused, unlike id()


class _Arena:
    """One thread's workspace: a byte buffer grown to the largest need seen
    (up to the cap) and the slot views carved from it, per (layout, T)."""

    __slots__ = ("buf", "views", "held", "__weakref__")

    def __init__(self) -> None:
        self.buf = np.empty(0, dtype=np.uint8)
        self.views: Dict[Tuple[int, int], tuple] = {}
        # What ``workspace_bytes`` counts for this arena; handed back when
        # the thread (and with it the arena) goes.
        self.held = [0]
        weakref.finalize(self, _arena_freed, self.held)


_LOCAL = threading.local()


def _arena() -> _Arena:
    try:
        return _LOCAL.arena
    except AttributeError:
        arena = _LOCAL.arena = _Arena()
        return arena


def _arena_freed(held: list) -> None:
    STATS.inc("workspace_bytes", -held[0])


def frame(layout: Layout, T: int) -> tuple:
    """The slot views of one launch of ``layout`` over ``T`` lanes, from the
    calling thread's arena.  Their contents are whatever the last launch
    left: generated code writes a slot before it reads it."""
    arena = _arena()
    views = arena.views.get((layout.key, T))
    if views is None:
        views = _carve(arena, layout, T)
    return views


def _carve(arena: _Arena, layout: Layout, T: int) -> tuple:
    sizes = [-(-T * dtype.itemsize // _SLOT_ALIGN) * _SLOT_ALIGN for dtype in layout.dtypes]
    need = sum(sizes)
    if need > WORKSPACE_BYTE_CAP:
        STATS.inc("workspace_overflows")
        return tuple(np.empty(T, dtype=dtype) for dtype in layout.dtypes)
    if need + _SLOT_ALIGN > arena.buf.size:
        # Views of the old buffer die with it; a launch never grows the
        # arena while another one on this thread is using it.
        arena.views.clear()
        arena.buf = np.empty(need + _SLOT_ALIGN, dtype=np.uint8)
        STATS.inc("workspace_bytes", arena.buf.size - arena.held[0])
        arena.held[0] = arena.buf.size
    elif len(arena.views) >= _VIEWS_MAX:
        arena.views.clear()
    offset = -arena.buf.ctypes.data % _SLOT_ALIGN
    views = []
    for dtype, size in zip(layout.dtypes, sizes):
        views.append(arena.buf[offset : offset + T * dtype.itemsize].view(dtype))
        offset += size
    views = arena.views[layout.key, T] = tuple(views)
    return views


def scribble_workspace() -> None:
    """Fill the calling thread's arena with 0xA5 (tests, and the
    conformance runner between launches): a slot read before it is written
    then shows up as a wrong answer instead of a stale right one."""
    _arena().buf.fill(0xA5)


# -------------------------------------------------------------------- loops


def uniform_int(value, what: str, fname: str) -> int:
    """Enforce uniform loop bounds (``_uniform_int``)."""
    if np.ndim(value) != 0:
        flat = np.asarray(value).ravel()
        if flat.size and (flat != flat[0]).any():
            raise ExecutionError(f"{fname}: {what} must be uniform across threads")
        return int(flat[0])
    return int(value)


def check_step(step: int, fname: str) -> int:
    if step == 0:
        raise ExecutionError(f"{fname}: zero loop step")
    return step


# ------------------------------------------------------------------ returns


def do_return(value, mask, ret, retm, T: int):
    """One executed ``return`` (``_exec_return``).

    Returns the new ``(ret_val, ret_mask, returned_all)`` triple; callers
    rebind their local state, which matches the interpreter's in-place
    frame updates because generated functions never alias these values.
    """
    live = live_mask(mask, retm)
    if live is None:
        if retm is None:
            retm = np.ones(T, dtype=bool)
        else:
            retm = retm.copy()
            retm[:] = True
        return value, retm, True
    if value is not None:
        if ret is None:
            ret = np.where(live, value, np.zeros_like(value))
        else:
            ret = np.where(live, value, ret)
    retm = live.copy() if retm is None else (retm | live)
    return ret, retm, live_count(mask, retm, T) == 0


def device_result(ret, fname: str):
    if ret is None:
        raise ExecutionError(f"device function {fname} did not return")
    return ret


def returned(out, value):
    """A device function's return value that may be one of its parameters
    or live in its frame: handed to the caller in the slot it passed
    (``out``), or as a copy.  A callee never returns a view the caller -- or
    its own next activation -- could overwrite."""
    if np.ndim(value) == 0:
        return value
    if out is None:
        return value.copy()
    np.copyto(out, value)
    return out


def copy_retm(retm):
    """Callee-entry copy of the caller's return mask (``_call_device``)."""
    return None if retm is None else retm.copy()


# ----------------------------------------------------------------- geometry


class Geometry:
    """Per-grid thread-id arrays, precomputed once and shared by launches.

    Mirrors the id construction in ``_Execution.__init__``; generated code
    only ever *reads* these arrays (every masked merge allocates a fresh
    array), so sharing one instance across launches is safe.  ``plans``
    holds the address plans resolved over this grid, by plan key;
    ``shards`` the sub-geometries sharded launches run on, by span;
    ``share`` the part of a launch this geometry runs (1 unless a shard view),
    which is what a launch on it advances the plan clock by.
    """

    __slots__ = (
        "T",
        "gid",
        "tid",
        "bid",
        "gidx",
        "gidy",
        "tidx",
        "tidy",
        "bidx",
        "bidy",
        "bdim",
        "bdimy",
        "gdim",
        "gdimy",
        "nbx",
        "sbid",
        "nsb",
        "plans",
        "shards",
        "share",
    )

    def __init__(self, grid: Grid) -> None:
        self.T = grid.threads
        linear = np.arange(self.T, dtype=np.int32)
        block_threads = np.int32(grid.block_threads)
        self.gid = linear
        self.tid = linear % block_threads
        self.bid = linear // block_threads
        tx = np.int32(grid.threads_per_block)
        self.tidx = self.tid % tx
        self.tidy = self.tid // tx
        self.bidx = self.bid % np.int32(grid.blocks)
        self.bidy = self.bid // np.int32(grid.blocks)
        self.gidx = self.bidx * tx + self.tidx
        self.gidy = self.bidy * np.int32(grid.threads_per_block_y) + self.tidy
        self.bdim = np.int32(grid.threads_per_block)
        self.bdimy = np.int32(grid.threads_per_block_y)
        self.gdim = np.int32(grid.blocks)
        self.gdimy = np.int32(grid.blocks_y)
        self.nbx = grid.blocks  # shared allocs are sized per x-axis block
        # Shard-local block addressing.  A full-grid geometry *is* the
        # single shard covering every block, so these reduce to the
        # identity and generated code can use them unconditionally.
        self.sbid = self.bid
        self.nsb = grid.blocks
        self.plans: Dict[tuple, _Entry] = {}
        self.shards = Store(cap=_SHARD_VIEWS_MAX, on_evict=_release_geometry)
        self.share = 1.0

    def shard(self, b0: int, b1: int, block_threads: int) -> "Geometry":
        """The sub-geometry covering blocks ``[b0, b1)``, remembered here:
        the launches of one span share one view, and with it the span's
        address plans -- a view plans like any geometry, under the same cap.
        At most :data:`_SHARD_VIEWS_MAX` spans are kept, oldest dropped
        first, its plans released with it.
        """
        span = (b0, b1, block_threads)
        view = self.shards.get(span)
        if view is None:
            view = self.shards.put(span, self._slice(*span))
        return view

    def _slice(self, b0: int, b1: int, block_threads: int) -> "Geometry":
        """Blocks are contiguous in linear thread order (``bid = linear //
        block_threads``), so every per-thread array is a zero-copy slice
        of the parent's.  Grid-wide scalars (``bdim``/``gdim``/... and
        ``nbx``) keep their full-grid values: intrinsics must report the
        launch geometry, not the shard.  Only the shared-memory
        addressing pair (``sbid``/``nsb``) is rebased so each shard
        allocates exactly its own blocks' shared storage.
        """
        lo, hi = b0 * block_threads, b1 * block_threads
        geo = Geometry.__new__(Geometry)
        geo.T = hi - lo
        geo.gid = self.gid[lo:hi]
        geo.tid = self.tid[lo:hi]
        geo.bid = self.bid[lo:hi]
        geo.gidx = self.gidx[lo:hi]
        geo.gidy = self.gidy[lo:hi]
        geo.tidx = self.tidx[lo:hi]
        geo.tidy = self.tidy[lo:hi]
        geo.bidx = self.bidx[lo:hi]
        geo.bidy = self.bidy[lo:hi]
        geo.bdim = self.bdim
        geo.bdimy = self.bdimy
        geo.gdim = self.gdim
        geo.gdimy = self.gdimy
        geo.nbx = self.nbx
        geo.sbid = geo.bid - np.int32(b0)
        geo.nsb = b1 - b0
        geo.plans = {}
        geo.shards = {}  # never filled: a launch shards the full grid only
        geo.share = geo.T / self.T
        return geo


def _release_geometry(old: Geometry) -> None:
    """An evicted geometry's plans, and its shard views', leave the byte
    cap with it."""
    with _PLAN_LOCK:
        for gone in (old, *old.shards.values()):
            _release_all(gone.plans)


_GEOMETRY_CACHE = Store("codegen.geometry", cap=64, on_evict=_release_geometry)


def geometry(grid: Grid) -> Geometry:
    """The cached geometry of ``grid``, least recently launched evicted
    first (a hit makes it the newest entry)."""
    geo = _GEOMETRY_CACHE.get(grid)
    if geo is None:
        return _GEOMETRY_CACHE.put(grid, Geometry(grid))
    _GEOMETRY_CACHE.touch(grid)
    return geo
