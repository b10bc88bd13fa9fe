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

Generated modules receive this module under the name ``rt``.
"""

from __future__ import annotations

from typing import Dict, Optional

import numpy as np

from ..engine.interpreter import _c_divide, _c_mod
from ..engine.launch import Grid
from ..errors import ExecutionError

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
            return np.asarray(chosen, dtype=np_dtype)
        return np_dtype.type(chosen)
    return np.where(cond, a, b).astype(np_dtype, copy=False)


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


# keep the float paths importable for completeness / tests
c_divide = _c_divide
c_mod = _c_mod


# ------------------------------------------------------------------- memory


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


def load_global(buf, idx, live, bc: bool, fname: str, aname: str):
    """``array[index]`` on a flat global/constant buffer (``_eval_load``).

    ``take``, not ``buf[...]``: the same elements, but fancy indexing walks
    an int32 index — what ``i32`` arithmetic produces — through a generic
    casting path at 2-3x the cost on the grids served here."""
    return buf.take(resolve_index(idx, buf.size, live, bc, fname, aname))


def load_table(buf, idx, entries, live, bc: bool, fname: str, aname: str):
    """Gather from a lookup table whose index the lowering *proved* to
    lie in ``[0, entries - 1]`` (interval analysis over the memoization
    rewrite's clamp/pack idioms).  Where :func:`resolve_index` tests the
    range at run time, here it is a compile-time fact — ``take`` is a
    straight gather.

    The proof is about the IR; the buffer is a runtime argument, so a
    caller binding a table smaller than the proof assumed falls back to
    the exact interpreter path (clamp + optional bounds check)."""
    if buf.size < entries:
        return load_global(buf, idx, live, bc, fname, aname)
    return buf.take(idx)


def _shared_index(size, idx, bids, live, bc: bool, fname: str, aname: str):
    """Per-block flattening ``b*size + i`` of a resolved shared index."""
    return bids * np.int64(size) + resolve_index(idx, size, live, bc, fname, aname)


def load_shared(buf, size, idx, bids, live, bc: bool, fname: str, aname: str):
    """``shared[index]``."""
    return buf.take(_shared_index(size, idx, bids, live, bc, fname, aname))


def store_global(buf, idx, value, live, T: int, bc: bool, fname: str, aname: str):
    flat_idx = resolve_index(idx, buf.size, live, bc, fname, aname)
    _masked_store(buf, flat_idx, value, live, T)


def store_shared(
    buf, size, idx, value, bids, live, T: int, bc: bool, fname: str, aname: str
):
    flat_idx = _shared_index(size, idx, bids, live, bc, fname, aname)
    _masked_store(buf, flat_idx, value, live, T)


def _masked_store(buf, flat_idx, value, live, T: int) -> None:
    """The store tail of ``_Execution._store`` (trace recording elided)."""
    value = np.asarray(value, dtype=buf.dtype)
    if live is None:
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
    buf, idx, value, live, T: int, op: str, bc: bool, fname: str, aname: str
):
    flat_idx = resolve_index(idx, buf.size, live, bc, fname, aname)
    _masked_atomic(buf, flat_idx, value, live, T, op)


def atomic_shared(
    buf, size, idx, value, bids, live, T: int, op: str, bc: bool, fname: str, aname: str
):
    flat_idx = _shared_index(size, idx, bids, live, bc, fname, aname)
    _masked_atomic(buf, flat_idx, value, live, T, op)


def _masked_atomic(buf, flat_idx, value, live, T: int, op: str) -> None:
    """The read-modify-write tail of ``_Execution._atomic``."""
    fi = np.broadcast_to(np.asarray(flat_idx), (T,))
    val = np.broadcast_to(np.asarray(value, dtype=buf.dtype), (T,))
    if live is not None:
        fi, val = fi[live], val[live]
    if op == "inc":
        np.add.at(buf, fi, np.ones_like(val))
    else:
        _ATOMIC_UFUNCS[op].at(buf, fi, val)


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


def copy_retm(retm):
    """Callee-entry copy of the caller's return mask (``_call_device``)."""
    return None if retm is None else retm.copy()


# ----------------------------------------------------------------- geometry


class Geometry:
    """Per-grid thread-id arrays, precomputed once and shared by launches.

    Mirrors the id construction in ``_Execution.__init__``; generated code
    only ever *reads* these arrays (every masked merge allocates a fresh
    array), so sharing one instance across launches is safe.
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

    def shard(self, b0: int, b1: int, block_threads: int) -> "Geometry":
        """The sub-geometry covering blocks ``[b0, b1)``.

        Blocks are contiguous in linear thread order (``bid = linear //
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
        return geo


_GEOMETRY_CACHE: Dict[Grid, Geometry] = {}
_GEOMETRY_CACHE_MAX = 64


def geometry(grid: Grid) -> Geometry:
    geo = _GEOMETRY_CACHE.get(grid)
    if geo is None:
        if len(_GEOMETRY_CACHE) >= _GEOMETRY_CACHE_MAX:
            _GEOMETRY_CACHE.pop(next(iter(_GEOMETRY_CACHE)))
        geo = _GEOMETRY_CACHE[grid] = Geometry(grid)
    return geo
