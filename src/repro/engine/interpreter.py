"""Vectorized interpreter for IR kernels.

A launch executes *all* threads of the grid simultaneously: every scalar
local becomes either a uniform NumPy scalar or a ``(threads,)`` array, and
each IR statement is one (or a few) NumPy operations across the whole grid.
This gives data-parallel kernels exact numerical semantics at NumPy speed,
which is what the quality measurements in the experiments rely on.

Divergence is handled by *predication*: a thread-dependent ``if`` executes
both arms under complementary masks, merging assignments with ``np.where``
and limiting stores/atomics to active lanes.  ``return`` inside divergent
control flow deactivates lanes for the rest of the function.  This mirrors
how a GPU actually executes divergent warps (both paths issue), and the
trace deliberately counts an instruction once per *active lane*, the
standard linear approximation of warp serialization.

Loop bounds must be uniform — the same restriction CUDA kernels satisfy in
every benchmark the paper evaluates — and the interpreter enforces it.

The launch optionally records a :class:`~repro.engine.trace.Trace` of
instruction classes and memory access streams for the device cost model.
"""

from __future__ import annotations

import functools
from typing import Dict, Optional

import numpy as np

from .._options import LaunchOptions, current_options
from .._state import Store
from ..errors import CodegenError, ExecutionError
from ..kernel import intrinsics, ir
from ..kernel.types import BOOL, F32, F64, I32, I64, U32
from ..obs import trace as obs_trace
from .hooks import notify_launch
from .launch import (
    Binding,
    Grid,
    resolve_kernel,
    resolve_module,
    validate_backend,
)
from .trace import Trace

#: C arithmetic raises no floating-point exceptions: division by zero,
#: NaN operands and overflow yield values, and NaN/Inf -> int casts are
#: well-defined garbage (downstream clamps handle the value).  Entered once
#: per launch, not once per operation.
_C_ARITHMETIC = {"divide": "ignore", "invalid": "ignore", "over": "ignore"}

#: An index dtype viewed as unsigned of the same width: a negative index
#: reads as a huge one, so a single ``max()`` decides both ends of the range.
_UNSIGNED = {
    np.dtype(np.int32): np.uint32,
    np.dtype(np.uint32): np.uint32,
    np.dtype(np.int64): np.uint64,
}


def launch(
    kernel,
    grid: Grid,
    args,
    module: Optional[ir.Module] = None,
    trace: Optional[Trace] = None,
    bounds_check: bool = True,
    call_observer=None,
    options: Optional[LaunchOptions] = None,
) -> Trace:
    """Execute ``kernel`` over ``grid`` with ``args`` (sequence or mapping).

    Returns the trace of this launch (a fresh one unless ``trace`` is
    given, in which case events are accumulated into it and it is
    returned).  Array arguments are written in place.

    ``call_observer(name, arg_arrays)`` is invoked for every device-function
    call; the memoization profiler uses it to harvest the value streams that
    feed bit tuning (paper §3.1.3, "applying training data to the function").

    ``options`` is a :class:`repro.LaunchOptions` deciding backend,
    sharding and executor for this call; its set fields take precedence
    over the ambient :func:`repro.options` scope.  Backend ``"auto"``
    compiles the kernel via ``repro.codegen`` whenever neither ``trace``
    nor ``call_observer`` is requested — those need the interpreter,
    which records per-op events codegen elides — and falls back to the
    interpreter if lowering fails.  Kernels the shardability analysis
    rejects (and interpreter launches) transparently run serial.
    """
    ambient = current_options()
    effective = ambient if options is None else options.merged_over(ambient)
    bounds_check = bool(bounds_check)
    key = (
        id(kernel), id(module), grid.is_2d, bounds_check,
        trace is not None, call_observer is not None, effective,
    )
    plan = _PLANS.get(key)
    if plan is None:
        plan = _PLANS.put(
            key, _plan(kernel, module, effective, trace, call_observer),
            pins=(kernel, module),
        )
    fn, mod = plan.fn, plan.module
    bound = plan.binding.bind(args)
    t = trace if trace is not None else Trace()
    chosen = plan.backend
    compiled = None
    if chosen == "codegen":
        try:
            compiled = plan.compiled_kernel(grid, bounds_check)
        except CodegenError:
            if not plan.fallback:
                raise
            from ..codegen.runtime import STATS as _codegen_stats

            _codegen_stats.inc("fallbacks")
            chosen = "interp"
    t.count_launch(grid.threads)
    with obs_trace.span(
        "engine.launch", kernel=fn.name, backend=chosen, threads=grid.threads
    ):
        if compiled is None:
            execution = _Execution(fn, mod, grid, bound, t, bounds_check)
            execution.call_observer = call_observer
            execution.run()
        elif plan.policy is None or not _shard(plan, compiled, grid, bound):
            compiled.run(grid, bound)
    notify_launch(fn, mod, grid, t, backend=chosen)
    return t


class LaunchPlan:
    """What every launch of one kind resolves to, resolved once.

    One plan per (kernel, module, grid class, bounds mode, effective
    :class:`~repro.LaunchOptions` record, trace/observer requested): the
    kernel and module, the argument :class:`~repro.engine.launch.Binding`,
    the backend chosen (and whether ``"auto"`` may fall back), the
    compiled kernel once there is one, and the shard
    :class:`~repro.parallel.ParallelPolicy` (None when serial).  Its entry
    in the plan store pins the ``kernel`` and ``module`` its key holds by id.
    What a plan does not hold is still checked per launch: the arguments,
    the compile fault seam, the hit count, sharding by grid size.
    """

    __slots__ = ("fn", "module", "binding", "backend", "fallback", "policy", "compiled")

    def __init__(self, fn, module, backend, fallback, policy):
        self.fn, self.module = fn, module
        self.binding = Binding(fn)
        self.backend, self.fallback, self.policy = backend, fallback, policy
        self.compiled = None

    def compiled_kernel(self, grid: Grid, bounds_check: bool):
        """The compiled kernel: fetched through the codegen cache until
        one compiles, reused from then on."""
        compiled = self.compiled
        if compiled is not None:
            return compiled.reuse()
        from ..codegen.cache import get_compiled

        compiled = self.compiled = get_compiled(
            self.fn, self.module, grid, bounds_check
        )
        return compiled


#: Launch plans by key; :func:`repro.codegen.clear_cache` drops them with
#: the compiled kernels they hold.
_PLANS = Store("engine.launch_plans", cap=512)


def _plan(kernel, module, effective: LaunchOptions, trace, call_observer) -> LaunchPlan:
    fn = resolve_kernel(kernel)
    mod = resolve_module(kernel, module)
    if fn.kind != "kernel":
        raise ExecutionError(f"{fn.name} is a device function, not a kernel")
    # With no backend set anywhere the default is the interpreter, on
    # every thread: the tuner's cost model needs the instruction/memory
    # traces only it records, and pool workers start from this default
    # rather than from whatever the spawning thread had scoped.
    chosen = validate_backend(
        effective.backend if effective.backend is not None else "interp"
    )
    if chosen == "codegen" and call_observer is not None:
        raise ExecutionError(
            f"{fn.name}: backend 'codegen' cannot honor call_observer; "
            "device-call observation requires the interpreter"
        )
    fallback = chosen == "auto"
    if fallback:
        wants_interp = trace is not None or call_observer is not None
        chosen = "interp" if wants_interp else "codegen"
    policy = None
    if chosen == "codegen" and (
        effective.parallel is not None or effective.executor is not None
    ):
        # Import-lazy so serial launches (the default everywhere) never
        # pay for the repro.parallel machinery.
        from ..parallel.pool import policy_from_options

        policy = policy_from_options(effective)
        if policy.serial:
            policy = None
    return LaunchPlan(fn, mod, chosen, fallback, policy)


def _shard(plan: LaunchPlan, compiled, grid: Grid, bound) -> bool:
    """Shard a codegen launch whose plan asks for workers; False means
    the caller runs it serially (grid too small, kernel unshardable)."""
    from ..parallel.shard import maybe_run_sharded

    return maybe_run_sharded(plan.fn, plan.module, compiled, grid, bound, plan.policy)


def call_device_function(fn, module: ir.Module, args) -> np.ndarray:
    """Evaluate a device function element-wise over NumPy argument arrays.

    ``args`` is one array (or scalar) per scalar parameter, broadcast to a
    common length.  Used by bit tuning and lookup-table population, which
    need the exact function evaluated over large batches of (quantized)
    inputs without the enclosing kernel.
    """
    from ..kernel.frontend import KernelFn

    if isinstance(fn, KernelFn):
        module = fn.module
        fn = fn.fn
    if fn.kind != "device":
        raise ExecutionError(f"{fn.name} is not a device function")
    arrays = [np.atleast_1d(np.asarray(a)) for a in args]
    n = max(a.size for a in arrays)
    execution = _Execution(fn, module, Grid(1, 1), {}, Trace(), True)
    execution.T = n
    lanes = np.arange(n, dtype=np.int32)
    execution.ids.update(
        global_id=lanes, thread_id=lanes, block_id=np.zeros(n, dtype=np.int32)
    )
    execution.root = _Frame({}, None, n)
    values = []
    for param, arr in zip(fn.params, arrays):
        cast = arr.astype(param.type.dtype.to_numpy(), copy=False)
        values.append(np.broadcast_to(cast, (n,)) if cast.size != n else cast)
    with np.errstate(**_C_ARITHMETIC):
        result = execution._call_device(fn, values, execution.root)
    return np.broadcast_to(result, (n,)) if np.ndim(result) == 0 else result


#: What each thread/grid intrinsic evaluates to, from the launch geometry
#: and from other intrinsics.  Threads are linearized x-fastest within a
#: block and block-x-fastest in the grid, so for 1-D launches the x ids
#: equal the linear ids.
_GRID_INTRINSICS = {
    "global_id": lambda ids, grid: np.arange(grid.threads, dtype=np.int32),
    "thread_id": lambda ids, grid: ids["global_id"] % np.int32(grid.block_threads),
    "block_id": lambda ids, grid: ids["global_id"] // np.int32(grid.block_threads),
    "block_dim": lambda ids, grid: np.int32(grid.threads_per_block),
    "grid_dim": lambda ids, grid: np.int32(grid.blocks),
    "global_id_x": lambda ids, grid: (
        ids["block_id_x"] * ids["block_dim_x"] + ids["thread_id_x"]
    ),
    "global_id_y": lambda ids, grid: (
        ids["block_id_y"] * ids["block_dim_y"] + ids["thread_id_y"]
    ),
    "thread_id_x": lambda ids, grid: ids["thread_id"] % ids["block_dim_x"],
    "thread_id_y": lambda ids, grid: ids["thread_id"] // ids["block_dim_x"],
    "block_id_x": lambda ids, grid: ids["block_id"] % ids["grid_dim_x"],
    "block_id_y": lambda ids, grid: ids["block_id"] // ids["grid_dim_x"],
    "block_dim_x": lambda ids, grid: np.int32(grid.threads_per_block),
    "block_dim_y": lambda ids, grid: np.int32(grid.threads_per_block_y),
    "grid_dim_x": lambda ids, grid: np.int32(grid.blocks),
    "grid_dim_y": lambda ids, grid: np.int32(grid.blocks_y),
}


class _GridIds(dict):
    """The intrinsic values of one launch, each computed on first use: a
    1-D map kernel never pays for the 2-D decomposition of its grid."""

    def __init__(self, grid: Grid) -> None:
        super().__init__()
        self.grid = grid

    def __missing__(self, name: str):
        value = self[name] = _GRID_INTRINSICS[name](self, self.grid)
        return value


class _Frame:
    """Execution state of one function activation."""

    __slots__ = ("env", "mask", "active", "ret_val", "ret_mask", "returned_all")

    def __init__(self, env: Dict[str, object], mask, active: int) -> None:
        self.env = env
        self.mask = mask  # None (all live) or bool (T,) array
        self.active = active  # number of live lanes (for op counting)
        self.ret_val = None
        self.ret_mask = None  # lanes that have executed `return`
        self.returned_all = False


class _Execution:
    def __init__(self, fn, module, grid, bound_args, trace, bounds_check):
        self.fn = fn
        self.module = module
        self.grid = grid
        self.trace = trace
        self.bounds_check = bounds_check
        self.T = grid.threads
        self.ids = _GridIds(grid)
        self.arrays: Dict[str, np.ndarray] = {}
        #: name -> (flat buffer, per-block size, per-thread base offset)
        self.shared: Dict[str, tuple] = {}
        env: Dict[str, object] = {}
        for name, value in bound_args.items():
            if isinstance(value, np.ndarray):
                self.arrays[name] = value
            else:
                env[name] = value
        self.root = _Frame(env, None, self.T)
        self.call_observer = None

    # ------------------------------------------------------------------ run

    def run(self) -> None:
        with np.errstate(**_C_ARITHMETIC):
            self._exec_body(self.fn.body, self.root)

    # ----------------------------------------------------------- statements

    def _exec_body(self, body, frame: _Frame) -> None:
        for stmt in body:
            if frame.returned_all:
                return
            self._exec_stmt(stmt, frame)

    def _exec_stmt(self, stmt, frame: _Frame) -> None:
        handler = _STATEMENTS.get(type(stmt))
        if handler is None:
            raise ExecutionError(f"cannot execute {type(stmt).__name__}")
        handler(self, stmt, frame)

    def _exec_assign(self, stmt: ir.Assign, frame: _Frame) -> None:
        self._assign(stmt.target, self._eval(stmt.value, frame), frame)

    def _exec_barrier(self, stmt: ir.Barrier, frame: _Frame) -> None:
        self.trace.count_op("barrier", "i32", 1)

    def _exec_shared_alloc(self, stmt: ir.SharedAlloc, frame: _Frame) -> None:
        shape = (self.grid.blocks,) + tuple(stmt.shape)
        buf = np.zeros(shape, dtype=stmt.dtype.to_numpy())
        size = buf.shape[1] if buf.ndim > 1 else buf.size
        # Shared arrays are per-block: logical index i of a thread in block
        # b lives at flat index b*size + i.  The b*size term is the same
        # for every access of the launch.
        self.shared[stmt.name] = (
            buf.reshape(-1), size, self.ids["block_id"] * np.int64(size)
        )

    def _assign(self, name: str, value, frame: _Frame) -> None:
        live = self._live_mask(frame)
        if live is None or name not in frame.env:
            frame.env[name] = value
        else:
            old = frame.env[name]
            frame.env[name] = np.where(live, value, old)

    def _store(self, stmt: ir.Store, frame: _Frame) -> None:
        idx = self._eval(stmt.index, frame)
        value = self._eval(stmt.value, frame)
        buf, space, flat_idx, addresses = self._access(stmt.array, idx, frame)
        live = self._live_mask(frame)
        value = np.asarray(value, dtype=buf.dtype)
        if live is None:
            if value.ndim and not np.ndim(flat_idx):
                # Every lane writes the one element: the last lane's value
                # wins, as it does under a mask.
                value = value[-1]
            buf[flat_idx] = value
            count = self.T
        else:
            fi = np.broadcast_to(flat_idx, (self.T,))[live]
            buf[fi] = np.broadcast_to(value, (self.T,))[live]
            count = frame.active
        self.trace.record_access(
            space, "store", buf.dtype.itemsize, count, addresses, stmt.array.name
        )

    def _atomic(self, stmt: ir.AtomicRMW, frame: _Frame) -> None:
        idx = self._eval(stmt.index, frame)
        value = self._eval(stmt.value, frame)
        buf, space, flat_idx, addresses = self._access(stmt.array, idx, frame)
        live = self._live_mask(frame)
        fi = np.broadcast_to(flat_idx, (self.T,))
        val = np.broadcast_to(np.asarray(value, dtype=buf.dtype), (self.T,))
        if live is not None:
            fi, val = fi[live], val[live]
        update = _ATOMICS.get(stmt.op)
        if update is None:  # pragma: no cover - guarded by IR validation
            raise ExecutionError(f"unknown atomic {stmt.op}")
        update.at(buf, fi, np.ones_like(val) if stmt.op == "inc" else val)
        count = frame.active if live is not None else self.T
        self.trace.count_op("atomic", stmt.array.dtype.name, count)
        self.trace.record_access(
            space, "atomic", buf.dtype.itemsize, count, addresses, stmt.array.name
        )

    def _exec_if(self, stmt: ir.If, frame: _Frame) -> None:
        cond = self._eval(stmt.cond, frame)
        self.trace.count_op("branch", "bool", frame.active)
        if np.ndim(cond) == 0:
            body = stmt.then_body if bool(cond) else stmt.else_body
            self._exec_body(body, frame)
            return
        cond = np.asarray(cond, dtype=bool)
        base = frame.mask
        then_mask = cond if base is None else (cond & base)
        else_mask = ~cond if base is None else (~cond & base)
        saved_mask, saved_active = frame.mask, frame.active
        for mask, body in ((then_mask, stmt.then_body), (else_mask, stmt.else_body)):
            if not body:
                continue
            active = int(mask.sum())
            if active == 0:
                continue
            frame.mask, frame.active = mask, active
            frame.returned_all = False  # branch-local; recomputed below
            self._exec_body(body, frame)
            frame.mask, frame.active = saved_mask, saved_active
        frame.mask = saved_mask
        live_after = self._live_count(frame)
        # Lanes that returned inside a branch stay inactive from here on.
        frame.active = live_after if frame.ret_mask is not None else saved_active
        frame.returned_all = frame.ret_mask is not None and live_after == 0

    def _exec_for(self, stmt: ir.For, frame: _Frame) -> None:
        start = self._uniform_int(self._eval(stmt.start, frame), "loop start")
        stop = self._uniform_int(self._eval(stmt.stop, frame), "loop stop")
        step = self._uniform_int(self._eval(stmt.step, frame), "loop step")
        if step == 0:
            raise ExecutionError(f"{self.fn.name}: zero loop step")
        for k in range(start, stop, step):
            frame.env[stmt.var] = np.int32(k)
            self.trace.count_op("branch", "i32", frame.active)
            self._exec_body(stmt.body, frame)
            if frame.returned_all:
                return

    def _exec_return(self, stmt: ir.Return, frame: _Frame) -> None:
        value = self._eval(stmt.value, frame) if stmt.value is not None else None
        live = self._live_mask(frame)
        if live is None:
            frame.ret_val = value
            frame.returned_all = True
            if frame.ret_mask is None:
                frame.ret_mask = np.ones(self.T, dtype=bool)
            else:
                frame.ret_mask[:] = True
            return
        if value is not None:
            if frame.ret_val is None:
                frame.ret_val = np.where(live, value, np.zeros_like(value))
            else:
                frame.ret_val = np.where(live, value, frame.ret_val)
        if frame.ret_mask is None:
            frame.ret_mask = live.copy()
        else:
            frame.ret_mask |= live
        frame.returned_all = self._live_count(frame) == 0

    # --------------------------------------------------------------- values

    def _live_mask(self, frame: _Frame):
        """Lanes executing right now: frame mask minus already-returned."""
        if frame.ret_mask is None:
            return frame.mask
        if frame.mask is None:
            return ~frame.ret_mask
        return frame.mask & ~frame.ret_mask

    def _live_count(self, frame: _Frame) -> int:
        live = self._live_mask(frame)
        return self.T if live is None else int(live.sum())

    def _uniform_int(self, value, what: str) -> int:
        if np.ndim(value) != 0:
            flat = np.asarray(value).ravel()
            if flat.size and (flat != flat[0]).any():
                raise ExecutionError(
                    f"{self.fn.name}: {what} must be uniform across threads"
                )
            return int(flat[0])
        return int(value)

    def _access(self, ref: ir.ArrayRef, idx, frame: _Frame):
        """Resolve one array access: ``(flat buffer, memory space, flat
        index into the buffer, addresses for the trace)``.

        Global arrays are flat already; for a shared array the flat index
        adds the thread's block base and the trace sees the in-block
        address (used only for footprint and bank statistics).  An index
        array wholly inside ``[0, size)`` — dead lanes included — is used as
        given.  Anything else is checked on the live lanes (when
        ``bounds_check``) and then clamped, so lanes under predication may
        compute any address without touching memory outside the buffer.
        """
        idx_arr = np.asarray(idx)
        shared = self.shared.get(ref.name)
        if shared is not None:
            buf, size, base = shared
            space = "shared"
        elif ref.name in self.arrays:
            buf = self.arrays[ref.name]
            size, base, space = buf.size, None, ref.type.space
        else:
            raise ExecutionError(f"{self.fn.name}: unbound array {ref.name!r}")
        unsigned = _UNSIGNED.get(idx_arr.dtype)
        if (
            unsigned is None
            or idx_arr.size == 0
            or idx_arr.view(unsigned).max() >= size
        ):
            if self.bounds_check:
                self._check_bounds(ref, idx_arr, size, frame)
            idx_arr = np.clip(idx_arr, 0, max(size - 1, 0))
        return buf, space, idx_arr if base is None else base + idx_arr, idx_arr

    def _check_bounds(self, ref, idx_arr, size, frame) -> None:
        live = self._live_mask(frame)
        checked = idx_arr
        if live is not None and np.ndim(idx_arr) != 0:
            checked = idx_arr[live]
        if checked.size == 0:
            return
        lo, hi = checked.min(), checked.max()
        if lo < 0 or hi >= size:
            raise ExecutionError(
                f"{self.fn.name}: index into {ref.name!r} out of range "
                f"[{int(lo)}, {int(hi)}] vs size {size}"
            )

    # ---------------------------------------------------------- expressions

    def _eval(self, expr: ir.Expr, frame: _Frame):
        handler = _EXPRESSIONS.get(type(expr))
        if handler is None:
            raise ExecutionError(f"cannot evaluate {type(expr).__name__}")
        return handler(self, expr, frame)

    def _eval_const(self, expr: ir.Const, frame: _Frame):
        return expr.dtype.to_numpy().type(expr.value)

    def _eval_var(self, expr: ir.Var, frame: _Frame):
        try:
            return frame.env[expr.name]
        except KeyError:
            raise ExecutionError(
                f"{self.fn.name}: read of unassigned variable {expr.name!r}"
            )

    def _eval_array_ref(self, expr: ir.ArrayRef, frame: _Frame):
        return expr  # only consumed by Load/Store/Atomic

    def _eval_unop(self, expr: ir.UnOp, frame: _Frame):
        operand = self._eval(expr.operand, frame)
        self.trace.count_op("alu", expr.dtype.name, frame.active)
        if expr.op == "neg":
            return -operand
        if expr.op == "lnot":
            return ~np.asarray(operand, dtype=bool) if np.ndim(operand) else not operand
        return ~operand  # bnot

    def _eval_cast(self, expr: ir.Cast, frame: _Frame):
        value = self._eval(expr.operand, frame)
        self.trace.count_op("alu", expr.dtype.name, frame.active)
        target = expr.dtype.to_numpy()
        if np.ndim(value) == 0:
            return target.type(value)
        return np.asarray(value).astype(target)

    def _eval_select(self, expr: ir.Select, frame: _Frame):
        cond = self._eval(expr.cond, frame)
        a = self._eval(expr.if_true, frame)
        b = self._eval(expr.if_false, frame)
        self.trace.count_op("alu", expr.dtype.name, frame.active)
        out_dtype = expr.dtype.to_numpy()
        if np.ndim(cond) == 0:
            chosen = a if bool(cond) else b
            return np.asarray(chosen, dtype=out_dtype) if np.ndim(chosen) else out_dtype.type(chosen)
        return np.where(cond, a, b).astype(out_dtype, copy=False)

    def _eval_load(self, expr: ir.Load, frame: _Frame):
        idx = self._eval(expr.index, frame)
        buf, space, flat_idx, addresses = self._access(expr.array, idx, frame)
        value = buf.take(flat_idx)
        self.trace.record_access(
            space, "load", buf.dtype.itemsize, frame.active, addresses,
            expr.array.name,
        )
        return value

    def _eval_binop(self, expr: ir.BinOp, frame: _Frame):
        a = self._eval(expr.left, frame)
        b = self._eval(expr.right, frame)
        dtype_name = expr.dtype.name
        plan = _BINOP_PLANS.get((expr.op, dtype_name))
        if plan is None:  # pragma: no cover - guarded by IR construction
            raise ExecutionError(f"unknown binop {expr.op}")
        evaluate, latency_class, np_dtype = plan
        self.trace.count_op(latency_class, dtype_name, frame.active)
        out = evaluate(a, b)
        if np.ndim(out) == 0:
            return np_dtype.type(out)
        return np.asarray(out).astype(np_dtype, copy=False)

    def _eval_call(self, expr: ir.Call, frame: _Frame):
        name = expr.func
        if name in _GRID_INTRINSICS:
            return self.ids[name]
        args = [self._eval(a, frame) for a in expr.args]
        builtin = intrinsics.get(name)
        if builtin is not None:
            self.trace.count_op(builtin.latency_class, expr.dtype.name, frame.active)
            out = builtin.evaluate(*args)
            np_dtype = expr.dtype.to_numpy()
            if np.ndim(out) == 0:
                return np_dtype.type(out)
            return np.asarray(out).astype(np_dtype, copy=False)
        if name in self.module and self.module[name].kind == "device":
            if self.call_observer is not None:
                self.call_observer(name, args)
            return self._call_device(self.module[name], args, frame)
        raise ExecutionError(f"{self.fn.name}: call to unknown function {name!r}")

    def _call_device(self, fn: ir.Function, args, frame: _Frame):
        self.trace.count_op("call", "i32", frame.active)
        env = {}
        for param, value in zip(fn.params, args):
            env[param.name] = value
        callee = _Frame(env, frame.mask, frame.active)
        callee.ret_mask = None if frame.ret_mask is None else frame.ret_mask.copy()
        saved_fn = self.fn
        self.fn = fn
        try:
            self._exec_body(fn.body, callee)
        finally:
            self.fn = saved_fn
        if callee.ret_val is None:
            raise ExecutionError(f"device function {fn.name} did not return")
        return callee.ret_val


def _c_divide(a, b, dtype):
    """C-semantics division: truncation toward zero for integers."""
    if dtype.is_float:
        return np.divide(a, b)
    a64 = np.asarray(a, dtype=np.int64)
    b64 = np.asarray(b, dtype=np.int64)
    q = np.floor_divide(a64, b64)
    r = a64 - q * b64
    fix = (r != 0) & ((a64 < 0) != (b64 < 0))
    return q + fix


def _c_mod(a, b, dtype):
    """C-semantics remainder: sign follows the dividend for integers."""
    if dtype.is_float:
        return np.fmod(a, b)
    q = _c_divide(a, b, dtype)
    return np.asarray(a, dtype=np.int64) - q * np.asarray(b, dtype=np.int64)


_STATEMENTS = {
    ir.Assign: _Execution._exec_assign,
    ir.Store: _Execution._store,
    ir.AtomicRMW: _Execution._atomic,
    ir.If: _Execution._exec_if,
    ir.For: _Execution._exec_for,
    ir.Return: _Execution._exec_return,
    ir.Barrier: _Execution._exec_barrier,
    ir.SharedAlloc: _Execution._exec_shared_alloc,
}

_EXPRESSIONS = {
    ir.Const: _Execution._eval_const,
    ir.Var: _Execution._eval_var,
    ir.ArrayRef: _Execution._eval_array_ref,
    ir.BinOp: _Execution._eval_binop,
    ir.UnOp: _Execution._eval_unop,
    ir.Cast: _Execution._eval_cast,
    ir.Select: _Execution._eval_select,
    ir.Load: _Execution._eval_load,
    ir.Call: _Execution._eval_call,
}

_ATOMICS = {
    "add": np.add,
    "inc": np.add,  # of ones
    "min": np.minimum,
    "max": np.maximum,
    "and": np.bitwise_and,
    "or": np.bitwise_or,
    "xor": np.bitwise_xor,
}

#: ``div`` and ``mod`` follow C, not NumPy, for integers.
_BINOPS = {
    "add": np.add,
    "sub": np.subtract,
    "mul": np.multiply,
    "div": _c_divide,
    "mod": _c_mod,
    "and": np.bitwise_and,
    "or": np.bitwise_or,
    "xor": np.bitwise_xor,
    "shl": np.left_shift,
    "shr": np.right_shift,
    "lt": np.less,
    "le": np.less_equal,
    "gt": np.greater,
    "ge": np.greater_equal,
    "eq": np.equal,
    "ne": np.not_equal,
    "land": np.logical_and,
    "lor": np.logical_or,
}


def _binop_plan(op: str, dtype) -> tuple:
    """``(evaluate(a, b), latency class, NumPy dtype)`` of one operator at
    one result type."""
    evaluate = _BINOPS[op]
    if op in ("div", "mod"):
        evaluate = functools.partial(evaluate, dtype=dtype)
        latency_class = "fdiv" if dtype.is_float else "idiv"
    elif op == "mul":
        latency_class = "fmul" if dtype.is_float else "imul"
    else:
        latency_class = "alu"
    return evaluate, latency_class, dtype.to_numpy()


#: Resolved once at import instead of once per evaluated node.
_BINOP_PLANS = {
    (op, dtype.name): _binop_plan(op, dtype)
    for dtype in (F32, F64, I32, I64, U32, BOOL)
    for op in _BINOPS
}
