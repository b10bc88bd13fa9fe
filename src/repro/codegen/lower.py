"""Lower a typed IR kernel to specialized Python/NumPy source.

The generated function is the interpreter *partially evaluated* over one
IR tree: tree dispatch, per-op trace counting and per-access coalescing
statistics disappear, while every value-producing operation is emitted as
the same NumPy expression (or a :mod:`repro.codegen.runtime` helper that
extracts the corresponding interpreter code path), keeping the results
bit-identical.

Lowering rules, in interpreter terms:

* **Predication.**  A thread-divergent ``if`` becomes two complementary
  masks; arm bodies run under ``if rt.any_lanes(mask)`` and assignments
  merge with ``np.where``.  Conditions the varying analysis cannot prove
  divergent get a dual path: a runtime ``np.ndim(cond) == 0`` test picks
  the uniform (unmasked) or masked emission, exactly like ``_exec_if``.
* **Lane deactivation.**  Functions containing ``return`` carry runtime
  ``_ret``/``_retm``/``_retall`` state; statements after a
  possibly-returning statement are guarded by ``if not _retall`` and the
  live mask is ``mask & ~_retm``, matching ``_exec_return``/``_live_mask``.
* **Locals.**  Every local starts as the ``rt.UNSET`` sentinel so that
  "first write under a mask binds the full value" (the interpreter's
  env-membership rule) is reproduced by ``rt.assign``.
* **Loops** enforce uniform bounds through ``rt.uniform_int`` and bind the
  loop variable as a plain ``np.int32`` even under predication.
* **Memory.**  Loads/stores/atomics clamp indices and bounds-check live
  lanes only; shared allocations use the interpreter's per-x-block sizing.

Unsupported shapes (device functions touching arrays, unknown calls)
raise :class:`~repro.errors.CodegenError`; the ``auto`` backend falls
back to the interpreter in that case.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Set, Tuple

import numpy as np

from ..errors import CodegenError
from ..kernel import intrinsics, ir
from ..kernel.visitors import walk_statements
from . import runtime as _runtime
from .fingerprint import reachable_device_functions
from .fold import compute_intervals, fold_function, interval_of

#: Ceiling on generated source size; dual-path emission of deeply nested
#: uniform conditionals could otherwise blow up exponentially.
MAX_LINES = 20_000

#: Thread intrinsics that always evaluate to a ``(T,)`` array.
VARYING_INTRINSICS = frozenset(
    {
        "global_id",
        "thread_id",
        "block_id",
        "global_id_x",
        "global_id_y",
        "thread_id_x",
        "thread_id_y",
        "block_id_x",
        "block_id_y",
    }
)

#: intrinsic name -> Geometry attribute (mirrors ``_eval_call``).
_INTRINSIC_ATTR = {
    "global_id": "gid",
    "thread_id": "tid",
    "block_id": "bid",
    "block_dim": "bdim",
    "grid_dim": "gdim",
    "global_id_x": "gidx",
    "global_id_y": "gidy",
    "thread_id_x": "tidx",
    "thread_id_y": "tidy",
    "block_id_x": "bidx",
    "block_id_y": "bidy",
    "block_dim_x": "bdim",
    "block_dim_y": "bdimy",
    "grid_dim_x": "gdim",
    "grid_dim_y": "gdimy",
}

_ARITH_FUNCS = {
    "add": "np.add",
    "sub": "np.subtract",
    "mul": "np.multiply",
    "and": "np.bitwise_and",
    "or": "np.bitwise_or",
    "xor": "np.bitwise_xor",
    "shl": "np.left_shift",
    "shr": "np.right_shift",
}

#: Comparisons/logic already produce bool scalars/arrays identical to the
#: interpreter's post-cast values, so no ``cast_result`` wrapper is needed.
_CMP_FUNCS = {
    "lt": "np.less",
    "le": "np.less_equal",
    "gt": "np.greater",
    "ge": "np.greater_equal",
    "eq": "np.equal",
    "ne": "np.not_equal",
    "land": "np.logical_and",
    "lor": "np.logical_or",
}


class _Ctx:
    """Lexical emission context: current mask expression and the locals
    statically known to be bound at this point."""

    __slots__ = ("mask", "defined", "dynamic")

    def __init__(self, mask: Optional[str], defined: Set[str], dynamic: bool):
        self.mask = mask  # python expr for frame.mask; None = all lanes live
        self.defined = defined
        self.dynamic = dynamic  # function tracks _ret/_retm/_retall

    def copy(self, mask: Optional[str] = None) -> "_Ctx":
        return _Ctx(mask if mask is not None else self.mask, set(self.defined), self.dynamic)


class _Emitter:
    def __init__(self, module: ir.Module, bounds_check: bool) -> None:
        self.module = module
        self.bounds_check = bool(bounds_check)
        self.lines: List[str] = []
        self.globals: Dict[str, object] = {"np": np, "rt": _runtime}
        self._consts: Dict[Tuple[str, str], str] = {}
        self._counter = 0
        # What the specializations accomplished, for the lowering-outcome
        # detail string and the codegen stats.
        self.info: Dict[str, int] = {
            "folded": 0,
            "reassociated": 0,
            "table_gathers": 0,
            "cast_elisions": 0,
        }
        # per-function state
        self.fname = ""
        self.param_names: Set[str] = set()
        self.shared: Dict[str, int] = {}  # name -> in-block size (shape[0])
        self.varying: Set[str] = set()
        self._varying_devices: Set[str] = set()
        self.tables: Dict[str, int] = {}  # table param -> proven entry count
        self.intervals: Dict[str, Tuple[float, float]] = {}
        self._static: Dict[str, str] = {}  # var -> proven runtime np dtype name
        self._elide = False

    # ------------------------------------------------------------- plumbing

    def emit(self, indent: int, text: str) -> None:
        self.lines.append("    " * indent + text)
        if len(self.lines) > MAX_LINES:
            raise CodegenError(
                f"{self.fname}: generated source exceeds {MAX_LINES} lines "
                "(deeply nested non-divergent conditionals)"
            )

    def tmp(self) -> str:
        self._counter += 1
        return f"_t{self._counter}"

    def const(self, value, dtype) -> str:
        key = (dtype.name, repr(value))
        name = self._consts.get(key)
        if name is None:
            name = f"_k{len(self._consts)}"
            self._consts[key] = name
            self.globals[name] = dtype.to_numpy().type(value)
        return name

    def np_dtype(self, dtype) -> str:
        name = f"_d_{dtype.name}"
        if name not in self.globals:
            self.globals[name] = dtype.to_numpy()
        return name

    def builtin_fn(self, builtin) -> str:
        name = f"_f_{builtin.name}"
        if name not in self.globals:
            self.globals[name] = builtin.evaluate
        return name

    # -------------------------------------------------------------- analysis

    def _device_produces_varying(self, name: str) -> bool:
        """Whether a device function's body references thread ids, making
        its result an array irrespective of the arguments."""
        if name in self._varying_devices:
            return True
        fn = self.module[name]
        for dev in [fn] + reachable_device_functions(fn, self.module):
            for stmt in walk_statements(dev.body):
                for node in _walk_exprs(stmt):
                    if isinstance(node, ir.Call) and node.func in VARYING_INTRINSICS:
                        self._varying_devices.add(name)
                        return True
        return False

    def expr_varying(self, expr) -> bool:
        """Sound "definitely a (T,) array at runtime" check.

        Drives emission shape only: a True result lets a conditional skip
        its uniform path.  False merely means "could be scalar", which
        costs a runtime ``np.ndim`` test, never correctness.
        """
        if isinstance(expr, (ir.Const, ir.ArrayRef)):
            return False
        if isinstance(expr, ir.Var):
            return expr.name in self.varying
        if isinstance(expr, ir.BinOp):
            return self.expr_varying(expr.left) or self.expr_varying(expr.right)
        if isinstance(expr, (ir.UnOp, ir.Cast)):
            return self.expr_varying(expr.operand)
        if isinstance(expr, ir.Select):
            # np.where with an array condition always yields an array; a
            # scalar condition picks one arm, so both must be arrays.
            return self.expr_varying(expr.cond) or (
                self.expr_varying(expr.if_true) and self.expr_varying(expr.if_false)
            )
        if isinstance(expr, ir.Load):
            return self.expr_varying(expr.index)
        if isinstance(expr, ir.Call):
            if expr.func in VARYING_INTRINSICS:
                return True
            if intrinsics.is_builtin(expr.func) and expr.func not in ir.THREAD_INTRINSICS:
                return any(self.expr_varying(a) for a in expr.args)
            if expr.func in self.module and self.module[expr.func].kind == "device":
                if self._device_produces_varying(expr.func):
                    return True
                return any(self.expr_varying(a) for a in expr.args)
            return False
        return False

    def _compute_varying(self, fn: ir.Function) -> Set[str]:
        """Fixpoint: a local is definitely varying iff it is assigned at
        least once and *every* assignment's RHS is definitely varying
        (merges under masks never turn an array back into a scalar)."""
        assigns: Dict[str, List[ir.Expr]] = {}
        loop_vars: Set[str] = set()
        for stmt in walk_statements(fn.body):
            if isinstance(stmt, ir.Assign):
                assigns.setdefault(stmt.target, []).append(stmt.value)
            elif isinstance(stmt, ir.For):
                loop_vars.add(stmt.var)
        self.varying = set()
        changed = True
        while changed:
            changed = False
            for name, values in assigns.items():
                if name in self.varying or name in loop_vars:
                    continue
                if all(self.expr_varying(v) for v in values):
                    self.varying.add(name)
                    changed = True
        return self.varying

    # ------------------------------------------------------- static dtypes

    def _static_dtype(self, expr: ir.Expr) -> Optional[str]:
        """The NumPy dtype name this expression provably has at runtime
        under *this emitter's* emission strategy, or ``None``.

        Sound because the strategy itself enforces it: every BinOp,
        builtin call, Cast and Select is emitted either wrapped in a
        coercion to ``expr.dtype`` or (elision) only when its operands
        already prove that dtype; loads yield the buffer's element type
        (validated by ``bind_arguments``); thread intrinsics read the
        int32 :class:`~repro.codegen.runtime.Geometry` arrays."""
        if isinstance(expr, ir.Const):
            return expr.dtype.np_dtype
        if isinstance(expr, ir.Var):
            return self._static.get(expr.name)
        if isinstance(expr, ir.BinOp):
            if expr.op in _CMP_FUNCS:
                return "bool"
            return expr.dtype.np_dtype
        if isinstance(expr, ir.UnOp):
            if expr.op == "lnot":
                return "bool"
            return self._static_dtype(expr.operand)  # neg/bnot preserve dtype
        if isinstance(expr, ir.Cast):
            return expr.dtype.np_dtype
        if isinstance(expr, ir.Select):
            return expr.dtype.np_dtype  # rt.select coerces both arms
        if isinstance(expr, ir.Load):
            return expr.array.type.dtype.np_dtype
        if isinstance(expr, ir.Call):
            if expr.func in _INTRINSIC_ATTR:
                return "int32"
            if intrinsics.is_builtin(expr.func):
                return expr.dtype.np_dtype  # cast_result-wrapped
            return None  # device calls: result dtype not guaranteed
        return None

    def _compute_static_dtypes(self, fn: ir.Function) -> Dict[str, str]:
        """Fixpoint over assignments: a local has a proven dtype iff every
        assignment's RHS proves the same dtype (params seed with their
        declared dtype — ``bind_arguments`` casts scalars and validates
        arrays; loop vars are bound as ``np.int32``)."""
        seeds: Dict[str, str] = {}
        for p in fn.params:
            if not p.is_array:
                seeds[p.name] = p.type.dtype.np_dtype
        for stmt in walk_statements(fn.body):
            if isinstance(stmt, ir.For):
                seeds[stmt.var] = "int32"
        known = dict(seeds)
        poison: Set[str] = set()
        self._static = known
        for _ in range(2 * len(known) + 2 + sum(
            1 for s in walk_statements(fn.body) if isinstance(s, ir.Assign)
        )):
            changed = False
            for stmt in walk_statements(fn.body):
                if not isinstance(stmt, ir.Assign) or stmt.target in poison:
                    continue
                d = self._static_dtype(stmt.value)
                cur = known.get(stmt.target)
                if d is None or (cur is not None and cur != d):
                    poison.add(stmt.target)
                    known.pop(stmt.target, None)
                    changed = True
                elif cur is None:
                    known[stmt.target] = d
                    changed = True
            if not changed:
                break
        return known

    # ------------------------------------------------------------- functions

    def emit_function(self, fn: ir.Function) -> str:
        # Exact-semantics constant folding; the knob values the approximation
        # transforms bake into the IR are the literals it mostly finds.
        fn, fstats = fold_function(fn)
        self.info["folded"] += fstats.folded
        self.info["reassociated"] += fstats.reassociated
        meta = getattr(fn, "approx", None)
        if fn.kind == "kernel":
            # Only transformed kernels carry lookup tables with a proven
            # extent; an exact kernel has none to gather from.
            self.tables = dict(meta.tables) if meta is not None else {}
            self.intervals = compute_intervals(fn)
            self._static = self._compute_static_dtypes(fn)
            self._elide = True
        else:
            # Device functions: parameter dtypes depend on the call site,
            # so they are folded but never cast-elided.
            self.tables = {}
            self.intervals = {}
            self._static = {}
            self._elide = False
        self.fname = fn.name
        self.param_names = {p.name for p in fn.params}
        self.shared = {}
        total_elems: Dict[str, int] = {}
        for stmt in walk_statements(fn.body):
            if isinstance(stmt, ir.SharedAlloc):
                shape = tuple(stmt.shape)
                self.shared[stmt.name] = int(shape[0])
                total_elems[stmt.name] = int(np.prod(shape))
        self._compute_varying(fn)

        is_kernel = fn.kind == "kernel"
        dynamic = (not is_kernel) or any(
            isinstance(s, ir.Return) for s in walk_statements(fn.body)
        )
        params = ", ".join(f"v_{p.name}" for p in fn.params)
        if is_kernel:
            name = f"_kernel_{fn.name}"
            self.emit(0, f"def {name}(_G, {params}):")
            self.emit(1, "_T = _G.T")
        else:
            for p in fn.params:
                if p.is_array:
                    raise CodegenError(
                        f"{fn.name}: device functions with array parameters "
                        "are not lowered"
                    )
            name = f"_dev_{fn.name}"
            self.emit(0, f"def {name}({params}, _mask, _retm, _T):")
            self.emit(1, "_retm = rt.copy_retm(_retm)")
        if dynamic:
            self.emit(1, "_ret = None")
            self.emit(1, "_retall = False")
            if is_kernel:
                self.emit(1, "_retm = None")
        local_names = sorted(
            {
                s.target
                for s in walk_statements(fn.body)
                if isinstance(s, ir.Assign)
            }
            | {s.var for s in walk_statements(fn.body) if isinstance(s, ir.For)}
            | set(self.shared)
        )
        for local in local_names:
            if local not in self.param_names:
                prefix = "_sh_" if local in self.shared else "v_"
                self.emit(1, f"{prefix}{local} = rt.UNSET")
        self.emit(1, 'with np.errstate(divide="ignore", invalid="ignore", over="ignore"):')
        ctx = _Ctx("_mask" if not is_kernel else None, set(), dynamic)
        self._shared_totals = total_elems
        self.emit_body(fn.body, ctx, 2)
        if not is_kernel:
            self.emit(1, f"return rt.device_result(_ret, {fn.name!r})")
        self.emit(0, "")
        return name

    # ------------------------------------------------------------ statements

    def emit_body(self, body: List[ir.Stmt], ctx: _Ctx, indent: int) -> None:
        if not body:
            self.emit(indent, "pass")
            return
        for i, stmt in enumerate(body):
            self.emit_stmt(stmt, ctx, indent)
            if ctx.dynamic and i + 1 < len(body) and _can_return(stmt):
                # _exec_body re-checks returned_all before each statement;
                # it only changes when a return executed, so one guard after
                # each possibly-returning statement is equivalent.
                self.emit(indent, "if not _retall:")
                indent += 1

    def emit_stmt(self, stmt: ir.Stmt, ctx: _Ctx, indent: int) -> None:
        if isinstance(stmt, ir.Assign):
            self._emit_assign(stmt, ctx, indent)
        elif isinstance(stmt, ir.Store):
            self._emit_store(stmt, ctx, indent)
        elif isinstance(stmt, ir.AtomicRMW):
            self._emit_atomic(stmt, ctx, indent)
        elif isinstance(stmt, ir.If):
            self._emit_if(stmt, ctx, indent)
        elif isinstance(stmt, ir.For):
            self._emit_for(stmt, ctx, indent)
        elif isinstance(stmt, ir.Return):
            self._emit_return(stmt, ctx, indent)
        elif isinstance(stmt, ir.Barrier):
            # Lockstep whole-grid execution makes barriers no-ops, exactly
            # as in the interpreter (which only counts them in the trace).
            self.emit(indent, "pass")
        elif isinstance(stmt, ir.SharedAlloc):
            total = self._shared_totals[stmt.name]
            self.emit(
                indent,
                f"_sh_{stmt.name} = np.zeros(_G.nsb * {total}, "
                f"dtype={self.np_dtype(stmt.dtype)})",
            )
        else:
            raise CodegenError(f"{self.fname}: cannot lower {type(stmt).__name__}")

    def live_expr(self, ctx: _Ctx) -> str:
        mask = ctx.mask if ctx.mask is not None else "None"
        if ctx.dynamic:
            return f"rt.live_mask({mask}, _retm)"
        return mask

    def _emit_assign(self, stmt: ir.Assign, ctx: _Ctx, indent: int) -> None:
        value = self.emit_expr(stmt.value, ctx)
        target = stmt.target
        bound = target in ctx.defined or target in self.param_names
        if ctx.mask is None and not ctx.dynamic:
            self.emit(indent, f"v_{target} = {value}")
        elif bound and not ctx.dynamic:
            self.emit(indent, f"v_{target} = np.where({ctx.mask}, {value}, v_{target})")
        else:
            self.emit(
                indent,
                f"v_{target} = rt.assign(v_{target}, {value}, {self.live_expr(ctx)})",
            )
        ctx.defined.add(target)

    def _array_kind(self, ref: ir.ArrayRef) -> Tuple[bool, str]:
        """(is_shared, buffer expression) for an array reference."""
        if ref.name in self.shared:
            return True, f"_sh_{ref.name}"
        if ref.name in self.param_names:
            return False, f"v_{ref.name}"
        raise CodegenError(f"{self.fname}: unbound array {ref.name!r}")

    def _emit_store(self, stmt: ir.Store, ctx: _Ctx, indent: int) -> None:
        idx = self.emit_expr(stmt.index, ctx)
        value = self.emit_expr(stmt.value, ctx)
        live = self.live_expr(ctx)
        shared, buf = self._array_kind(stmt.array)
        tail = f"{live}, _T, {self.bounds_check}, {self.fname!r}, {stmt.array.name!r})"
        if shared:
            size = self.shared[stmt.array.name]
            self.emit(
                indent,
                f"rt.store_shared({buf}, {size}, {idx}, {value}, _G.sbid, {tail}",
            )
        else:
            self.emit(indent, f"rt.store_global({buf}, {idx}, {value}, {tail}")

    def _emit_atomic(self, stmt: ir.AtomicRMW, ctx: _Ctx, indent: int) -> None:
        idx = self.emit_expr(stmt.index, ctx)
        value = self.emit_expr(stmt.value, ctx)
        live = self.live_expr(ctx)
        shared, buf = self._array_kind(stmt.array)
        tail = (
            f"{live}, _T, {stmt.op!r}, {self.bounds_check}, "
            f"{self.fname!r}, {stmt.array.name!r})"
        )
        if shared:
            size = self.shared[stmt.array.name]
            self.emit(
                indent,
                f"rt.atomic_shared({buf}, {size}, {idx}, {value}, _G.sbid, {tail}",
            )
        else:
            self.emit(indent, f"rt.atomic_global({buf}, {idx}, {value}, {tail}")

    def _emit_if(self, stmt: ir.If, ctx: _Ctx, indent: int) -> None:
        cond = self.tmp()
        self.emit(indent, f"{cond} = {self.emit_expr(stmt.cond, ctx)}")
        if self.expr_varying(stmt.cond):
            self._emit_masked_if(stmt, cond, ctx, indent)
            return
        # Possibly-uniform condition: replicate the interpreter's runtime
        # scalar/array dispatch.  The scalar arm executes the taken body
        # under the *parent* context (no new mask).
        self.emit(indent, f"if np.ndim({cond}) == 0:")
        self.emit(indent + 1, f"if bool({cond}):")
        self.emit_body(stmt.then_body, ctx.copy(), indent + 2)
        if stmt.else_body:
            self.emit(indent + 1, "else:")
            self.emit_body(stmt.else_body, ctx.copy(), indent + 2)
        self.emit(indent, "else:")
        self._emit_masked_if(stmt, cond, ctx, indent + 1)

    def _emit_masked_if(self, stmt: ir.If, cond: str, ctx: _Ctx, indent: int) -> None:
        base = ctx.mask if ctx.mask is not None else "None"
        self.emit(indent, f"{cond} = np.asarray({cond}, dtype=bool)")
        then_mask = self.tmp()
        self.emit(indent, f"{then_mask} = rt.and_mask({cond}, {base})")
        else_mask = None
        if stmt.else_body:
            else_mask = self.tmp()
            self.emit(indent, f"{else_mask} = rt.andnot_mask({cond}, {base})")
        for mask, body in ((then_mask, stmt.then_body), (else_mask, stmt.else_body)):
            if not body:
                continue
            self.emit(indent, f"if rt.any_lanes({mask}):")
            if ctx.dynamic:
                self.emit(indent + 1, "_retall = False")
            self.emit_body(body, ctx.copy(mask=mask), indent + 1)
        if ctx.dynamic:
            # Lanes that returned inside an arm stay inactive from here on.
            self.emit(
                indent,
                f"_retall = _retm is not None and "
                f"rt.live_count({base}, _retm, _T) == 0",
            )

    def _emit_for(self, stmt: ir.For, ctx: _Ctx, indent: int) -> None:
        start, stop, step = self.tmp(), self.tmp(), self.tmp()
        self.emit(
            indent,
            f"{start} = rt.uniform_int({self.emit_expr(stmt.start, ctx)}, "
            f"'loop start', {self.fname!r})",
        )
        self.emit(
            indent,
            f"{stop} = rt.uniform_int({self.emit_expr(stmt.stop, ctx)}, "
            f"'loop stop', {self.fname!r})",
        )
        self.emit(
            indent,
            f"{step} = rt.uniform_int({self.emit_expr(stmt.step, ctx)}, "
            f"'loop step', {self.fname!r})",
        )
        self.emit(indent, f"rt.check_step({step}, {self.fname!r})")
        counter = self.tmp()
        self.emit(indent, f"for {counter} in range({start}, {stop}, {step}):")
        body_ctx = ctx.copy()
        # The interpreter binds the loop variable straight into the env
        # (no mask merge), even under predication.
        self.emit(indent + 1, f"v_{stmt.var} = np.int32({counter})")
        body_ctx.defined.add(stmt.var)
        self.emit_body(stmt.body, body_ctx, indent + 1)
        if ctx.dynamic and _can_return(stmt):
            self.emit(indent + 1, "if _retall: break")

    def _emit_return(self, stmt: ir.Return, ctx: _Ctx, indent: int) -> None:
        value = "None" if stmt.value is None else self.emit_expr(stmt.value, ctx)
        mask = ctx.mask if ctx.mask is not None else "None"
        self.emit(
            indent,
            f"_ret, _retm, _retall = rt.do_return({value}, {mask}, _ret, _retm, _T)",
        )

    # ----------------------------------------------------------- expressions

    def emit_expr(self, expr: ir.Expr, ctx: _Ctx) -> str:
        if isinstance(expr, ir.Const):
            return self.const(expr.value, expr.dtype)
        if isinstance(expr, ir.Var):
            name = expr.name
            if name in ctx.defined or name in self.param_names:
                return f"v_{name}"
            return f"rt.check_defined(v_{name}, {name!r}, {self.fname!r})"
        if isinstance(expr, ir.BinOp):
            return self._emit_binop(expr, ctx)
        if isinstance(expr, ir.UnOp):
            operand = self.emit_expr(expr.operand, ctx)
            if expr.op == "neg":
                return f"(-({operand}))"
            if expr.op == "lnot":
                return f"rt.lnot({operand})"
            return f"(~({operand}))"
        if isinstance(expr, ir.Cast):
            operand = self.emit_expr(expr.operand, ctx)
            if self._elide and self._static_dtype(expr.operand) == expr.dtype.np_dtype:
                # Identity cast: the operand provably already has the
                # target dtype, so cast_value would only copy.
                self.info["cast_elisions"] += 1
                return operand
            return f"rt.cast_value({operand}, {self.np_dtype(expr.dtype)})"
        if isinstance(expr, ir.Select):
            cond = self.emit_expr(expr.cond, ctx)
            a = self.emit_expr(expr.if_true, ctx)
            b = self.emit_expr(expr.if_false, ctx)
            return f"rt.select({cond}, {a}, {b}, {self.np_dtype(expr.dtype)})"
        if isinstance(expr, ir.Load):
            idx = self.emit_expr(expr.index, ctx)
            live = self.live_expr(ctx)
            shared, buf = self._array_kind(expr.array)
            tail = f"{live}, {self.bounds_check}, {self.fname!r}, {expr.array.name!r})"
            if shared:
                size = self.shared[expr.array.name]
                return f"rt.load_shared({buf}, {size}, {idx}, _G.sbid, {tail}"
            entries = self.tables.get(expr.array.name)
            if entries is not None:
                lo, hi = interval_of(expr.index, self.intervals)
                if lo >= 0 and hi <= entries - 1:
                    # Lookup-table gather with a compile-time in-range
                    # proof: no clamp, no live-lane bounds scan.
                    self.info["table_gathers"] += 1
                    return f"rt.load_table({buf}, {idx}, {entries}, {tail}"
            return f"rt.load_global({buf}, {idx}, {tail}"
        if isinstance(expr, ir.Call):
            return self._emit_call(expr, ctx)
        raise CodegenError(f"{self.fname}: cannot lower {type(expr).__name__}")

    def _emit_binop(self, expr: ir.BinOp, ctx: _Ctx) -> str:
        a = self.emit_expr(expr.left, ctx)
        b = self.emit_expr(expr.right, ctx)
        op = expr.op
        if op in _CMP_FUNCS:
            return f"{_CMP_FUNCS[op]}({a}, {b})"
        dtype_preserving = True
        if op == "div":
            inner = (
                f"np.divide({a}, {b})"
                if expr.dtype.is_float
                else f"rt.c_divide_int({a}, {b})"
            )
            dtype_preserving = expr.dtype.is_float  # int path goes via int64
        elif op == "mod":
            inner = (
                f"np.fmod({a}, {b})"
                if expr.dtype.is_float
                else f"rt.c_mod_int({a}, {b})"
            )
            dtype_preserving = expr.dtype.is_float
        else:
            inner = f"{_ARITH_FUNCS[op]}({a}, {b})"
        if (
            dtype_preserving
            and self._elide
            and self._static_dtype(expr.left) == expr.dtype.np_dtype
            and self._static_dtype(expr.right) == expr.dtype.np_dtype
        ):
            # Both operands provably carry the result dtype already, so
            # the ufunc's natural output dtype is expr.dtype and the
            # cast_result wrapper is the identity.
            self.info["cast_elisions"] += 1
            return f"({inner})"
        return f"rt.cast_result({inner}, {self.np_dtype(expr.dtype)})"

    def _emit_call(self, expr: ir.Call, ctx: _Ctx) -> str:
        name = expr.func
        attr = _INTRINSIC_ATTR.get(name)
        if attr is not None:
            return f"_G.{attr}"
        args = [self.emit_expr(a, ctx) for a in expr.args]
        builtin = intrinsics.get(name)
        if builtin is not None:
            call = f"{self.builtin_fn(builtin)}({', '.join(args)})"
            return f"rt.cast_result({call}, {self.np_dtype(expr.dtype)})"
        if name in self.module and self.module[name].kind == "device":
            mask = ctx.mask if ctx.mask is not None else "None"
            retm = "_retm" if ctx.dynamic else "None"
            joined = ", ".join(args + [mask, retm, "_T"])
            return f"_dev_{name}({joined})"
        raise CodegenError(f"{self.fname}: call to unknown function {name!r}")


def _can_return(stmt: ir.Stmt) -> bool:
    if isinstance(stmt, ir.Return):
        return True
    if isinstance(stmt, ir.If):
        return any(_can_return(s) for s in stmt.then_body) or any(
            _can_return(s) for s in stmt.else_body
        )
    if isinstance(stmt, ir.For):
        return any(_can_return(s) for s in stmt.body)
    return False


def _walk_exprs(stmt: ir.Stmt):
    """Every expression node appearing (recursively) in one statement."""
    from ..kernel.visitors import walk

    yield from walk(stmt)


def lower_kernel(
    fn: ir.Function, module: ir.Module, bounds_check: bool = True
) -> Tuple[str, Dict[str, object], str, Dict[str, int]]:
    """Lower ``fn`` (and its reachable device functions) to source.

    Returns ``(source, exec_globals, entry_name, info)``; the caller
    compiles the source with these globals and fetches ``entry_name`` from
    the namespace.  ``info`` counts what the specializations accomplished
    (``folded``/``reassociated``/``table_gathers``/``cast_elisions``).
    """
    if fn.kind != "kernel":
        raise CodegenError(f"{fn.name} is a device function, not a kernel")
    emitter = _Emitter(module, bounds_check)
    for dev in reachable_device_functions(fn, module):
        emitter.emit_function(dev)
    entry = emitter.emit_function(fn)
    source = "\n".join(emitter.lines) + "\n"
    return source, emitter.globals, entry, emitter.info
