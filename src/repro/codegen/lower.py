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

import itertools
from typing import Dict, FrozenSet, List, Optional, Set, Tuple

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


#: One id per lowered kernel with planned sites: the kernel's part of its
#: plan keys.  A global of the generated module, not a literal in its source.
_PLAN_IDS = itertools.count()


class _Ctx:
    """Lexical emission context: current mask expression, the locals
    statically known to be bound at this point, and what the address plan
    needs to know about the control flow leading here."""

    __slots__ = ("mask", "defined", "dynamic", "invariant", "loops", "deps")

    def __init__(
        self,
        mask: Optional[str],
        defined: Set[str],
        dynamic: bool,
        invariant: bool = False,
        loops: Tuple[Tuple[str, str], ...] = (),
        deps: FrozenSet[str] = frozenset(),
    ):
        self.mask = mask  # python expr for frame.mask; None = all lanes live
        self.defined = defined
        self.dynamic = dynamic  # function tracks _ret/_retm/_retall
        # Every enclosing condition and loop bound is launch-invariant (and
        # the kernel has no ``return``): the live mask here is a function of
        # the plan key, so sites may be planned.
        self.invariant = invariant
        self.loops = loops  # (variable, counter) of each enclosing loop
        self.deps = deps  # scalar params / loop variables control flow read

    def copy(self, mask: Optional[str] = None, **changes) -> "_Ctx":
        new = _Ctx(
            mask if mask is not None else self.mask,
            set(self.defined),
            self.dynamic,
            self.invariant,
            self.loops,
            self.deps,
        )
        for name, value in changes.items():
            setattr(new, name, value)
        return new


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
            "planned_sites": 0,
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
        # address-plan state of the function being emitted
        self._scalars: Set[str] = set()  # scalar params never assigned
        #: launch-invariant local -> scalar params and loops its value depends on
        self._inv_locals: Dict[str, FrozenSet[str]] = {}
        self._deps_memo: Dict[int, Optional[FrozenSet[str]]] = {}
        self._sites = 0
        self._key_scalars: Set[str] = set()
        self._key_buffers: List[str] = []
        #: plan-only candidates: single top-level assignment, invariant
        self._lazy_names: Set[str] = set()
        #: candidate -> (line, indent, value source, candidates it reads)
        self._lazy: Dict[str, Tuple[int, int, str, Set[str]]] = {}
        self._data_uses: Set[str] = set()
        self._sites_ok = True  # False while emitting a site's computation
        self._refs: Optional[Set[str]] = None  # candidates read by that computation

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

    # ------------------------------------------------------ launch invariance

    def _compute_invariants(self, fn: ir.Function) -> None:
        """Which locals are *launch-invariant* -- every assignment's value
        is built from thread intrinsics, constants, unassigned scalar
        params and other such locals, and sits under conditions and loop
        bounds that are -- and which of them are plan-only candidates (one
        assignment, at the top level of the body).  One walk over the IR
        and two small fixpoints; nothing is emitted here."""
        defs: Dict[str, List[ir.Expr]] = {}  # name -> value + controlling exprs
        within: Dict[str, Set[str]] = {}  # name -> loops its value may vary in
        top: Dict[str, int] = {}  # name -> assignments at top level
        count: Dict[str, int] = {}

        def visit(body, control: Tuple[ir.Expr, ...], loops: Tuple[str, ...]) -> None:
            for stmt in body:
                if isinstance(stmt, ir.Assign):
                    defs.setdefault(stmt.target, []).extend((stmt.value,) + control)
                    within.setdefault(stmt.target, set()).update(loops)
                    count[stmt.target] = count.get(stmt.target, 0) + 1
                    if not control:
                        top[stmt.target] = top.get(stmt.target, 0) + 1
                elif isinstance(stmt, ir.If):
                    inner = control + (stmt.cond,)
                    visit(stmt.then_body, inner, loops)
                    visit(stmt.else_body, inner, loops)
                elif isinstance(stmt, ir.For):
                    bounds = (stmt.start, stmt.stop, stmt.step)
                    defs.setdefault(stmt.var, []).extend(bounds + control)
                    within.setdefault(stmt.var, set()).add(stmt.var)
                    count[stmt.var] = 2  # never a plan-only candidate
                    visit(stmt.body, control + bounds, loops + (stmt.var,))

        visit(fn.body, (), ())
        self._scalars = {
            p.name for p in fn.params if not p.is_array and p.name not in defs
        }
        facts: Dict[int, Tuple[Set[str], bool]] = {}  # expr -> (names read, pure)

        def fact(expr: ir.Expr) -> Tuple[Set[str], bool]:
            found = facts.get(id(expr))
            if found is None:
                names: Set[str] = set()
                found = facts[id(expr)] = (names, _scan_pure(expr, names))
            return found

        reads: Dict[str, Set[str]] = {}
        invariant: Set[str] = set()
        for name, exprs in defs.items():
            reads[name] = set().union(*(fact(e)[0] for e in exprs))
            if name not in self.param_names and all(fact(e)[1] for e in exprs):
                invariant.add(name)
        changed = True
        while changed:
            changed = False
            for name in sorted(invariant):
                if not reads[name] <= invariant | self._scalars:
                    invariant.discard(name)
                    changed = True
        # What a local's value is a function of: scalar params, and the
        # loops it is assigned in (a loop-carried local changes with the
        # iteration without reading the loop variable).
        deps = {
            name: frozenset(reads[name] & self._scalars | within[name])
            for name in invariant
        }
        changed = True
        while changed:
            changed = False
            for name in invariant:
                wider = deps[name].union(*(deps[r] for r in reads[name] & invariant))
                if wider != deps[name]:
                    deps[name] = wider
                    changed = True
        self._inv_locals = deps
        self._lazy_names = {
            name for name in invariant if count[name] == 1 and top.get(name) == 1
        }

    def _deps(self, expr: ir.Expr) -> Optional[FrozenSet[str]]:
        """The scalar params and loop variables a launch-invariant
        expression depends on (through locals too), or None if it is not
        launch-invariant."""
        memo = self._deps_memo
        key = id(expr)
        if key in memo:
            return memo[key]
        if isinstance(expr, ir.Const):
            result: Optional[FrozenSet[str]] = frozenset()
        elif isinstance(expr, ir.Var):
            if expr.name in self._inv_locals:
                result = self._inv_locals[expr.name]
            elif expr.name in self._scalars:
                result = frozenset((expr.name,))
            else:
                result = None
        elif isinstance(expr, ir.BinOp):
            result = self._deps_of(expr.left, expr.right)
        elif isinstance(expr, (ir.UnOp, ir.Cast)):
            result = self._deps(expr.operand)
        elif isinstance(expr, ir.Select):
            result = self._deps_of(expr.cond, expr.if_true, expr.if_false)
        elif isinstance(expr, ir.Call) and expr.func in _INTRINSIC_ATTR:
            result = frozenset()
        elif isinstance(expr, ir.Call) and intrinsics.get(expr.func) is not None:
            result = self._deps_of(*expr.args)
        else:  # loads, device calls
            result = None
        memo[key] = result
        return result

    def _deps_of(self, *exprs: ir.Expr) -> Optional[FrozenSet[str]]:
        out: FrozenSet[str] = frozenset()
        for expr in exprs:
            deps = self._deps(expr)
            if deps is None:
                return None
            out |= deps
        return out

    def _new_site(self, ctx: _Ctx, deps: FrozenSet[str]) -> Tuple[str, str]:
        """Register one planned site; returns its key within the plan -- the
        site's number, with the counters of the enclosing loops its value
        or its live mask changes in -- as the source that probes the plan
        with it and the source that names it again on a miss."""
        self.info["planned_sites"] += 1
        deps = deps | ctx.deps
        self._key_scalars |= deps & self._scalars
        number = self._sites
        self._sites += 1
        counters = [counter for var, counter in ctx.loops if var in deps]
        if counters:
            return f"_k := ({number}, {', '.join(counters)})", "_k"
        return str(number), str(number)

    def _computation(self, expr: ir.Expr, ctx: _Ctx, refs: Optional[Set[str]]) -> str:
        """Emit ``expr`` as plain code with no site inside it: what a site
        evaluates when its plan has no entry, or an invariant local's
        value.  Plan-only candidates it reads are noted in ``refs`` (the
        reader only runs on a miss), or count as data uses if None."""
        saved = self._sites_ok, self._refs
        self._sites_ok, self._refs = False, refs
        try:
            return self.emit_expr(expr, ctx)
        finally:
            self._sites_ok, self._refs = saved

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
        # Address plans: kernels without ``return`` only; device-function
        # bodies (and lane deactivation) stay as they are.
        planning = is_kernel and not dynamic
        self._inv_locals, self._lazy_names, self._scalars = {}, set(), set()
        self._deps_memo, self._lazy, self._data_uses = {}, {}, set()
        self._sites, self._key_scalars, self._key_buffers = 0, set(), []
        if planning:
            self._compute_invariants(fn)
        params = ", ".join(f"v_{p.name}" for p in fn.params)
        plan_line = -1
        if is_kernel:
            name = f"_kernel_{fn.name}"
            self.emit(0, f"def {name}(_G, {params}):")
            self.emit(1, "_T = _G.T")
            plan_line = len(self.lines)
            self.emit(1, "")  # this launch's plan, once the body's sites are known
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
        ctx = _Ctx("_mask" if not is_kernel else None, set(), dynamic, planning)
        self._shared_totals = total_elems
        self.emit_body(fn.body, ctx, 2)
        if is_kernel:
            self._finish_plan(plan_line)
        else:
            self.emit(1, f"return rt.device_result(_ret, {fn.name!r})")
        self.emit(0, "")
        return name

    def _finish_plan(self, plan_line: int) -> None:
        """Fill in what the body's emission decided: the plan lookup at the
        top of the kernel, and each plan-only candidate's assignment --
        guarded by ``_B`` (some site may still have to be computed) when
        every reader is such a computation, plain when anything else reads
        it, including a later candidate that turned out plain."""
        planned = self._sites > 0
        for name in reversed(list(self._lazy)):
            line, indent, value, refs = self._lazy[name]
            guard = ""
            if name in self._data_uses or not planned:
                self._data_uses |= refs
            else:
                guard = "if _B: "
            self.lines[line] = "    " * indent + f"{guard}v_{name} = {value}"
        if not planned:
            del self.lines[plan_line]
            return
        self.globals["_PID"] = next(_PLAN_IDS)
        key = ["_PID"]
        key += [f"v_{name}.size" for name in self._key_buffers]
        key += [f"rt.scalar_key(v_{name})" for name in sorted(self._key_scalars)]
        self.lines[plan_line] = f"    _P, _g, _B = rt.plan(_G, ({', '.join(key)},))"
        self.emit(1, "if _B: rt.plan_built(_P)")

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
        target = stmt.target
        if target in self._lazy_names:
            # A plan-only candidate: whether its assignment runs on every
            # launch or only while sites are being resolved is known once
            # all its readers have been emitted (``_finish_plan``).
            refs: Set[str] = set()
            value = self._computation(stmt.value, ctx, refs)
            self._lazy[target] = (len(self.lines), indent, value, refs)
            self.emit(indent, "")
            ctx.defined.add(target)
            return
        if target in self._inv_locals:
            # Cheap thread-id arithmetic feeding sites: computed in place,
            # not stored a second time as a site of its own.
            value = self._computation(stmt.value, ctx, None)
        else:
            value = self.emit_expr(stmt.value, ctx)
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

    def _access_site(self, ref: ir.ArrayRef, index: ir.Expr, ctx: _Ctx):
        """``(index source, plan key pair or None)`` of one load/store/atomic.
        The access is a planned site when its index and its live mask are
        launch-invariant: what it resolves to -- in-range verdict, clamp,
        shared-memory flattening, live-lane compaction -- is then a function
        of the plan key (which gains the buffer's size)."""
        deps = self._deps(index) if ctx.invariant else None
        if deps is None:
            return self.emit_expr(index, ctx), None
        key = self._new_site(ctx, deps)
        if ref.name not in self.shared and ref.name not in self._key_buffers:
            self._key_buffers.append(ref.name)
        return self._computation(index, ctx, set()), key

    def _emit_write(self, call: str, buf: str, key, value: str, extra: str, indent: int):
        """A store or atomic: ``call`` is the helper call up to its closing
        parenthesis, run as it always was when the plan has no entry."""
        if key is None:
            self.emit(indent, f"{call})")
            return
        nsb = ", _G.nsb" if call.startswith("rt.store_shared") else ""
        self.emit(
            indent,
            f"(_s.run({buf}, {value}{extra}) if (_s := _g({key[0]})) "
            f"else {call}, _P, {key[1]}{nsb}))",
        )

    def _written_value(self, expr: ir.Expr, key, ctx: _Ctx, indent: int) -> str:
        """The value of a store or atomic.  At a planned site it is named
        twice (hit and miss), so it is held in a temporary first; its loads
        then fault before the access's own index is looked at, as in the
        interpreter."""
        value = self.emit_expr(expr, ctx)
        if key is None:
            return value
        held = self.tmp()
        self.emit(indent, f"{held} = {value}")
        return held

    def _emit_store(self, stmt: ir.Store, ctx: _Ctx, indent: int) -> None:
        idx, key = self._access_site(stmt.array, stmt.index, ctx)
        value = self._written_value(stmt.value, key, ctx, indent)
        live = self.live_expr(ctx)
        shared, buf = self._array_kind(stmt.array)
        tail = f"{live}, _T, {self.bounds_check}, {self.fname!r}, {stmt.array.name!r}"
        if shared:
            size = self.shared[stmt.array.name]
            call = f"rt.store_shared({buf}, {size}, {idx}, {value}, _G.sbid, {tail}"
        else:
            call = f"rt.store_global({buf}, {idx}, {value}, {tail}"
        self._emit_write(call, buf, key, value, "", indent)

    def _emit_atomic(self, stmt: ir.AtomicRMW, ctx: _Ctx, indent: int) -> None:
        idx, key = self._access_site(stmt.array, stmt.index, ctx)
        value = self._written_value(stmt.value, key, ctx, indent)
        live = self.live_expr(ctx)
        shared, buf = self._array_kind(stmt.array)
        tail = (
            f"{live}, _T, {stmt.op!r}, {self.bounds_check}, "
            f"{self.fname!r}, {stmt.array.name!r}"
        )
        if shared:
            size = self.shared[stmt.array.name]
            call = f"rt.atomic_shared({buf}, {size}, {idx}, {value}, _G.sbid, {tail}"
        else:
            call = f"rt.atomic_global({buf}, {idx}, {value}, {tail}"
        self._emit_write(call, buf, key, value, f", {stmt.op!r}", indent)

    def _emit_if(self, stmt: ir.If, ctx: _Ctx, indent: int) -> None:
        deps = self._deps(stmt.cond) if ctx.invariant else None
        # Inside the arms sites stay plannable only if this condition is
        # launch-invariant as well.
        inner = ctx.copy(
            invariant=deps is not None, deps=ctx.deps | (deps or frozenset())
        )
        if deps is not None and self.expr_varying(stmt.cond):
            self._emit_planned_if(stmt, deps, inner, indent)
            return
        cond = self.tmp()
        self.emit(indent, f"{cond} = {self.emit_expr(stmt.cond, ctx)}")
        if self.expr_varying(stmt.cond):
            self._emit_masked_if(stmt, cond, inner, indent)
            return
        # Possibly-uniform condition: replicate the interpreter's runtime
        # scalar/array dispatch.  The scalar arm executes the taken body
        # under the *parent* context (no new mask).
        self.emit(indent, f"if np.ndim({cond}) == 0:")
        self.emit(indent + 1, f"if bool({cond}):")
        self.emit_body(stmt.then_body, inner.copy(), indent + 2)
        if stmt.else_body:
            self.emit(indent + 1, "else:")
            self.emit_body(stmt.else_body, inner.copy(), indent + 2)
        self.emit(indent, "else:")
        self._emit_masked_if(stmt, cond, inner, indent + 1)

    def _emit_planned_if(
        self, stmt: ir.If, deps: FrozenSet[str], ctx: _Ctx, indent: int
    ) -> None:
        """A divergent ``if`` on a launch-invariant condition: both masks
        and both ``any_lanes`` verdicts are one planned site."""
        probe, key = self._new_site(ctx, deps)
        cond = self._computation(stmt.cond, ctx, set())
        base = ctx.mask if ctx.mask is not None else "None"
        then_mask, else_mask, then_any, else_any = (self.tmp() for _ in range(4))
        self.emit(
            indent,
            f"{then_mask}, {else_mask}, {then_any}, {else_any} = _g({probe}) or "
            f"rt.plan_masks(_P, {key}, {cond}, {base}, {bool(stmt.else_body)})",
        )
        for mask, live, body in (
            (then_mask, then_any, stmt.then_body),
            (else_mask, else_any, stmt.else_body),
        ):
            if body:
                self.emit(indent, f"if {live}:")
                self.emit_body(body, ctx.copy(mask=mask), indent + 1)

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
        deps = self._deps_of(stmt.start, stmt.stop, stmt.step) if ctx.invariant else None
        if deps is None:
            body_ctx = ctx.copy(invariant=False)
        else:
            # Invariant bounds: the same iterations on every launch, each
            # with its own entry at the sites inside.
            body_ctx = ctx.copy(
                loops=ctx.loops + ((stmt.var, counter),), deps=ctx.deps | deps
            )
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
            if name in self._lazy_names:
                # Read by a site's computation (runs only on a miss), or by
                # code that runs on every launch?
                (self._data_uses if self._refs is None else self._refs).add(name)
            if name in ctx.defined or name in self.param_names:
                return f"v_{name}"
            return f"rt.check_defined(v_{name}, {name!r}, {self.fname!r})"
        if ctx.invariant and self._sites_ok and not isinstance(expr, ir.Load):
            deps = self._deps(expr)
            if (
                deps is not None
                and not (isinstance(expr, ir.Call) and expr.func in _INTRINSIC_ATTR)
                and self.expr_varying(expr)
            ):
                # A maximal launch-invariant array operand of a data
                # expression: read it from the plan.
                probe, key = self._new_site(ctx, deps)
                value = self._computation(expr, ctx, set())
                return f"(_g({probe}) or rt.plan_value(_P, {key}, {value}))[0]"
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
            idx, key = self._access_site(expr.array, expr.index, ctx)
            live = self.live_expr(ctx)
            shared, buf = self._array_kind(expr.array)
            tail = f"{live}, {self.bounds_check}, {self.fname!r}, {expr.array.name!r}"
            nsb = ""
            if shared:
                size = self.shared[expr.array.name]
                call = f"rt.load_shared({buf}, {size}, {idx}, _G.sbid, {tail}"
                nsb = ", _G.nsb"
            else:
                call = f"rt.load_global({buf}, {idx}, {tail}"
                entries = self.tables.get(expr.array.name)
                if entries is not None:
                    lo, hi = interval_of(expr.index, self.intervals)
                    if lo >= 0 and hi <= entries - 1:
                        # Lookup-table gather with a compile-time in-range
                        # proof: no clamp, no live-lane bounds scan.
                        self.info["table_gathers"] += 1
                        call = f"rt.load_table({buf}, {idx}, {entries}, {tail}"
            if key is None:
                return f"{call})"
            return (
                f"(_s.run({buf}) if (_s := _g({key[0]})) "
                f"else {call}, _P, {key[1]}{nsb}))"
            )
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


def _scan_pure(expr: ir.Expr, names: Set[str]) -> bool:
    """Whether ``expr`` holds no load and no device call (so its value is
    thread ids, constants and the variables collected into ``names``).  The
    names of an impure expression are never looked at."""
    kind = type(expr)
    if kind is ir.Var:
        names.add(expr.name)
        return True
    if kind is ir.Const:
        return True
    if kind is ir.BinOp:
        return _scan_pure(expr.left, names) and _scan_pure(expr.right, names)
    if kind is ir.UnOp or kind is ir.Cast:
        return _scan_pure(expr.operand, names)
    if kind is ir.Select:
        return (
            _scan_pure(expr.cond, names)
            and _scan_pure(expr.if_true, names)
            and _scan_pure(expr.if_false, names)
        )
    if kind is ir.Call:
        if expr.func in _INTRINSIC_ATTR:
            return True
        if intrinsics.get(expr.func) is None:
            return False  # a device function
        return all(_scan_pure(arg, names) for arg in expr.args)
    return False  # a load


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
