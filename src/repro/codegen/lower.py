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
* **Workspace.**  One liveness pass per function (:meth:`_Emitter._analyse_flow`)
  says where each local's value dies and which masked assignments nobody
  can see the other lanes of.  The emitter then computes every array value
  whose dtype and ``(T,)`` shape are static facts into a numbered *slot*
  (``np.add(a, b, out=_w3)``) -- in place on a dead operand where there is
  one -- and emits a plain bind instead of ``np.where(mask, new, old)``
  for such an assignment (docs/CODEGEN.md, "Workspace and liveness").

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
from ..kernel.visitors import clone, walk, walk_statements
from . import runtime as _runtime
from .fingerprint import ir_walk, reachable_device_functions

#: Ceiling on generated source size; dual-path emission of deeply nested
#: uniform conditionals could otherwise blow up exponentially.
MAX_LINES = 20_000

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

#: The observation scope "every lane, whatever the mask" (a loop bound reads
#: all lanes of its operands): no arm path extends it.
_ALL = ("<all>",)

#: ``dest`` of an expression whose root allocates as it always did.
_FRESH = ("<fresh>", None)

#: Statements a basic block of the emitted function is made of.
_SIMPLE = (ir.Assign, ir.Store, ir.AtomicRMW)

#: Unary operators with a ufunc spelling, by the dtype kinds they are exact on.
_UNARY_UFUNCS = {
    "neg": ("np.negative", ("float32", "float64", "int32", "int64", "uint32")),
    "bnot": ("np.invert", ("bool", "int32", "int64", "uint32")),
    "lnot": ("np.logical_not", ("bool",)),
}


class _Val:
    """One emitted expression: its source, and what the emitter knows about
    where the value lives.  Formats as its source."""

    __slots__ = ("src", "array", "slot", "owned", "var", "dying")

    def __init__(self, src, array=False, slot=None, owned=False, var=None):
        self.src = src
        self.array = array  # definitely a (T,) array at run time
        self.slot = slot  # the workspace slot holding it, if one does
        self.owned = owned  # ... as a temporary nobody else names
        self.var = var  # the local whose current value this is
        self.dying = None  # that local's slot, when this is the value's last read

    def __format__(self, spec) -> str:
        return self.src


def _meet(a, b):
    """The wider of two observation scopes: arm paths meet at their common
    prefix, ``None`` is "never observed", :data:`_ALL` absorbs."""
    if a is None or b is None:
        return b if a is None else a
    if a is _ALL or b is _ALL:
        return _ALL
    n = 0
    for x, y in zip(a, b):
        if x != y:
            break
        n += 1
    return a[:n]


def _count_names(expr: ir.Expr, into: Dict[str, int]) -> None:
    """Occurrences of each variable in ``expr``."""
    kind = type(expr)
    if kind is ir.Var:
        into[expr.name] = into.get(expr.name, 0) + 1
    elif kind is ir.BinOp:
        _count_names(expr.left, into)
        _count_names(expr.right, into)
    elif kind is ir.UnOp or kind is ir.Cast:
        _count_names(expr.operand, into)
    elif kind is ir.Select:
        _count_names(expr.cond, into)
        _count_names(expr.if_true, into)
        _count_names(expr.if_false, into)
    elif kind is ir.Load:
        _count_names(expr.index, into)
    elif kind is ir.Call:
        for arg in expr.args:
            _count_names(arg, into)


def _stmt_exprs(stmt: ir.Stmt) -> Tuple[ir.Expr, ...]:
    """The expressions a statement evaluates itself (not its bodies')."""
    kind = type(stmt)
    if kind is ir.Assign:
        return (stmt.value,)
    if kind is ir.Store or kind is ir.AtomicRMW:
        return (stmt.index, stmt.value)
    if kind is ir.If:
        return (stmt.cond,)
    if kind is ir.For:
        return (stmt.start, stmt.stop, stmt.step)
    if kind is ir.Return and stmt.value is not None:
        return (stmt.value,)
    return ()


_UFUNC_KEEPS: Dict[Tuple[object, str], bool] = {}


def _ufunc_keeps(func, dtype: str, nargs: int) -> bool:
    """Whether ``func`` is a ufunc that maps ``nargs`` operands of ``dtype``
    to that dtype -- its result cast is then the identity and ``out=`` of
    that dtype runs the very same loop.  Asked of NumPy itself, once."""
    key = (func, dtype)
    known = _UFUNC_KEEPS.get(key)
    if known is None:
        known = False
        if isinstance(func, np.ufunc) and func.nin == nargs and func.nout == 1:
            probe = np.empty(0, dtype=dtype)
            try:
                known = func(*[probe] * nargs).dtype == probe.dtype
            except TypeError:
                pass
        _UFUNC_KEEPS[key] = known
    return known


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
        self.lines: List[Optional[str]] = []  # None: a placeholder nothing filled
        self.globals: Dict[str, object] = {"np": np, "rt": _runtime}
        self._consts: Dict[Tuple[str, str], str] = {}
        self._counter = 0
        # What the specializations accomplished, for the lowering-outcome
        # detail string and the codegen stats.
        self.info: Dict[str, int] = {
            "cast_elisions": 0,
            "planned_sites": 0,
            "slots": 0,
            "merges_elided": 0,
            "reused_exprs": 0,
        }
        # per-function state
        self.fname = ""
        self.is_kernel = True
        self.param_names: Set[str] = set()
        self.shared: Dict[str, int] = {}  # name -> in-block size (shape[0])
        self.varying: Set[str] = set()
        self._static: Dict[str, str] = {}  # var -> proven runtime np dtype name
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
        # workspace state of the module: slot number -> dtype name, where
        # each function's frame line is, and what its call sites proved
        self._slot_dtypes: List[str] = []
        self._frames: List[Tuple[int, int, int, bool]] = []
        self._site_facts: Dict[str, List[Tuple[tuple, tuple]]] = {}
        self._dtype_facts: Dict[tuple, Optional[str]] = {}
        self._array_facts: Dict[tuple, bool] = {}
        self._has_devices = any(f.kind == "device" for f in module.functions.values())
        self._recursive: Set[str] = set()
        self._loopy: Dict[str, bool] = {}
        # workspace state of the function being emitted: flow facts ...
        self._plain: Set[int] = set()  # assignments emitted as plain binds
        self._live_after: Dict[int, FrozenSet[str]] = {}
        self._carried: Dict[int, FrozenSet[str]] = {}
        self._assigned: Dict[int, FrozenSet[str]] = {}
        self._aliased: Set[str] = set()
        self._reads: Dict[int, Dict[str, int]] = {}
        # ... and where values live as emission walks the body
        self._slot_ok = True
        self._first_slot = 0
        self._busy: Dict[int, Set[str]] = {}  # slot -> names ("" = a temporary)
        self._where: Dict[str, FrozenSet[int]] = {}  # local -> slots it may be in
        self._array: Set[str] = set()  # locals that hold a (T,) array right now
        self._loop_dest: Dict[str, Optional[Tuple[str, int]]] = {}
        self._reads_left: Dict[str, int] = {}
        self._stmt_live: Optional[FrozenSet[str]] = None
        self._stmt_kill: Optional[str] = None
        # value numbering inside one basic block
        self._version: Dict[str, int] = {}
        self._vn_counts: Dict[tuple, int] = {}
        self._vn_held: Dict[tuple, list] = {}
        self._reuse_names = 0

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

    def _device(self, name: str) -> Optional[ir.Function]:
        fn = self.module[name] if name in self.module else None
        return fn if fn is not None and fn.kind == "device" else None

    def expr_varying(self, expr) -> bool:
        """Sound "definitely a (T,) array at runtime" check.

        Drives the shape of what is emitted: a True result lets a
        conditional skip its uniform path and lets a value take a workspace
        slot.  False merely means "could be scalar", which costs a runtime
        ``np.ndim`` test or an allocation, never correctness.
        """
        if isinstance(expr, (ir.Const, ir.ArrayRef)):
            return False
        if isinstance(expr, ir.Var):
            return expr.name in self.varying or expr.name in self._array
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
            if expr.func in ir.VARYING_INTRINSICS:
                return True
            if intrinsics.is_builtin(expr.func) and expr.func not in ir.THREAD_INTRINSICS:
                return any(self.expr_varying(a) for a in expr.args)
            if self._device(expr.func) is not None:
                return self._call_array(
                    expr.func, tuple(self.expr_varying(a) for a in expr.args)
                )
            return False
        return False

    def _compute_varying(self, fn: ir.Function, arrays: Set[str] = frozenset()) -> Set[str]:
        """Fixpoint: a local is definitely varying iff it is assigned at
        least once and *every* assignment's RHS is definitely varying
        (merges under masks never turn an array back into a scalar).
        ``arrays`` are the parameters every call site passes an array for."""
        assigns: Dict[str, List[ir.Expr]] = {}
        loop_vars: Set[str] = set()
        for stmt in walk_statements(fn.body):
            if isinstance(stmt, ir.Assign):
                assigns.setdefault(stmt.target, []).append(stmt.value)
            elif isinstance(stmt, ir.For):
                loop_vars.add(stmt.var)
        # A parameter the body assigns is only what its assignments make it.
        self.varying = {name for name in arrays if name not in assigns}
        changed = True
        while changed:
            changed = False
            for name, values in assigns.items():
                if name in self.varying or name in loop_vars or name in self.param_names:
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
        int32 :class:`~repro.codegen.runtime.Geometry` arrays; a device
        function returns what its ``return`` values prove, given what this
        call passes it."""
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
                return expr.dtype.np_dtype  # cast_result-wrapped, or proven
            if self._device(expr.func) is not None:
                return self._call_dtype(
                    expr.func, tuple(self._static_dtype(a) for a in expr.args)
                )
            return None
        return None

    def _compute_static_dtypes(
        self, fn: ir.Function, seeds: Dict[str, str]
    ) -> Dict[str, str]:
        """Fixpoint over assignments: a local has a proven dtype iff every
        assignment's RHS proves the same dtype.  ``seeds`` are the
        parameters' (a kernel's scalars carry their declared dtype --
        ``bind_arguments`` casts scalars and validates arrays -- a device
        function's what every call site proved); loop vars are bound as
        ``np.int32``."""
        seeds = dict(seeds)
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

    # --------------------------------------------- facts across device calls
    #
    # What a device call returns -- its dtype, and whether it is an array --
    # follows from what the call passes; what a device function's parameters
    # are follows from all its call sites.  The kernel is emitted first and
    # every caller before its callees, so a callee is emitted knowing both.

    def _returns(self, fn: ir.Function) -> List[ir.Expr]:
        return [
            s.value
            for s in walk_statements(fn.body)
            if isinstance(s, ir.Return) and s.value is not None
        ]

    def _call_dtype(self, name: str, dtypes: tuple) -> Optional[str]:
        """The dtype ``name`` returns when called with operands of
        ``dtypes``: what all its ``return`` values prove, or None."""
        key = (name, dtypes)
        if key not in self._dtype_facts:
            self._dtype_facts[key] = None  # a recursive call proves nothing
            fn = self.module[name]
            saved = self._static
            try:
                self._compute_static_dtypes(
                    fn, {p.name: d for p, d in zip(fn.params, dtypes) if d is not None}
                )
                found = {self._static_dtype(value) for value in self._returns(fn)}
            finally:
                self._static = saved
            if len(found) == 1:
                self._dtype_facts[key] = found.pop()
        return self._dtype_facts[key]

    def _call_array(self, name: str, arrays: tuple) -> bool:
        """Whether ``name`` returns a ``(T,)`` array when the operands
        flagged in ``arrays`` are: every ``return`` value must be one (a
        ``return`` under a mask merges into one anyway)."""
        key = (name, arrays)
        if key not in self._array_facts:
            self._array_facts[key] = False
            fn = self.module[name]
            saved = self.varying, self._array, self.param_names
            try:
                self._array = set()
                self.param_names = {p.name for p in fn.params}
                self._compute_varying(
                    fn, {p.name for p, array in zip(fn.params, arrays) if array}
                )
                values = self._returns(fn)
                self._array_facts[key] = bool(values) and all(
                    self.expr_varying(value) for value in values
                )
            finally:
                self.varying, self._array, self.param_names = saved
        return self._array_facts[key]

    def _reads_every_lane(self, name: str) -> bool:
        """Whether a device function (or one it calls) has a loop: its
        bounds are checked uniform over *all* lanes, so the lanes of an
        argument outside the caller's mask are not unobserved."""
        known = self._loopy.get(name)
        if known is None:
            fn = self.module[name]
            known = self._loopy[name] = any(
                isinstance(stmt, ir.For)
                for dev in [fn] + reachable_device_functions(fn, self.module)
                for stmt in walk_statements(dev.body)
            )
        return known

    def device_order(self, fn: ir.Function) -> List[ir.Function]:
        """The device functions reachable from ``fn``, every caller before
        its callees; those on a call cycle are noted (they get no slots: two
        activations of one function would share a frame)."""
        order: List[ir.Function] = []
        if not self._has_devices:
            return order
        state: Dict[str, int] = {}  # 1 = on the walk's stack, 2 = done

        def visit(function: ir.Function) -> None:
            for node in ir_walk(function.body):
                callee = self._device(node.func) if isinstance(node, ir.Call) else None
                if callee is None:
                    continue
                seen = state.get(callee.name)
                if seen == 1:
                    self._recursive.add(callee.name)
                elif seen is None:
                    state[callee.name] = 1
                    visit(callee)
                    state[callee.name] = 2
                    order.append(callee)

        visit(fn)
        if self._recursive:
            # Whatever can reach a cycle's entry may be on the cycle itself.
            for dev in order:
                reach = {d.name for d in reachable_device_functions(dev, self.module)}
                if reach & self._recursive:
                    self._recursive.add(dev.name)
        return order[::-1]

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

    # ------------------------------------------------- liveness and merges

    def _stmt_reads(self, stmt: ir.Stmt) -> Dict[str, int]:
        """How often the statement's own expressions read each variable."""
        reads = self._reads.get(id(stmt))
        if reads is None:
            reads = self._reads[id(stmt)] = {}
            for expr in _stmt_exprs(stmt):
                _count_names(expr, reads)
        return reads

    def _analyse_flow(self, fn: ir.Function, dynamic: bool) -> None:
        """The one liveness pass of the function about to be emitted.

        *Which masked assignments are plain binds.*  Each variable gets an
        observation scope: the arm path (``(if, arm), ...``) common to every
        place its lanes can be seen -- any read sees the lanes of its own
        arm (a store, atomic, condition or ``return`` masks, clamps or
        zeroes the others), a loop bound or an argument of a device
        function with a loop sees all of them, what an assignment reads
        is also seen wherever its target is, and a variable a loop body
        assigns and may read from an earlier iteration
        (:meth:`_exposed_reads`) is seen by the whole loop: an arm inside it
        has another mask each time round.  An assignment in
        arm ``p`` needs no ``np.where`` when ``p`` is a prefix of its
        target's scope: no reader anywhere can tell what the lanes outside
        ``p`` hold.  Flow-insensitive on purpose (any read of the name
        outside the arm, before or after, keeps the merge).

        *Where values die.*  Backwards over the structured body:
        ``_live_after[stmt]`` names the variables read later on some path
        (the arms of an ``if`` run one after the other, a loop body feeds
        itself), ``_carried[loop]`` those live round its back edge and
        assigned inside it."""
        scope: Dict[str, object] = {}
        flows: List[Tuple[str, str]] = []  # (read, target): seen wherever target is
        masked: List[Tuple[ir.Assign, tuple]] = []
        self._plain, self._aliased = set(), set()
        self._live_after, self._carried, self._assigned, self._reads = {}, {}, {}, {}

        def seen(stmt: ir.Stmt, where) -> None:
            for name in self._stmt_reads(stmt):
                scope[name] = _meet(scope.get(name), where)

        def every_lane(stmt: ir.Stmt) -> None:
            if not self._has_devices:
                return
            for expr in _stmt_exprs(stmt):
                for node in walk(expr):
                    if (
                        isinstance(node, ir.Call)
                        and self._device(node.func) is not None
                        and self._reads_every_lane(node.func)
                    ):
                        names: Dict[str, int] = {}
                        _count_names(node, names)
                        for name in names:
                            scope[name] = _ALL

        def visit(body: List[ir.Stmt], path: tuple) -> None:
            for stmt in body:
                kind = type(stmt)
                every_lane(stmt)
                if kind is ir.Assign:
                    seen(stmt, path)  # a read is a read, even into a dead value
                    flows.extend((name, stmt.target) for name in self._stmt_reads(stmt))
                    if path or dynamic:
                        masked.append((stmt, path))
                    else:
                        self._plain.add(id(stmt))
                    root = stmt.value
                    while isinstance(root, ir.Cast):
                        root = root.operand
                    if isinstance(root, ir.Var):
                        self._aliased.update((root.name, stmt.target))
                elif kind is ir.If:
                    seen(stmt, path)
                    visit(stmt.then_body, path + ((id(stmt), 0),))
                    visit(stmt.else_body, path + ((id(stmt), 1),))
                elif kind is ir.For:
                    seen(stmt, _ALL)
                    visit(stmt.body, path)
                    # An arm inside the loop has another mask each time
                    # round: a value that reaches a read round the back edge
                    # may be read by lanes its bind did not run for.
                    exposed: Set[str] = set()
                    self._exposed_reads(stmt.body, set(), exposed)
                    for inner in walk_statements(stmt.body):
                        if isinstance(inner, ir.Assign) and inner.target in exposed:
                            scope[inner.target] = _meet(scope.get(inner.target), path)
                else:
                    seen(stmt, path)

        visit(fn.body, ())
        changed = True
        while changed:
            changed = False
            for name, target in flows:
                wider = _meet(scope.get(name), scope.get(target))
                if wider != scope.get(name):
                    scope[name] = wider
                    changed = True
        for stmt, path in masked:
            where = scope.get(stmt.target)
            # With a proven dtype only: np.where would promote new and old.
            if stmt.target in self._static and where is not _ALL and (
                where is None or where[: len(path)] == path
            ):
                self._plain.add(id(stmt))
                self.info["merges_elided"] += 1
        self._liveness(fn.body, frozenset())

    def _exposed_reads(self, body: List[ir.Stmt], bound: Set[str], into: Set[str]) -> None:
        """Collect the variables one run of ``body`` may read from before it:
        those read where no earlier assignment of the same run covers the
        reading lanes.  An assignment covers the rest of its own arm and the
        arms nested there (``bound``) -- not a sibling arm, not the code after
        its arm, not the code after an inner loop that may not run."""
        for stmt in body:
            into.update(name for name in self._stmt_reads(stmt) if name not in bound)
            kind = type(stmt)
            if kind is ir.Assign:
                bound.add(stmt.target)
            elif kind is ir.If:
                self._exposed_reads(stmt.then_body, set(bound), into)
                self._exposed_reads(stmt.else_body, set(bound), into)
            elif kind is ir.For:
                self._exposed_reads(stmt.body, set(bound), into)

    def _liveness(self, body: List[ir.Stmt], live: FrozenSet[str]) -> FrozenSet[str]:
        """Fill ``_live_after`` for ``body`` given what is live after it;
        returns what is live before it."""
        for stmt in reversed(body):
            self._live_after[id(stmt)] = live
            kind = type(stmt)
            reads = self._stmt_reads(stmt)
            if kind is ir.Assign:
                if id(stmt) in self._plain:
                    live = live - {stmt.target}
                else:  # a merge reads the old value
                    live = live | {stmt.target}
                live = live.union(reads)
            elif kind is ir.If:
                # The arms of a divergent ``if`` run one after the other.
                other = self._liveness(stmt.else_body, live)
                then = self._liveness(stmt.then_body, live | other)
                live = live.union(other, then, reads)
            elif kind is ir.For:
                assigned = frozenset(
                    s.target if isinstance(s, ir.Assign) else s.var
                    for s in walk_statements(stmt.body)
                    if isinstance(s, (ir.Assign, ir.For))
                )
                top: FrozenSet[str] = frozenset()
                while True:
                    again = self._liveness(stmt.body, live | top) - {stmt.var}
                    if again <= top:
                        break
                    top |= again
                self._assigned[id(stmt)] = assigned
                self._carried[id(stmt)] = top & assigned
                live = live.union(top, reads)
            else:
                live = live.union(reads)
        return live

    # ---------------------------------------------------------------- slots

    @property
    def _slotting(self) -> bool:
        """Whether values may be computed into slots here: not inside a
        site's computation (it runs on a miss only, and a plan may keep its
        result), not in a function on a call cycle."""
        return self._sites_ok and self._slot_ok

    def _take(self, dtype: str) -> int:
        """A free slot of ``dtype``, as a temporary: the lowest-numbered one
        of this function nothing lives in, or a new one."""
        for slot in range(self._first_slot, len(self._slot_dtypes)):
            if self._slot_dtypes[slot] == dtype and slot not in self._busy:
                break
        else:
            slot = len(self._slot_dtypes)
            self._slot_dtypes.append(dtype)
        self._busy[slot] = {""}
        return slot

    def _unhold(self, slot: int, name: str) -> None:
        holders = self._busy.get(slot)
        if holders is not None:
            holders.discard(name)
            if not holders:
                del self._busy[slot]

    def _release(self, *vals: _Val) -> None:
        """The consumer of these operands has been composed: the
        temporaries among them are dead."""
        for val in vals:
            if val.owned:
                val.owned = False
                self._unhold(val.slot, "")

    def _consume(self, operands) -> None:
        """The node reading ``operands`` is being composed -- in the order
        nodes will run, so a variable's reads are counted down as they
        happen.  The last one of a value that does not outlive the
        statement, alone in one slot, may be overwritten there."""
        live = self._stmt_live
        for val in operands:
            name = val.var
            if name is None:
                continue
            left = self._reads_left[name] = self._reads_left.get(name, 0) - 1
            if left == 0 and live is not None and (
                name not in live or name == self._stmt_kill
            ):
                slots = self._where.get(name, ())
                if len(slots) == 1:
                    (slot,) = slots
                    if self._busy[slot] == {name}:
                        val.dying = slot

    def _place(self, dtype: str, operands, dest, call, inplace: bool = True) -> _Val:
        """A ``(T,)`` result of ``dtype`` computed by ``call(out)`` from
        ``operands``: into ``dest`` when the statement chose one, else in
        place on an operand that dies here (``inplace``: the call reads and
        writes lane by lane), else into a free slot."""
        if not self._slotting:
            return _Val(call(None), True)
        self._consume(operands)
        if dest is _FRESH:
            self._release(*operands)
            return _Val(call(None), True)
        if dest is not None:
            self._release(*operands)
            return _Val(call(dest[0]), True, dest[1])
        slot = None
        if inplace:
            for val in operands:
                if val.owned and self._slot_dtypes[val.slot] == dtype:
                    slot, val.owned = val.slot, False
                    break
            else:
                for val in operands:
                    if val.dying is not None and self._slot_dtypes[val.dying] == dtype:
                        slot = val.dying
                        del self._where[val.var]
                        self._busy[slot] = {""}
                        break
        if slot is None:
            slot = self._take(dtype)
        self._release(*operands)
        return _Val(call(f"_w{slot}"), True, slot, owned=True)

    def _fresh(self, operands, src: str, array: bool) -> _Val:
        """A value that allocates as it always did."""
        if self._slotting:
            self._consume(operands)
            self._release(*operands)
        return _Val(src, array)

    def _begin(self, stmt: ir.Stmt, can_die: bool = True) -> None:
        """Start of one statement's expressions: how often each variable is
        still to be read in it, and which values do not outlive it."""
        self._reads_left = dict(self._stmt_reads(stmt))
        self._stmt_live = self._live_after[id(stmt)] if can_die else None
        plain = isinstance(stmt, ir.Assign) and id(stmt) in self._plain
        self._stmt_kill = stmt.target if plain else None

    def _retire(self, stmt: ir.Stmt) -> None:
        """End of a statement: locals nothing reads any more let go of
        their slots."""
        live = self._live_after[id(stmt)]
        for name in [name for name in self._where if name not in live]:
            for slot in self._where.pop(name):
                self._unhold(slot, name)

    def _bind(self, target: str, val: _Val, merged: bool = False) -> None:
        """``target`` now names ``val`` (or, ``merged``, a fresh
        ``np.where`` of it): it lets go of what it held and holds the slot
        ``val`` is in -- its own temporary, or another local's (an alias
        keeps that slot busy for as long as either is live)."""
        self._version[target] = self._version.get(target, 0) + 1
        if val.var == target and not merged:
            return
        slots: FrozenSet[int] = frozenset()
        if merged:
            self._release(val)
        elif val.slot is not None:
            if val.owned:
                val.owned = False
                self._busy[val.slot].discard("")
            slots = frozenset((val.slot,))
        elif val.var is not None:
            slots = self._where.get(val.var, slots)
        for slot in slots:
            self._busy[slot].add(target)
        for slot in self._where.pop(target, ()):
            if slot not in slots:
                self._unhold(slot, target)
        if slots:
            self._where[target] = slots
        if merged or val.array:
            self._array.add(target)
        else:
            self._array.discard(target)

    def _snapshot(self):
        return dict(self._where), set(self._array)

    def _join(self, snapshot) -> None:
        """Control flow that may have skipped what was just emitted meets
        it again: a local may be in the slots either path left it in, and
        is an array only if both say so."""
        where, array = snapshot
        for name, slots in where.items():
            mine = self._where.get(name, frozenset())
            if not slots <= mine:
                self._where[name] = mine | slots
                for slot in slots:
                    self._busy.setdefault(slot, set()).add(name)
        self._array &= array

    def _skippable(self, body: List[ir.Stmt], ctx: _Ctx, indent: int) -> None:
        """Emit a body that may not run (an arm, a loop's iterations)."""
        snapshot = self._snapshot()
        self.emit_body(body, ctx, indent)
        self._join(snapshot)

    # ------------------------------------------------------ value numbering

    def _vn_key(self, expr: ir.Expr, versions: Dict[str, int], counts=None):
        """The value number of a pure expression over constants, thread ids
        and variables at their current assignment count -- or None (loads,
        device calls, selects).  With ``counts``, tallies every operator
        node on the way."""
        kind = type(expr)
        if kind is ir.Const:
            return ("k", expr.dtype.name, repr(expr.value))
        if kind is ir.Var:
            return ("v", expr.name, versions.get(expr.name, 0))
        if kind is ir.BinOp:
            parts = (
                self._vn_key(expr.left, versions, counts),
                self._vn_key(expr.right, versions, counts),
            )
            head = expr.op
        elif kind is ir.UnOp or kind is ir.Cast:
            parts = (self._vn_key(expr.operand, versions, counts),)
            head = expr.op if kind is ir.UnOp else "cast"
        elif kind is ir.Call:
            if expr.func in _INTRINSIC_ATTR:
                return ("g", expr.func)
            parts = tuple(self._vn_key(arg, versions, counts) for arg in expr.args)
            if intrinsics.get(expr.func) is None or intrinsics.is_impure(expr.func):
                return None
            head = expr.func
        else:
            if counts is not None:  # nothing to number here, maybe below
                if kind is ir.Load:
                    self._vn_key(expr.index, versions, counts)
                elif kind is ir.Select:
                    for child in (expr.cond, expr.if_true, expr.if_false):
                        self._vn_key(child, versions, counts)
            return None
        if None in parts:
            return None
        key = (head, expr.dtype.name) + parts
        if counts is not None:
            counts[key] = counts.get(key, 0) + 1
        return key

    def _open_block(self, block: List[ir.Stmt]) -> None:
        """Number the values of one basic block -- consecutive assignments,
        stores and atomics -- so that a pure sub-expression it computes
        more than once, on operands no assignment in between touches, is
        computed once and its slot held until the last use."""
        counts: Dict[tuple, int] = {}
        versions = dict(self._version)
        for stmt in block:
            for expr in _stmt_exprs(stmt):
                self._vn_key(expr, versions, counts)
            if isinstance(stmt, ir.Assign):
                versions[stmt.target] = versions.get(stmt.target, 0) + 1
        self._vn_counts = {key: n for key, n in counts.items() if n > 1}

    def _close_block(self) -> None:
        for _, slot, _ in self._vn_held.values():
            self._unhold(slot, "")
        self._vn_held, self._vn_counts = {}, {}

    def _reused(self, expr: ir.Expr, ctx: _Ctx, key: tuple) -> _Val:
        """An expression the block computes more than once: emitted (and
        named) the first time, read back after that."""
        held = self._vn_held.get(key)
        if held is None:
            val = self._emit_node(expr, ctx, None)
            if not val.owned:
                return val  # not a slot of its own: nothing to hold
            self._reuse_names += 1
            name = f"_c{self._reuse_names}"
            self._vn_held[key] = [name, val.slot, self._vn_counts[key] - 1]
            val.owned = False  # the block holds it now
            val.src = f"({name} := {val.src})"
            return val
        self.info["reused_exprs"] += 1
        name, slot, left = held
        held[2] = left - 1
        if left > 1:
            return _Val(name, True, slot)
        # The last use: the block lets go, and unless a local was bound to
        # the value meanwhile the consumer may overwrite it.
        del self._vn_held[key]
        if self._busy[slot] == {""}:
            return _Val(name, True, slot, owned=True)
        self._unhold(slot, "")
        return _Val(name, True, slot)

    # ------------------------------------------------------------- functions

    def emit_function(self, fn: ir.Function) -> str:
        # Lowered on a private copy: the per-position facts below are keyed
        # by ``id()``, and in the copy every position is a node of its own,
        # even where the caller's tree shares one between two positions.
        fn = clone(fn)
        is_kernel = self.is_kernel = fn.kind == "kernel"
        self.fname = fn.name
        self.param_names = {p.name for p in fn.params}
        self._array = set()
        arrays: Set[str] = set()
        if is_kernel:
            seeds = {p.name: p.type.dtype.np_dtype for p in fn.params if not p.is_array}
        else:
            # A device function's parameters are what every call site
            # passes: the dtypes they all prove, arrays where they all do.
            sites = self._site_facts.get(fn.name, [])
            seeds = {}
            for i, p in enumerate(fn.params):
                dtypes = {site[0][i] for site in sites}
                if len(dtypes) == 1 and None not in dtypes:
                    seeds[p.name] = dtypes.pop()
                if sites and all(site[1][i] for site in sites):
                    arrays.add(p.name)
        self._compute_static_dtypes(fn, seeds)
        self.shared = {}
        total_elems: Dict[str, int] = {}
        for stmt in walk_statements(fn.body):
            if isinstance(stmt, ir.SharedAlloc):
                shape = tuple(stmt.shape)
                self.shared[stmt.name] = int(shape[0])
                total_elems[stmt.name] = int(np.prod(shape))
        self._compute_varying(fn, arrays)

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
        self._slot_ok = fn.name not in self._recursive
        self._first_slot = len(self._slot_dtypes)
        self._busy, self._where, self._loop_dest, self._version = {}, {}, {}, {}
        self._analyse_flow(fn, dynamic)
        params = ", ".join(f"v_{p.name}" for p in fn.params)
        plan_line = -1
        if is_kernel:
            name = f"_kernel_{fn.name}"
            self.emit(0, f"def {name}(_G, {params}):")
            self.emit(1, "_T = _G.T")
            frame_line = len(self.lines)
            self.emit(1, "")  # this launch's slots, once the module's are known
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
            self.emit(0, f"def {name}({params}, _mask, _retm, _T, _W, _out):")
            frame_line = len(self.lines)
            self.emit(1, "")
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
        self._frames.append(
            (frame_line, self._first_slot, len(self._slot_dtypes), is_kernel)
        )
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
            self.lines[plan_line] = None  # dropped by finish()
            return
        self.globals["_PID"] = next(_PLAN_IDS)
        key = ["_PID"]
        key += [f"v_{name}.size" for name in self._key_buffers]
        key += [f"rt.scalar_key(v_{name})" for name in sorted(self._key_scalars)]
        self.lines[plan_line] = f"    _P, _g, _B = rt.plan(_G, ({', '.join(key)},))"
        self.emit(1, "if _B: rt.plan_built(_P)")
        # What the shard lanes count as ``planned``: this launch computed
        # no site.  (A kernel without sites returns None.)
        self.emit(1, "return not _B")

    def finish(self) -> str:
        """The module's source, once every function is emitted: each
        function's frame line names the slots it uses out of the launch's
        workspace ``_W`` -- the kernel fetches it, device functions are
        handed it and unpack their own frame, above their callers'."""
        slots = self.info["slots"] = len(self._slot_dtypes)
        if slots:
            self.globals["_WS"] = _runtime.Layout(self._slot_dtypes)
        calls = len(self._frames) > 1
        for line, first, last, is_kernel in self._frames:
            parts = []
            if is_kernel and slots:
                parts.append("_W = rt.frame(_WS, _T)")
            elif is_kernel and calls:
                parts.append("_W = None")
            if last > first:
                names = ", ".join(f"_w{slot}" for slot in range(first, last))
                parts.append(f"{names}{',' if last == first + 1 else ''} = _W[{first}:{last}]")
            self.lines[line] = "\n".join("    " + part for part in parts) or None
        return "\n".join(line for line in self.lines if line is not None) + "\n"

    # ------------------------------------------------------------ statements

    def emit_body(self, body: List[ir.Stmt], ctx: _Ctx, indent: int) -> None:
        if not body:
            self.emit(indent, "pass")
            return
        block_end = 0
        for i, stmt in enumerate(body):
            if not isinstance(stmt, _SIMPLE):
                self._close_block()
            elif i >= block_end and self._slot_ok:
                # A basic block starts: straight-line statements up to the
                # next branch, loop or return.
                block_end = i + 1
                while block_end < len(body) and isinstance(body[block_end], _SIMPLE):
                    block_end += 1
                if block_end - i > 1:
                    self._open_block(body[i:block_end])
            self.emit_stmt(stmt, ctx, indent)
            if ctx.dynamic and i + 1 < len(body) and _can_return(stmt):
                # _exec_body re-checks returned_all before each statement;
                # it only changes when a return executed, so one guard after
                # each possibly-returning statement is equivalent.
                self.emit(indent, "if not _retall:")
                indent += 1
        self._close_block()

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
        # A plain bind: nothing is masked here, or nobody can see the lanes
        # a merge would have kept (``_analyse_flow``).
        plain = id(stmt) in self._plain or (ctx.mask is None and not ctx.dynamic)
        merged = not plain and not ctx.dynamic and (
            target in ctx.defined or target in self.param_names
        )
        self._begin(stmt)
        if not plain:  # the old value is read after the new one is computed
            self._reads_left[target] = self._reads_left.get(target, 0) + 1
        if target in self._inv_locals:
            # Cheap thread-id arithmetic feeding sites: computed in place,
            # not stored a second time as a site of its own.
            val = _Val(
                self._computation(stmt.value, ctx, None), self.expr_varying(stmt.value)
            )
        else:
            dest = None
            if target in self._loop_dest and not merged:
                # Live round a loop's back edge: the new value goes where
                # the loop keeps this local, or nowhere near a slot.
                dest = (self._loop_dest[target] if plain else None) or _FRESH
            val = self.emit_expr(stmt.value, ctx, dest)
        if plain:
            self.emit(indent, f"v_{target} = {val}")
        elif merged:
            self.emit(indent, f"v_{target} = np.where({ctx.mask}, {val}, v_{target})")
        else:
            self.emit(
                indent,
                f"v_{target} = rt.assign(v_{target}, {val}, {self.live_expr(ctx)})",
            )
        self._bind(target, val, merged)
        ctx.defined.add(target)
        self._retire(stmt)

    def _array_kind(self, ref: ir.ArrayRef) -> Tuple[bool, str]:
        """(is_shared, buffer expression) for an array reference."""
        if ref.name in self.shared:
            return True, f"_sh_{ref.name}"
        if ref.name in self.param_names:
            return False, f"v_{ref.name}"
        raise CodegenError(f"{self.fname}: unbound array {ref.name!r}")

    def _access_site(self, ref: ir.ArrayRef, index: ir.Expr, ctx: _Ctx):
        """``(index, plan key pair or None)`` of one load/store/atomic.
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
        return _Val(self._computation(index, ctx, set())), key

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

    def _written_value(self, expr: ir.Expr, key, ctx: _Ctx, indent: int) -> _Val:
        """The value of a store or atomic.  At a planned site it is named
        twice (hit and miss), so it is held in a temporary first; its loads
        then fault before the access's own index is looked at, as in the
        interpreter."""
        value = self.emit_expr(expr, ctx)
        if key is not None:
            held = self.tmp()
            self.emit(indent, f"{held} = {value}")
            value.src = held
        return value

    def _emit_store(self, stmt: ir.Store, ctx: _Ctx, indent: int) -> None:
        self._begin(stmt)
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
        self._emit_write(call, buf, key, value.src, "", indent)
        self._release(idx, value)
        self._retire(stmt)

    def _emit_atomic(self, stmt: ir.AtomicRMW, ctx: _Ctx, indent: int) -> None:
        self._begin(stmt)
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
        self._emit_write(call, buf, key, value.src, f", {stmt.op!r}", indent)
        self._release(idx, value)
        self._retire(stmt)

    def _emit_if(self, stmt: ir.If, ctx: _Ctx, indent: int) -> None:
        deps = self._deps(stmt.cond) if ctx.invariant else None
        # Inside the arms sites stay plannable only if this condition is
        # launch-invariant as well.
        inner = ctx.copy(
            invariant=deps is not None, deps=ctx.deps | (deps or frozenset())
        )
        varying = self.expr_varying(stmt.cond)
        self._begin(stmt, can_die=False)
        if deps is not None and varying:
            self._emit_planned_if(stmt, deps, inner, indent)
            self._retire(stmt)
            return
        cond = self.tmp()
        # The masks may be this very array: its slot stays busy over the arms.
        value = self.emit_expr(stmt.cond, ctx)
        self.emit(indent, f"{cond} = {value}")
        if varying:
            self._emit_masked_if(stmt, cond, inner, indent)
        else:
            # Possibly-uniform condition: replicate the interpreter's runtime
            # scalar/array dispatch.  The scalar arm executes the taken body
            # under the *parent* context (no new mask).
            self.emit(indent, f"if np.ndim({cond}) == 0:")
            self.emit(indent + 1, f"if bool({cond}):")
            self._skippable(stmt.then_body, inner.copy(), indent + 2)
            if stmt.else_body:
                self.emit(indent + 1, "else:")
                self._skippable(stmt.else_body, inner.copy(), indent + 2)
            self.emit(indent, "else:")
            self._emit_masked_if(stmt, cond, inner, indent + 1)
        self._release(value)
        self._retire(stmt)

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
                self._skippable(body, ctx.copy(mask=mask), indent + 1)

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
            self._skippable(body, ctx.copy(mask=mask), indent + 1)
        if ctx.dynamic:
            # Lanes that returned inside an arm stay inactive from here on.
            self.emit(
                indent,
                f"_retall = _retm is not None and "
                f"rt.live_count({base}, _retm, _T) == 0",
            )

    def _emit_for(self, stmt: ir.For, ctx: _Ctx, indent: int) -> None:
        self._begin(stmt, can_die=False)
        start, stop, step = self.tmp(), self.tmp(), self.tmp()
        for name, bound, what in (
            (start, stmt.start, "loop start"),
            (stop, stmt.stop, "loop stop"),
            (step, stmt.step, "loop step"),
        ):
            value = self.emit_expr(bound, ctx)
            self.emit(indent, f"{name} = rt.uniform_int({value}, {what!r}, {self.fname!r})")
            self._release(value)
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
        entered = self._enter_loop(stmt)
        # The interpreter binds the loop variable straight into the env
        # (no mask merge), even under predication.
        self.emit(indent + 1, f"v_{stmt.var} = np.int32({counter})")
        self._bind(stmt.var, _Val(""))
        body_ctx.defined.add(stmt.var)
        self._skippable(stmt.body, body_ctx, indent + 1)
        if ctx.dynamic and _can_return(stmt):
            self.emit(indent + 1, "if _retall: break")
        self._leave_loop(entered)
        self._retire(stmt)

    def _enter_loop(self, stmt: ir.For) -> List[str]:
        """The body is emitted once and runs many times, so what it assumes
        about where values live must hold on every iteration.  It does for
        what an iteration defines and drops, and for what it only reads.  A
        local *live round the back edge and assigned in the body* gets one
        place for the whole loop: the slot it already owns alone or a new
        one, written in place by each plain assignment of an elementwise
        result -- or, if a name is ever bound to another's value (an alias
        would see the overwrite), no slot at all inside the loop."""
        # What the body assigns may be a scalar when an iteration starts.
        self._array -= self._assigned[id(stmt)]
        entered = []
        if not self._slot_ok:
            return entered
        for name in sorted(self._carried[id(stmt)]):
            if name in self._loop_dest:
                continue  # an enclosing loop decided already
            dest = None
            dtype = self._static.get(name)
            if dtype is not None and name not in self._aliased and any(
                s.target == name and self.expr_varying(s.value)
                for s in walk_statements(stmt.body)
                if isinstance(s, ir.Assign)
            ):
                slots = self._where.get(name, ())
                slot = next(iter(slots)) if len(slots) == 1 else None
                if (
                    slot is None
                    or self._busy[slot] != {name}
                    or self._slot_dtypes[slot] != dtype
                ):
                    slot = self._take(dtype)
                    self._busy[slot].discard("")
                self._busy[slot].add("<loop>")
                dest = (f"_w{slot}", slot)
            self._loop_dest[name] = dest
            entered.append(name)
        return entered

    def _leave_loop(self, entered: List[str]) -> None:
        for name in entered:
            dest = self._loop_dest.pop(name)
            if dest is not None:
                self._unhold(dest[1], "<loop>")

    def _emit_return(self, stmt: ir.Return, ctx: _Ctx, indent: int) -> None:
        self._begin(stmt)
        value = "None"
        if stmt.value is not None:
            # A device function computes what it returns into the slot its
            # caller passed: its own frame is the next call's to overwrite.
            val = self.emit_expr(stmt.value, ctx, None if self.is_kernel else ("_out", None))
            value = val.src
            if not self.is_kernel and (val.slot is not None or val.var is not None):
                value = f"rt.returned(_out, {val})"
            self._release(val)
        mask = ctx.mask if ctx.mask is not None else "None"
        self.emit(
            indent,
            f"_ret, _retm, _retall = rt.do_return({value}, {mask}, _ret, _retm, _T)",
        )
        self._retire(stmt)

    # ----------------------------------------------------------- expressions

    def _computation(self, expr: ir.Expr, ctx: _Ctx, refs: Optional[Set[str]]) -> str:
        """Emit ``expr`` as plain code with no site and no slot inside it:
        what a site evaluates when its plan has no entry (and may keep), or
        an invariant local's value.  Plan-only candidates it reads are noted
        in ``refs`` (the reader only runs on a miss), or count as data uses
        if None."""
        saved = self._sites_ok, self._refs
        self._sites_ok, self._refs = False, refs
        try:
            return self.emit_expr(expr, ctx).src
        finally:
            self._sites_ok, self._refs = saved

    def emit_expr(self, expr: ir.Expr, ctx: _Ctx, dest=None) -> _Val:
        """Emit one expression.  ``dest`` is where the statement wants the
        root's result: ``(name, slot)``, :data:`_FRESH`, or None for
        "wherever is free"."""
        if isinstance(expr, ir.Const):
            return _Val(self.const(expr.value, expr.dtype))
        if isinstance(expr, ir.Var):
            return self._read_var(expr.name, ctx)
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
                return _Val(f"(_g({probe}) or rt.plan_value(_P, {key}, {value}))[0]", True)
        if self._vn_counts and dest is None and self._slotting:
            key = self._vn_key(expr, self._version)
            if key in self._vn_counts:
                return self._reused(expr, ctx, key)
        return self._emit_node(expr, ctx, dest)

    def _emit_node(self, expr: ir.Expr, ctx: _Ctx, dest) -> _Val:
        if isinstance(expr, ir.BinOp):
            return self._emit_binop(expr, ctx, dest)
        if isinstance(expr, ir.UnOp):
            return self._emit_unop(expr, ctx, dest)
        if isinstance(expr, ir.Cast):
            operand = self.emit_expr(expr.operand, ctx)
            if self._static_dtype(expr.operand) == expr.dtype.np_dtype:
                # Identity cast: the operand provably already has the
                # target dtype, so cast_value would only copy.
                self.info["cast_elisions"] += 1
                return operand
            np_dtype = self.np_dtype(expr.dtype)
            if operand.array:
                return self._place(
                    expr.dtype.np_dtype,
                    (operand,),
                    dest,
                    lambda out: f"rt.cast_into({out}, {operand}, {np_dtype})"
                    if out
                    else f"rt.cast_value({operand}, {np_dtype})",
                    inplace=False,
                )
            return self._fresh((operand,), f"rt.cast_value({operand}, {np_dtype})", False)
        if isinstance(expr, ir.Select):
            cond = self.emit_expr(expr.cond, ctx)
            a = self.emit_expr(expr.if_true, ctx)
            b = self.emit_expr(expr.if_false, ctx)
            return self._fresh(
                (cond, a, b),
                f"rt.select({cond}, {a}, {b}, {self.np_dtype(expr.dtype)})",
                cond.array or (a.array and b.array),
            )
        if isinstance(expr, ir.Load):
            return self._emit_load(expr, ctx, dest)
        if isinstance(expr, ir.Call):
            return self._emit_call(expr, ctx, dest)
        raise CodegenError(f"{self.fname}: cannot lower {type(expr).__name__}")

    def _read_var(self, name: str, ctx: _Ctx) -> _Val:
        if name in self._lazy_names:
            # Read by a site's computation (runs only on a miss), or by
            # code that runs on every launch?
            (self._data_uses if self._refs is None else self._refs).add(name)
        if name in ctx.defined or name in self.param_names:
            src = f"v_{name}"
        else:
            src = f"rt.check_defined(v_{name}, {name!r}, {self.fname!r})"
        return _Val(src, name in self.varying or name in self._array, var=name)

    def _emit_binop(self, expr: ir.BinOp, ctx: _Ctx, dest) -> _Val:
        a = self.emit_expr(expr.left, ctx)
        b = self.emit_expr(expr.right, ctx)
        array = a.array or b.array
        op = expr.op
        if op in _CMP_FUNCS:
            # Comparisons/logic yield bool whatever they compare.
            func = _CMP_FUNCS[op]
            if array:
                return self._place(
                    "bool", (a, b), dest, lambda out: _ufunc_call(func, (a, b), out)
                )
            return self._fresh((a, b), f"{func}({a}, {b})", False)
        dtype_preserving = True
        if op == "div":
            func = "np.divide" if expr.dtype.is_float else "rt.c_divide_int"
            dtype_preserving = expr.dtype.is_float  # int path goes via int64
        elif op == "mod":
            func = "np.fmod" if expr.dtype.is_float else "rt.c_mod_int"
            dtype_preserving = expr.dtype.is_float
        else:
            func = _ARITH_FUNCS[op]
        dtype = expr.dtype.np_dtype
        if (
            dtype_preserving
            and self._static_dtype(expr.left) == dtype
            and self._static_dtype(expr.right) == dtype
        ):
            # Both operands provably carry the result dtype already, so
            # the ufunc's natural output dtype is expr.dtype and the
            # cast_result wrapper is the identity.
            self.info["cast_elisions"] += 1
            if array:
                return self._place(
                    dtype, (a, b), dest, lambda out: _ufunc_call(func, (a, b), out)
                )
            return self._fresh((a, b), f"({func}({a}, {b}))", False)
        return self._fresh(
            (a, b),
            f"rt.cast_result({func}({a}, {b}), {self.np_dtype(expr.dtype)})",
            array,
        )

    def _emit_unop(self, expr: ir.UnOp, ctx: _Ctx, dest) -> _Val:
        operand = self.emit_expr(expr.operand, ctx)
        func, dtypes = _UNARY_UFUNCS[expr.op]
        dtype = self._static_dtype(expr.operand)
        if operand.array and dtype in dtypes:
            # The operator is this ufunc on a proven dtype: same loop.
            return self._place(
                dtype, (operand,), dest, lambda out: _ufunc_call(func, (operand,), out)
            )
        if expr.op == "neg":
            src = f"(-({operand}))"
        elif expr.op == "lnot":
            src = f"rt.lnot({operand})"
        else:
            src = f"(~({operand}))"
        return self._fresh((operand,), src, operand.array)

    def _emit_load(self, expr: ir.Load, ctx: _Ctx, dest) -> _Val:
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

        def source(out):
            if key is None:
                return f"{call}, out={out})" if out else f"{call})"
            args, kwarg = (f"{buf}, {out}", f", out={out}") if out else (buf, "")
            return (
                f"(_s.run({args}) if (_s := _g({key[0]})) "
                f"else {call}, _P, {key[1]}{nsb}{kwarg}))"
            )

        array = idx.array if key is None else self.expr_varying(expr.index)
        if array:
            # One element per lane.  Never in place: a gather does not read
            # its index lane by lane as it writes.
            return self._place(
                expr.array.type.dtype.np_dtype, (idx,), dest, source, inplace=False
            )
        return self._fresh((idx,), source(None), False)

    def _emit_call(self, expr: ir.Call, ctx: _Ctx, dest) -> _Val:
        name = expr.func
        attr = _INTRINSIC_ATTR.get(name)
        if attr is not None:
            return _Val(f"_G.{attr}", name in ir.VARYING_INTRINSICS)
        args = [self.emit_expr(a, ctx) for a in expr.args]
        array = any(a.array for a in args)
        joined = ", ".join(a.src for a in args)
        builtin = intrinsics.get(name)
        if builtin is not None:
            func = self.builtin_fn(builtin)
            dtype = expr.dtype.np_dtype
            if all(self._static_dtype(a) == dtype for a in expr.args) and _ufunc_keeps(
                builtin.evaluate, dtype, len(args)
            ):
                # A ufunc over operands that provably carry the result
                # dtype yields it: the result cast is the identity.
                self.info["cast_elisions"] += 1
                if array:
                    return self._place(
                        dtype, args, dest, lambda out: _ufunc_call(func, args, out)
                    )
                return self._fresh(args, f"{func}({joined})", False)
            return self._fresh(
                args,
                f"rt.cast_result({func}({joined}), {self.np_dtype(expr.dtype)})",
                array,
            )
        if self._device(name) is not None:
            mask = ctx.mask if ctx.mask is not None else "None"
            retm = "_retm" if ctx.dynamic else "None"
            dtypes = tuple(self._static_dtype(a) for a in expr.args)
            arrays = tuple(a.array for a in args)
            self._site_facts.setdefault(name, []).append((dtypes, arrays))

            def call(out):
                return f"_dev_{name}({joined}, {mask}, {retm}, _T, _W, {out})"

            dtype = self._call_dtype(name, dtypes)
            if dtype is not None and self._call_array(name, arrays):
                # The callee returns into the slot it is handed -- never one
                # of its operands': it reads them until it returns.
                return self._place(dtype, args, dest, call, inplace=False)
            return self._fresh(args, call(None), False)
        raise CodegenError(f"{self.fname}: call to unknown function {name!r}")


def _ufunc_call(func: str, operands, out: Optional[str]) -> str:
    joined = ", ".join(val.src for val in operands)
    return f"{func}({joined}, out={out})" if out else f"({func}({joined}))"


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


def lower_kernel(
    fn: ir.Function, module: ir.Module, bounds_check: bool = True
) -> Tuple[str, Dict[str, object], str, Dict[str, int]]:
    """Lower ``fn`` (and its reachable device functions) to source.

    Returns ``(source, exec_globals, entry_name, info)``; the caller
    compiles the source with these globals and fetches ``entry_name`` from
    the namespace.  ``info`` counts what the specializations accomplished
    (``cast_elisions``/``planned_sites``, and the workspace's
    ``slots``/``merges_elided``/``reused_exprs``).
    """
    if fn.kind != "kernel":
        raise CodegenError(f"{fn.name} is a device function, not a kernel")
    emitter = _Emitter(module, bounds_check)
    # Callers first: a device function is emitted knowing what every call
    # site passes it.
    order = emitter.device_order(fn)
    entry = emitter.emit_function(fn)
    for dev in order:
        emitter.emit_function(dev)
    return emitter.finish(), emitter.globals, entry, emitter.info
