"""Compile-time IR optimizations applied by the lowering to every kernel.

The approximation transforms bake their knob values into the IR as
literals: quantization scales, clamp limits, shifted pack widths, tap
offsets and perforation strides are all :class:`~repro.kernel.ir.Const`
nodes by the time a variant reaches the code generator.  That makes three
optimizations both possible and — because every rule below replays the
*exact* runtime semantics at compile time — bit-exact:

* **Constant folding** (:class:`_Folder`): any arithmetic BinOp, UnOp or
  Cast over all-constant operands is evaluated with the same NumPy
  helpers the generated code would call (``np.add`` + ``cast_result``,
  ``c_divide_int``, ``cast_value``...), so the folded literal is the
  byte the runtime would have produced.
* **Integer add-chain reassociation**: for one integer dtype, ``add`` and
  ``sub`` wrap modulo 2**bits (``cast_result`` truncates every
  intermediate), and modular addition is associative and commutative —
  so constant terms scattered through an index polynomial (unrolled tap
  offsets, stencil redirect deltas) collapse into a single literal.
  Floats never reassociate: float addition is not associative.
* **Interval analysis** (:func:`compute_intervals`): conservative value
  ranges for single-assignment locals, driven by the clamp idioms the
  memoization rewrite emits (``imin``/``imax`` chains, shift-or address
  packing).  The emitter uses a proven-in-range interval to lower a
  lookup-table load as a plain ``np.take`` gather, skipping the clamp
  and bounds check that :func:`~repro.codegen.runtime.load_global` pays.

Nothing here is approximate: every rewrite preserves the interpreter's
bit-exact semantics, which the ``exact`` and ``variant`` contracts
re-verify per kernel (``python -m repro.conformance``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np

from ..kernel import ir
from ..kernel.visitors import Transformer, walk_statements
from . import runtime as rt

#: Arithmetic BinOps foldable with plain ufuncs (+ cast_result).
_FOLD_UFUNCS = {
    "add": np.add,
    "sub": np.subtract,
    "mul": np.multiply,
    "and": np.bitwise_and,
    "or": np.bitwise_or,
    "xor": np.bitwise_xor,
    "shl": np.left_shift,
    "shr": np.right_shift,
}


@dataclass
class FoldStats:
    """What the pass did to one function (surfaced in lowering outcomes)."""

    folded: int = 0  # constant subexpressions collapsed to literals
    reassociated: int = 0  # integer add chains with constants collected
    notes: List[str] = field(default_factory=list)

    @property
    def total(self) -> int:
        return self.folded + self.reassociated


def _const_np(expr: ir.Const):
    """The exact NumPy scalar the emitter would bake for this Const."""
    return expr.dtype.to_numpy().type(expr.value)


def _make_const(value, dtype) -> ir.Const:
    """Wrap a NumPy scalar back into a Const carrying a Python value that
    round-trips exactly through ``dtype.to_numpy().type(...)``."""
    if np.issubdtype(np.asarray(value).dtype, np.floating):
        py = float(value)
    elif np.issubdtype(np.asarray(value).dtype, np.bool_):
        py = bool(value)
    else:
        py = int(value)
    return ir.Const(py, dtype)


def _fold_binop(expr: ir.BinOp) -> Optional[ir.Const]:
    """Evaluate a BinOp over two Consts exactly as the runtime would."""
    a, b = _const_np(expr.left), _const_np(expr.right)
    np_dtype = expr.dtype.to_numpy()
    try:
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            if expr.op == "div":
                inner = np.divide(a, b) if expr.dtype.is_float else rt.c_divide_int(a, b)
            elif expr.op == "mod":
                inner = np.fmod(a, b) if expr.dtype.is_float else rt.c_mod_int(a, b)
            elif expr.op in _FOLD_UFUNCS:
                inner = _FOLD_UFUNCS[expr.op](a, b)
            else:
                return None  # comparisons/logic: leave to the emitter
            value = rt.cast_result(inner, np_dtype)
    except Exception:
        return None
    folded = _make_const(value, expr.dtype)
    # Paranoia: only keep folds that round-trip to the identical scalar.
    if _const_np(folded) != value and not (
        np.isnan(_const_np(folded)) and np.isnan(value)
    ):
        return None
    return folded


def _fold_unop(expr: ir.UnOp) -> Optional[ir.Const]:
    a = _const_np(expr.operand)
    try:
        with np.errstate(over="ignore"):
            if expr.op == "neg":
                value = -a
            elif expr.op == "bnot":
                value = ~a
            else:
                return None
    except Exception:
        return None
    if np.asarray(value).dtype != expr.dtype.to_numpy():
        return None
    return _make_const(value, expr.dtype)


def _fold_cast(expr: ir.Cast) -> Optional[ir.Const]:
    a = _const_np(expr.operand)
    try:
        value = rt.cast_value(a, expr.dtype.to_numpy())
    except Exception:  # pragma: no cover - defensive
        return None
    return _make_const(value, expr.dtype)


def _int_range(dtype) -> Optional[Tuple[int, int]]:
    np_dtype = dtype.to_numpy()
    if not np.issubdtype(np_dtype, np.integer):
        return None
    info = np.iinfo(np_dtype)
    return int(info.min), int(info.max)


class _Folder(Transformer):
    """Bottom-up constant folding + integer add-chain reassociation."""

    def __init__(self) -> None:
        self.stats = FoldStats()

    # -- plain folds ---------------------------------------------------------

    def visit_UnOp(self, expr: ir.UnOp):
        if isinstance(expr.operand, ir.Const):
            folded = _fold_unop(expr)
            if folded is not None:
                self.stats.folded += 1
                return folded
        return expr

    def visit_Cast(self, expr: ir.Cast):
        if isinstance(expr.operand, ir.Const):
            folded = _fold_cast(expr)
            if folded is not None:
                self.stats.folded += 1
                return folded
        return expr

    def visit_BinOp(self, expr: ir.BinOp):
        if isinstance(expr.left, ir.Const) and isinstance(expr.right, ir.Const):
            folded = _fold_binop(expr)
            if folded is not None:
                self.stats.folded += 1
                return folded
        reassoc = self._reassociate(expr)
        if reassoc is not None:
            return reassoc
        return expr

    # -- integer add-chain reassociation ------------------------------------

    def _reassociate(self, expr: ir.BinOp) -> Optional[ir.Expr]:
        """Collect the constant terms of one int add/sub chain.

        Valid because every term and every intermediate shares one integer
        dtype whose addition wraps (``cast_result`` truncates after each
        op), and modular addition is associative/commutative.  Terms keep
        their original order; only constants move (to one trailing
        literal), so non-constant evaluation order is untouched.
        """
        if expr.op not in ("add", "sub") or not expr.dtype.is_integer:
            return None
        dtype = expr.dtype
        terms: List[Tuple[ir.Expr, int]] = []  # (term, sign)
        consts: List[Tuple[ir.Const, int]] = []

        def collect(node: ir.Expr, sign: int) -> bool:
            if (
                isinstance(node, ir.BinOp)
                and node.op in ("add", "sub")
                and node.dtype is dtype
            ):
                if not collect(node.left, sign):
                    return False
                return collect(node.right, sign if node.op == "add" else -sign)
            if node.dtype is not dtype:
                return False
            if isinstance(node, ir.Const):
                consts.append((node, sign))
            else:
                terms.append((node, sign))
            return True

        if not collect(expr, 1) or len(consts) < 2 or not terms:
            return None
        # Fold the constants with the runtime's wrapping semantics.
        np_dtype = dtype.to_numpy()
        with np.errstate(over="ignore"):
            acc = np_dtype.type(0)
            for c, sign in consts:
                v = _const_np(c)
                acc = rt.cast_result(
                    np.add(acc, v) if sign > 0 else np.subtract(acc, v), np_dtype
                )
        rebuilt: Optional[ir.Expr] = None
        for term, sign in terms:
            if rebuilt is None:
                if sign > 0:
                    rebuilt = term
                else:
                    rebuilt = ir.BinOp("sub", _make_const(np_dtype.type(0), dtype), term, dtype)
            else:
                rebuilt = ir.BinOp("add" if sign > 0 else "sub", rebuilt, term, dtype)
        if int(acc) != 0:
            rebuilt = ir.BinOp("add", rebuilt, _make_const(acc, dtype), dtype)
        self.stats.reassociated += 1
        return rebuilt


def fold_function(fn: ir.Function) -> Tuple[ir.Function, FoldStats]:
    """Return a folded copy of ``fn`` and what the pass accomplished.

    The returned function drops out-of-band attributes (Transformer
    semantics); callers re-attach the approx tag when they need it."""
    folder = _Folder()
    out = folder.transform_function(fn)
    meta = getattr(fn, "approx", None)
    if meta is not None:
        out.approx = meta
    return out, folder.stats


# ---------------------------------------------------------------------------
# Interval analysis
# ---------------------------------------------------------------------------

#: The "know nothing" interval.
_TOP = (-math.inf, math.inf)


def _iv_add(a, b):
    return a[0] + b[0], a[1] + b[1]


def _iv_sub(a, b):
    return a[0] - b[1], a[1] - b[0]


def _iv_mul(a, b):
    corners = [a[0] * b[0], a[0] * b[1], a[1] * b[0], a[1] * b[1]]
    finite = [c for c in corners if not math.isnan(c)]
    if not finite:
        return _TOP
    return min(finite), max(finite)


def compute_intervals(fn: ir.Function) -> Dict[str, Tuple[float, float]]:
    """Sound value intervals for the single-assignment integer locals.

    Only locals assigned exactly once anywhere in the function are
    tracked: a single static assignment always precedes its uses in the
    linear emission order, and under predication the first write of a
    fresh local binds the full vector (the interpreter's UNSET rule), so
    the RHS interval bounds every lane.  Everything else is ``(-inf,
    +inf)``.  The transfer functions deliberately cover just the idioms
    the approximation rewrites emit — ``imin``/``imax`` clamps, shifted
    or-packing of non-negative fields, small affine arithmetic — and
    return TOP with a dtype-range check everywhere else, so a proven
    interval can never be produced by wrapping arithmetic.
    """
    counts: Dict[str, int] = {}
    for stmt in walk_statements(fn.body):
        if isinstance(stmt, ir.Assign):
            counts[stmt.target] = counts.get(stmt.target, 0) + 1
        elif isinstance(stmt, ir.For):
            # loop vars rebind per iteration; exclude them.
            counts[stmt.var] = counts.get(stmt.var, 0) + 2
    env: Dict[str, Tuple[float, float]] = {}

    def interval(expr: ir.Expr) -> Tuple[float, float]:
        if isinstance(expr, ir.Const) and expr.dtype.is_integer:
            v = int(_const_np(expr))
            return (v, v)
        if isinstance(expr, ir.Var):
            return env.get(expr.name, _TOP)
        if isinstance(expr, ir.Call):
            if expr.func in ("imin", "imax") and len(expr.args) == 2:
                a, b = interval(expr.args[0]), interval(expr.args[1])
                if expr.func == "imin":
                    return (min(a[0], b[0]), min(a[1], b[1]))
                return (max(a[0], b[0]), max(a[1], b[1]))
            return _TOP
        if isinstance(expr, ir.BinOp) and expr.dtype.is_integer:
            rng = _int_range(expr.dtype)
            a, b = interval(expr.left), interval(expr.right)
            if expr.op == "add":
                out = _iv_add(a, b)
            elif expr.op == "sub":
                out = _iv_sub(a, b)
            elif expr.op == "mul":
                out = _iv_mul(a, b)
            elif expr.op == "shl":
                # x << k with constant non-negative k and non-negative x.
                if (
                    isinstance(expr.right, ir.Const)
                    and int(expr.right.value) >= 0
                    and a[0] >= 0
                    and a[1] < math.inf
                ):
                    k = int(expr.right.value)
                    out = (int(a[0]) << k, int(a[1]) << k)
                else:
                    return _TOP
            elif expr.op == "or":
                # For non-negatives, max(x,y) <= x|y <= x+y.
                if a[0] >= 0 and b[0] >= 0:
                    out = (max(a[0], b[0]), a[1] + b[1])
                else:
                    return _TOP
            elif expr.op == "and":
                if a[0] >= 0 and b[0] >= 0:
                    out = (0, min(a[1], b[1]))
                else:
                    return _TOP
            else:
                return _TOP
            # Wrapping guard: a result that could leave the dtype's range
            # wraps at runtime, invalidating the interval arithmetic.
            if rng is None or out[0] < rng[0] or out[1] > rng[1]:
                return _TOP
            return out
        return _TOP

    for stmt in walk_statements(fn.body):
        if isinstance(stmt, ir.Assign) and counts.get(stmt.target) == 1:
            iv = interval(stmt.value)
            if iv != _TOP:
                env[stmt.target] = iv
    return env


def interval_of(
    expr: ir.Expr, env: Dict[str, Tuple[float, float]]
) -> Tuple[float, float]:
    """Interval of one expression under precomputed local intervals."""
    if isinstance(expr, ir.Var):
        return env.get(expr.name, _TOP)
    if isinstance(expr, ir.Const) and expr.dtype.is_integer:
        v = int(_const_np(expr))
        return (v, v)
    if (
        isinstance(expr, ir.BinOp)
        and expr.op == "add"
        and expr.dtype.is_integer
    ):
        rng = _int_range(expr.dtype)
        out = _iv_add(interval_of(expr.left, env), interval_of(expr.right, env))
        if rng is not None and out[0] >= rng[0] and out[1] <= rng[1]:
            return out
    return _TOP
