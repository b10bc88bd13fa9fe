"""Safety instrumentation for approximate kernels (paper §5).

Approximation can create failure modes the exact program never had: a
memoized or perforated value that reaches a divisor may be zero where the
exact value was not, raising a divide-by-zero (or producing an Inf that
poisons downstream arithmetic).  The paper sketches the mitigation —
"instrument the code to skip this calculation where the approximated
divisor is zero" — and leaves it as future work; this module implements
it.

:func:`guard_divisions` rewrites every division/modulo whose divisor is
not a provably non-zero constant, in a kernel and the device functions it
calls, into a guarded select::

    a / b        ->        (b != 0) ? a / b : fallback

The fallback is 0 of the result dtype (the "skip" semantics: the
contribution vanishes instead of exploding).  The pass is idempotent and
is applied by the compiler to every generated approximate kernel when
``ParaproxConfig.guard_divisions`` is set.
"""

from __future__ import annotations

from typing import Tuple, Union

from ..codegen.fingerprint import reachable_device_functions
from ..kernel import ir
from ..kernel.frontend import KernelFn
from ..kernel.visitors import Transformer, clone_module


def _provably_nonzero(expr: ir.Expr) -> bool:
    if isinstance(expr, ir.Const):
        return expr.value != 0
    if isinstance(expr, ir.Cast):
        # float->int casts can truncate to zero; float widening cannot.
        if expr.dtype.is_integer and expr.operand.dtype.is_float:
            return False
        return _provably_nonzero(expr.operand)
    if isinstance(expr, ir.Call) and expr.func == "exp":
        return True  # e^x > 0 for all finite x
    if isinstance(expr, ir.BinOp) and expr.op == "add":
        # c + exp(...)-style positive sums; keep it minimal and sound:
        return (
            isinstance(expr.left, ir.Const)
            and expr.left.value > 0
            and _provably_nonnegative(expr.right)
        ) or (
            isinstance(expr.right, ir.Const)
            and expr.right.value > 0
            and _provably_nonnegative(expr.left)
        )
    return False


def _provably_nonnegative(expr: ir.Expr) -> bool:
    if isinstance(expr, ir.Const):
        return expr.value >= 0
    if isinstance(expr, ir.Call) and expr.func in ("exp", "fabs", "sqrt"):
        return True
    if isinstance(expr, ir.BinOp) and expr.op == "mul":
        # x * x
        from ..kernel.printer import print_expr

        return print_expr(expr.left) == print_expr(expr.right)
    return False


class _GuardDivisions(Transformer):
    def __init__(self) -> None:
        self.guarded = 0

    def visit_BinOp(self, node: ir.BinOp):
        if node.op not in ("div", "mod"):
            return node
        if _provably_nonzero(node.right):
            return node
        if self._already_guarded(node):
            return node
        self.guarded += 1
        cond = ir.binop("ne", node.right, ir.const_like(0, node.right.dtype))
        fallback = ir.const_like(0, node.dtype)
        return ir.Select(cond, node, fallback, node.dtype)

    @staticmethod
    def _already_guarded(node: ir.BinOp) -> bool:
        # visit hooks see rebuilt children; a Select wrapping this exact
        # division would have been built by a previous pass — detect the
        # idempotence case at the parent level instead.
        return False

    def visit_Select(self, node: ir.Select):
        # Idempotence: a guard of the shape (b != 0) ? a/b : 0 wrapping a
        # division must not be re-wrapped; strip double guards.
        inner = node.if_true
        if (
            isinstance(inner, ir.Select)
            and isinstance(inner.if_true, ir.BinOp)
            and inner.if_true.op in ("div", "mod")
            and _same_guard(node.cond, inner.cond)
        ):
            return inner
        return node


def _same_guard(a: ir.Expr, b: ir.Expr) -> bool:
    from ..kernel.printer import print_expr

    try:
        return print_expr(a) == print_expr(b)
    except TypeError:  # pragma: no cover - defensive
        return False


def guard_divisions(
    target: Union[KernelFn, ir.Module], kernel_name: str = None
) -> Tuple[ir.Module, int]:
    """Return (new module, number of guards inserted) with every unsafe
    division guarded in ``kernel_name`` and the device functions it
    reaches.  ``kernel_name`` defaults to a :class:`KernelFn`'s own name
    and is required with a bare module: guards in functions the kernel
    never calls would never run."""
    if kernel_name is None and not isinstance(target, KernelFn):
        raise TypeError("guard_divisions of a module needs its kernel_name")
    module = target.module if isinstance(target, KernelFn) else target
    new_module = clone_module(module)
    kernel = new_module[kernel_name or target.name]
    pass_ = _GuardDivisions()
    for fn in [kernel] + reachable_device_functions(kernel, new_module):
        rebuilt = pass_.transform_function(fn)
        # Guarding preserves the approximation semantics, so the approx
        # tag survives this pass (transform_function drops it).
        meta = getattr(fn, "approx", None)
        if meta is not None:
            rebuilt.approx = meta
        new_module.functions[fn.name] = rebuilt
    return new_module, pass_.guarded
