"""Stable fingerprints of IR functions for the compile cache.

The printer's canonical text is not enough to key compiled code: it elides
the dtype of intermediate expressions, and two kernels that print alike
but promote differently must not share a compiled body.  This serializer
walks the tree emitting every field that affects lowering — node kinds,
operator names, dtypes, constant values, parameter and array types — for
the kernel *and* every device function it can reach.
"""

from __future__ import annotations

import hashlib
from typing import List, Set

from .._state import Store
from ..kernel import intrinsics, ir

# Identity-keyed memo: IR trees are never mutated after construction
# (transforms build new Function objects), so one (fn, module) pair always
# hashes to the same digest.  An entry pins the pair, which keeps their ids
# from being reused while it is live.
_MEMO = Store("codegen.fingerprint", cap=512)


def fingerprint_kernel(fn: ir.Function, module: ir.Module) -> str:
    """Hex digest over ``fn`` plus its transitively called device functions."""
    key = (id(fn), id(module))
    hit = _MEMO.get(key)
    if hit is not None:
        return hit
    parts: List[str] = []
    for function in [fn] + reachable_device_functions(fn, module):
        _serialize_function(function, parts)
    payload = "\x1f".join(parts).encode("utf-8")
    digest = hashlib.blake2b(payload, digest_size=20).hexdigest()
    return _MEMO.put(key, digest, pins=(fn, module))


def reachable_device_functions(fn: ir.Function, module: ir.Module) -> List[ir.Function]:
    """Device functions reachable from ``fn``, in deterministic call order."""
    seen: Set[str] = set()
    order: List[ir.Function] = []

    def visit(function: ir.Function) -> None:
        for node in ir_walk(function.body):
            if not isinstance(node, ir.Call):
                continue
            name = node.func
            if name in seen or intrinsics.is_builtin(name):
                continue
            if name in module and module[name].kind == "device":
                seen.add(name)
                callee = module[name]
                order.append(callee)
                visit(callee)

    visit(fn)
    return order


def ir_walk(body):
    """Yield every node in a statement list, depth-first."""
    from ..kernel.visitors import walk

    for stmt in body:
        yield from walk(stmt)


def _serialize_function(fn: ir.Function, out: List[str]) -> None:
    out.append(f"fn:{fn.name}:{fn.kind}")
    meta = getattr(fn, "approx", None)
    if meta is not None:
        # The tag keys identity, not the lowering: two IR-identical kernels
        # with different tags lower alike, but keep the cache keys,
        # variant identities and registry points they were stored under.
        out.append(f"approx:{meta.transform}:{meta.knobs!r}:{meta.tables!r}")
    if fn.return_type is not None:
        out.append(f"ret:{fn.return_type.dtype.name}")
    for p in fn.params:
        if p.is_array:
            out.append(f"p:{p.name}:{p.type.dtype.name}[{p.type.space}]")
        else:
            out.append(f"p:{p.name}:{p.type.dtype.name}")
    _serialize_body(fn.body, out)


def _serialize_body(body, out: List[str]) -> None:
    out.append("{")
    for stmt in body:
        _serialize_stmt(stmt, out)
    out.append("}")


def _serialize_stmt(stmt, out: List[str]) -> None:
    if isinstance(stmt, ir.Assign):
        out.append(f"=:{stmt.target}")
        _serialize_expr(stmt.value, out)
    elif isinstance(stmt, ir.Store):
        out.append(f"st:{stmt.array.name}:{stmt.array.type.dtype.name}"
                   f"[{stmt.array.type.space}]")
        _serialize_expr(stmt.index, out)
        _serialize_expr(stmt.value, out)
    elif isinstance(stmt, ir.AtomicRMW):
        out.append(f"at:{stmt.op}:{stmt.array.name}:{stmt.array.type.dtype.name}"
                   f"[{stmt.array.type.space}]")
        _serialize_expr(stmt.index, out)
        _serialize_expr(stmt.value, out)
    elif isinstance(stmt, ir.If):
        out.append("if")
        _serialize_expr(stmt.cond, out)
        _serialize_body(stmt.then_body, out)
        _serialize_body(stmt.else_body, out)
    elif isinstance(stmt, ir.For):
        out.append(f"for:{stmt.var}")
        _serialize_expr(stmt.start, out)
        _serialize_expr(stmt.stop, out)
        _serialize_expr(stmt.step, out)
        _serialize_body(stmt.body, out)
    elif isinstance(stmt, ir.Return):
        out.append("ret")
        if stmt.value is not None:
            _serialize_expr(stmt.value, out)
    elif isinstance(stmt, ir.Barrier):
        out.append("bar")
    elif isinstance(stmt, ir.SharedAlloc):
        out.append(f"sh:{stmt.name}:{stmt.dtype.name}:{tuple(stmt.shape)!r}")
    else:
        out.append(f"stmt:{type(stmt).__name__}")


def _serialize_expr(expr, out: List[str]) -> None:
    if isinstance(expr, ir.Const):
        out.append(f"c:{expr.dtype.name}:{expr.value!r}")
    elif isinstance(expr, ir.Var):
        out.append(f"v:{expr.name}:{expr.dtype.name}")
    elif isinstance(expr, ir.BinOp):
        out.append(f"b:{expr.op}:{expr.dtype.name}")
        _serialize_expr(expr.left, out)
        _serialize_expr(expr.right, out)
    elif isinstance(expr, ir.UnOp):
        out.append(f"u:{expr.op}:{expr.dtype.name}")
        _serialize_expr(expr.operand, out)
    elif isinstance(expr, ir.Cast):
        out.append(f"cast:{expr.dtype.name}")
        _serialize_expr(expr.operand, out)
    elif isinstance(expr, ir.Select):
        out.append(f"sel:{expr.dtype.name}")
        _serialize_expr(expr.cond, out)
        _serialize_expr(expr.if_true, out)
        _serialize_expr(expr.if_false, out)
    elif isinstance(expr, ir.Load):
        out.append(f"ld:{expr.array.name}:{expr.array.type.dtype.name}"
                   f"[{expr.array.type.space}]")
        _serialize_expr(expr.index, out)
    elif isinstance(expr, ir.Call):
        out.append(f"call:{expr.func}:{expr.dtype.name}")
        for arg in expr.args:
            _serialize_expr(arg, out)
    elif isinstance(expr, ir.ArrayRef):
        out.append(f"a:{expr.name}:{expr.type.dtype.name}[{expr.type.space}]")
    else:
        out.append(f"expr:{type(expr).__name__}")
