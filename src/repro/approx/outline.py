"""Pure-section outlining — the extension §5 of the paper leaves open.

Paraprox memoizes at *function* granularity: a kernel whose heavy math is
written inline (not factored into a ``__device__`` helper) has no
candidate, and the paper notes that "detection of such map or
scatter/gather sections within a function is left for future research".
This module implements that future work:

1. every scalar assignment whose right-hand side is *pure* — no memory
   accesses, no atomics, no thread intrinsics, no impure calls — is a
   slice candidate,
2. for each local ``v`` the backward slice of pure assignments feeding it
   is collected within one straight-line block,
3. a slice is outlineable when its intermediate values are used only
   inside the slice (so extraction is semantics-preserving), its external
   inputs are few enough to quantize, and its Eq.-1 cost passes the
   memoization profitability test,
4. the best slice is outlined into a synthetic ``__device__`` function and
   the kernel is rewritten to call it — after which the standard map
   detection and memoization pipeline (§3.1) applies unchanged.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set, Tuple

from ..analysis.latency import LatencyTable, cycles_needed, is_memoization_profitable
from ..errors import TransformError
from ..kernel import intrinsics, ir
from ..kernel.types import ScalarType
from ..kernel.visitors import Transformer, clone, clone_module, walk

#: Outlined functions take at most this many scalar inputs (more would
#: need an impractically large lookup table downstream).
MAX_SLICE_INPUTS = 4

#: Minimum number of assignments for a slice to be worth outlining.
MIN_SLICE_STATEMENTS = 2


def _is_pure_expr(expr: ir.Expr) -> bool:
    """No loads, thread intrinsics, or impure/unknown calls."""
    for node in walk(expr):
        if isinstance(node, (ir.Load, ir.ArrayRef)):
            return False
        if isinstance(node, ir.Call):
            if node.func in ir.THREAD_INTRINSICS:
                return False
            builtin = intrinsics.get(node.func)
            if builtin is None or intrinsics.is_impure(node.func):
                return False
    return True


def _reads(expr: ir.Expr) -> Set[str]:
    return {n.name for n in walk(expr) if isinstance(n, ir.Var)}


def _read_counts(expr: ir.Expr) -> Dict[str, int]:
    """Occurrence counts (a set would undercount ``d1 * d1``)."""
    counts: Dict[str, int] = {}
    for n in walk(expr):
        if isinstance(n, ir.Var):
            counts[n.name] = counts.get(n.name, 0) + 1
    return counts


@dataclass
class PureSlice:
    """A backward slice of pure assignments producing one scalar."""

    output: str
    #: indices into the enclosing block, in execution order
    statement_indices: List[int]
    statements: List[ir.Assign]
    #: external scalar inputs, in first-use order
    inputs: List[Tuple[str, object]]  # (name, DType)

    @property
    def size(self) -> int:
        return len(self.statements)


def _blocks_of(fn: ir.Function) -> List[List[ir.Stmt]]:
    """All straight-line statement lists of a function (bodies of the
    function, of If arms and of For loops)."""
    blocks = [fn.body]
    stack = list(fn.body)
    while stack:
        stmt = stack.pop()
        if isinstance(stmt, ir.If):
            blocks.append(stmt.then_body)
            blocks.append(stmt.else_body)
            stack.extend(stmt.then_body)
            stack.extend(stmt.else_body)
        elif isinstance(stmt, ir.For):
            blocks.append(stmt.body)
            stack.extend(stmt.body)
    return [b for b in blocks if b]


def _var_dtypes(fn: ir.Function, block: List[ir.Stmt]) -> Dict[str, object]:
    """dtype of every scalar visible in the block (params + assignments
    anywhere in the function — blocks may read outer locals)."""
    dtypes: Dict[str, object] = {
        p.name: p.type.dtype for p in fn.params if not p.is_array
    }
    from ..kernel.visitors import walk_statements

    for stmt in walk_statements(fn.body):
        if isinstance(stmt, ir.Assign):
            dtypes[stmt.target] = stmt.value.dtype
        elif isinstance(stmt, ir.For):
            from ..kernel.types import I32

            dtypes[stmt.var] = I32
    return dtypes


def find_slices(fn: ir.Function) -> List[PureSlice]:
    """All outlineable pure slices of ``fn``, best (largest) first."""
    slices: List[PureSlice] = []
    for block in _blocks_of(fn):
        dtypes = _var_dtypes(fn, block)
        pure_idx = {
            i
            for i, s in enumerate(block)
            if isinstance(s, ir.Assign) and _is_pure_expr(s.value)
        }
        defs_in_block = {
            s.target: i for i, s in enumerate(block) if isinstance(s, ir.Assign)
        }

        # Uses of each variable across the whole function (for the
        # "intermediates escape" legality check).
        use_sites: Dict[str, int] = {}
        for node in walk(fn):
            if isinstance(node, ir.Var):
                use_sites[node.name] = use_sites.get(node.name, 0) + 1

        for out_idx in sorted(pure_idx):
            output = block[out_idx].target
            # Backward slice within this block.
            slice_set = {out_idx}
            frontier = _reads(block[out_idx].value)
            inputs: List[str] = []
            ok = True
            while frontier:
                name = frontier.pop()
                def_idx = defs_in_block.get(name)
                if def_idx is not None and def_idx in pure_idx and def_idx < out_idx:
                    if def_idx not in slice_set:
                        slice_set.add(def_idx)
                        frontier |= _reads(block[def_idx].value)
                else:
                    if name not in inputs:
                        if name not in dtypes:
                            ok = False
                            break
                        inputs.append(name)
            if not ok or len(slice_set) < MIN_SLICE_STATEMENTS:
                continue
            if len(inputs) > MAX_SLICE_INPUTS:
                continue
            # Legality: intermediates must not be read outside the slice.
            uses_inside: Dict[str, int] = {}
            for i in slice_set:
                for name, count in _read_counts(block[i].value).items():
                    uses_inside[name] = uses_inside.get(name, 0) + count
            escaped = False
            for i in slice_set:
                var = block[i].target
                if var == output:
                    continue
                if use_sites.get(var, 0) != uses_inside.get(var, 0):
                    escaped = True  # read somewhere outside the slice
                # re-assignment elsewhere would also change meaning
            if escaped:
                continue
            ordered = sorted(slice_set)
            slices.append(
                PureSlice(
                    output=output,
                    statement_indices=ordered,
                    statements=[block[i] for i in ordered],
                    inputs=[(n, dtypes[n]) for n in sorted(inputs)],
                )
            )
    slices.sort(key=lambda s: -s.size)
    return slices


def outline_slice(
    module: ir.Module, kernel_name: str, chosen: PureSlice, fn_name: str
) -> Tuple[ir.Module, str]:
    """Rewrite ``kernel_name`` so ``chosen`` becomes a call to a new device
    function ``fn_name``.  Returns (new module, device function name)."""
    if fn_name in module:
        raise TransformError(f"function {fn_name!r} already exists")
    new_module = clone_module(module)
    kernel = new_module[kernel_name]

    output_dtype = chosen.statements[-1].value.dtype
    device_fn = ir.Function(
        name=fn_name,
        params=[ir.Param(n, ScalarType(dt)) for n, dt in chosen.inputs],
        body=[clone(s) for s in chosen.statements]
        + [ir.Return(ir.Var(chosen.output, output_dtype))],
        kind="device",
        return_type=ScalarType(output_dtype),
    )
    new_module.add(device_fn)

    target_texts = {_stmt_key(s) for s in chosen.statements}
    replaced = {"count": 0}

    output_key = _stmt_key(chosen.statements[-1])

    class _Outline(Transformer):
        def transform_body(self, body):
            # Only the block actually containing the slice's output is
            # rewritten; textually identical statements elsewhere survive.
            if not any(_stmt_key(s) == output_key for s in body):
                return super().transform_body(body)
            out = []
            pending_keys = set(target_texts)
            for stmt in body:
                key = _stmt_key(stmt)
                if key in pending_keys:
                    pending_keys.discard(key)
                    if key == output_key:
                        call = ir.Call(
                            fn_name,
                            [ir.Var(n, dt) for n, dt in chosen.inputs],
                            output_dtype,
                        )
                        out.append(ir.Assign(chosen.output, call))
                        replaced["count"] += 1
                    # other slice statements are dropped (moved into fn)
                    continue
                out.append(self.transform_stmt(stmt))
            return out

    rewritten = _Outline().transform_function(kernel)
    if replaced["count"] != 1:
        raise TransformError(
            f"outlining failed: output statement matched {replaced['count']} times"
        )
    del new_module.functions[kernel_name]
    new_module.add(rewritten)
    return new_module, fn_name


def _stmt_key(stmt: ir.Stmt) -> str:
    from ..kernel.printer import _print_body

    lines: List[str] = []
    _print_body([stmt], 0, lines)
    return "\n".join(lines)


def outline_best_slice(
    module: ir.Module,
    kernel_name: str,
    table: LatencyTable,
    fn_name: Optional[str] = None,
) -> Optional[Tuple[ir.Module, str]]:
    """Outline the most profitable pure slice of a kernel, or None when no
    slice passes the Eq.-1 memoization test.

    The returned module's kernel now calls a synthetic device function, so
    the standard map detector finds it as a memoization candidate.
    """
    kernel = module[kernel_name]
    fn_name = fn_name or f"{kernel_name}__section"
    best: Optional[Tuple[float, PureSlice]] = None
    for candidate in find_slices(kernel):
        probe = ir.Function(
            name="__probe",
            params=[ir.Param(n, ScalarType(dt)) for n, dt in candidate.inputs],
            body=list(candidate.statements),
            kind="device",
            return_type=ScalarType(candidate.statements[-1].value.dtype),
        )
        cost = cycles_needed(probe, table, module)
        if not is_memoization_profitable(probe, table, module):
            continue
        if best is None or cost > best[0]:
            best = (cost, candidate)
    if best is None:
        return None
    return outline_slice(module, kernel_name, best[1], fn_name)
