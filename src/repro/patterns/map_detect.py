"""Map and scatter/gather detection (paper §3.1.2).

A kernel exhibits the map (or scatter/gather) pattern when its per-thread
work is a call to a *pure* device function — one with no global state, no
thread-ID dependence and no I/O — that the Eq.-1 latency estimate says is
expensive enough to beat a lookup-table read.  The distinction between map
and scatter/gather is the shape of the surrounding memory accesses: map
kernels read and write at thread-linear indices, scatter/gather kernels at
data-dependent ones.  Both receive the same memoization optimization, so
the detector reports the access shape but candidates are shared.
"""

from __future__ import annotations

from typing import List, Optional, Set

from ..analysis.affine import single_assignment_defs
from ..analysis.latency import LatencyTable, cycles_needed, is_memoization_profitable
from ..analysis.purity import is_pure
from ..kernel import ir
from ..kernel.visitors import walk
from .base import MapMatch, Pattern


def _called_device_functions(fn: ir.Function, module: ir.Module) -> List[str]:
    seen: Set[str] = set()
    ordered: List[str] = []
    for node in walk(fn):
        if isinstance(node, ir.Call) and node.func in module:
            if module[node.func].kind == "device" and node.func not in seen:
                seen.add(node.func)
                ordered.append(node.func)
    return ordered


def _is_data_dependent_index(index: ir.Expr, defs) -> bool:
    """An index computed from loaded data marks a scatter/gather access.

    Locals are chased through their (single-assignment) definitions, so
    ``j = perm[i]; u[j]`` registers as a gather."""
    for n in walk(index):
        if isinstance(n, ir.Load):
            return True
        if isinstance(n, ir.Var) and n.name in defs:
            chased = defs.pop(n.name)  # pop guards against def cycles
            dependent = _is_data_dependent_index(chased, defs)
            defs[n.name] = chased
            if dependent:
                return True
    return False


def _outermost(names: List[str], module: ir.Module) -> List[str]:
    """Drop candidates that are (transitively) called by another candidate:
    memoizing the caller subsumes the callee (BlackScholesBody subsumes
    Cnd)."""
    called_by_candidate: Set[str] = set()
    for name in names:
        for node in walk(module[name]):
            if isinstance(node, ir.Call) and node.func in names:
                called_by_candidate.add(node.func)
    return [n for n in names if n not in called_by_candidate]


def detect_map(
    fn: ir.Function, module: ir.Module, table: LatencyTable
) -> Optional[MapMatch]:
    """Return a MapMatch if ``fn`` calls memoizable device functions."""
    if fn.kind != "kernel":
        return None
    device_fns = _called_device_functions(fn, module)
    pure = [name for name in device_fns if is_pure(module[name], module)]
    if not pure:
        return None
    profitable = [
        name for name in pure if is_memoization_profitable(module[name], table, module)
    ]
    unprofitable = [n for n in pure if n not in profitable]
    candidates = _outermost(profitable, module)
    if not candidates:
        return None
    candidates.sort(
        key=lambda n: cycles_needed(module[n], table, module), reverse=True
    )

    defs = single_assignment_defs(fn)
    scatter_gather = False
    for node in walk(fn):
        if isinstance(node, (ir.Load, ir.Store)) and _is_data_dependent_index(
            node.index, defs
        ):
            scatter_gather = True

    return MapMatch(
        pattern=Pattern.SCATTER_GATHER if scatter_gather else Pattern.MAP,
        kernel=fn.name,
        candidates=candidates,
        unprofitable=unprofitable,
    )
