"""One index fact per function: where its global loads and stores land.

The pattern passes read array indices as polynomials over kernel scalars
(:mod:`repro.analysis.affine`, §3.2.2).  :func:`index_fact` reads every
*global* load and store index of one function the same way, so that the
result holds for a whole launch:

* ``global_id`` is expanded to ``block_id * block_dim * block_dim_y +
  thread_id``, its definition on every grid (``thread_id`` counts all
  ``block_dim * block_dim_y`` threads of a block);
* the only symbols an index may keep are thread intrinsics (``%name``)
  and *launch-invariant* names, which hold one value for every thread of
  one launch: scalar params the body never assigns, and locals assigned
  once, outside any loop, from grid-uniform values.  Any other symbol (an
  accumulator, a loop variable the walk did not unroll, ``x = gid % w``)
  leaves the index unanalysable (None);
* the arithmetic must be integer throughout, and is read as exact
  integers: the fact does not model wrap-around.

A site inside a constant-trip loop is read once per iteration
(:func:`~repro.analysis.affine.walk_unrolled`).  The fact also carries
the grid-uniform names loop bounds are checked against.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, List, Optional, Set

from .._state import Store
from ..codegen.fingerprint import fingerprint_kernel
from ..kernel import intrinsics, ir
from ..kernel.visitors import walk, walk_statements
from .affine import Poly, loads_in, single_assignment_defs, to_poly, walk_unrolled

#: ``global_id`` in terms of the block and the thread within it.
_GLOBAL_ID = (
    Poly.symbol("%block_id") * Poly.symbol("%block_dim") * Poly.symbol("%block_dim_y")
    + Poly.symbol("%thread_id")
)


@dataclass(frozen=True)
class IndexFact:
    """Every global load and store index of one function.

    Attributes:
        loads: global array -> the index of each load site, in program
            order (None: not analysable).
        stores: the same for store sites.
        uniform: names with one value across every thread of any grid
            wherever they are read: scalar params and locals all of whose
            assignments are grid-uniform, and loop variables.
    """

    loads: Dict[str, List[Optional[Poly]]]
    stores: Dict[str, List[Optional[Poly]]]
    uniform: FrozenSet[str]


def grid_uniform(expr: ir.Expr, uniform: FrozenSet[str]) -> bool:
    """Whether ``expr`` has one value across every thread of any grid: it
    reads no memory, no varying intrinsic, no device function and no name
    outside ``uniform``."""
    for node in walk(expr):
        if isinstance(node, ir.Load) or (
            isinstance(node, ir.Var) and node.name not in uniform
        ):
            return False
        if isinstance(node, ir.Call) and (
            node.func in ir.VARYING_INTRINSICS or not intrinsics.is_builtin(node.func)
        ):
            return False
    return True


def build_index_fact(fn: ir.Function) -> IndexFact:
    """The uncached core of :func:`index_fact`."""
    assigns: Dict[str, List[ir.Expr]] = {}
    loop_vars: Set[str] = set()
    in_loop: Set[str] = set()
    for stmt in walk_statements(fn.body):
        if isinstance(stmt, ir.Assign):
            assigns.setdefault(stmt.target, []).append(stmt.value)
        elif isinstance(stmt, ir.For):
            loop_vars.add(stmt.var)
            in_loop.update(
                s.target for s in walk_statements(stmt.body) if isinstance(s, ir.Assign)
            )
    # A scalar param is uniform as a local is: iff every assignment to it
    # is.  Loop variables are, given uniform bounds (checked by the caller).
    scalars = {p.name for p in fn.params if not p.is_array}
    uniform = (scalars | loop_vars) - set(assigns)
    changed = True
    while changed:
        changed = False
        for name, values in assigns.items():
            if name not in uniform and all(grid_uniform(v, uniform) for v in values):
                uniform.add(name)
                changed = True
    # A param's value before an assignment is not the assigned one: params
    # are never inlined, and an assigned one is not invariant.
    defs = {k: v for k, v in single_assignment_defs(fn).items() if k not in scalars}
    invariant = (scalars - set(assigns) - loop_vars) | {
        name for name in defs if name in uniform and name not in in_loop
    }
    arrays = {p.name for p in fn.params if p.is_array}
    loads: Dict[str, List[Optional[Poly]]] = {}
    stores: Dict[str, List[Optional[Poly]]] = {}

    def form(index: ir.Expr, bindings: Dict[str, int]) -> Optional[Poly]:
        poly = to_poly(index, defs, bindings)
        if poly is None or any(
            name[0] != "%" and name not in invariant
            for mono, _coeff in poly.terms
            for name in mono
        ):
            return None
        return poly.subs({"%global_id": _GLOBAL_ID})

    def visit(stmt: ir.Stmt, bindings: Dict[str, int]) -> None:
        for load in loads_in(stmt):
            if load.array.name in arrays:
                loads.setdefault(load.array.name, []).append(form(load.index, bindings))
        if isinstance(stmt, ir.Store) and stmt.array.name in arrays:
            stores.setdefault(stmt.array.name, []).append(form(stmt.index, bindings))

    walk_unrolled(fn.body, visit)
    return IndexFact(loads, stores, frozenset(uniform))


_FACTS = Store("analysis.index_facts", cap=512)


def index_fact(
    fn: ir.Function, module: ir.Module, fingerprint: Optional[str] = None
) -> IndexFact:
    """The index fact of ``fn``, built once per kernel fingerprint."""
    fp = fingerprint if fingerprint is not None else fingerprint_kernel(fn, module)
    fact = _FACTS.get(fp)
    if fact is None:
        fact = _FACTS.put(fp, build_index_fact(fn))
    return fact
