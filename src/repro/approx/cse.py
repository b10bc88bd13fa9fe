"""Local common-subexpression elimination for array loads.

The tile-replication transform redirects many loads to the same address;
the speedup only materialises if duplicate loads collapse into one.  This
pass hoists repeated loads *within one statement block* into a temp local,
under conservative safety conditions:

* the loaded array is never stored to (or atomically updated) anywhere in
  the kernel, and
* every variable in the load's index expression is assigned at most once
  in the whole function (so the index value cannot change between the
  first and later occurrences).
"""

from __future__ import annotations

from typing import Dict, List, Set

from ..analysis.affine import single_assignment_defs, to_poly
from ..kernel import ir
from ..kernel.printer import print_expr
from ..kernel.visitors import Transformer, walk, walk_statements


def _stored_arrays(fn: ir.Function) -> Set[str]:
    out = set()
    for stmt in walk_statements(fn.body):
        if isinstance(stmt, (ir.Store, ir.AtomicRMW)):
            out.add(stmt.array.name)
    return out


def _multiply_assigned(fn: ir.Function) -> Set[str]:
    counts: Dict[str, int] = {}
    for stmt in walk_statements(fn.body):
        if isinstance(stmt, ir.Assign):
            counts[stmt.target] = counts.get(stmt.target, 0) + 1
        elif isinstance(stmt, ir.For):
            counts[stmt.var] = counts.get(stmt.var, 0) + 2
    return {name for name, n in counts.items() if n > 1}


class _BlockCSE(Transformer):
    def __init__(
        self, unsafe_arrays: Set[str], unstable_vars: Set[str], defs=None
    ) -> None:
        self.unsafe_arrays = unsafe_arrays
        self.unstable_vars = unstable_vars
        self.defs = defs or {}
        self._table_stack: List[Dict[str, str]] = []
        self._pending: List[ir.Stmt] = []
        self._counter = 0
        self.eliminated = 0

    def transform_body(self, body):
        # Each block gets its own value table: a load hoisted in one branch
        # does not dominate statements of a sibling branch.
        self._table_stack.append({})
        out: List[ir.Stmt] = []
        for stmt in body:
            saved = self._pending
            self._pending = []
            result = self.transform_stmt(stmt)
            pending, self._pending = self._pending, saved
            out.extend(pending)
            if isinstance(result, list):
                out.extend(result)
            elif result is not None:
                out.append(result)
        self._table_stack.pop()
        return out

    def _cacheable(self, load: ir.Load) -> bool:
        if load.array.name in self.unsafe_arrays:
            return False
        for node in walk(load.index):
            if isinstance(node, ir.Var) and node.name in self.unstable_vars:
                return False
            if isinstance(node, ir.Load):
                return False
        return True

    def _key(self, load: ir.Load):
        """Two loads are duplicates when their index *polynomials* agree —
        the tile-replication rewrite produces syntactically different but
        algebraically identical indices (``(y*w+x+1) - 1`` vs ``y*w+x``)."""
        poly = to_poly(load.index, self.defs, {})
        if poly is not None:
            return (load.array.name, poly.terms)
        return (load.array.name, print_expr(load))

    def visit_Load(self, load: ir.Load):
        if not self._cacheable(load) or not self._table_stack:
            return load
        table = self._table_stack[-1]
        key = self._key(load)
        if key in table:
            self.eliminated += 1
            return ir.Var(table[key], load.dtype)
        self._counter += 1
        name = f"_cse{self._counter}"
        self._pending.append(ir.Assign(name, load))
        table[key] = name
        return ir.Var(name, load.dtype)


def eliminate_duplicate_loads(fn: ir.Function) -> ir.Function:
    """Return a copy of ``fn`` with duplicate block-local loads collapsed."""
    cse = _BlockCSE(_stored_arrays(fn), _multiply_assigned(fn), single_assignment_defs(fn))
    return cse.transform_function(fn)
