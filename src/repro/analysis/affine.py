"""Affine array-access analysis for stencil/partition detection (§3.2.2).

The paper detects stencil and partition patterns by finding "a constant
number of affine accesses to the same array" with indices of the shape
``(f + i) * w + (g + j)`` where ``f``, ``g`` and ``w`` are loop-invariant
and ``i``, ``j`` are hand-unrolled constants or induction variables of
constant-trip loops.

We recover that structure by lowering every load index to a *polynomial*
over the kernel's scalar symbols (locals that cannot be inlined stay
opaque, e.g. ``x = gid % w`` contributes the symbol ``x``), after

* inlining single-assignment locals (copy propagation), and
* unrolling enclosing constant-trip loops by substituting each induction
  value (bounded by :data:`MAX_UNROLL` combined iterations).

Two accesses belong to the same tile iff their polynomials differ only by
a constant and/or a constant multiple of a single *stride* symbol — the
tile width ``w``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

from ..kernel import ir
from ..kernel.visitors import walk, walk_statements

#: Upper bound on combined unrolled iterations considered per access.
MAX_UNROLL = 1024

#: Monomial: sorted tuple of symbol names (with multiplicity); () = constant.
Monomial = Tuple[str, ...]


@dataclass(frozen=True)
class Poly:
    """An integer polynomial over kernel scalars: {monomial: coefficient}."""

    terms: Tuple[Tuple[Monomial, int], ...]

    @staticmethod
    def constant(value: int) -> "Poly":
        return Poly(((("",) * 0, int(value)),)) if value else Poly(())

    @staticmethod
    def symbol(name: str) -> "Poly":
        return Poly((((name,), 1),))

    def as_dict(self) -> Dict[Monomial, int]:
        return dict(self.terms)

    @staticmethod
    def _from_dict(d: Dict[Monomial, int]) -> "Poly":
        items = tuple(sorted((m, c) for m, c in d.items() if c != 0))
        return Poly(items)

    def __add__(self, other: "Poly") -> "Poly":
        d = self.as_dict()
        for m, c in other.terms:
            d[m] = d.get(m, 0) + c
        return Poly._from_dict(d)

    def __sub__(self, other: "Poly") -> "Poly":
        d = self.as_dict()
        for m, c in other.terms:
            d[m] = d.get(m, 0) - c
        return Poly._from_dict(d)

    def __neg__(self) -> "Poly":
        return Poly(tuple((m, -c) for m, c in self.terms))

    def __mul__(self, other: "Poly") -> "Poly":
        d: Dict[Monomial, int] = {}
        for m1, c1 in self.terms:
            for m2, c2 in other.terms:
                m = tuple(sorted(m1 + m2))
                d[m] = d.get(m, 0) + c1 * c2
        return Poly._from_dict(d)

    @property
    def const(self) -> int:
        for m, c in self.terms:
            if m == ():
                return c
        return 0

    @property
    def nonconst_terms(self) -> Tuple[Tuple[Monomial, int], ...]:
        return tuple((m, c) for m, c in self.terms if m != ())

    def is_constant(self) -> bool:
        return not self.nonconst_terms

    def subs(self, values: Dict[str, "Poly"]) -> "Poly":
        """This polynomial with each symbol named in ``values`` replaced."""
        out = Poly(())
        for mono, coeff in self.terms:
            term = Poly.constant(coeff)
            for name in mono:
                term = term * values.get(name, Poly.symbol(name))
            out = out + term
        return out

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        if not self.terms:
            return "0"
        parts = []
        for m, c in self.terms:
            parts.append(str(c) if m == () else f"{c}*{'*'.join(m)}")
        return " + ".join(parts)


@dataclass
class ArrayAccesses:
    """All analysable load index polynomials for one array in one kernel."""

    array: str
    forms: List[Poly] = field(default_factory=list)
    #: Loads whose index could not be expressed as a polynomial.
    opaque_loads: int = 0


def single_assignment_defs(fn: ir.Function) -> Dict[str, ir.Expr]:
    """Locals assigned exactly once in the whole function -> their RHS."""
    counts: Dict[str, int] = {}
    rhs: Dict[str, ir.Expr] = {}
    for stmt in walk_statements(fn.body):
        if isinstance(stmt, ir.Assign):
            counts[stmt.target] = counts.get(stmt.target, 0) + 1
            rhs[stmt.target] = stmt.value
        elif isinstance(stmt, ir.For):
            counts[stmt.var] = counts.get(stmt.var, 0) + 2  # never inline
    return {name: rhs[name] for name, n in counts.items() if n == 1}


def to_poly(
    expr: ir.Expr,
    defs: Dict[str, ir.Expr],
    bindings: Dict[str, int],
    depth: int = 0,
) -> Optional[Poly]:
    """Lower an integer expression to a polynomial, or None if non-affine
    structure (division, modulo, loads, calls...) appears *above* the
    symbol level.  Non-affine sub-expressions reached through a variable
    stay opaque as that variable's symbol.  Any sub-expression that is
    not integer-typed is refused too: a float constant would read as its
    truncation, a float cast as the identity."""
    if depth > 32 or not expr.dtype.is_integer:
        return None
    if isinstance(expr, ir.Const):
        return Poly.constant(int(expr.value))
    if isinstance(expr, ir.Var):
        if expr.name in bindings:
            return Poly.constant(bindings[expr.name])
        if expr.name in defs:
            inlined = to_poly(defs[expr.name], defs, bindings, depth + 1)
            if inlined is not None:
                return inlined
        return Poly.symbol(expr.name)
    if isinstance(expr, ir.Cast):
        return to_poly(expr.operand, defs, bindings, depth + 1)
    if isinstance(expr, ir.UnOp) and expr.op == "neg":
        inner = to_poly(expr.operand, defs, bindings, depth + 1)
        return None if inner is None else -inner
    if isinstance(expr, ir.BinOp):
        left = to_poly(expr.left, defs, bindings, depth + 1)
        right = to_poly(expr.right, defs, bindings, depth + 1)
        if left is None or right is None:
            return None
        if expr.op == "add":
            return left + right
        if expr.op == "sub":
            return left - right
        if expr.op == "mul":
            return left * right
        if expr.op == "shl" and right.is_constant() and right.const >= 0:
            return left * Poly.constant(1 << right.const)
        return None
    if isinstance(expr, ir.Call) and expr.func in ir.THREAD_INTRINSICS:
        return Poly.symbol(f"%{expr.func}")
    return None


def _loop_values(loop: ir.For) -> Optional[List[int]]:
    if (
        isinstance(loop.start, ir.Const)
        and isinstance(loop.stop, ir.Const)
        and isinstance(loop.step, ir.Const)
        and int(loop.step.value) != 0
    ):
        values = list(
            range(int(loop.start.value), int(loop.stop.value), int(loop.step.value))
        )
        return values or None
    return None


def walk_unrolled(
    body: List[ir.Stmt],
    visit: Callable[[ir.Stmt, Dict[str, int]], None],
    bindings: Optional[Dict[str, int]] = None,
) -> None:
    """Call ``visit(stmt, bindings)`` for every statement of ``body`` and of
    the arms and loop bodies within it, once per iteration of each
    enclosing constant-trip loop of at most :data:`MAX_UNROLL` iterations
    (its variable bound in ``bindings``)."""
    bindings = bindings or {}
    for stmt in body:
        visit(stmt, bindings)
        if isinstance(stmt, ir.For):
            values = _loop_values(stmt)
            if values is not None and len(values) <= MAX_UNROLL:
                for v in values:
                    walk_unrolled(stmt.body, visit, {**bindings, stmt.var: v})
            else:
                walk_unrolled(stmt.body, visit, bindings)
        elif isinstance(stmt, ir.If):
            walk_unrolled(stmt.then_body, visit, bindings)
            walk_unrolled(stmt.else_body, visit, bindings)


def loads_in(stmt: ir.Stmt) -> List[ir.Load]:
    """The loads ``stmt`` evaluates itself: in an ``if`` its condition, in a
    loop its bounds, never those of the statements nested in it."""
    if isinstance(stmt, ir.If):
        exprs = [stmt.cond]
    elif isinstance(stmt, ir.For):
        exprs = [stmt.start, stmt.stop, stmt.step]
    elif isinstance(stmt, (ir.Store, ir.AtomicRMW)):
        exprs = [stmt.index, stmt.value]
    elif isinstance(stmt, ir.Assign) or (
        isinstance(stmt, ir.Return) and stmt.value is not None
    ):
        exprs = [stmt.value]
    else:
        exprs = []
    return [node for e in exprs for node in walk(e) if isinstance(node, ir.Load)]


def extract_load_polynomials(fn: ir.Function) -> Dict[str, ArrayAccesses]:
    """Map each array read by ``fn`` to the polynomials of its load indices,
    with constant-trip loops unrolled and single-assignment locals inlined.
    (Loads in ``if`` conditions and loop bounds are not tile accesses.)"""
    defs = single_assignment_defs(fn)
    out: Dict[str, ArrayAccesses] = {}

    def visit(stmt: ir.Stmt, bindings: Dict[str, int]) -> None:
        if isinstance(stmt, (ir.If, ir.For)):
            return
        for node in loads_in(stmt):
            acc = out.setdefault(node.array.name, ArrayAccesses(node.array.name))
            poly = to_poly(node.index, defs, bindings)
            if poly is None:
                acc.opaque_loads += 1
            else:
                acc.forms.append(poly)

    walk_unrolled(fn.body, visit)
    return out


@dataclass
class TileGeometry:
    """The tile a set of same-array accesses covers.

    ``offsets`` is the list of (row, col) offsets relative to the tile's
    top-left access; ``width_symbol`` is the stride monomial separating
    rows (None for 1-D tiles); ``rows``/``cols`` are the tile dimensions.
    """

    array: str
    offsets: List[Tuple[int, int]]
    rows: int
    cols: int
    width_symbol: Optional[Monomial]
    #: literal row pitch when the width is a compile-time constant
    pitch: Optional[int] = None
    #: polynomial of the tile's (0, 0) element (top-left access)
    base: Optional[Poly] = None

    @property
    def size(self) -> int:
        return len(self.offsets)

    @property
    def dims(self) -> int:
        return 1 if self.rows == 1 else 2


def group_tile_forms(forms: List[Poly]) -> List[List[Poly]]:
    """Cluster polynomials into tile groups: two forms belong together iff
    their difference is ``c * W + d`` for one stride monomial ``W`` shared
    by the whole group.  Accesses from other program regions (e.g. the
    pass-through load in a border branch) land in their own group instead
    of poisoning the tile."""
    groups: List[dict] = []  # {"rep": Poly, "width": Monomial|None, "forms": []}
    for form in forms:
        placed = False
        for g in groups:
            diff = form - g["rep"]
            extra = diff.nonconst_terms
            if not extra:
                g["forms"].append(form)
                placed = True
                break
            if len(extra) == 1:
                mono, _coeff = extra[0]
                if g["width"] is None or g["width"] == mono:
                    g["width"] = mono
                    g["forms"].append(form)
                    placed = True
                    break
        if not placed:
            groups.append({"rep": form, "width": None, "forms": [form]})
    return [g["forms"] for g in sorted(groups, key=lambda g: -len(g["forms"]))]


def infer_tile(array: str, forms: List[Poly]) -> Optional[TileGeometry]:
    """Infer tile geometry from load polynomials of one array.

    The forms are first clustered (:func:`group_tile_forms`) and the
    largest cluster is interpreted as the tile; within it, all pairwise
    differences are ``dr * W + dc`` for a single stride monomial ``W``
    (symbolic width) plus integer constants.  Widths that are literal
    constants fold into ``dc`` and are split heuristically by
    :func:`_split_constant_grid`.
    """
    if len(forms) < 2:
        return None
    group = group_tile_forms(forms)[0]
    if len(group) < 2:
        return None
    anchor = group[0]
    row_col: List[Tuple[int, int]] = []
    width: Optional[Monomial] = None
    for form in group:
        diff = form - anchor
        dr, dc = 0, diff.const
        extra = diff.nonconst_terms
        if len(extra) == 1:
            mono, coeff = extra[0]
            if width is None:
                width = mono
            elif mono != width:  # pragma: no cover - excluded by grouping
                return None
            dr = coeff
        row_col.append((dr, dc))
    if width is None:
        return _split_constant_grid(array, group, [dc for _dr, dc in row_col])
    rows_set = sorted({r for r, _c in row_col})
    cols_set = sorted({c for _r, c in row_col})
    min_r, min_c = rows_set[0], cols_set[0]
    # The (0, 0) corner of the tile, which need not be an actual access
    # (cross-shaped tiles): anchor + min_r * W + min_c.
    base = (
        anchor
        + Poly._from_dict({width: min_r})
        + Poly.constant(min_c)
    )
    offsets = sorted((r - min_r, c - min_c) for r, c in set(row_col))
    return TileGeometry(
        array=array,
        offsets=offsets,
        rows=rows_set[-1] - min_r + 1,
        cols=cols_set[-1] - min_c + 1,
        width_symbol=width,
        base=base,
    )


def _split_constant_grid(
    array: str, group: List[Poly], deltas: List[int]
) -> Optional[TileGeometry]:
    """Handle tiles whose width is a literal: offsets like
    {-w-1..-w+1, -1..1, w-1..w+1} for constant w.

    Heuristic: candidate widths are gaps much larger than the small
    intra-row deltas; a candidate is accepted if offsets split into rows
    of identical column patterns.
    """
    uniq = sorted(set(deltas))
    lo = uniq[0]
    base = min(group, key=lambda f: f.const)
    rel = [d - lo for d in uniq]
    span = rel[-1]
    if span == 0:
        return None
    gaps = [b - a for a, b in zip(rel, rel[1:])]
    small = [g for g in gaps if g > 0]
    if not small:
        return None
    if len(set(gaps)) == 1:
        # Arithmetic progression: a 1-D tile.  Unit stride reads a row;
        # stride-g reads a column with row pitch g.
        gap = gaps[0]
        n = len(rel)
        if gap == 1:
            offsets = sorted((0, d) for d in rel)
            return TileGeometry(
                array=array, offsets=offsets, rows=1, cols=n,
                width_symbol=None, base=base,
            )
        offsets = sorted((d // gap, 0) for d in rel)
        return TileGeometry(
            array=array, offsets=offsets, rows=n, cols=1, width_symbol=None,
            pitch=gap, base=base,
        )
    max_small = max(min(small), 1)
    candidates = sorted(
        {g for g in rel if g > 4 * max_small and g > 1}, reverse=False
    )
    for w in candidates:
        grid = {(d // w, d % w) for d in rel}
        rows = sorted({r for r, _c in grid})
        cols_by_row = {r: tuple(sorted(c for rr, c in grid if rr == r)) for r in rows}
        patterns = set(cols_by_row.values())
        if len(patterns) == 1 and len(rows) > 1:
            cols = patterns.pop()
            offsets = sorted((r - rows[0], c - cols[0]) for r, c in grid)
            return TileGeometry(
                array=array,
                offsets=offsets,
                rows=rows[-1] - rows[0] + 1,
                cols=cols[-1] - cols[0] + 1,
                width_symbol=None,
                pitch=w,
                base=base,
            )
    # 1-D tile: contiguous-ish constant offsets.
    offsets = sorted((0, d) for d in rel)
    return TileGeometry(
        array=array, offsets=offsets, rows=1, cols=span + 1,
        width_symbol=None, base=base,
    )
