"""Tile replication for stencil & partition patterns (paper §3.2).

The transform assumes adjacent input elements are similar (paper Fig 5)
and reads only a subset of each tile, replicating the subset across its
*reaching distance* neighbourhood.  Three schemes (paper Fig 6):

* **center** — one representative per (rd+1) x (rd+1) block of the tile,
  snapped towards the tile centre; for a 3x3 tile with rd=1 the centre
  element stands in for all nine.
* **row** — one row of the tile stands in for neighbouring rows within
  the reaching distance; columns are still read exactly.
* **column** — the transpose of row.

Mechanically: constant-trip loops touching the tiled array are fully
unrolled, each load's index polynomial places it at tile offset (dr, dc),
the offset is snapped to its representative, and the load's index gets the
literal delta ``(dr' - dr) * w + (dc' - dc)`` added.  A CSE pass then
collapses the now-duplicate loads, which is where the memory-traffic
savings (and the modelled speedup) come from.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from ..analysis.affine import (
    Poly,
    extract_load_polynomials,
    infer_tile,
    single_assignment_defs,
    to_poly,
)
from ..errors import TransformError
from ..kernel import ir
from ..kernel.types import I32
from ..kernel.visitors import Transformer, clone_module, walk
from ..patterns.base import StencilMatch
from .base import ApproxKernel, ApproxMeta, fresh_name, tag_approx
from .cse import eliminate_duplicate_loads
from .unroll import loop_trip_values, unroll_where

SCHEMES = ("center", "row", "column")


def snap(value: int, anchor: int, rd: int) -> int:
    """Snap an offset to its representative: the nearest multiple of
    (rd + 1) counted from the anchor (tile centre)."""
    stride = rd + 1
    return anchor + stride * round((value - anchor) / stride)


def representative(
    offset: Tuple[int, int],
    center: Tuple[int, int],
    scheme: str,
    rd: int,
) -> Tuple[int, int]:
    """The tile offset whose value stands in for ``offset``."""
    r, c = offset
    if scheme == "center":
        return snap(r, center[0], rd), snap(c, center[1], rd)
    if scheme == "row":
        return snap(r, center[0], rd), c
    if scheme == "column":
        return r, snap(c, center[1], rd)
    raise TransformError(f"unknown stencil scheme {scheme!r}")


def _monomial_expr(monomial) -> ir.Expr:
    """Rebuild a stride monomial (e.g. ('w',)) as an i32 expression."""
    expr: Optional[ir.Expr] = None
    for symbol in monomial:
        if symbol.startswith("%"):
            atom: ir.Expr = ir.Call(symbol[1:], [], I32)
        else:
            atom = ir.Var(symbol, I32)
        expr = atom if expr is None else ir.binop("mul", expr, atom)
    if expr is None:
        raise TransformError("empty stride monomial")
    return expr


class _LoadRedirector(Transformer):
    """Adds per-load index deltas that point loads at their representative
    tile element."""

    def __init__(
        self,
        array: str,
        defs: Dict[str, ir.Expr],
        base: Poly,
        width,
        plan: Dict[Tuple[int, int], Tuple[int, int]],
    ) -> None:
        self.array = array
        self.defs = defs
        self.base = base
        self.width = width  # stride monomial or None
        self.plan = plan
        self.redirected = 0

    def _offset_of(self, index: ir.Expr) -> Optional[Tuple[int, int]]:
        poly = to_poly(index, self.defs, {})
        if poly is None:
            return None
        diff = poly - self.base
        dr, dc = 0, diff.const
        extra = diff.nonconst_terms
        if len(extra) > 1:
            return None
        if len(extra) == 1:
            mono, coeff = extra[0]
            if self.width is None or mono != self.width:
                return None
            dr = coeff
        pitch = self._constant_pitch()
        if self.width is None and pitch:
            # Constant-width tile: the base is the minimal offset, so the
            # flat delta splits as dr * pitch + dc with 0 <= dc < pitch.
            dr, dc = divmod(dc, pitch)
        return dr, dc

    def _constant_pitch(self) -> Optional[int]:
        return getattr(self, "pitch", None)

    def visit_Load(self, load: ir.Load):
        if load.array.name != self.array:
            return load
        offset = self._offset_of(load.index)
        if offset is None or offset not in self.plan:
            return load
        target = self.plan[offset]
        if target == offset:
            return load
        dr = target[0] - offset[0]
        dc = target[1] - offset[1]
        delta: Optional[ir.Expr] = None
        if dr and self.width is not None:
            delta = ir.binop(
                "mul", ir.Const(dr, I32), _monomial_expr(self.width)
            )
        elif dr and self._constant_pitch():
            delta = ir.Const(dr * self._constant_pitch(), I32)
        if dc:
            dc_expr = ir.Const(dc, I32)
            delta = dc_expr if delta is None else ir.binop("add", delta, dc_expr)
        if delta is None:
            return load
        self.redirected += 1
        return ir.Load(load.array, ir.binop("add", load.index, delta))


@dataclass
class StencilPlan:
    """A concrete replication plan for one (scheme, reaching distance)."""

    scheme: str
    reaching_distance: int
    #: tile offset -> representative offset
    mapping: Dict[Tuple[int, int], Tuple[int, int]]

    @property
    def accessed(self) -> int:
        return len(set(self.mapping.values()))

    @property
    def total(self) -> int:
        return len(self.mapping)

    @property
    def saving(self) -> float:
        """Fraction of tile loads eliminated."""
        return 1.0 - self.accessed / max(self.total, 1)


def build_plan(tile, scheme: str, rd: int) -> StencilPlan:
    """Compute the offset->representative map for one tile geometry.

    Representatives are themselves snapped into the tile's bounds so the
    transform never reads outside the region the exact kernel read."""
    center = ((tile.rows - 1) // 2, (tile.cols - 1) // 2)
    mapping = {}
    for offset in tile.offsets:
        r, c = representative(tuple(offset), center, scheme, rd)
        r = min(max(r, 0), tile.rows - 1)
        c = min(max(c, 0), tile.cols - 1)
        mapping[tuple(offset)] = (r, c)
    return StencilPlan(scheme=scheme, reaching_distance=rd, mapping=mapping)


class StencilTransform:
    """Generates tile-replication variants of a stencil/partition kernel.

    Args:
        schemes: which of center/row/column to emit.
        reaching_distances: rd values to emit per scheme.
    """

    def __init__(
        self,
        schemes=SCHEMES,
        reaching_distances=(1, 2),
    ) -> None:
        self.schemes = tuple(schemes)
        self.reaching_distances = tuple(reaching_distances)

    def generate(
        self, module: ir.Module, kernel_name: str, match: StencilMatch
    ) -> List[ApproxKernel]:
        tile = match.tile
        variants: List[ApproxKernel] = []
        seen_plans = set()
        for scheme in self.schemes:
            for rd in self.reaching_distances:
                plan = build_plan(tile, scheme, rd)
                key = tuple(sorted(plan.mapping.items()))
                if plan.saving <= 0.0 or key in seen_plans:
                    continue  # no load is eliminated; not a real variant
                seen_plans.add(key)
                new_module, new_name = self._rewrite(
                    module, kernel_name, tile, plan
                )
                variants.append(
                    ApproxKernel(
                        name=new_name,
                        pattern=match.pattern,
                        kernel=new_name,
                        module=new_module,
                        knobs={
                            "scheme": scheme,
                            "reaching_distance": rd,
                            "tile": (tile.rows, tile.cols),
                            "loads_kept": plan.accessed,
                            "loads_total": plan.total,
                        },
                        aggressiveness=plan.saving,
                    )
                )
        return variants

    def _rewrite(self, module, kernel_name, tile, plan: StencilPlan):
        new_module = clone_module(module)
        fn = new_module[kernel_name]

        def touches_tile_array(loop: ir.For) -> bool:
            return any(
                isinstance(n, ir.Load) and n.array.name == tile.array
                for n in walk(loop)
            )

        fn = unroll_where(fn, touches_tile_array)

        # Re-derive the base polynomial after unrolling.
        defs = single_assignment_defs(fn)
        accesses = extract_load_polynomials(fn).get(tile.array)
        if accesses is None or not accesses.forms:
            raise TransformError(f"{kernel_name}: lost accesses to {tile.array}")
        fresh_tile = infer_tile(tile.array, accesses.forms)
        if fresh_tile is None or fresh_tile.base is None:
            raise TransformError(f"{kernel_name}: tile shape not recoverable")
        redirector = _LoadRedirector(
            tile.array, defs, fresh_tile.base, fresh_tile.width_symbol, plan.mapping
        )
        if fresh_tile.width_symbol is None and fresh_tile.rows > 1:
            redirector.pitch = fresh_tile.pitch
        fn = redirector.transform_function(fn)
        if redirector.redirected == 0:
            raise TransformError(
                f"{kernel_name}: no load could be redirected for {plan.scheme}/rd="
                f"{plan.reaching_distance}"
            )
        fn = eliminate_duplicate_loads(fn)
        suffix = f"stencil_{plan.scheme}_rd{plan.reaching_distance}"
        new_name = fresh_name(kernel_name, suffix)
        fn.name = new_name
        tag_approx(
            fn,
            ApproxMeta(
                transform="stencil",
                knobs=ApproxMeta.knob_tuple(
                    {
                        "scheme": plan.scheme,
                        "reaching_distance": plan.reaching_distance,
                        "array": tile.array,
                    }
                ),
            ),
        )
        del new_module.functions[kernel_name]
        new_module.add(fn)
        return new_module, new_name


