"""Static shardability analysis over the typed IR.

A kernel launch may be split into per-worker sub-grids (shards) along the
block axis iff no block can observe another block's execution.  Blocks
are the natural cut: a block is never split across shards, so shared
memory, barriers and intra-block lockstep semantics are preserved
verbatim inside each shard.  What the analysis must rule out is exactly
the cross-*block* coupling the hardware model forbids too:

* **Global atomics.** Concurrent shards would race on the
  read-modify-write; merging per-shard partial results would need an
  operator-specific combine, not an overlay.  (Atomics on *shared*
  arrays are per-block and stay legal.)
* **Impure builtins** (``printf``, ``clock``): their side effects are
  ordered by the serial lockstep schedule that sharding destroys.
* **Cross-block data flow through global memory**: an array that is both
  loaded and stored is only safe when every access is element-wise —
  structurally the same thread-injective index — so a thread only ever
  re-reads its own element.
* **Block-dependent control coupling**: loop bounds must be uniform
  across the *whole grid*.  The runtime enforces uniformity per
  execution, so a bound that varies per block would raise serially but
  could pass inside a single-block shard; requiring statically uniform
  bounds keeps error behaviour identical.

Kernels that pass map cleanly onto the paper's patterns: Map,
Scatter/Gather, Stencil and Partition kernels shard; atomic Reductions
and the impure zoo kernels fall back to serial.

The analysis additionally proves, when it can, that every global store
index is *thread-injective* (affine in ``global_id`` with a non-zero
stride, or affine in ``block_id`` so distinct blocks hit distinct
slots), and records whether any written array is also *loaded*.  With
private stores into arrays the kernel never reads, shards may write one
shared copy of each written array in place — zero-copy, and a shard that
runs twice (a retry, a re-submitted task) stores the same bytes again;
otherwise the executor gives each shard private copies of the written
arrays and overlays them deterministically in shard order
(:mod:`repro.parallel.shard`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set, Tuple

from ..codegen.fingerprint import fingerprint_kernel, reachable_device_functions
from ..kernel import intrinsics, ir
from ..kernel.visitors import walk, walk_statements

#: Intrinsics whose value differs across threads of one grid.
VARYING_INTRINSICS = frozenset(
    {
        "global_id",
        "thread_id",
        "block_id",
        "global_id_x",
        "global_id_y",
        "thread_id_x",
        "thread_id_y",
        "block_id_x",
        "block_id_y",
    }
)

#: Intrinsics that are uniform across the whole grid (and across shards:
#: shard geometries keep the full-grid dims).
UNIFORM_INTRINSICS = frozenset(
    {"block_dim", "block_dim_y", "grid_dim", "grid_dim_y"}
) | {
    "block_dim_x",
    "grid_dim_x",
}


@dataclass
class Shardability:
    """What the analysis concluded about one kernel.

    Attributes:
        kernel: kernel name.
        shardable: blocks are provably independent; the grid may split.
        reasons: why not, when ``shardable`` is False (empty otherwise).
        written_arrays: global array params the kernel stores to, in
            declaration order — what the copy/overlay path must merge.
        disjoint_writes: every global store lands on a provably
            thread- or block-private element.
        write_only: no written array is also loaded, so running a shard
            again over what an earlier run of it stored stores the same
            bytes (``y[i] = a * x[i] + y[i]`` would apply twice).
    """

    kernel: str
    shardable: bool
    reasons: List[str] = field(default_factory=list)
    written_arrays: List[str] = field(default_factory=list)
    disjoint_writes: bool = False
    write_only: bool = False

    @property
    def in_place(self) -> bool:
        """Shards may all write one copy of the written arrays in place
        (zero-copy), on either executor, retried or not."""
        return self.disjoint_writes and self.write_only

    def describe(self) -> str:
        if self.shardable:
            mode = "zero-copy" if self.in_place else "copy+merge"
            writes = ", ".join(self.written_arrays) or "none"
            return f"{self.kernel}: shardable ({mode}; writes: {writes})"
        return f"{self.kernel}: serial — " + "; ".join(self.reasons)


# -------------------------------------------------------- uniform locals


def _uniform_locals(fn: ir.Function) -> Set[str]:
    """Locals provably identical across every thread of any grid.

    Fixpoint: a local is uniform iff every assignment to it has a uniform
    RHS.  Loop variables are uniform by construction (bounds are uniform,
    enforced below).
    """
    assigns: Dict[str, List[ir.Expr]] = {}
    loop_vars: Set[str] = set()
    for stmt in walk_statements(fn.body):
        if isinstance(stmt, ir.Assign):
            assigns.setdefault(stmt.target, []).append(stmt.value)
        elif isinstance(stmt, ir.For):
            loop_vars.add(stmt.var)
    scalar_params = {p.name for p in fn.params if not p.is_array}
    uniform = set(scalar_params) | (loop_vars - set(assigns))

    def expr_uniform(expr: ir.Expr) -> bool:
        if isinstance(expr, ir.Const):
            return True
        if isinstance(expr, ir.Var):
            return expr.name in uniform
        if isinstance(expr, ir.BinOp):
            return expr_uniform(expr.left) and expr_uniform(expr.right)
        if isinstance(expr, (ir.UnOp, ir.Cast)):
            return expr_uniform(expr.operand)
        if isinstance(expr, ir.Select):
            return (
                expr_uniform(expr.cond)
                and expr_uniform(expr.if_true)
                and expr_uniform(expr.if_false)
            )
        if isinstance(expr, ir.Call):
            if expr.func in UNIFORM_INTRINSICS:
                return True
            if expr.func in VARYING_INTRINSICS:
                return False
            if intrinsics.is_builtin(expr.func):
                return all(expr_uniform(a) for a in expr.args)
            return False  # device calls: conservatively varying
        return False  # loads are varying in general

    changed = True
    while changed:
        changed = False
        for name, values in assigns.items():
            if name in uniform:
                continue
            if all(expr_uniform(v) for v in values):
                uniform.add(name)
                changed = True
    return uniform


def _expr_grid_uniform(expr: ir.Expr, uniform: Set[str]) -> bool:
    """Whether a loop-bound expression is uniform across the whole grid."""
    if isinstance(expr, ir.Const):
        return True
    if isinstance(expr, ir.Var):
        return expr.name in uniform
    if isinstance(expr, ir.BinOp):
        return _expr_grid_uniform(expr.left, uniform) and _expr_grid_uniform(
            expr.right, uniform
        )
    if isinstance(expr, (ir.UnOp, ir.Cast)):
        return _expr_grid_uniform(expr.operand, uniform)
    if isinstance(expr, ir.Select):
        return all(
            _expr_grid_uniform(e, uniform)
            for e in (expr.cond, expr.if_true, expr.if_false)
        )
    if isinstance(expr, ir.Call):
        if expr.func in UNIFORM_INTRINSICS:
            return True
        if expr.func in VARYING_INTRINSICS:
            return False
        if intrinsics.is_builtin(expr.func):
            return all(_expr_grid_uniform(a, uniform) for a in expr.args)
    return False


# ------------------------------------------------- affine index analysis

#: ``{intrinsic: coeff}, constant`` — an integer-affine combination of
#: thread intrinsics.
_Affine = Tuple[Dict[str, int], int]


def _affine_expr(expr: ir.Expr, env: Dict[str, _Affine]) -> Optional[_Affine]:
    """Decompose ``expr`` into ``sum(coeff * intrinsic) + const``.

    ``env`` maps single-assignment locals to their affine values, so the
    idiomatic ``i = global_id(); out[i] = ...`` resolves.  Deliberately
    narrow — it only needs to recognise the ``out[gid]``-family of store
    indices that dominate the kernel suite; anything else returns None.
    """
    if isinstance(expr, ir.Const):
        try:
            value = int(expr.value)
        except (TypeError, ValueError):
            return None
        if float(expr.value) != float(value):
            return None
        return {}, value
    if isinstance(expr, ir.Var):
        return env.get(expr.name)
    if isinstance(expr, ir.Call) and expr.func in VARYING_INTRINSICS:
        return {expr.func: 1}, 0
    if isinstance(expr, ir.Cast):
        if expr.dtype.is_integer:
            return _affine_expr(expr.operand, env)
        return None
    if isinstance(expr, ir.BinOp):
        left = _affine_expr(expr.left, env)
        right = _affine_expr(expr.right, env)
        if left is None or right is None:
            return None
        (lc, lk), (rc, rk) = left, right
        if expr.op == "add":
            merged = dict(lc)
            for name, coeff in rc.items():
                merged[name] = merged.get(name, 0) + coeff
            return {n: c for n, c in merged.items() if c}, lk + rk
        if expr.op == "sub":
            merged = dict(lc)
            for name, coeff in rc.items():
                merged[name] = merged.get(name, 0) - coeff
            return {n: c for n, c in merged.items() if c}, lk - rk
        if expr.op == "mul":
            if not lc:  # constant * affine
                return {n: c * lk for n, c in rc.items() if c * lk}, lk * rk
            if not rc:  # affine * constant
                return {n: c * rk for n, c in lc.items() if c * rk}, lk * rk
    return None


def _affine_locals(fn: ir.Function) -> Dict[str, _Affine]:
    """Locals with a single, loop-free, affine-in-intrinsics assignment.

    Fixpoint so chains like ``i = global_id(); j = i + 1`` resolve.  A
    local assigned more than once (accumulators) or inside a loop body
    (iteration-varying) never enters the environment.
    """
    assigns: Dict[str, List[ir.Expr]] = {}
    in_loop: Set[str] = set()
    for stmt in walk_statements(fn.body):
        if isinstance(stmt, ir.Assign):
            assigns.setdefault(stmt.target, []).append(stmt.value)
        elif isinstance(stmt, ir.For):
            in_loop.add(stmt.var)
            for inner in walk_statements(stmt.body):
                if isinstance(inner, ir.Assign):
                    in_loop.add(inner.target)
    env: Dict[str, _Affine] = {}
    changed = True
    while changed:
        changed = False
        for name, values in assigns.items():
            if name in env or name in in_loop or len(values) != 1:
                continue
            affine = _affine_expr(values[0], env)
            if affine is not None:
                env[name] = affine
                changed = True
    return env


def _store_disjoint(index: ir.Expr, env: Dict[str, _Affine]) -> bool:
    """Whether a global store at ``index`` is provably private to its
    writer across shards.

    Two sufficient shapes:

    * affine in ``global_id`` (or an x/y component) with non-zero stride —
      distinct threads hit distinct elements, so distinct shards do too;
    * affine in ``block_id`` with non-zero stride — all writers of one
      element share a block, and a block lives in exactly one shard
      (within the shard the lockstep store order is unchanged).
    """
    affine = _affine_expr(index, env)
    if affine is None:
        return False
    coeffs, _const = affine
    if len(coeffs) != 1:
        return False
    ((name, stride),) = coeffs.items()
    return name in ("global_id", "block_id") and stride != 0


def _index_key(expr: ir.Expr) -> Optional[str]:
    """A structural key for comparing access indices (None = unkeyable)."""
    if isinstance(expr, ir.Const):
        return f"c:{expr.value!r}"
    if isinstance(expr, ir.Var):
        return f"v:{expr.name}"
    if isinstance(expr, ir.Call):
        parts = [_index_key(a) for a in expr.args]
        if any(p is None for p in parts):
            return None
        return f"call:{expr.func}({','.join(parts)})"
    if isinstance(expr, ir.BinOp):
        left, right = _index_key(expr.left), _index_key(expr.right)
        if left is None or right is None:
            return None
        return f"({left}{expr.op}{right})"
    if isinstance(expr, ir.UnOp):
        operand = _index_key(expr.operand)
        return None if operand is None else f"{expr.op}({operand})"
    if isinstance(expr, ir.Cast):
        operand = _index_key(expr.operand)
        return None if operand is None else f"cast[{expr.dtype.name}]({operand})"
    return None


# ---------------------------------------------------------- the analysis


def _shared_names(fn: ir.Function) -> Set[str]:
    return {
        s.name for s in walk_statements(fn.body) if isinstance(s, ir.SharedAlloc)
    }


def analyze_function(fn: ir.Function, module: ir.Module) -> Shardability:
    """Uncached core of :func:`analyze_shardability`."""
    reasons: List[str] = []
    shared = _shared_names(fn)
    uniform = _uniform_locals(fn)
    affine_env = _affine_locals(fn)
    functions = [fn] + reachable_device_functions(fn, module)

    # impure builtins anywhere in the call graph
    for function in functions:
        for stmt in walk_statements(function.body):
            for node in walk(stmt):
                if isinstance(node, ir.Call) and intrinsics.is_impure(node.func):
                    reasons.append(
                        f"impure builtin {node.func!r} in {function.name}"
                    )

    # loop bounds must be uniform across the whole grid
    for stmt in walk_statements(fn.body):
        if isinstance(stmt, ir.For):
            for what, bound in (
                ("start", stmt.start),
                ("stop", stmt.stop),
                ("step", stmt.step),
            ):
                if not _expr_grid_uniform(bound, uniform):
                    reasons.append(
                        f"loop {what} for {stmt.var!r} is not grid-uniform"
                    )
    # device-function loops: bounds must be literal/uniform-intrinsic only
    # (their scalar params may be varying at any call site)
    for function in functions[1:]:
        for stmt in walk_statements(function.body):
            if isinstance(stmt, ir.For):
                for what, bound in (
                    ("start", stmt.start),
                    ("stop", stmt.stop),
                    ("step", stmt.step),
                ):
                    if not _expr_grid_uniform(bound, set()):
                        reasons.append(
                            f"loop {what} for {stmt.var!r} in device function "
                            f"{function.name} may vary per thread"
                        )

    # memory coupling
    loads: Dict[str, List[ir.Expr]] = {}
    stores: Dict[str, List[ir.Expr]] = {}
    for stmt in walk_statements(fn.body):
        for node in walk(stmt):
            if isinstance(node, ir.Load) and node.array.name not in shared:
                loads.setdefault(node.array.name, []).append(node.index)
        if isinstance(stmt, ir.Store) and stmt.array.name not in shared:
            stores.setdefault(stmt.array.name, []).append(stmt.index)
        elif isinstance(stmt, ir.AtomicRMW):
            if stmt.array.name not in shared:
                reasons.append(
                    f"global atomic_{stmt.op} on {stmt.array.name!r}"
                )

    for name in stores:
        if name not in loads:
            continue
        keys = {_index_key(index) for index in loads[name] + stores[name]}
        if None in keys or len(keys) != 1 or not all(
            _store_disjoint(index, affine_env) for index in stores[name]
        ):
            reasons.append(
                f"array {name!r} is read and written with coupled indices"
            )

    param_order = [p.name for p in fn.params if p.is_array]
    written = [name for name in param_order if name in stores]
    disjoint = all(
        _store_disjoint(index, affine_env)
        for indices in stores.values()
        for index in indices
    )  # vacuously True with no stores: nothing to merge
    return Shardability(
        kernel=fn.name,
        shardable=not reasons,
        reasons=sorted(set(reasons)),
        written_arrays=written,
        disjoint_writes=disjoint and not reasons,
        write_only=not any(name in loads for name in stores),
    )


_ANALYSIS_CACHE: Dict[str, Shardability] = {}
_ANALYSIS_CACHE_MAX = 512


def analyze_shardability(
    fn: ir.Function, module: ir.Module, fingerprint: Optional[str] = None
) -> Shardability:
    """Analyze ``fn`` once per IR fingerprint (kernels are immutable)."""
    fp = fingerprint if fingerprint is not None else fingerprint_kernel(fn, module)
    hit = _ANALYSIS_CACHE.get(fp)
    if hit is not None:
        return hit
    result = analyze_function(fn, module)
    if len(_ANALYSIS_CACHE) >= _ANALYSIS_CACHE_MAX:
        _ANALYSIS_CACHE.pop(next(iter(_ANALYSIS_CACHE)))
    _ANALYSIS_CACHE[fp] = result
    return result
