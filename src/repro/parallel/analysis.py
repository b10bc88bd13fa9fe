"""Static shardability analysis over the typed IR.

A kernel launch may be split into per-worker sub-grids (shards) along the
block axis iff no block can observe another block's execution.  Blocks
are the natural cut: a block is never split across shards, so shared
memory, barriers and intra-block lockstep semantics are preserved
verbatim inside each shard.  What the analysis must rule out is exactly
the cross-*block* coupling the hardware model forbids too:

* **Global atomics.** Concurrent shards would race on the
  read-modify-write; merging per-shard partial results would need an
  operator-specific combine.  (Atomics on *shared* arrays are per-block
  and stay legal.)
* **Impure builtins** (``printf``, ``clock``): their side effects are
  ordered by the serial lockstep schedule that sharding destroys.
* **Cross-block data flow through global memory**: a kernel that loads
  an array it stores does not shard.  Its stores may be private, but no
  load is proved to read only what its own block stores, so one shard
  could read what another writes, in an order the serial schedule does
  not have.
* **Stores not proved private** (below): shards write one copy of each
  written array in place, so two blocks storing one element would race.
* **Block-dependent control coupling**: loop bounds must be uniform
  across the *whole grid* (a scalar param only if every assignment to it
  is).  The runtime enforces uniformity per execution, so a bound that
  varies per block would raise serially but could pass inside a
  single-block shard; static uniformity keeps error behaviour identical.

Kernels that pass map cleanly onto the paper's patterns: Map,
Scatter/Gather, Stencil and Partition kernels shard; atomic Reductions,
the impure zoo kernels and kernels whose store indices go through ``/``
or ``%`` (matmul's ``c[row*n + col]``) run serial.

Stores are judged **per array, across all of its store sites**, on the
index polynomials of :mod:`repro.analysis.index`.  They are *private* —
no element is stored by two blocks — when every site reads
``A*block_id + c*thread_id + C_i`` with one ``A`` and one integer ``c``,
all ``C_i`` share one non-constant part, and their constants differ by
less than the stride:

* ``c != 0``: ``A = c*k*block_threads`` for an integer ``k != 0``, and
  the spread is below ``|c|`` (``block_threads`` is ``block_dim`` when
  ``block_dim_y`` is 1, as in every 1-D launch, else
  ``block_dim*block_dim_y``);
* ``c == 0`` (block-private): ``A`` is a constant times grid extents, so
  provably non-zero (a bare scalar param is not), and the spread is below
  that constant.

So a shardable kernel's shards all write one copy of the written arrays
in place, on either executor (:mod:`repro.parallel.shard` says which
copy): the answer follows from the privacy proof alone.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Tuple

from .._state import Store
from ..analysis.affine import Poly
from ..analysis.index import grid_uniform, index_fact
from ..codegen.fingerprint import fingerprint_kernel, reachable_device_functions
from ..kernel import intrinsics, ir
from ..kernel.visitors import walk, walk_statements


@dataclass
class Shardability:
    """What the analysis concluded about one kernel.

    Attributes:
        kernel: kernel name.
        shardable: blocks are provably independent and every store is
            proved private into an array the kernel never loads: the grid
            may split, its shards writing one copy in place.
        reasons: why not, when ``shardable`` is False (empty otherwise).
        written_arrays: global array params the kernel stores to, in
            declaration order — what a launch stages and copies back.
    """

    kernel: str
    shardable: bool
    reasons: List[str] = field(default_factory=list)
    written_arrays: List[str] = field(default_factory=list)

    def describe(self) -> str:
        if self.shardable:
            writes = ", ".join(self.written_arrays) or "none"
            return f"{self.kernel}: shardable (in place; writes: {writes})"
        return f"{self.kernel}: serial — " + "; ".join(self.reasons)


# ------------------------------------------------------- the per-array rule

#: Grid extents: each is at least 1 on every launch.
_EXTENTS = {f"%{n}" for n in set(ir.THREAD_INTRINSICS) - ir.VARYING_INTRINSICS}


def _split(form: Optional[Poly]) -> Optional[Tuple[Poly, int, Poly, int]]:
    """``form`` as ``A*block_id + c*thread_id + N + k`` — ``A`` and ``N``
    free of varying symbols, ``c`` and ``k`` integers — or None."""
    if form is None:
        return None
    a, c, rest = Poly(()), 0, Poly(())
    for mono, coeff in form.terms:
        varying = [s for s in mono if s not in _EXTENTS and s[0] == "%"]
        if not varying:
            rest = rest + Poly(((mono, coeff),))
        elif varying == ["%block_id"]:
            stride = tuple(s for s in mono if s != "%block_id")
            a = a + Poly(((stride, coeff),))
        elif mono == ("%thread_id",):
            c = coeff
        else:
            return None
    return a, c, rest - Poly.constant(rest.const), rest.const


def _private(forms: List[Optional[Poly]], flat: bool) -> bool:
    """Whether no element is stored by two blocks through these sites (the
    rule in the module docstring); ``flat``: ``block_dim_y`` is 1."""
    if flat:
        forms = [f and f.subs({"%block_dim_y": Poly.constant(1)}) for f in forms]
    split = [_split(f) for f in forms]
    if None in split or len({s[:3] for s in split}) != 1:
        return False
    a, c, _rest, _k = split[0]
    spread = max(s[3] for s in split) - min(s[3] for s in split)
    if len(a.terms) != 1:
        return False
    ((mono, coeff),) = a.terms
    if c:
        block = ("%block_dim",) if flat else ("%block_dim", "%block_dim_y")
        return mono == block and coeff % c == 0 and spread < abs(c)
    return all(s in _EXTENTS for s in mono) and spread < abs(coeff)


# ---------------------------------------------------------- the analysis


def analyze_function(
    fn: ir.Function, module: ir.Module, flat: bool = True
) -> Shardability:
    """Uncached core of :func:`analyze_shardability`."""
    reasons: List[str] = []
    fact = index_fact(fn, module)
    shared = {s.name for s in walk_statements(fn.body) if isinstance(s, ir.SharedAlloc)}
    for function in [fn] + reachable_device_functions(fn, module):
        # A device function's scalar params may vary at any call site, so
        # its loop bounds may only read constants and grid extents.
        uniform = fact.uniform if function is fn else frozenset()
        where = "" if function is fn else f" in device function {function.name}"
        for node in walk(function):
            if isinstance(node, ir.Call) and intrinsics.is_impure(node.func):
                reasons.append(f"impure builtin {node.func!r} in {function.name}")
            elif isinstance(node, ir.AtomicRMW) and node.array.name not in shared:
                reasons.append(f"global atomic_{node.op} on {node.array.name!r}")
            elif isinstance(node, ir.For):
                for what in ("start", "stop", "step"):
                    if not grid_uniform(getattr(node, what), uniform):
                        reasons.append(
                            f"loop {what} for {node.var!r}{where} is not grid-uniform"
                        )

    for name, forms in fact.stores.items():
        if not _private(forms, flat):
            reasons.append(
                f"stores to {name!r} are not proved private and may overlap "
                "across blocks"
            )
        if name in fact.loads:
            reasons.append(f"array {name!r} is loaded and stored")
    return Shardability(
        kernel=fn.name,
        shardable=not reasons,
        reasons=sorted(set(reasons)),
        written_arrays=[p.name for p in fn.params if p.name in fact.stores],
    )


_ANALYSIS_CACHE = Store("parallel.shardability", cap=512)


def analyze_shardability(
    fn: ir.Function,
    module: ir.Module,
    fingerprint: Optional[str] = None,
    flat: bool = True,
) -> Shardability:
    """Analyze ``fn`` once per IR fingerprint (kernels are immutable) and
    block shape: ``flat`` launches have ``block_dim_y == 1``."""
    key = (fingerprint if fingerprint is not None else fingerprint_kernel(fn, module), flat)
    hit = _ANALYSIS_CACHE.get(key)
    if hit is not None:
        return hit
    return _ANALYSIS_CACHE.put(key, analyze_function(fn, module, flat))
