"""Approximate memoization for map & scatter/gather patterns (paper §3.1).

The transform replaces a call to a pure, compute-heavy device function with
a lookup-table read, in three steps mirroring §3.1.3:

1. quantize each variable input to ``q_i`` bits (ranges come from
   profiling; constant inputs — the paper's R and V — get zero bits and
   their value is baked into the table),
2. concatenate the level indices into a table address (first input in the
   most-significant bits),
3. read the precomputed result.

Inputs that fall between levels are resolved either by **nearest** (use
the snapped level) or **linear** (interpolate between the two neighbouring
entries of the least-significant input) — the two schemes compared in
paper Fig 15.

Each generated variant is a complete rewritten kernel: the quantization
constants are baked in as literals and the kernel gains one trailing array
parameter per memoized function carrying the table, so the runtime can
switch variants by swapping kernels and table pointers exactly as §3.1.3
describes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..engine import Grid, call_device_function, launch
from ..errors import TransformError
from ..kernel import ir
from ..kernel.types import F32, I32, ArrayType
from ..kernel.visitors import Transformer, clone_module
from ..patterns.base import MapMatch
from .base import ApproxKernel, ApproxMeta, fresh_name, tag_approx
from .bit_tuning import (
    BitConfig,
    BitTuner,
    TableSearchResult,
    search_table_size,
)
from .quantize import InputRange, level_grid

#: Memory spaces a lookup table can be placed in (paper §4.4.2 / Fig 16).
TABLE_SPACES = ("global", "shared", "constant")


# ---------------------------------------------------------------------------
# Profiling: harvest device-call argument streams
# ---------------------------------------------------------------------------


@dataclass
class CallProfile:
    """Observed argument values of one device function during training."""

    func: str
    #: one array per scalar parameter of the function
    samples: List[np.ndarray]

    @property
    def ranges(self) -> List[InputRange]:
        return [InputRange.of(s) for s in self.samples]

    @property
    def variable_indices(self) -> List[int]:
        """Inputs whose training range is non-degenerate; only these get
        quantization bits (paper: constants are detected and excluded)."""
        return [i for i, r in enumerate(self.ranges) if not r.is_constant]


def profile_device_calls(
    kernel,
    grid: Grid,
    args,
    func_names: Sequence[str],
    max_samples: int = 65536,
    module: Optional[ir.Module] = None,
) -> Dict[str, CallProfile]:
    """Run one training launch, recording the argument streams of each
    function in ``func_names`` (the paper's profiling runs)."""
    collected: Dict[str, List[List[np.ndarray]]] = {name: [] for name in func_names}

    def observer(name: str, call_args) -> None:
        if name in collected:
            collected[name].append(
                [np.atleast_1d(np.asarray(a, dtype=np.float64)) for a in call_args]
            )

    launch(kernel, grid, args, module=module, call_observer=observer)
    profiles: Dict[str, CallProfile] = {}
    for name, batches in collected.items():
        if not batches:
            continue
        arity = len(batches[0])
        merged = []
        for i in range(arity):
            cat = np.concatenate([np.broadcast_to(b[i], b[i].shape or (1,)).ravel() for b in batches])
            if cat.size > max_samples:
                stride = cat.size // max_samples + 1
                cat = cat[::stride]
            merged.append(cat)
        profiles[name] = CallProfile(func=name, samples=merged)
    return profiles


# ---------------------------------------------------------------------------
# Table construction
# ---------------------------------------------------------------------------


@dataclass
class MemoTable:
    """A populated lookup table for one device function."""

    func: str
    ranges: List[InputRange]  # all inputs, in parameter order
    bits: List[int]  # all inputs; constants have 0
    table: np.ndarray
    quality: float  # training quality of this configuration

    @property
    def total_bits(self) -> int:
        return sum(self.bits)

    @property
    def entries(self) -> int:
        return 1 << self.total_bits


def build_table(device_fn, module: ir.Module, ranges, bits) -> np.ndarray:
    """Evaluate the exact function on every quantization-level combination
    (paper: "for each quantization level of each input, Paraprox computes
    the output and stores it in the lookup table")."""
    grids = level_grid(ranges, bits)
    out = call_device_function(device_fn, module, grids)
    return np.ascontiguousarray(out, dtype=device_fn.return_type.dtype.to_numpy())


# ---------------------------------------------------------------------------
# Kernel rewriting
# ---------------------------------------------------------------------------


class _CallRewriter(Transformer):
    """Replaces calls to ``func`` with quantize+pack+load sequences."""

    def __init__(self, func: str, memo: MemoTable, table_param: str, mode: str):
        self.func = func
        self.memo = memo
        self.table_param = table_param
        self.mode = mode
        self.table_type = ArrayType(F32, space="global")
        self._pending: List[ir.Stmt] = []
        self._counter = 0
        self.rewrites = 0

    # Statement boundary handling: flush prelude statements generated while
    # rewriting the statement's expressions.
    def transform_body(self, body):
        out = []
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
        return out

    def visit_Call(self, call: ir.Call):
        if call.func != self.func:
            return call
        self.rewrites += 1
        self._counter += 1
        tag = f"_memo{self._counter}_{self.func}"
        stmts, result_var = self._build_lookup(call, tag)
        self._pending.extend(stmts)
        return result_var

    def _build_lookup(self, call: ir.Call, tag: str) -> Tuple[List[ir.Stmt], ir.Var]:
        memo = self.memo
        f32c = lambda v: ir.Const(float(v), F32)  # noqa: E731
        i32c = lambda v: ir.Const(int(v), I32)  # noqa: E731
        stmts: List[ir.Stmt] = []
        table = ir.ArrayRef(self.table_param, self.table_type)

        # Hoist argument expressions into temps (each is used repeatedly).
        arg_vars: List[ir.Var] = []
        for i, arg in enumerate(call.args):
            name = f"{tag}_a{i}"
            value = arg if arg.dtype is F32 else ir.Cast(arg, F32)
            stmts.append(ir.Assign(name, value))
            arg_vars.append(ir.Var(name, F32))

        variable = [i for i, q in enumerate(memo.bits) if q > 0]
        if not variable:
            raise TransformError(f"{self.func}: no variable inputs to quantize")
        last = variable[-1]

        # Per-input level index: clamp(trunc((x - lo) * scale + 0.5)).
        idx_vars: Dict[int, ir.Var] = {}
        frac_var: Optional[ir.Var] = None
        for i in variable:
            rng, q = memo.ranges[i], memo.bits[i]
            levels = 1 << q
            scale = (levels - 1) / (rng.hi - rng.lo)
            pos_name = f"{tag}_p{i}"
            pos = ir.binop(
                "mul", ir.binop("sub", arg_vars[i], f32c(rng.lo)), f32c(scale)
            )
            stmts.append(ir.Assign(pos_name, pos))
            pos_var = ir.Var(pos_name, F32)
            idx_name = f"{tag}_i{i}"
            if self.mode == "linear" and i == last and levels >= 2:
                # floor(pos) clamped to [0, levels-2]; frac = pos - idx.
                raw = ir.Cast(pos_var, I32)
                clamped = ir.Call(
                    "imin",
                    [ir.Call("imax", [raw, i32c(0)], I32), i32c(levels - 2)],
                    I32,
                )
                stmts.append(ir.Assign(idx_name, clamped))
                idx_var = ir.Var(idx_name, I32)
                frac_name = f"{tag}_f"
                clamped_pos = ir.Call(
                    "fmin",
                    [ir.Call("fmax", [pos_var, f32c(0.0)], F32), f32c(levels - 1)],
                    F32,
                )
                stmts.append(
                    ir.Assign(
                        frac_name,
                        ir.binop("sub", clamped_pos, ir.Cast(idx_var, F32)),
                    )
                )
                frac_var = ir.Var(frac_name, F32)
            else:
                rounded = ir.Cast(ir.binop("add", pos_var, f32c(0.5)), I32)
                clamped = ir.Call(
                    "imin",
                    [ir.Call("imax", [rounded, i32c(0)], I32), i32c(levels - 1)],
                    I32,
                )
                stmts.append(ir.Assign(idx_name, clamped))
                idx_var = ir.Var(idx_name, I32)
            idx_vars[i] = idx_var

        # Pack the address: first variable input in the MSBs.
        addr: ir.Expr = idx_vars[variable[0]]
        for i in variable[1:]:
            addr = ir.binop(
                "or", ir.binop("shl", addr, i32c(memo.bits[i])), idx_vars[i]
            )
        addr_name = f"{tag}_addr"
        stmts.append(ir.Assign(addr_name, addr))
        addr_var = ir.Var(addr_name, I32)

        out_dtype = self.table_type.dtype
        result_name = f"{tag}_r"
        if self.mode == "linear" and frac_var is not None:
            v0 = f"{tag}_v0"
            v1 = f"{tag}_v1"
            stmts.append(ir.Assign(v0, ir.Load(table, addr_var)))
            stmts.append(
                ir.Assign(v1, ir.Load(table, ir.binop("add", addr_var, i32c(1))))
            )
            interp = ir.binop(
                "add",
                ir.Var(v0, F32),
                ir.binop(
                    "mul",
                    frac_var,
                    ir.binop("sub", ir.Var(v1, F32), ir.Var(v0, F32)),
                ),
            )
            stmts.append(ir.Assign(result_name, interp))
        else:
            stmts.append(ir.Assign(result_name, ir.Load(table, addr_var)))
        return stmts, ir.Var(result_name, out_dtype)


def rewrite_kernel_with_table(
    module: ir.Module,
    kernel_name: str,
    memo: MemoTable,
    mode: str = "nearest",
    space: str = "global",
    variant_suffix: str = "",
) -> Tuple[ir.Module, str]:
    """Produce a new module whose copy of ``kernel_name`` reads ``memo``'s
    table instead of calling ``memo.func``.  Returns (module, new kernel
    name); the new kernel has one extra trailing array parameter for the
    table."""
    if space not in TABLE_SPACES:
        raise TransformError(f"bad table space {space!r}")
    if memo.func not in module:
        raise TransformError(
            f"{kernel_name} contains no calls to {memo.func}; nothing to memoize"
        )
    # Chained rewrites (the composed multi-function variant) accumulate
    # approx metadata: clone_module rebuilds functions without extra
    # attributes, so the incoming kernel's tag is captured here and merged
    # into the one attached below.
    prior = getattr(module[kernel_name], "approx", None)
    new_module = clone_module(module)
    original = new_module[kernel_name]
    table_param = f"__memo_{memo.func}"
    rewriter = _CallRewriter(memo.func, memo, table_param, mode)
    rewriter.table_type = ArrayType(
        new_module[memo.func].return_type.dtype, space=space
    )
    rewritten = rewriter.transform_function(original)
    if rewriter.rewrites == 0:
        raise TransformError(
            f"{kernel_name} contains no calls to {memo.func}; nothing to memoize"
        )
    new_name = fresh_name(kernel_name, variant_suffix or f"memo{memo.total_bits}")
    rewritten.name = new_name
    rewritten.params.append(ir.Param(table_param, rewriter.table_type))
    knobs = {
        f"{memo.func}.bits": tuple(memo.bits),
        f"{memo.func}.mode": mode,
        f"{memo.func}.space": space,
    }
    # The tables' extents are part of the tag, so of the variant's identity.
    tables = {table_param: memo.entries}
    if prior is not None and prior.transform == "memo":
        knobs.update(dict(prior.knobs))
        tables.update(dict(prior.tables))
    tag_approx(
        rewritten,
        ApproxMeta(
            transform="memo",
            knobs=ApproxMeta.knob_tuple(knobs),
            tables=tuple(sorted(tables.items())),
        ),
    )
    del new_module.functions[kernel_name]
    new_module.add(rewritten)
    return new_module, new_name


# ---------------------------------------------------------------------------
# End-to-end transform
# ---------------------------------------------------------------------------


class MemoizationTransform:
    """Generates memoized variants of a map/scatter-gather kernel.

    Args:
        toq: target output quality in [0, 1] used by the table-size search.
        quality_fn: (approx, exact) -> quality; defaults to
            1 - mean relative error.
        modes: lookup schemes to emit ("nearest" and/or "linear").
        spaces: memory spaces to emit table variants for.
        extra_tables: how many additional (larger) tables to emit beyond
            the chosen one, for fast runtime switching (paper: <= 3 total).
    """

    def __init__(
        self,
        toq: float = 0.90,
        quality_fn: Optional[Callable] = None,
        modes: Sequence[str] = ("nearest",),
        spaces: Sequence[str] = ("global",),
        extra_tables: int = 2,
        start_bits: Optional[int] = None,
    ) -> None:
        if quality_fn is None:
            from ..runtime.quality import MEAN_RELATIVE

            quality_fn = MEAN_RELATIVE.quality
        self.toq = toq
        self.quality_fn = quality_fn
        self.modes = tuple(modes)
        self.spaces = tuple(spaces)
        self.extra_tables = extra_tables
        self.start_bits = start_bits

    def tune_function(
        self, module: ir.Module, profile: CallProfile
    ) -> Tuple[TableSearchResult, List[int]]:
        """Bit-tune one device function against the TOQ; returns the search
        result and the indices of its variable inputs."""
        search, variable, _tuner = self._tune_with_tuner(module, profile)
        return search, variable

    def _tune_with_tuner(self, module: ir.Module, profile: CallProfile):
        device_fn = module[profile.func]
        variable = profile.variable_indices
        if not variable:
            raise TransformError(
                f"{profile.func}: every input is constant during profiling"
            )
        ranges = profile.ranges

        def evaluate(*snapped):
            full = []
            v = 0
            for i, rng in enumerate(ranges):
                if i in variable:
                    full.append(snapped[v])
                    v += 1
                else:
                    full.append(np.full_like(snapped[0], 0.5 * (rng.lo + rng.hi)))
            return call_device_function(device_fn, module, full)

        exact = call_device_function(device_fn, module, profile.samples)
        tuner = BitTuner(
            evaluate,
            [profile.samples[i] for i in variable],
            exact,
            self.quality_fn,
            ranges=[ranges[i] for i in variable],
        )
        kwargs = {}
        if self.start_bits is not None:
            kwargs["start_bits"] = self.start_bits
        return search_table_size(tuner, self.toq, **kwargs), variable, tuner

    def build_memo(
        self, module: ir.Module, profile: CallProfile, config: BitConfig
    ) -> MemoTable:
        """Materialise the lookup table for one tuned configuration."""
        variable = profile.variable_indices
        bits_all = [0] * len(profile.samples)
        for idx, q in zip(variable, config.bits):
            bits_all[idx] = q
        table = build_table(module[profile.func], module, profile.ranges, bits_all)
        return MemoTable(
            func=profile.func,
            ranges=profile.ranges,
            bits=bits_all,
            table=table,
            quality=config.quality,
        )

    def generate(
        self, module: ir.Module, kernel_name: str, match: MapMatch,
        profiles: Dict[str, CallProfile],
    ) -> List[ApproxKernel]:
        """Emit memoized variants for every candidate function of ``match``.

        One variant per (table size, lookup mode, memory space), covering
        the chosen table plus up to ``extra_tables`` larger fallbacks.
        """
        variants: List[ApproxKernel] = []
        chosen_memos: List[MemoTable] = []
        for func in match.candidates:
            if func not in profiles:
                continue
            profile = profiles[func]
            search, _variable, tuner = self._tune_with_tuner(module, profile)
            configs = self._select_configs(search, tuner)
            for rank, config in enumerate(configs):
                memo = self.build_memo(module, profile, config)
                if rank == 0:
                    chosen_memos.append(memo)
                for mode in self.modes:
                    for space in self.spaces:
                        suffix = f"memo_{func}_t{memo.entries}_{mode}_{space}"
                        new_module, new_name = rewrite_kernel_with_table(
                            module, kernel_name, memo, mode, space, suffix
                        )
                        variants.append(
                            ApproxKernel(
                                name=new_name,
                                pattern=match.pattern,
                                kernel=new_name,
                                module=new_module,
                                knobs={
                                    "function": func,
                                    "table_bits": memo.total_bits,
                                    "bits_per_input": tuple(memo.bits),
                                    "mode": mode,
                                    "space": space,
                                    "training_quality": memo.quality,
                                },
                                extra_args=[memo.table],
                                aggressiveness=-memo.total_bits
                                + (0.5 if mode == "nearest" else 0.0),
                            )
                        )
        # A kernel calling several independent candidates also gets one
        # *composed* variant memoizing all of them — each function keeps
        # its own table parameter, so the runtime still swaps pointers per
        # table (§3.1.3).
        if len(chosen_memos) > 1:
            variants.append(self._compose(module, kernel_name, match, chosen_memos))
        return variants

    def _compose(
        self,
        module: ir.Module,
        kernel_name: str,
        match: MapMatch,
        memos: List[MemoTable],
    ) -> ApproxKernel:
        """Chain the per-function rewrites into one kernel; extra launch
        arguments follow candidate order."""
        mode, space = self.modes[0], self.spaces[0]
        current_module, current_name = module, kernel_name
        for i, memo in enumerate(memos):
            suffix = (
                f"memo_all_{mode}_{space}" if i == len(memos) - 1 else f"chain{i}"
            )
            current_module, current_name = rewrite_kernel_with_table(
                current_module, current_name, memo, mode, space, suffix
            )
        return ApproxKernel(
            name=current_name,
            pattern=match.pattern,
            kernel=current_name,
            module=current_module,
            knobs={
                "function": "+".join(m.func for m in memos),
                "table_bits": tuple(m.total_bits for m in memos),
                "mode": mode,
                "space": space,
                "training_quality": min(m.quality for m in memos),
                "composed": True,
            },
            extra_args=[m.table for m in memos],
            aggressiveness=-min(m.total_bits for m in memos) + 1.0,
        )

    def _select_configs(
        self, search: TableSearchResult, tuner: Optional[BitTuner] = None
    ) -> List[BitConfig]:
        """Chosen table plus up to ``extra_tables`` larger fallbacks.

        The runtime switches table sizes by swapping pointers (§3.1.3), so
        fallback sizes the search did not visit are tuned on demand — the
        paper keeps up to three tables warm."""
        from .bit_tuning import MAX_TABLE_BITS

        chosen = search.best_available()
        configs = [chosen]
        larger = sorted(
            (c for b, c in search.explored.items() if b > chosen.total),
            key=lambda c: c.total,
        )
        configs.extend(larger[: self.extra_tables])
        if tuner is not None:
            next_bits = (configs[-1].total if len(configs) > 1 else chosen.total) + 1
            while len(configs) < 1 + self.extra_tables and next_bits <= MAX_TABLE_BITS:
                configs.append(tuner.tune(next_bits))
                next_bits += 1
        return configs
