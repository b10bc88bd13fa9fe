"""Compile-and-cache layer: IR fingerprint -> executable kernel.

One entry per ``(kernel fingerprint, grid-shape class, bounds_check)``.
The grid-shape class is only ``"1d"``/``"2d"``: generated code reads all
thread-id arrays from a :class:`~repro.codegen.runtime.Geometry` object,
so the same callable serves every grid of a class and only the (cheap,
itself cached) geometry differs per launch.
"""

from __future__ import annotations

import linecache
import time
from dataclasses import dataclass
from typing import Dict, List, Tuple

from .._state import Store
from ..engine.interpreter import _PLANS as _LAUNCH_PLANS
from ..errors import CodegenError
from ..kernel import ir
from ..obs import trace as obs_trace
from ..resilience.faults import SITE_COMPILE, maybe_inject
from .fingerprint import fingerprint_kernel
from .lower import lower_kernel

# STATS: the process-wide ``repro_codegen_*`` counters.  The group is made
# where generated code can reach it (plan hits are counted per launch).
from .runtime import STATS, drop_plans, geometry


def _detail_string(info: Dict[str, int]) -> str:
    parts = [f"{key}={value}" for key, value in sorted(info.items()) if value]
    return " ".join(parts) if parts else "no specializations applied"


def stats_snapshot() -> Dict[str, object]:
    return STATS.snapshot()


@dataclass
class CompiledKernel:
    """A kernel lowered, compiled and ready to launch."""

    fn_name: str
    param_names: List[str]
    entry: object  # the generated function
    source: str
    fingerprint: str
    grid_class: str
    bounds_check: bool
    #: what the lowering's specializations accomplished.
    detail: str = ""

    def run(self, grid, bound_args: Dict[str, object]) -> None:
        """Execute over ``grid`` with ``bind_arguments`` output."""
        geo = geometry(grid)
        self.entry(geo, *[bound_args[name] for name in self.param_names])

    def reuse(self) -> "CompiledKernel":
        """One more launch of this kernel from a launch plan that already
        holds it: the :func:`get_compiled` hit without the fingerprint and
        key lookup — same fault seam, same hit count, same span."""
        maybe_inject(SITE_COMPILE, self.fn_name, exc=CodegenError)
        return self._hit()

    def _hit(self) -> "CompiledKernel":
        STATS.inc("cache_hits")
        with obs_trace.span(
            "codegen.compile", kernel=self.fn_name, cache="hit",
            grid_class=self.grid_class,
        ):
            pass
        return self


#: (fingerprint, grid class, bounds_check) -> compiled kernel.
_CACHE = Store("codegen.compiled")


def get_compiled(
    fn: ir.Function, module: ir.Module, grid, bounds_check: bool = True
) -> CompiledKernel:
    """Fetch (or lower + compile) the callable for one kernel/grid class."""
    # Fault-injection seam: an injected failure here is a CodegenError
    # subclass, so the ``auto`` backend falls back to the interpreter
    # exactly as for a real lowering bug.  Sits before the cache lookup
    # so chaos runs can fault already-compiled kernels.
    maybe_inject(SITE_COMPILE, fn.name, exc=CodegenError)
    fp = fingerprint_kernel(fn, module)
    key = (fp, "2d" if grid.is_2d else "1d", bool(bounds_check))
    hit = _CACHE.get(key)
    if hit is not None:
        return hit._hit()
    started = time.perf_counter()
    with obs_trace.span(
        "codegen.compile", kernel=fn.name, cache="miss", grid_class=key[1]
    ):
        source, exec_globals, entry_name, info = lower_kernel(fn, module, bounds_check)
        filename = f"<codegen:{fn.name}:{fp[:10]}>"
        try:
            code = compile(source, filename, "exec")
        except SyntaxError as exc:  # pragma: no cover - emitter bug guard
            raise CodegenError(
                f"generated source for {fn.name} failed to compile: {exc}"
            ) from exc
        exec(code, exec_globals)
    # Make generated frames readable in tracebacks and pdb.
    linecache.cache[filename] = (len(source), None, source.splitlines(True), filename)
    compiled = CompiledKernel(
        fn_name=fn.name,
        param_names=[p.name for p in fn.params],
        entry=exec_globals[entry_name],
        source=source,
        fingerprint=fp,
        grid_class=key[1],
        bounds_check=key[2],
        detail=_detail_string(info),
    )
    STATS.inc("compiles")
    STATS.inc("compile_seconds", time.perf_counter() - started)
    STATS.inc("source_bytes", len(source))
    STATS.inc("cast_elisions", info["cast_elisions"])
    STATS.inc("planned_sites", info["planned_sites"])
    return _CACHE.put(key, compiled)


# Identity-keyed memo for classification results (same pinning rationale
# as the fingerprint memo: IR trees are immutable after construction).
_CLASSIFY_MEMO = Store("codegen.classify", cap=512)


def classify_lowering(fn: ir.Function, module: ir.Module) -> Tuple[str, str]:
    """How this kernel will execute under the codegen backend:
    ``("codegen" | "interpreter", detail)`` — the specialization summary,
    or the reason lowering failed.

    Runs the actual lowering (without exec) so the answer can't drift
    from what a launch would do; results are memoized per (fn, module).
    """
    key = (id(fn), id(module))
    hit = _CLASSIFY_MEMO.get(key)
    if hit is not None:
        return hit
    try:
        *_, info = lower_kernel(fn, module)
    except CodegenError as exc:
        result = ("interpreter", f"codegen fallback: {exc}")
    else:
        result = ("codegen", _detail_string(info))
    return _CLASSIFY_MEMO.put(key, result, pins=(fn, module))


def clear_cache() -> None:
    """Drop all compiled kernels, the engine's launch plans that hold them
    and the address plans resolved for them (tests; does not reset
    STATS)."""
    _CACHE.clear()
    _LAUNCH_PLANS.clear()
    drop_plans()


def cache_size() -> int:
    return len(_CACHE)
