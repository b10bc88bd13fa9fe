"""Compile IR kernels to specialized NumPy callables.

The interpreter (:mod:`repro.engine.interpreter`) re-walks the IR tree on
every launch; on the serving hot path the same kernel variant runs
thousands of times, so per-launch dispatch dominates.  This package
lowers a kernel once to straight-line NumPy source — reproducing the
interpreter's semantics bit-for-bit — compiles it with
``compile()``/``exec`` and caches the callable by IR fingerprint.

Layers:

* :mod:`~repro.codegen.lower` — IR -> Python/NumPy source emitter.
* :mod:`~repro.codegen.runtime` — helpers the generated code calls
  (masked assignment, bounds checks, lane liveness, grid geometry).
* :mod:`~repro.codegen.fingerprint` — stable IR digests for cache keys.
* :mod:`~repro.codegen.cache` — fingerprint -> compiled callable, with
  compile-time statistics for ``serve.metrics``.

Bit-exact agreement with the interpreter is the ``exact`` and ``variant``
contracts of :mod:`repro.conformance` (``python -m repro.conformance``).

Backend selection lives in :mod:`repro.engine.launch`
(``backend="interp" | "codegen" | "auto"``).
"""

from ..errors import CodegenError
from .cache import (
    CompiledKernel,
    cache_size,
    classify_lowering,
    clear_cache,
    get_compiled,
    stats_snapshot,
)
from .fingerprint import fingerprint_kernel
from .lower import lower_kernel

__all__ = [
    "CodegenError",
    "CompiledKernel",
    "get_compiled",
    "clear_cache",
    "cache_size",
    "classify_lowering",
    "stats_snapshot",
    "fingerprint_kernel",
    "lower_kernel",
]
