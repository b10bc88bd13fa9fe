"""Application framework for the 13 benchmarks of paper Table 1.

An :class:`Application` bundles everything an experiment needs: input
generation, the exact kernel(s), the app-specific quality metric, and how
to execute approximate variants.  :class:`KernelApplication` implements
the common single-kernel shape; the scan benchmark overrides the protocol
with its three-phase program.
"""

from __future__ import annotations

import abc
import hashlib
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np

from .._state import Store
from ..engine import Grid, Trace, launch
from ..kernel.frontend import KernelFn
from ..runtime.quality import QualityMetric


def _input_fingerprint(inputs: Dict[str, object]) -> Tuple:
    """A cheap content key for one input set.

    An array's part is its dtype, its shape and a 128-bit sha256 of its
    bytes in C order, hashed straight from its buffer (a contiguous array
    is not copied).  sha256 rather than blake2b: on a CPU with SHA
    extensions it hashes the same bytes about twice as fast.  The key
    lives in memory only (the golden outputs use it).
    """
    parts: List[Tuple[str, object]] = []
    for key in sorted(inputs):
        value = inputs[key]
        if isinstance(value, np.ndarray):
            data = np.ascontiguousarray(value).data
            digest = hashlib.sha256(data).hexdigest()[:32]
            parts.append((key, f"{value.dtype}{value.shape}{digest}"))
        else:
            parts.append((key, repr(value)))
    return tuple(parts)


@dataclass
class AppInfo:
    """Table-1 row: static facts about a benchmark."""

    name: str
    domain: str
    input_size: str
    patterns: Tuple[str, ...]
    error_metric: str


class Application(abc.ABC):
    """One benchmark program.

    Subclasses define class attributes ``info`` (an :class:`AppInfo`) and
    ``metric`` (a :class:`QualityMetric`), plus the abstract methods below.
    ``scale`` in [0, 1] shrinks the paper's input sizes for quick runs;
    scale=1 restores Table 1 sizes.
    """

    info: AppInfo
    metric: QualityMetric

    def __init__(self, scale: float = 0.1, seed: int = 0) -> None:
        self.scale = scale
        self.seed = seed

    # -- protocol -------------------------------------------------------------

    @abc.abstractmethod
    def generate_inputs(self, seed: Optional[int] = None) -> Dict[str, object]:
        """A fresh input set (the paper runs 110 input sets per app)."""

    @abc.abstractmethod
    def run_exact(self, inputs: Dict[str, object]) -> Tuple[np.ndarray, Trace]:
        """Execute the unmodified program; returns (output, trace)."""

    @abc.abstractmethod
    def run_variant(self, variant, inputs) -> Tuple[np.ndarray, Trace]:
        """Execute one approximate variant; returns (output, trace)."""

    def quality(self, approx_output, exact_output) -> float:
        return self.metric.quality(approx_output, exact_output)

    # -- golden-output evaluation (used by the serving monitor) ---------------

    #: how many exact outputs :meth:`golden_output` keeps (a monitor samples
    #: the same input set it just launched, so a tiny cache suffices).
    GOLDEN_CACHE_SIZE = 8

    def golden_output(self, inputs, run_exact=None) -> np.ndarray:
        """The exact program's output for ``inputs``, cached by content and
        stored read-only.

        A quality monitor checks sampled launches against the exact output
        of the *same* inputs; caching by input fingerprint makes repeated
        checks on one input set cost a single exact execution.  A miss
        calls ``run_exact(inputs)`` — by default :meth:`run_exact` under
        the caller's ambient options; a session passes its own runner so
        the check never depends on whatever scope happens to be active.
        The store keeps the array ``run_exact`` returned, uncopied unless
        it is a view, so ``run_exact`` must return a fresh array.
        """
        cache = getattr(self, "_golden_cache", None)
        if cache is None:
            cache = self._golden_cache = Store(cap=self.GOLDEN_CACHE_SIZE)
        key = _input_fingerprint(inputs)
        golden = cache.get(key)
        if golden is None:
            cache.make_room()  # before the exact run makes one more output
            out, _trace = (run_exact or self.run_exact)(inputs)
            if not (isinstance(out, np.ndarray) and out.flags.owndata):
                out = np.array(out)  # a view: its base may still be written
            out.flags.writeable = False
            golden = cache.put(key, out)
        return golden

    def evaluate(self, output, inputs, run_exact=None) -> float:
        """Quality of ``output`` against the golden output for ``inputs`` —
        the cheap evaluator the serving monitor calls on sampled launches."""
        return self.quality(output, self.golden_output(inputs, run_exact))

    @property
    def name(self) -> str:
        return self.info.name

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<{type(self).__name__} scale={self.scale}>"


class KernelApplication(Application):
    """An application whose program is one kernel launch.

    Subclasses provide:

    * ``kernel`` — the :class:`~repro.kernel.frontend.KernelFn`,
    * :meth:`make_args` — the launch argument list writing into ``out``,
    * :meth:`make_output` — allocate the output buffer,
    * :meth:`grid` — the launch geometry.
    """

    kernel: KernelFn

    @abc.abstractmethod
    def make_args(self, inputs, out) -> List[object]:
        ...

    @abc.abstractmethod
    def make_output(self, inputs) -> np.ndarray:
        ...

    @abc.abstractmethod
    def grid(self, inputs) -> Grid:
        ...

    def run_exact(self, inputs):
        out = self.make_output(inputs)
        trace = launch(self.kernel, self.grid(inputs), self.make_args(inputs, out))
        return out, trace

    def run_variant(self, variant, inputs):
        out = self.make_output(inputs)
        args = variant.launch_args(self.make_args(inputs, out))
        trace = launch(
            variant.module[variant.kernel],
            self.grid(inputs),
            args,
            module=variant.module,
        )
        return out, trace

    def training_launch(self, inputs):
        """(kernel, grid, args) for profiling runs; output is scratch."""
        out = self.make_output(inputs)
        return self.kernel, self.grid(inputs), self.make_args(inputs, out)
