"""Output-quality metrics (paper Table 1 and §4.2).

Each benchmark measures quality with an application-specific error metric —
L1-norm, L2-norm or mean relative error — always comparing the approximate
output against the unmodified exact output.  Quality is reported as a
fraction in [0, 1]; the paper's 90 % target output quality is ``toq=0.90``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict

import numpy as np

#: Guard against division by zero in relative errors.
EPSILON = 1e-12


def _operands(approx, exact):
    """Both sides flat, in C order, in their own dtypes: a contiguous array
    is viewed, not copied.

    The metrics cast to float64 inside their ufuncs (``dtype=np.float64``)
    and compute into float64 buffers of their own, so neither side is ever
    promoted into a copy; the elementwise values and the one reduction over
    a contiguous float64 array are the ones the promote-then-compute
    formulas give, bit for bit.
    """
    a = np.ravel(approx)
    e = np.ravel(exact)
    if a.shape != e.shape:
        raise ValueError(f"shape mismatch: approx {a.shape} vs exact {e.shape}")
    return a, e


def _finite_or_inf(a: np.ndarray) -> bool:
    """False when ``a`` holds any NaN/Inf.

    A non-finite approximate output must score as *infinite error* (a
    hard quality violation), never as NaN — NaN would propagate through
    the mean, compare false against every TOQ threshold and silently
    disable the quality monitor.
    """
    return bool(np.isfinite(a).all())


def _abs_diff(a, e, out=None) -> np.ndarray:
    """|a - e| in float64, in ``out`` or one new buffer."""
    d = np.subtract(a, e, out=out, dtype=np.float64)
    return np.abs(d, out=d)


def _relative(a, e) -> np.ndarray:
    """|a - e| / max(|e|, EPSILON), in two float64 buffers."""
    denom = np.abs(e, dtype=np.float64)
    np.maximum(denom, EPSILON, out=denom)
    d = _abs_diff(a, e)
    return np.divide(d, denom, out=d)


def mean_relative_error(approx, exact) -> float:
    """mean(|approx - exact| / |exact|), with an epsilon floor on |exact|.

    Returns ``inf`` when either side contains NaN/Inf."""
    a, e = _operands(approx, exact)
    if not (_finite_or_inf(a) and _finite_or_inf(e)):
        return float("inf")
    return float(np.mean(_relative(a, e)))


def l1_norm_error(approx, exact) -> float:
    """sum(|approx - exact|) / sum(|exact|) — relative L1 distance.

    Returns ``inf`` when either side contains NaN/Inf."""
    a, e = _operands(approx, exact)
    if not (_finite_or_inf(a) and _finite_or_inf(e)):
        return float("inf")
    buf = np.abs(e, dtype=np.float64)
    denom = max(float(np.sum(buf)), EPSILON)
    return float(np.sum(_abs_diff(a, e, out=buf)) / denom)


def l2_norm_error(approx, exact) -> float:
    """||approx - exact||_2 / ||exact||_2 — relative L2 distance.

    Returns ``inf`` when either side contains NaN/Inf."""
    a, e = _operands(approx, exact)
    if not (_finite_or_inf(a) and _finite_or_inf(e)):
        return float("inf")
    buf = np.multiply(e, e, dtype=np.float64)
    denom = max(float(np.sqrt(np.sum(buf))), EPSILON)
    d = np.subtract(a, e, out=buf, dtype=np.float64)
    return float(np.sqrt(np.sum(np.multiply(d, d, out=d))) / denom)


def relative_errors(approx, exact) -> np.ndarray:
    """Per-element relative error — the quantity behind the error CDF of
    paper Fig 13."""
    a, e = _operands(approx, exact)
    return _relative(a, e)


_METRICS: Dict[str, Callable] = {
    "mean_relative": mean_relative_error,
    "l1": l1_norm_error,
    "l2": l2_norm_error,
}


@dataclass(frozen=True)
class QualityMetric:
    """A named error metric with the quality = 1 - error convention."""

    name: str

    def __post_init__(self) -> None:
        if self.name not in _METRICS:
            raise KeyError(f"unknown metric {self.name!r}; known: {sorted(_METRICS)}")

    def error(self, approx, exact) -> float:
        return _METRICS[self.name](approx, exact)

    def quality(self, approx, exact) -> float:
        """Output quality in [0, 1]: 1 - error, floored at 0.

        A non-finite error (NaN/Inf anywhere in the comparison) scores
        0.0 — the hardest possible violation — instead of propagating."""
        error = self.error(approx, exact)
        if not np.isfinite(error):
            return 0.0
        return max(0.0, 1.0 - error)


MEAN_RELATIVE = QualityMetric("mean_relative")
L1_NORM = QualityMetric("l1")
L2_NORM = QualityMetric("l2")
