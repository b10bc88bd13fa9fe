"""Windowed quality estimation for the serving loop (paper §3.5 / Fig 2).

The runtime cannot check quality on every invocation — that would erase
the speedup — so it samples on a cadence and keeps a sliding window of the
measured qualities.  Two conditions trigger recalibration:

* **TOQ violation** — the windowed quality estimate (or a single sampled
  launch) falls below the target output quality, and
* **drift** — the estimate is still above the TOQ but has fallen far
  enough below the quality measured during training that the input
  distribution has plainly shifted; stepping down *before* the TOQ is
  violated is the margin a production deployment wants.

After several consecutive clean samples with quality comfortably above
the TOQ, the monitor signals headroom and the recalibrator may step back
up to a more aggressive variant (Green's behaviour).
"""

from __future__ import annotations

import numbers
from collections import deque
from dataclasses import dataclass
from typing import Deque, Optional

from ..errors import ServeError

#: Monitor verdicts, in decreasing severity.
VIOLATION = "toq_violation"
DRIFT = "drift"
HEADROOM = "headroom"
OK = ""


@dataclass(frozen=True)
class MonitorConfig:
    """Knobs of the quality monitor.

    Attributes:
        sample_every: check one launch in ``sample_every`` (the paper's
            runtime checks every 40-50 invocations; tests use small values).
        window: sliding-window length of the quality estimator.
        min_samples: samples required before drift can be declared (a
            single noisy check should not retune a healthy session).
        drift_drop: how far the windowed estimate may fall below the
            training baseline before drift is declared.
        advance_after: consecutive clean samples before signalling
            headroom; 0 disables stepping back up.
        margin: quality slack over the TOQ required to signal headroom.
    """

    sample_every: int = 10
    window: int = 8
    min_samples: int = 3
    drift_drop: float = 0.05
    advance_after: int = 3
    margin: float = 0.02

    def __post_init__(self) -> None:
        for name, least in (
            ("sample_every", 1),
            ("window", 1),
            ("min_samples", 0),
            ("advance_after", 0),
        ):
            value = getattr(self, name)
            if (
                not isinstance(value, numbers.Integral)
                or isinstance(value, bool)
                or value < least
            ):
                raise ServeError(
                    f"MonitorConfig.{name} must be an int >= {least}, got {value!r}"
                )
        for name in ("drift_drop", "margin"):
            value = getattr(self, name)
            # NaN fails the range test: every comparison with it is False.
            if (
                not isinstance(value, numbers.Real)
                or isinstance(value, bool)
                or not 0.0 <= value <= 1.0
            ):
                raise ServeError(
                    f"MonitorConfig.{name} must be a real in [0, 1], got {value!r}"
                )


class QualityMonitor:
    """Sliding-window quality estimator with a sampling cadence."""

    def __init__(self, toq: float, config: Optional[MonitorConfig] = None):
        if not 0.0 < toq <= 1.0:
            raise ServeError(f"monitor TOQ must be in (0, 1], got {toq}")
        self.toq = toq
        self.config = config or MonitorConfig()
        self.baseline: Optional[float] = None
        self.samples: Deque[float] = deque(maxlen=self.config.window)
        self._clean_streak = 0

    def set_baseline(self, quality: float) -> None:
        """Record the training-time quality of the serving variant; drift is
        measured as decay relative to this value."""
        self.baseline = quality

    def should_sample(self, launch_index: int) -> bool:
        """Whether launch ``launch_index`` (0-based) pays a quality check."""
        cadence = self.config.sample_every
        return launch_index % cadence == cadence - 1

    @property
    def estimate(self) -> Optional[float]:
        """The windowed quality estimate (None before any sample)."""
        if not self.samples:
            return None
        return sum(self.samples) / len(self.samples)

    def observe(self, quality: float) -> str:
        """Fold one sampled quality in and return the verdict: ``VIOLATION``,
        ``DRIFT``, ``HEADROOM`` or ``OK`` (empty string)."""
        self.samples.append(quality)
        estimate = self.estimate
        if quality < self.toq or estimate < self.toq:
            self._clean_streak = 0
            return VIOLATION
        if (
            self.baseline is not None
            and len(self.samples) >= self.config.min_samples
            and estimate < self.baseline - self.config.drift_drop
        ):
            self._clean_streak = 0
            return DRIFT
        self._clean_streak += 1
        if (
            self.config.advance_after
            and self._clean_streak >= self.config.advance_after
            and quality >= self.toq + self.config.margin
        ):
            self._clean_streak = 0
            return HEADROOM
        return OK

    def reset(self) -> None:
        """Forget the window (called after the session changes variant, so
        stale samples of the old variant don't re-trigger)."""
        self.samples.clear()
        self._clean_streak = 0
