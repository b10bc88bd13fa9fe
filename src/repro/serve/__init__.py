"""Online approximation serving (paper §3.5 as a persistent runtime).

The package turns the one-shot compile/tune pipeline into a long-lived
service: :class:`ApproxSession` caches compiled variant sets in-process
and on disk, resumes tuning results across restarts, monitors sampled
output quality through a windowed estimator, and greedily recalibrates
the variant ladder when quality drifts — with every decision visible in a
structured metrics snapshot and optional JSONL event log.
"""

from .cache import CacheEntry, VariantCache, app_fingerprint, cache_key
from .metrics import LaunchRecord, SessionMetrics, Transition
from .monitor import DRIFT, HEADROOM, OK, VIOLATION, MonitorConfig, QualityMonitor
from .overload import (
    LevelTransition,
    OverloadConfig,
    OverloadController,
    PressureSample,
    degraded_variant,
)
from .recalibrate import Recalibrator
from .frontend import ServeFrontend, Tenant
from .session import ApproxSession
from .signals import (
    drain,
    install_signal_handlers,
    uninstall_signal_handlers,
)

__all__ = [
    "ApproxSession",
    "ServeFrontend",
    "Tenant",
    "OverloadConfig",
    "OverloadController",
    "PressureSample",
    "LevelTransition",
    "degraded_variant",
    "drain",
    "install_signal_handlers",
    "uninstall_signal_handlers",
    "VariantCache",
    "CacheEntry",
    "cache_key",
    "app_fingerprint",
    "MonitorConfig",
    "QualityMonitor",
    "Recalibrator",
    "SessionMetrics",
    "LaunchRecord",
    "Transition",
    "VIOLATION",
    "DRIFT",
    "HEADROOM",
    "OK",
]
