"""Paraprox reproduction: pattern-based approximation for data-parallel programs.

The package reimplements the full Paraprox system from the ASPLOS 2014
paper — kernel frontend, pattern detection, the four approximation
transforms, the TOQ-driven runtime tuner, a GPU/CPU device cost model, the
13 benchmark applications, and the experiment harness that regenerates
every results table and figure.

Quick start::

    from repro import Paraprox, DeviceKind
    from repro.apps.blackscholes import BlackScholesApp

    app = BlackScholesApp(scale=0.1)
    result = Paraprox(target_quality=0.90).optimize(app, DeviceKind.GPU)
    print(result.chosen.name, result.speedup, result.quality)
"""

__version__ = "1.1.0"

from ._options import LaunchOptions, current_options, options
from ._state import reset
from .approx.base import VariantSet
from .approx.compiler import Paraprox, ParaproxConfig
from .device import CORE_I7, GTX560, CostModel, DeviceKind, DeviceSpec
from .engine import Grid, launch
from .kernel import device, kernel
from .patterns import Pattern, PatternDetector
from .registry import VariantRegistry
from .runtime import GreedyTuner, QualityMetric
from .serve import ApproxSession, MonitorConfig, ServeFrontend  # noqa: E501

__all__ = [
    "Paraprox",
    "ParaproxConfig",
    "VariantSet",
    "LaunchOptions",
    "options",
    "current_options",
    "reset",
    "ApproxSession",
    "ServeFrontend",
    "MonitorConfig",
    "DeviceKind",
    "DeviceSpec",
    "CostModel",
    "GTX560",
    "CORE_I7",
    "Grid",
    "launch",
    "kernel",
    "device",
    "Pattern",
    "PatternDetector",
    "GreedyTuner",
    "QualityMetric",
    "VariantRegistry",
    "__version__",
]
