"""Resilient serving: fault injection, guarded launches, quarantine.

Three cooperating pieces (Paraprox's runtime, hardened for production):

* :mod:`~repro.resilience.faults` — deterministic, seedable fault
  injection at the stack's real failure sites (compile, shard worker,
  quality evaluation, cache load, output corruption).
* :mod:`~repro.resilience.guard` — guarded launches: a wall-clock
  deadline on sharded launches, serial re-execution after a transport
  fault, and the fallback ladder *approx variant → exact codegen →
  exact interpreter* that turns any contained failure into an exact
  answer.
* :mod:`~repro.resilience.breaker` — per-variant circuit breakers that
  quarantine a variant after repeated faults and re-admit it through a
  probation window.

The ``contained`` contract of :mod:`repro.conformance` holds all three
to their promise under every fault class.
"""

from .breaker import CLOSED, OPEN, PROBATION, BreakerConfig, VariantBreaker
from .faults import (
    FAULT_CLASSES,
    MODES,
    SITES,
    SITE_CACHE_LOAD,
    SITE_COMPILE,
    SITE_OUTPUT,
    SITE_QUALITY,
    SITE_WORKER,
    FaultPlan,
    FaultSpec,
    active_plan,
    maybe_inject,
    random_plan,
    use_faults,
)
from .guard import (
    GuardPolicy,
    LadderAttempt,
    LadderReport,
    current_policy,
    guarded_map,
    run_ladder,
    stats_snapshot,
)
from .validate import corrupt_output, validate_output

__all__ = [
    "BreakerConfig",
    "VariantBreaker",
    "CLOSED",
    "OPEN",
    "PROBATION",
    "FaultPlan",
    "FaultSpec",
    "FAULT_CLASSES",
    "MODES",
    "SITES",
    "SITE_CACHE_LOAD",
    "SITE_COMPILE",
    "SITE_OUTPUT",
    "SITE_QUALITY",
    "SITE_WORKER",
    "active_plan",
    "maybe_inject",
    "random_plan",
    "use_faults",
    "GuardPolicy",
    "LadderAttempt",
    "LadderReport",
    "current_policy",
    "guarded_map",
    "run_ladder",
    "stats_snapshot",
    "corrupt_output",
    "validate_output",
]
