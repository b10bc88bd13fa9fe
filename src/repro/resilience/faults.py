"""Deterministic, seedable fault injection for the serving stack.

Production code is littered with *sites* where the real world can fail:
codegen compilation, shard-worker execution, quality evaluation, cache
loads.  Each such site calls :func:`maybe_inject` — a no-op unless a
:class:`FaultPlan` is active — so the conformance runner
(:mod:`repro.conformance`) and the resilience tests can force any of
those failures on demand, deterministically, without monkeypatching.

A plan is a list of :class:`FaultSpec` triggers.  Each spec names a site,
a failure *mode* (raise, hang, die, or corrupt), an optional firing
budget (``max_fires``) and a firing probability.  Plans are seeded: two
runs with the same plan over the same serial code path fire identically.
(Concurrent shard workers poll the shared plan under a lock; with
``probability < 1`` the *which-visit-fired* order can vary across runs,
but every spec's total fire budget still holds.)

The active plan is **process-global** on purpose: faults must be visible
inside pool worker threads, which never inherit thread-local scopes.
Only one plan can be active at a time; :func:`use_faults` nests by
stacking.  A forked process starts with no plan: the process shard
lane's parent polls for its workers (:mod:`repro.parallel.procpool`).
"""

from __future__ import annotations

import os
import random
import threading
import time
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple, Type

from ..errors import InjectedFault, ResilienceError, WorkerDeath

# --------------------------------------------------------------------- sites

#: Codegen compilation (``repro.codegen.cache.get_compiled``); injected
#: failures are :class:`~repro.errors.CodegenError` subclasses so the
#: ``auto`` backend's interpreter fallback engages exactly as for a real
#: lowering bug.
SITE_COMPILE = "codegen.compile"

#: Shard-worker execution of one sub-grid (``repro.parallel.shard`` and
#: the guarded executor).  Modes: ``"exception"`` (a crash), ``"hang"``
#: (sleep past the launch deadline), ``"dead"`` (the worker is lost; a
#: process worker really exits).  Each is a transport fault: the launch
#: re-runs serially.
SITE_WORKER = "shard.worker"

#: Quality evaluation of a sampled launch (``ApproxSession.launch``).
SITE_QUALITY = "quality.evaluate"

#: Variant-cache load (``repro.serve.cache.VariantCache.get``).
SITE_CACHE_LOAD = "cache.load"

#: Approximate-output corruption: the guarded launcher pollutes the
#: primary attempt's output with NaN/Inf *before* validation, modelling
#: an approximation that numerically exploded.  Modes: ``"nan"``,
#: ``"inf"``.
SITE_OUTPUT = "output.corrupt"

#: Synthetic queue-delay injection for overload drills: the serving
#: front-end's pressure sampler polls this site directly and *adds*
#: ``hang_seconds`` to the measured queue delay — no real sleep — so a
#: drill can push a brownout controller through its whole state machine
#: deterministically (the ``floor`` contract of :mod:`repro.conformance`).
SITE_OVERLOAD = "serve.overload"

SITES = (
    SITE_COMPILE,
    SITE_WORKER,
    SITE_QUALITY,
    SITE_CACHE_LOAD,
    SITE_OUTPUT,
    SITE_OVERLOAD,
)

#: Failure modes, per site (exception is valid everywhere).
MODES = ("exception", "hang", "dead", "nan", "inf")


@dataclass(frozen=True)
class FaultSpec:
    """One trigger: fire ``mode`` at ``site`` while budget remains.

    Attributes:
        site: one of :data:`SITES`.
        mode: one of :data:`MODES`.
        probability: chance of firing per visit, in (0, 1].
        max_fires: stop firing after this many hits (None = unlimited).
        hang_seconds: sleep length for ``mode="hang"``.
        match: substring filter on the site's context string ("" = any).
    """

    site: str
    mode: str = "exception"
    probability: float = 1.0
    max_fires: Optional[int] = None
    hang_seconds: float = 0.25
    match: str = ""

    def __post_init__(self) -> None:
        if self.site not in SITES:
            raise ResilienceError(
                f"unknown fault site {self.site!r}; known: {SITES}"
            )
        if self.mode not in MODES:
            raise ResilienceError(
                f"unknown fault mode {self.mode!r}; known: {MODES}"
            )
        if not 0.0 < self.probability <= 1.0:
            raise ResilienceError(
                f"fault probability must be in (0, 1], got {self.probability!r}"
            )
        if self.max_fires is not None and self.max_fires < 1:
            raise ResilienceError(
                f"max_fires must be >= 1 or None, got {self.max_fires!r}"
            )
        if not self.hang_seconds >= 0.0:  # NaN fails this too
            raise ResilienceError(
                f"hang_seconds must be >= 0, got {self.hang_seconds!r}"
            )


class FaultPlan:
    """A seeded set of :class:`FaultSpec` triggers with firing bookkeeping.

    Thread-safe: shard workers poll the plan concurrently.  ``fired``
    counts hits per site for the harness's "did the fault actually
    happen" assertions.
    """

    def __init__(self, specs: Sequence[FaultSpec], seed: int = 0) -> None:
        self.specs: List[FaultSpec] = list(specs)
        self.seed = seed
        self._rng = random.Random(seed)
        self._left: List[Optional[int]] = [s.max_fires for s in self.specs]
        self.fired: Dict[str, int] = {}
        self._lock = threading.Lock()

    def poll(self, site: str, context: str = "") -> Optional[FaultSpec]:
        """The first matching spec with budget that fires, or None."""
        with self._lock:
            for i, spec in enumerate(self.specs):
                if spec.site != site:
                    continue
                if spec.match and spec.match not in context:
                    continue
                if self._left[i] == 0:
                    continue
                if spec.probability < 1.0 and self._rng.random() >= spec.probability:
                    continue
                if self._left[i] is not None:
                    self._left[i] -= 1
                self.fired[site] = self.fired.get(site, 0) + 1
                return spec
        return None

    def total_fired(self) -> int:
        with self._lock:
            return sum(self.fired.values())

    def describe(self) -> str:
        return ", ".join(
            f"{s.site}/{s.mode}"
            + (f" x{s.max_fires}" if s.max_fires is not None else "")
            for s in self.specs
        ) or "(empty plan)"


# ------------------------------------------------------------- active plan

_PLAN_LOCK = threading.Lock()
_PLAN_STACK: List[FaultPlan] = []
# A child's copy would fire on its own budget after the parent's block.
os.register_at_fork(after_in_child=_PLAN_STACK.clear)


def active_plan() -> Optional[FaultPlan]:
    """The innermost active plan, or None (the fast path)."""
    stack = _PLAN_STACK
    return stack[-1] if stack else None


class use_faults:
    """Activate a fault plan for a ``with`` block (process-global)."""

    def __init__(self, plan: FaultPlan) -> None:
        self.plan = plan

    def __enter__(self) -> FaultPlan:
        with _PLAN_LOCK:
            _PLAN_STACK.append(self.plan)
        return self.plan

    def __exit__(self, *_exc) -> None:
        with _PLAN_LOCK:
            if self.plan in _PLAN_STACK:
                _PLAN_STACK.remove(self.plan)


# --------------------------------------------------------------- injection

#: exc class -> dynamic (InjectedFault, exc) subclass, built once.
_COMBINED: Dict[Type[BaseException], Type[BaseException]] = {}


def _injected_type(exc: Type[BaseException]) -> Type[BaseException]:
    if issubclass(exc, InjectedFault):
        return exc
    combined = _COMBINED.get(exc)
    if combined is None:
        combined = type(f"Injected{exc.__name__}", (InjectedFault, exc), {})
        _COMBINED[exc] = combined
    return combined


def maybe_inject(
    site: str,
    context: str = "",
    exc: Type[BaseException] = InjectedFault,
) -> Optional[FaultSpec]:
    """The seam a fault site calls.  No active plan: one list check.

    A spec that fires is acted out by :func:`fire`.
    """
    plan = active_plan()
    spec = None if plan is None else plan.poll(site, context)
    return None if spec is None else fire(spec, site, context, exc)


def fire(
    spec: FaultSpec,
    site: str,
    context: str = "",
    exc: Type[BaseException] = InjectedFault,
) -> FaultSpec:
    """Act out ``spec``, which fired at ``site``.  Per mode:

    * ``exception`` — raise ``exc`` (combined with :class:`InjectedFault`).
    * ``dead`` — raise :class:`~repro.errors.WorkerDeath`.
    * ``hang`` — sleep ``hang_seconds`` then return the spec (the task
      completes *late*; the guard's deadline is what turns a hang into a
      failure).
    * ``nan`` / ``inf`` — return the spec; the caller corrupts its output.
    """
    if spec.mode == "exception":
        raise _injected_type(exc)(f"injected fault at {site} ({context})")
    if spec.mode == "dead":
        raise WorkerDeath(f"injected worker death at {site} ({context})")
    if spec.mode == "hang":
        time.sleep(spec.hang_seconds)
    return spec


# ------------------------------------------------------- randomized plans

#: (site, modes) pairs :func:`random_plan` draws from, one fault class
#: per chaos run.
FAULT_CLASSES: Dict[str, Tuple[str, Tuple[str, ...]]] = {
    "compile": (SITE_COMPILE, ("exception",)),
    "worker_crash": (SITE_WORKER, ("exception",)),
    "worker_hang": (SITE_WORKER, ("hang",)),
    "worker_dead": (SITE_WORKER, ("dead",)),
    "nan_output": (SITE_OUTPUT, ("nan", "inf")),
    "cache_load": (SITE_CACHE_LOAD, ("exception",)),
    "quality": (SITE_QUALITY, ("exception",)),
}


def random_plan(
    fault_class: str, seed: int = 0, hang_seconds: float = 0.25
) -> FaultPlan:
    """A randomized-but-seeded plan for one chaos fault class.

    The seed drives the firing budget and probability, so a seed matrix
    covers one-shot transients, repeated failures and persistent faults.
    """
    try:
        site, modes = FAULT_CLASSES[fault_class]
    except KeyError:
        raise ResilienceError(
            f"unknown fault class {fault_class!r}; "
            f"known: {sorted(FAULT_CLASSES)}"
        )
    rng = random.Random((fault_class, seed).__repr__())
    mode = modes[rng.randrange(len(modes))]
    max_fires: Optional[int] = rng.choice([1, 2, 4, None])
    probability = rng.choice([1.0, 1.0, 0.75, 0.5])
    spec = FaultSpec(
        site=site,
        mode=mode,
        probability=probability,
        max_fires=max_fires,
        hang_seconds=hang_seconds,
    )
    return FaultPlan([spec], seed=seed)
