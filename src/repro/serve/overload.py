"""Brownout overload control: degrade quality before dropping traffic.

The serving front-end treats overload as a binary — admit, or hard-reject
with :class:`~repro.errors.BackpressureError`.  But quality is this
system's tradable resource (the paper's whole premise): under pressure
the robust move is to walk *every* degradable tenant down the
approximation ladder, within its declared ``toq_floor``, and only start
rejecting traffic — lowest-priority tenants first — once the ladder is
exhausted.  That policy lives here:

* :class:`OverloadController` — a hysteresis state machine
  ``NORMAL -> BROWNOUT-1..K -> SHED`` driven by a normalized pressure
  signal (queue delay vs target, deadline-miss rate, queue saturation).
  Escalation is immediate at the high-water mark; recovery re-promotes
  one level at a time, each step only after pressure has stayed below
  the low-water mark for a full cooldown.  Every transition is a
  ``serve.brownout`` span, a timeline entry and a
  ``repro_brownout_*`` metric update.
* :func:`degraded_variant` — maps a brownout level onto one session's
  tuned ladder: the fastest calibrated variant whose training quality
  still clears the interpolated quality bar (TOQ at level 0 sliding to
  the tenant's floor at level K), skipping breaker-quarantined variants,
  seeded from the variant registry's knee point when one is known.

The ``floor`` contract of :mod:`repro.conformance` ramps synthetic queue
delay (via the ``serve.overload`` fault seam) through a three-tenant
front-end for every benchmark app and asserts the brownout promise: no
deadline-miss cascade, every served response at or above its tenant's
floor, shed confined to the lowest-priority tenant, monotone level
transitions, and full recovery to NORMAL.
"""

from __future__ import annotations

import threading
import time
from collections import deque
from dataclasses import dataclass
from typing import Callable, Deque, List, Optional

from ..errors import ServeError
from ..obs import trace as obs_trace
from ..obs.registry import get_registry
from ..obs.timeline import timeline as obs_timeline

#: Pressure cap: queue delay far past target saturates the signal rather
#: than growing without bound (one observation still moves one level).
_PRESSURE_CAP = 4.0


@dataclass(frozen=True)
class OverloadConfig:
    """Knobs of one front-end's brownout state machine.

    Attributes:
        levels: brownout depth K; the state ladder is NORMAL (0),
            BROWNOUT-1..K, SHED (K+1).
        high_water: pressure at or above this escalates one level.
        low_water: pressure at or below this, *sustained*, recovers one
            level.  ``low_water < high_water`` is the hysteresis band —
            pressure between the marks holds the current level.
        cooldown_s: how long pressure must stay below the low-water mark
            before each single recovery step (the timer restarts per
            rung, so full recovery from SHED takes ``(K+1) * cooldown``
            of sustained calm).
        queue_delay_target_s: queue delay that normalizes to pressure
            1.0; the delay component is ``delay / target`` (capped).
        deadline_s: default per-request queue-delay deadline used for
            the miss-rate signal when ``submit`` gave none.
        window: rolling request window for the deadline-miss rate.
    """

    levels: int = 3
    high_water: float = 0.75
    low_water: float = 0.25
    cooldown_s: float = 0.25
    queue_delay_target_s: float = 0.05
    deadline_s: float = 0.5
    window: int = 32

    def __post_init__(self) -> None:
        if self.levels < 1:
            raise ServeError(f"levels must be >= 1, got {self.levels}")
        if not 0.0 < self.high_water:
            raise ServeError(
                f"high_water must be > 0, got {self.high_water}"
            )
        if not 0.0 <= self.low_water < self.high_water:
            raise ServeError(
                f"low_water must be in [0, high_water), got "
                f"{self.low_water} (high_water {self.high_water})"
            )
        if self.cooldown_s < 0:
            raise ServeError(f"cooldown_s must be >= 0, got {self.cooldown_s}")
        if self.queue_delay_target_s <= 0:
            raise ServeError(
                f"queue_delay_target_s must be > 0, got "
                f"{self.queue_delay_target_s}"
            )
        if self.deadline_s <= 0:
            raise ServeError(f"deadline_s must be > 0, got {self.deadline_s}")
        if self.window < 1:
            raise ServeError(f"window must be >= 1, got {self.window}")


@dataclass(frozen=True)
class PressureSample:
    """One batch window's raw pressure signals (all dimensionless after
    normalization except ``queue_delay_s``)."""

    queue_delay_s: float = 0.0
    miss_rate: float = 0.0
    saturation: float = 0.0


@dataclass(frozen=True)
class LevelTransition:
    """One recorded level change, for the drill's monotonicity checks."""

    at: float
    from_level: int
    to_level: int
    reason: str
    pressure: float


class _BrownoutMetrics:
    """Registry-backed ``repro_brownout_*`` families, labelled per
    front-end (families are shared; the registry deduplicates)."""

    def __init__(self) -> None:
        registry = get_registry()
        self.level = registry.gauge(
            "repro_brownout_level",
            "current overload level (0 = NORMAL, levels+1 = SHED)",
            labelnames=("frontend",),
        )
        self.pressure = registry.gauge(
            "repro_brownout_pressure",
            "last normalized pressure observation",
            labelnames=("frontend",),
        )
        self.transitions = registry.counter(
            "repro_brownout_transitions_total",
            "overload level transitions",
            labelnames=("frontend", "direction"),
        )
        self.shed = registry.counter(
            "repro_brownout_shed_total",
            "requests shed at admission while in SHED",
            labelnames=("frontend", "tenant"),
        )


class OverloadController:
    """The per-frontend hysteresis state machine over pressure samples.

    Levels are integers ``0..levels+1``: 0 is NORMAL, ``1..levels`` are
    the brownout rungs, ``levels+1`` is SHED.  :meth:`observe` moves the
    level at most one step per call, so transitions are monotone by
    construction — escalation on the first high-water reading, recovery
    only after a full cooldown of sustained low pressure per rung.

    Thread-safety: ``observe`` and the read properties may race between
    the dispatcher thread (observing) and submitter threads (checking
    ``is_shedding`` at admission); all state moves under one lock.

    Args:
        config: the state-machine knobs.
        label: front-end label stamped on metrics, spans and timeline
            entries.
        clock: monotonic time source (injectable for tests).
    """

    def __init__(
        self,
        config: Optional[OverloadConfig] = None,
        label: str = "frontend",
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        self.config = config if config is not None else OverloadConfig()
        self.label = label
        self._clock = clock
        self._lock = threading.Lock()
        self._level = 0
        self._below_since: Optional[float] = None
        self._transitions: Deque[LevelTransition] = deque(maxlen=4096)
        self._metrics = _BrownoutMetrics()
        self._metrics.level.labels(frontend=label).set(0)

    # -- state -----------------------------------------------------------------

    @property
    def level(self) -> int:
        return self._level

    @property
    def shed_level(self) -> int:
        return self.config.levels + 1

    @property
    def is_shedding(self) -> bool:
        return self._level >= self.shed_level

    @property
    def transitions(self) -> List[LevelTransition]:
        with self._lock:
            return list(self._transitions)

    def state_name(self, level: Optional[int] = None) -> str:
        level = self._level if level is None else level
        if level <= 0:
            return "NORMAL"
        if level >= self.shed_level:
            return "SHED"
        return f"BROWNOUT-{level}"

    # -- the control loop ------------------------------------------------------

    def pressure_of(self, sample: PressureSample) -> float:
        """Normalize one sample to a single scalar: the worst of queue
        delay (relative to target, capped), miss rate and saturation."""
        delay = min(
            sample.queue_delay_s / self.config.queue_delay_target_s,
            _PRESSURE_CAP,
        )
        return max(delay, sample.miss_rate, sample.saturation)

    def observe(self, sample: PressureSample) -> int:
        """Feed one batch window's sample; returns the (possibly moved)
        level the next batch should serve at."""
        config = self.config
        pressure = self.pressure_of(sample)
        with self._lock:
            now = self._clock()
            level = self._level
            if pressure >= config.high_water:
                # Escalation is immediate: sustained pressure walks one
                # level per batch window.  Any high reading also voids
                # recovery credit already accrued.
                self._below_since = None
                if level < self.shed_level:
                    self._transition(level, level + 1, "pressure", pressure, now)
            elif pressure <= config.low_water and level > 0:
                if self._below_since is None:
                    self._below_since = now
                elif now - self._below_since >= config.cooldown_s:
                    self._transition(level, level - 1, "recovery", pressure, now)
                    # Each rung earns its own full cooldown: restart the
                    # timer so recovery is one step per cooldown period.
                    self._below_since = now
            else:
                # Inside the hysteresis band: hold the level, and require
                # a fresh full cooldown before the next recovery step.
                self._below_since = None
            self._metrics.pressure.labels(frontend=self.label).set(pressure)
            return self._level

    def _transition(
        self, from_level: int, to_level: int, reason: str, pressure: float,
        now: float,
    ) -> None:
        """Apply one level change (caller holds the lock)."""
        self._level = to_level
        self._transitions.append(
            LevelTransition(
                at=now,
                from_level=from_level,
                to_level=to_level,
                reason=reason,
                pressure=pressure,
            )
        )
        direction = "up" if to_level > from_level else "down"
        self._metrics.level.labels(frontend=self.label).set(to_level)
        self._metrics.transitions.labels(
            frontend=self.label, direction=direction
        ).inc()
        with obs_trace.span(
            "serve.brownout",
            frontend=self.label,
            from_state=self.state_name(from_level),
            to_state=self.state_name(to_level),
            reason=reason,
            pressure=round(pressure, 4),
        ):
            pass
        obs_timeline().brownout(
            frontend=self.label,
            from_level=from_level,
            to_level=to_level,
            state=self.state_name(to_level),
            reason=reason,
            pressure=pressure,
        )

    def record_shed(self, tenant: str) -> None:
        self._metrics.shed.labels(frontend=self.label, tenant=tenant).inc()


# ------------------------------------------------------- degradation ladder


def degraded_variant(
    session, level: int, levels: int, floor: float
) -> Optional[str]:
    """The variant-name override for serving ``session`` at a brownout
    level, or None to keep the session's own (monitored) choice.

    The quality bar interpolates from the session TOQ at level 0 down to
    the tenant's ``floor`` at level ``levels`` (deeper levels stay at the
    floor), and the override is the *fastest* calibrated, non-predicted
    variant whose training quality clears the bar — never a
    breaker-quarantined one.  When the session tunes under a variant
    registry whose knee point for the bar names a usable variant, that
    knee seeds the choice (fleet knowledge beats one session's ladder).

    Degradation never serves below the tenant floor: candidates are
    calibrated at or above the bar, and the bar never drops below the
    floor.  When nothing faster clears the bar the session keeps the
    tuner's choice, whose calibrated quality already clears the TOQ (and
    hence the floor — admission rejects tenants whose floor exceeds it).
    """
    if level <= 0:
        return None
    tuning = getattr(session, "tuning", None)
    if tuning is None:
        return None
    toq = session.toq
    floor = min(max(floor, 0.0), toq)
    step = min(level, levels)
    bar = toq - (toq - floor) * (step / float(levels))
    index = session.metrics.launches
    breaker = session.breaker

    candidates = [
        profile
        for profile in tuning.profiles
        if profile.variant is not None
        and not profile.predicted
        and profile.quality >= bar
        and not breaker.blocked(profile.name, index)
    ]
    if not candidates:
        return None
    pick = max(candidates, key=lambda profile: profile.speedup)
    registry = getattr(session, "registry", None)
    registry_key = getattr(session, "registry_key", None)
    if registry is not None and registry_key is not None:
        point = registry.knee_for(registry_key, bar)
        if point is not None:
            seeded = next(
                (p for p in candidates if p.name == point.variant), None
            )
            if seeded is not None:
                pick = seeded
    if pick.name == session.current_variant:
        return None
    return pick.name
