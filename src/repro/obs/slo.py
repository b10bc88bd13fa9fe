"""Per-tenant SLOs with multi-window burn-rate alerting.

An :class:`SLOObjective` is a declarative statement of what a tenant was
promised — "99% of requests wait less than 100ms", "99.9% of sampled
launches meet the TOQ floor" — evaluated continuously against the live
metrics registry.  The four kinds map onto the serving stack's existing
instrumentation:

* ``latency`` — queue-wait compliance from a wait-time histogram
  (per-tenant: ``repro_frontend_tenant_wait_seconds``), interpolated
  against a threshold inside bucket bounds;
* ``deadline_miss_rate`` — deadline misses over admitted requests
  (``repro_frontend_tenant_deadline_misses_total`` /
  ``repro_frontend_requests_total``);
* ``quality`` — TOQ violations over sampled checks
  (``repro_session_toq_violations_total`` /
  ``repro_session_sampled_checks_total``);
* ``availability`` — admission rejects over offered load
  (``repro_frontend_rejects_total`` over requests + rejects).

Alerting follows the SRE burn-rate recipe: the *burn rate* is how fast
the error budget (``1 - target``) is being consumed — burn 1.0 spends
exactly the budget over the objective's period, burn 4.0 spends it four
times as fast.  An alert fires only when BOTH a fast window (reactive)
and a slow window (sustained) burn over the threshold, which suppresses
blips without missing real regressions.  States step OK → WARN → PAGE
one level per evaluation, and recover one level at a time only after
``clear_after_s`` of sustained sub-threshold burn — classic hysteresis,
the same discipline as the brownout controller's.

Transitions land in three places at once: the quality timeline
(``kind="slo"``), the metrics registry (``repro_slo_*`` families) and —
through :meth:`SLOEngine.state` — the ``/slo`` HTTP endpoint.

``tests/obs/test_slo.py::TestDrill`` is the deterministic fake-clock
replay: it injects a latency regression and asserts WARN and PAGE fire
at the exactly predicted evaluation ticks, then recover with the
expected hysteresis delays.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field
from typing import Deque, Dict, List, Optional, Tuple

from collections import deque

from ..errors import ConfigError
from .registry import (
    HISTOGRAM,
    MetricsRegistry,
    get_registry,
    histogram_fraction_le,
)

# Alert levels, in escalation order.
OK = 0
WARN = 1
PAGE = 2

STATE_NAMES = ("OK", "WARN", "PAGE")

#: Comparison slack: burn thresholds are compared with this epsilon so a
#: burn that is *mathematically* exactly at threshold (the drill's
#: integer-ratio ticks) is never lost to float rounding.
_EPS = 1e-9

LATENCY = "latency"
DEADLINE_MISS_RATE = "deadline_miss_rate"
QUALITY = "quality"
AVAILABILITY = "availability"

KINDS = (LATENCY, DEADLINE_MISS_RATE, QUALITY, AVAILABILITY)


@dataclass(frozen=True)
class SLOObjective:
    """One declarative objective: a compliance target over a window pair.

    Attributes:
        name: unique id, stamped on metrics labels and timeline entries.
        kind: one of :data:`KINDS`.
        tenant: the tenant (or session) this objective covers, for
            display; the actual series selection is ``labels``.
        target: compliance target in (0, 1) — 0.99 means 1% error budget.
        threshold_s: latency kind only — the wait bound a request must
            meet to count as good.
        hist_metric: latency kind — the histogram family to read.
        bad_metric / total_metric: counter kinds — the families whose
            windowed deltas form the bad/total ratio.
        labels: ``((key, value), ...)`` series selector; every matching
            series is summed, so ``()`` aggregates a whole family.
        total_includes_bad: False when ``total_metric`` counts only good
            outcomes (availability: requests are *admitted* requests, so
            offered load is requests + rejects).
        fast_window_s / slow_window_s: the multi-window pair; both must
            burn over threshold for a transition.
        warn_burn / page_burn: burn-rate thresholds for WARN and PAGE.
        clear_after_s: sustained sub-threshold time before stepping one
            level back down.
    """

    name: str
    kind: str
    tenant: str = ""
    target: float = 0.99
    threshold_s: float = 0.1
    hist_metric: str = ""
    bad_metric: str = ""
    total_metric: str = ""
    labels: Tuple[Tuple[str, str], ...] = ()
    total_includes_bad: bool = True
    fast_window_s: float = 60.0
    slow_window_s: float = 300.0
    warn_burn: float = 1.0
    page_burn: float = 4.0
    clear_after_s: float = 120.0

    def __post_init__(self) -> None:
        if self.kind not in KINDS:
            raise ConfigError(
                f"objective {self.name!r}: kind must be one of {KINDS}, "
                f"got {self.kind!r}"
            )
        if not 0.0 < self.target < 1.0:
            raise ConfigError(
                f"objective {self.name!r}: target must be in (0, 1), "
                f"got {self.target}"
            )
        if self.fast_window_s >= self.slow_window_s:
            raise ConfigError(
                f"objective {self.name!r}: fast window ({self.fast_window_s}s) "
                f"must be shorter than slow window ({self.slow_window_s}s)"
            )
        if self.warn_burn > self.page_burn:
            raise ConfigError(
                f"objective {self.name!r}: warn_burn ({self.warn_burn}) must "
                f"not exceed page_burn ({self.page_burn})"
            )

    @property
    def budget(self) -> float:
        """The error budget: the bad fraction the target tolerates."""
        return 1.0 - self.target

    # -- constructors per kind ----------------------------------------------

    @classmethod
    def latency(
        cls, name: str, tenant: str, threshold_s: float, target: float = 0.99,
        **overrides,
    ) -> "SLOObjective":
        """``target`` of requests wait at most ``threshold_s`` in queue."""
        return cls(
            name=name,
            kind=LATENCY,
            tenant=tenant,
            target=target,
            threshold_s=threshold_s,
            hist_metric="repro_frontend_tenant_wait_seconds",
            labels=(("tenant", tenant),),
            **overrides,
        )

    @classmethod
    def deadline_miss_rate(
        cls, name: str, tenant: str, target: float = 0.99, **overrides
    ) -> "SLOObjective":
        """At most ``1 - target`` of requests miss their deadline."""
        return cls(
            name=name,
            kind=DEADLINE_MISS_RATE,
            tenant=tenant,
            target=target,
            bad_metric="repro_frontend_tenant_deadline_misses_total",
            total_metric="repro_frontend_requests_total",
            labels=(("tenant", tenant),),
            **overrides,
        )

    @classmethod
    def quality(
        cls, name: str, session: str, target: float = 0.99, **overrides
    ) -> "SLOObjective":
        """At most ``1 - target`` of sampled checks violate the TOQ."""
        return cls(
            name=name,
            kind=QUALITY,
            tenant=session,
            target=target,
            bad_metric="repro_session_toq_violations_total",
            total_metric="repro_session_sampled_checks_total",
            labels=(("session", session),),
            **overrides,
        )

    @classmethod
    def availability(
        cls, name: str, target: float = 0.999, **overrides
    ) -> "SLOObjective":
        """At most ``1 - target`` of offered requests are rejected."""
        return cls(
            name=name,
            kind=AVAILABILITY,
            tenant="*",
            target=target,
            bad_metric="repro_frontend_rejects_total",
            total_metric="repro_frontend_requests_total",
            total_includes_bad=False,
            **overrides,
        )


@dataclass
class _Window:
    """Rolling (timestamp, cumulative-counts) samples for one objective."""

    entries: Deque[dict] = field(default_factory=deque)

    def append(self, entry: dict, horizon: float) -> None:
        self.entries.append(entry)
        # Keep the newest entry at or beyond the horizon as the slow
        # window's baseline; everything older is unreachable.
        while len(self.entries) >= 2 and self.entries[1]["t"] <= horizon:
            self.entries.popleft()

    def baseline(self, cutoff: float) -> Optional[dict]:
        """Newest entry observed at or before ``cutoff`` (the window
        start); falls back to the oldest entry while history is short."""
        chosen = None
        for entry in self.entries:
            if entry["t"] <= cutoff:
                chosen = entry
            else:
                break
        if chosen is None and self.entries:
            chosen = self.entries[0]
        return chosen


@dataclass
class _Alert:
    """Mutable alert state for one objective."""

    level: int = OK
    clear_since: Optional[float] = None
    burn_fast: float = 0.0
    burn_slow: float = 0.0
    last_evaluated: float = 0.0


class SLOEngine:
    """Evaluates objectives against the registry; owns the alert FSM.

    Thread-safe: the serving dispatcher calls :meth:`maybe_evaluate`
    between batches while the HTTP endpoint reads :meth:`state`.
    """

    def __init__(
        self,
        objectives: Tuple[SLOObjective, ...] = (),
        registry: Optional[MetricsRegistry] = None,
        clock=time.monotonic,
        min_interval_s: float = 1.0,
    ) -> None:
        self._registry = registry if registry is not None else get_registry()
        self._clock = clock
        self.min_interval_s = min_interval_s
        self._lock = threading.Lock()
        self._objectives: Dict[str, SLOObjective] = {}
        self._windows: Dict[str, _Window] = {}
        self._alerts: Dict[str, _Alert] = {}
        self._last_eval = 0.0
        self._state_gauge = self._registry.gauge(
            "repro_slo_state",
            "alert level per objective (0=OK, 1=WARN, 2=PAGE)",
            labelnames=("objective",),
        )
        self._burn_gauge = self._registry.gauge(
            "repro_slo_burn_rate",
            "error-budget burn rate per objective and window",
            labelnames=("objective", "window"),
        )
        self._transitions = self._registry.counter(
            "repro_slo_transitions_total",
            "alert state transitions per objective",
            labelnames=("objective", "to_state"),
        )
        self._evaluations = self._registry.counter(
            "repro_slo_evaluations_total", "SLO evaluation passes"
        )
        for objective in objectives:
            self.add(objective)

    def add(self, objective: SLOObjective) -> SLOObjective:
        with self._lock:
            if objective.name in self._objectives:
                raise ConfigError(
                    f"objective {objective.name!r} already registered"
                )
            self._objectives[objective.name] = objective
            self._windows[objective.name] = _Window()
            self._alerts[objective.name] = _Alert()
            self._state_gauge.labels(objective=objective.name).set(OK)
        return objective

    def objectives(self) -> List[SLOObjective]:
        with self._lock:
            return list(self._objectives.values())

    # -- sampling ------------------------------------------------------------

    def _sum_counter(self, metric_name: str, labels) -> float:
        metric = self._registry.get(metric_name)
        if metric is None:
            return 0.0
        selector = dict(labels)
        total = 0.0
        for series_labels, child in metric.series():
            if all(series_labels.get(k) == v for k, v in selector.items()):
                total += child.value
        return total

    def _sum_histogram(self, metric_name: str, labels):
        """(buckets, summed per-bucket counts) over matching series."""
        metric = self._registry.get(metric_name)
        if metric is None or metric.kind != HISTOGRAM:
            return None, None
        selector = dict(labels)
        buckets = None
        summed: Optional[List[int]] = None
        for series_labels, child in metric.series():
            if not all(series_labels.get(k) == v for k, v in selector.items()):
                continue
            b, counts, _sum, _count = child.raw_counts()
            if summed is None:
                buckets, summed = b, list(counts)
            else:
                for i, c in enumerate(counts):
                    summed[i] += c
        return buckets, summed

    def _observe(self, objective: SLOObjective, now: float) -> dict:
        """One cumulative sample of the objective's source series."""
        if objective.kind == LATENCY:
            buckets, counts = self._sum_histogram(
                objective.hist_metric, objective.labels
            )
            return {"t": now, "buckets": buckets, "counts": counts}
        bad = self._sum_counter(objective.bad_metric, objective.labels)
        total_labels = (
            objective.labels if objective.kind != AVAILABILITY else ()
        )
        total = self._sum_counter(objective.total_metric, total_labels)
        return {"t": now, "bad": bad, "total": total}

    def _window_burn(
        self, objective: SLOObjective, window: _Window, now: float,
        window_s: float,
    ) -> float:
        """Burn rate over the trailing ``window_s`` seconds."""
        if not window.entries:
            return 0.0
        newest = window.entries[-1]
        base = window.baseline(now - window_s)
        if base is None or base is newest:
            return 0.0
        if objective.kind == LATENCY:
            if newest["counts"] is None:
                return 0.0
            # A baseline sampled before the series first existed (engine
            # attached at construction, traffic arrived later) means zero
            # observed counts — not "no burn": treating it as unusable
            # would blind the objective for a whole slow window.
            base_counts = base["counts"]
            if base_counts is None:
                base_counts = [0] * len(newest["counts"])
            delta = [
                int(n) - int(b)
                for n, b in zip(newest["counts"], base_counts)
            ]
            total = sum(delta)
            if total <= 0:
                return 0.0
            good = histogram_fraction_le(
                newest["buckets"], delta, objective.threshold_s
            )
            bad_rate = 1.0 - good
        else:
            bad = newest["bad"] - base["bad"]
            total = newest["total"] - base["total"]
            if not objective.total_includes_bad:
                total += bad
            if total <= 0:
                return 0.0
            bad_rate = bad / total
        return max(0.0, bad_rate / objective.budget)

    # -- evaluation ----------------------------------------------------------

    def maybe_evaluate(self) -> None:
        """Rate-limited :meth:`evaluate` — safe to call on hot paths."""
        now = self._clock()
        if now - self._last_eval < self.min_interval_s:
            return
        self.evaluate(now)

    def evaluate(self, now: Optional[float] = None) -> None:
        """Sample every objective, update burns, step the alert FSMs."""
        from .timeline import timeline as obs_timeline

        if now is None:
            now = self._clock()
        transitions: List[tuple] = []
        with self._lock:
            self._last_eval = now
            self._evaluations.inc()
            for name, objective in self._objectives.items():
                window = self._windows[name]
                alert = self._alerts[name]
                window.append(
                    self._observe(objective, now),
                    now - objective.slow_window_s,
                )
                alert.burn_fast = self._window_burn(
                    objective, window, now, objective.fast_window_s
                )
                alert.burn_slow = self._window_burn(
                    objective, window, now, objective.slow_window_s
                )
                alert.last_evaluated = now
                self._burn_gauge.labels(objective=name, window="fast").set(
                    alert.burn_fast
                )
                self._burn_gauge.labels(objective=name, window="slow").set(
                    alert.burn_slow
                )
                transition = self._step(objective, alert, now)
                if transition is not None:
                    transitions.append(transition)
        # Timeline/metrics emission outside the lock: the sink and the
        # timeline take their own locks.
        for objective, alert, from_level, to_level, reason in transitions:
            self._transitions.labels(
                objective=objective.name, to_state=STATE_NAMES[to_level]
            ).inc()
            self._state_gauge.labels(objective=objective.name).set(to_level)
            obs_timeline().slo(
                objective=objective.name,
                tenant=objective.tenant,
                from_state=STATE_NAMES[from_level],
                to_state=STATE_NAMES[to_level],
                burn_fast=alert.burn_fast,
                burn_slow=alert.burn_slow,
                reason=reason,
            )

    def _step(
        self, objective: SLOObjective, alert: _Alert, now: float
    ) -> Optional[tuple]:
        """Advance one alert FSM by at most one level.  Called under lock."""
        fast, slow = alert.burn_fast, alert.burn_slow
        if (
            fast >= objective.page_burn - _EPS
            and slow >= objective.page_burn - _EPS
        ):
            want = PAGE
        elif (
            fast >= objective.warn_burn - _EPS
            and slow >= objective.warn_burn - _EPS
        ):
            want = WARN
        else:
            want = OK
        if want > alert.level:
            from_level = alert.level
            alert.level += 1  # one step per evaluation, like the brownout FSM
            alert.clear_since = None
            return (
                objective, alert, from_level, alert.level,
                f"burn fast={fast:.2f} slow={slow:.2f}",
            )
        if want < alert.level:
            if alert.clear_since is None:
                alert.clear_since = now
            elif now - alert.clear_since >= objective.clear_after_s:
                from_level = alert.level
                alert.level -= 1
                # Restart the hysteresis clock at the transition: a
                # further recovery step counts from here, one level per
                # clear_after_s — mirrored from the brownout controller.
                alert.clear_since = now
                return (
                    objective, alert, from_level, alert.level,
                    f"cleared for {objective.clear_after_s:.0f}s "
                    f"(burn fast={fast:.2f} slow={slow:.2f})",
                )
        else:
            alert.clear_since = None
        return None

    # -- views ---------------------------------------------------------------

    def alerts(self) -> Dict[str, str]:
        with self._lock:
            return {
                name: STATE_NAMES[alert.level]
                for name, alert in self._alerts.items()
            }

    def state(self) -> dict:
        """The JSON view the ``/slo`` endpoint serves."""
        with self._lock:
            objectives = []
            worst = OK
            for name, objective in self._objectives.items():
                alert = self._alerts[name]
                worst = max(worst, alert.level)
                objectives.append(
                    {
                        "name": name,
                        "kind": objective.kind,
                        "tenant": objective.tenant,
                        "target": objective.target,
                        "threshold_s": (
                            objective.threshold_s
                            if objective.kind == LATENCY
                            else None
                        ),
                        "state": STATE_NAMES[alert.level],
                        "burn_fast": round(alert.burn_fast, 4),
                        "burn_slow": round(alert.burn_slow, 4),
                        "windows": {
                            "fast_s": objective.fast_window_s,
                            "slow_s": objective.slow_window_s,
                        },
                        "thresholds": {
                            "warn_burn": objective.warn_burn,
                            "page_burn": objective.page_burn,
                            "clear_after_s": objective.clear_after_s,
                        },
                        "last_evaluated": alert.last_evaluated,
                    }
                )
        return {"objectives": objectives, "max_state": STATE_NAMES[worst]}
