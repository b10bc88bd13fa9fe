"""Structured observability for approximation sessions.

A session records one :class:`LaunchRecord` per launch and rolls the
aggregate counters a deployment would scrape — launches served, sampled
quality checks, TOQ violations, recalibrations, cache traffic — into a
JSON-friendly snapshot.  Since the unified observability layer
(:mod:`repro.obs`) landed, the counters live in the process-wide metrics
registry under a per-session ``session=<label>`` label:
:meth:`SessionMetrics.snapshot` is a *view* over the registry, the same
store the Prometheus exposition reads, so the snapshot and the scrape
endpoint can never diverge.  The resilience section (guard counters,
fault counts, fallback depths, breaker states, guard policy) is
assembled in exactly one place — here — from sources the session binds
at construction.

Per-event narrative (launches, transitions, breaker changes) is carried
by the quality timeline and the ``REPRO_OBS=1`` / ``REPRO_OBS_TRACE``
trace stream; see ``docs/OBSERVABILITY.md``.
"""

from __future__ import annotations

import itertools
from collections import deque
from dataclasses import asdict, dataclass, field
from typing import Deque, Dict, List, Optional, Tuple

from ..obs.registry import CounterGroup, get_registry
from ..obs.timeline import timeline as obs_timeline

_SESSION_IDS = itertools.count()

#: Scalar session counters: field -> help.  Each is the registry series
#: ``repro_session_<field>_total{session=<label>}`` (the accumulated
#: seconds in ``_SECONDS`` carry no ``_total``), read as ``metrics.<field>``.
_COUNTERS = {
    "launches": "launches served",
    "sampled_checks": "sampled quality checks",
    "toq_violations": "TOQ violations",
    "drift_events": "drift declarations",
    "recalibrations_down": "ladder steps toward exact",
    "recalibrations_up": "ladder steps toward aggressive",
    "compile_cache_hits": "variant-cache hits",
    "compile_cache_misses": "variant-cache misses",
    "tune_cache_hits": "tuning resumes",
    "tune_cache_misses": "tuning re-profiles",
    "kernel_launches": "kernel launches observed",
    "compile_seconds": "wall time in session compiles",
    "tune_seconds": "wall time in session tunes",
    "sample_seconds": "wall time in sampled quality checks",
    "fallback_launches": "launches served below the primary rung",
    "launch_errors": "launches that raised out of the fallback ladder",
    "quarantines": "breaker transitions to open",
    "readmissions": "breaker transitions back to closed",
}
_SECONDS = ("compile_seconds", "tune_seconds", "sample_seconds")
_SERIES = {f: f"{f}_total" for f in _COUNTERS if f not in _SECONDS}


@dataclass
class LaunchRecord:
    """What one monitored launch did."""

    index: int
    variant: str
    knobs: Dict[str, object] = field(default_factory=dict)
    sampled: bool = False
    quality: Optional[float] = None
    speedup_estimate: float = 1.0
    kernel_launches: int = 0
    backends: Dict[str, int] = field(default_factory=dict)  # backend -> launches
    action: str = ""  # "", "recalibrate_down", "recalibrate_up", "quarantine"
    reason: str = ""  # "", "toq_violation", "drift", "headroom", "quarantine"
    served: str = ""  # ladder rung that produced the output ("" = primary)
    fallback_depth: int = 0  # 0 = primary attempt succeeded
    faults: List[str] = field(default_factory=list)  # "rung:site" per containment
    launch_id: int = -1  # session-monotonic correlation id
    trace_id: Optional[str] = None  # obs trace id (None while tracing is off)
    duration: float = 0.0  # wall seconds of the launch, its check included
    sample_seconds: float = 0.0  # wall seconds of the quality check (0 = unsampled)


@dataclass
class Transition:
    """A variant change the recalibrator performed mid-stream."""

    launch: int
    from_variant: str
    to_variant: str
    reason: str
    quality: Optional[float] = None


class SessionMetrics:
    """Counters and recent history for one :class:`ApproxSession`.

    Scalar counters are registry series labelled with this session's
    ``label``; dict-shaped views (per-backend launches, fault counts,
    fallback depths) are registry families with an extra label dimension.
    History (the last ``history`` launch records and transitions) stays
    in-process — it is bounded narrative, not a metric; the totals are
    the ``recalibrations_*`` and ``quarantines`` counters.
    """

    def __init__(
        self,
        history: int = 256,
        label: Optional[str] = None,
    ):
        self.label = label if label is not None else f"s{next(_SESSION_IDS)}"
        registry = get_registry()

        self._counters = CounterGroup(
            "session",
            _COUNTERS,
            floats=_SECONDS,
            names=_SERIES,
            labels={"session": self.label},
        )
        self._backend_family = registry.counter(
            "repro_session_backend_launches_total",
            "kernel launches per backend",
            labelnames=("session", "backend"),
        )
        self._fault_family = registry.counter(
            "repro_session_faults_total",
            "contained faults per site",
            labelnames=("session", "fault"),
        )
        self._depth_family = registry.counter(
            "repro_session_fallback_depth_total",
            "launches per fallback depth",
            labelnames=("session", "depth"),
        )
        self._launch_seconds = registry.histogram(
            "repro_session_launch_seconds",
            "wall time of served launches",
            labelnames=("session",),
        ).labels(session=self.label)
        # Series looked up once per label value, then held: a warm
        # record_launch makes no registry lookup.
        self._children: Dict[Tuple[object, str], object] = {}

        # Baselines of the process-wide codegen, shard and guard counters
        # at session start, so the snapshot attributes compiles/hits/
        # shards/containments to *this* session.
        from ..codegen import stats_snapshot as _codegen_stats
        from ..parallel.shard import stats_snapshot as _shard_stats
        from ..resilience.guard import stats_snapshot as _guard_stats

        self._codegen_stats = _codegen_stats
        self._codegen_baseline = _codegen_stats()
        self._shard_stats = _shard_stats
        self._shard_baseline = _shard_stats()
        self._guard_stats = _guard_stats
        self._guard_baseline = _guard_stats()
        self.records: Deque[LaunchRecord] = deque(maxlen=history)
        self.transitions: Deque[Transition] = deque(maxlen=history)
        # Bound by the session so the parallel/resilience sections are
        # assembled in exactly one place (see bind_session_sources).
        self._breaker = None
        self._guard_policy = None
        self._profile_cache = None
        self._workers: Optional[int] = None
        # Correlation ids of the launch currently in flight.
        self._current_launch_id = -1
        self._current_trace_id: Optional[str] = None

    # -- wiring ---------------------------------------------------------------

    def bind_session_sources(
        self, breaker=None, guard_policy=None, profile_cache=None, workers=None
    ) -> None:
        """Attach the session-owned objects the snapshot reports on.

        Keeping the assembly here (rather than splitting it between this
        module and ``session.py``) means breaker states, guard policy and
        fault counters come from one code path and cannot diverge.
        """
        self._breaker = breaker
        self._guard_policy = guard_policy
        self._profile_cache = profile_cache
        self._workers = workers

    def begin_launch(self, launch_id: int, trace_id: Optional[str]) -> None:
        """Record the correlation ids of the launch now being served."""
        self._current_launch_id = launch_id
        self._current_trace_id = trace_id

    # -- recording -----------------------------------------------------------

    def _child(self, family, name: str, value):
        """``family``'s series for this session and ``name=value``."""
        key = (family, value)
        child = self._children.get(key)
        if child is None:
            child = self._children[key] = family.labels(
                **{"session": self.label, name: value}
            )
        return child

    def record_launch(self, record: LaunchRecord) -> None:
        self._counters.inc("launches")
        self._counters.inc("kernel_launches", record.kernel_launches)
        for backend, count in record.backends.items():
            self._child(self._backend_family, "backend", backend).inc(count)
        if record.sampled:
            self._counters.inc("sampled_checks")
            self._counters.inc("sample_seconds", record.sample_seconds)
        if record.reason == "toq_violation":
            self._counters.inc("toq_violations")
        if record.reason == "drift":
            self._counters.inc("drift_events")
        if record.action == "recalibrate_down":
            self._counters.inc("recalibrations_down")
        elif record.action == "recalibrate_up":
            self._counters.inc("recalibrations_up")
        for fault in record.faults:
            self._child(self._fault_family, "fault", fault).inc()
        self._child(self._depth_family, "depth", record.fallback_depth).inc()
        if record.fallback_depth > 0:
            self._counters.inc("fallback_launches")
        if record.duration:
            self._launch_seconds.observe(record.duration)
        self.records.append(record)

    def record_breaker_event(self, event: Dict[str, object]) -> None:
        """Roll up one circuit-breaker transition (drained from the
        session's :class:`~repro.resilience.breaker.VariantBreaker`)."""
        if event.get("state") == "open":
            self._counters.inc("quarantines")
        elif event.get("state") == "closed":
            self._counters.inc("readmissions")
        obs_timeline().breaker(
            session=self.label,
            launch_id=self._current_launch_id,
            trace_id=self._current_trace_id,
            variant=str(event.get("variant", "")),
            state=str(event.get("state", "")),
            reason=str(event.get("reason", "")),
        )

    def record_transition(self, transition: Transition) -> None:
        self.transitions.append(transition)
        obs_timeline().knob_change(
            session=self.label,
            launch_id=self._current_launch_id,
            trace_id=self._current_trace_id,
            from_variant=transition.from_variant,
            to_variant=transition.to_variant,
            reason=transition.reason,
            quality=transition.quality,
        )

    def record_launch_error(self) -> None:
        """One launch that raised past every ladder rung — the error the
        caller actually saw, the numerator of an availability SLO."""
        self._counters.inc("launch_errors")

    def record_compile(self, cache: str, seconds: float) -> None:
        """``cache`` is "memory", "disk" or "miss"."""
        if cache == "miss":
            self._counters.inc("compile_cache_misses")
        else:
            self._counters.inc("compile_cache_hits")
        self._counters.inc("compile_seconds", seconds)

    def record_tune(self, cache: str, seconds: float) -> None:
        if cache == "miss":
            self._counters.inc("tune_cache_misses")
        else:
            self._counters.inc("tune_cache_hits")
        self._counters.inc("tune_seconds", seconds)

    # -- registry views ------------------------------------------------------

    def __getattr__(self, name: str):
        """``metrics.launches`` and the other ``_COUNTERS`` fields read
        the registry series through the group."""
        if name.startswith("_"):  # an attribute __init__ has not set yet
            raise AttributeError(name)
        return getattr(self._counters, name)

    def _labelled_view(self, family, key: str) -> Dict[str, int]:
        return {
            labels[key]: int(child.value)
            for labels, child in family.series()
            if labels.get("session") == self.label and child.value
        }

    @property
    def backend_launches(self) -> Dict[str, int]:
        return self._labelled_view(self._backend_family, "backend")

    @property
    def fault_counts(self) -> Dict[str, int]:
        return self._labelled_view(self._fault_family, "fault")

    @property
    def fallback_depths(self) -> Dict[int, int]:
        return {
            int(depth): count
            for depth, count in self._labelled_view(
                self._depth_family, "depth"
            ).items()
        }

    # -- reporting -----------------------------------------------------------

    @property
    def sampling_overhead(self) -> float:
        """Share of launch wall time spent in quality checks (their count
        is :attr:`sampled_checks`)."""
        _buckets, _counts, total, _n = self._launch_seconds.raw_counts()
        return self.sample_seconds / total if total else 0.0

    def snapshot(self) -> dict:
        """The JSON-serialisable state a metrics endpoint would return.

        Every count is read from the metrics registry; the breaker and
        guard-policy sections come from the session-bound sources, so
        this method is the *single* assembly point for the whole view.
        """
        recent = list(self.records)[-16:]
        current = self._codegen_stats()
        codegen = {
            key: round(current[key] - self._codegen_baseline[key], 6)
            if isinstance(current[key], float)
            else current[key] - self._codegen_baseline[key]
            for key in current
        }
        shard_now = self._shard_stats()
        from ..parallel.pool import pools_snapshot as _pools

        parallel = {
            "shards": {
                key: shard_now[key] - self._shard_baseline[key]
                for key in shard_now
            },
            "pools": _pools(),
        }
        if self._workers is not None:
            parallel["workers"] = self._workers
        if self._profile_cache is not None:
            parallel["profile_cache"] = self._profile_cache.snapshot()
        guard_now = self._guard_stats()
        resilience = {
            "guard": {
                key: guard_now[key] - self._guard_baseline[key]
                for key in guard_now
            },
            "faults": dict(self.fault_counts),
            "fallback_depths": {
                str(depth): count
                for depth, count in sorted(self.fallback_depths.items())
            },
            "fallback_launches": self.fallback_launches,
            "quarantines": self.quarantines,
            "readmissions": self.readmissions,
        }
        if self._breaker is not None:
            resilience["breakers"] = self._breaker.snapshot()
        if self._guard_policy is not None:
            resilience["guard_policy"] = {
                "enabled": self._guard_policy.enabled,
                "deadline_seconds": self._guard_policy.deadline_seconds,
            }
        return {
            "launches": self.launches,
            "launch_errors": self.launch_errors,
            "kernel_launches": self.kernel_launches,
            "backend_launches": dict(self.backend_launches),
            "codegen": codegen,
            "parallel": parallel,
            "resilience": resilience,
            "sampled_checks": self.sampled_checks,
            "sampling_overhead": self.sampling_overhead,
            "toq_violations": self.toq_violations,
            "drift_events": self.drift_events,
            "recalibrations": {
                "down": self.recalibrations_down,
                "up": self.recalibrations_up,
            },
            "cache": {
                "compile_hits": self.compile_cache_hits,
                "compile_misses": self.compile_cache_misses,
                "tune_hits": self.tune_cache_hits,
                "tune_misses": self.tune_cache_misses,
            },
            "timings": {
                "compile_seconds": self.compile_seconds,
                "tune_seconds": self.tune_seconds,
                "sample_seconds": self.sample_seconds,
            },
            "transitions": [asdict(t) for t in list(self.transitions)],
            "recent_launches": [asdict(r) for r in recent],
        }
