"""The quality-drift timeline: every quality decision, time-ordered.

Green/SAGE-style recalibration is only debuggable with a record of *what
the monitor saw and what the runtime did about it*, in order, with ids
that tie each entry back to the launch (and trace) that produced it.  The
timeline records six kinds of entry:

* ``quality_sample`` — one sampled quality check (quality, windowed
  estimate, TOQ, the serving variant and its modelled speedup);
* ``toq_violation`` / ``drift`` — the monitor verdicts that trigger
  recalibration;
* ``knob_change`` — a recalibrator transition (which variant to which,
  why);
* ``breaker`` — a circuit-breaker state transition;
* ``brownout`` — an overload-controller level change (which front-end,
  which level to which, the pressure reading that drove it) — together
  with the interleaved quality samples this is the quality-vs-load plot.

Every entry carries ``session``, ``launch_id`` and ``trace_id``, so a
served request can be traced from its input to the exact variant/knob
state that produced it.  Entries are mirrored into the JSONL trace
stream (``type: "event"``) when tracing is enabled, which is how the
``python -m repro.obs summarize`` CLI renders the quality-vs-speedup
timeline next to the span tree.
"""

from __future__ import annotations

import itertools
import threading
import time
from collections import deque
from typing import Deque, Dict, List, Optional

from . import trace as obs_trace

#: Entry kinds, for filtering.
QUALITY_SAMPLE = "quality_sample"
TOQ_VIOLATION = "toq_violation"
DRIFT = "drift"
KNOB_CHANGE = "knob_change"
BREAKER = "breaker"
BROWNOUT = "brownout"

KINDS = (QUALITY_SAMPLE, TOQ_VIOLATION, DRIFT, KNOB_CHANGE, BREAKER, BROWNOUT)


class QualityTimeline:
    """Bounded, thread-safe, time-ordered record of quality events."""

    def __init__(self, capacity: int = 16384) -> None:
        self._entries: Deque[dict] = deque(maxlen=capacity)
        self._lock = threading.Lock()
        self._seq = itertools.count()

    def record(self, kind: str, **fields) -> Optional[dict]:
        """Append one entry (no-op while tracing is disabled, so the
        serving fast path pays nothing when observability is off)."""
        if not obs_trace.enabled():
            return None
        entry: Dict[str, object] = {
            "type": "event",
            "kind": kind,
            "seq": next(self._seq),
            "t": time.perf_counter(),
            **fields,
        }
        with self._lock:
            self._entries.append(entry)
        obs_trace.emit_event(entry)
        return entry

    # -- typed helpers -------------------------------------------------------

    def quality_sample(
        self,
        session: str,
        launch_id: int,
        trace_id: Optional[str],
        variant: str,
        quality: float,
        estimate: Optional[float],
        toq: float,
        speedup: float,
        verdict: str = "",
        registry_key: Optional[str] = None,
    ) -> None:
        """One sampled quality check.  Sessions tuning under a variant
        registry stamp ``registry_key`` so exported timelines can be fed
        back into the stored measurements warm starts read
        (:meth:`repro.registry.VariantRegistry.ingest_timeline`)."""
        fields: Dict[str, object] = dict(
            session=session,
            launch_id=launch_id,
            trace_id=trace_id,
            variant=variant,
            quality=quality,
            estimate=estimate,
            toq=toq,
            speedup=speedup,
            verdict=verdict,
        )
        if registry_key is not None:
            fields["registry_key"] = registry_key
        self.record(QUALITY_SAMPLE, **fields)

    def verdict(
        self,
        kind: str,
        session: str,
        launch_id: int,
        trace_id: Optional[str],
        variant: str,
        quality: Optional[float],
    ) -> None:
        """A TOQ violation or drift declaration."""
        self.record(
            kind,
            session=session,
            launch_id=launch_id,
            trace_id=trace_id,
            variant=variant,
            quality=quality,
        )

    def knob_change(
        self,
        session: str,
        launch_id: int,
        trace_id: Optional[str],
        from_variant: str,
        to_variant: str,
        reason: str,
        quality: Optional[float] = None,
    ) -> None:
        self.record(
            KNOB_CHANGE,
            session=session,
            launch_id=launch_id,
            trace_id=trace_id,
            from_variant=from_variant,
            to_variant=to_variant,
            reason=reason,
            quality=quality,
        )

    def brownout(
        self,
        frontend: str,
        from_level: int,
        to_level: int,
        state: str,
        reason: str,
        pressure: float,
    ) -> None:
        """One overload-controller level transition (keyed by front-end,
        not session: one controller degrades every session it serves)."""
        self.record(
            BROWNOUT,
            frontend=frontend,
            from_level=from_level,
            to_level=to_level,
            state=state,
            reason=reason,
            pressure=pressure,
        )

    def breaker(
        self,
        session: str,
        launch_id: int,
        trace_id: Optional[str],
        variant: str,
        state: str,
        reason: str,
    ) -> None:
        self.record(
            BREAKER,
            session=session,
            launch_id=launch_id,
            trace_id=trace_id,
            variant=variant,
            state=state,
            reason=reason,
        )

    # -- queries -------------------------------------------------------------

    def entries(
        self, kind: Optional[str] = None, session: Optional[str] = None
    ) -> List[dict]:
        with self._lock:
            out = list(self._entries)
        if kind is not None:
            out = [e for e in out if e["kind"] == kind]
        if session is not None:
            out = [e for e in out if e.get("session") == session]
        return out

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()


_TIMELINE = QualityTimeline()


def timeline() -> QualityTimeline:
    """The process-wide quality timeline."""
    return _TIMELINE
