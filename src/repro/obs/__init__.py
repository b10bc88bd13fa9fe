"""Unified observability: metrics registry, structured tracing, timelines.

The layer has three legs, all near-zero-cost while disabled:

* :mod:`repro.obs.registry` — the process-wide metrics registry every
  subsystem (codegen, sharding, pools, guard, sessions) registers its
  counters into; ``metrics_snapshot()`` and the Prometheus exposition are
  views over this one store.
* :mod:`repro.obs.trace` — structured spans with ids, parents and
  wall-times, thread-propagated context (including across the shard
  pool), exported as JSONL.  Enable with ``REPRO_OBS=1`` and
  point ``REPRO_OBS_TRACE`` at a file to persist the stream.
* :mod:`repro.obs.timeline` — the quality-drift timeline: every quality
  sample, TOQ violation, drift event, knob change, breaker transition and
  brownout level change, correlated to launches by ``launch_id`` and
  ``trace_id``.

On top of the legs sits the live-ops surface,
:mod:`repro.obs.http` — the embedded stdlib HTTP endpoint
(``/metrics``, ``/healthz``, ``/readyz``, ``/debug/vars``), opt-in via
``ServeFrontend(serve_http=...)`` or ``REPRO_OBS_HTTP``.

``python -m repro.obs summarize <trace.jsonl>`` renders a trace file:
top spans by time, fallback-depth breakdown, the quality-vs-speedup
timeline and per-launch span trees.
See ``docs/OBSERVABILITY.md``.
"""

from .export import (
    build_trees,
    load_trace,
    quantile_table,
    render_prometheus,
    render_tree,
    summarize,
)
from .http import ObsHTTPServer
from .registry import (
    MetricsRegistry,
    REGISTRY,
    get_registry,
    histogram_quantile,
)
from .timeline import QualityTimeline, timeline
from .trace import (
    NOOP_SPAN,
    Span,
    carry,
    current_span,
    disable,
    drain_records,
    emit_event,
    enable,
    enabled,
    flush,
    records,
    span,
    trace_path,
)

__all__ = [
    "MetricsRegistry",
    "REGISTRY",
    "get_registry",
    "histogram_quantile",
    "ObsHTTPServer",
    "QualityTimeline",
    "timeline",
    "Span",
    "NOOP_SPAN",
    "span",
    "current_span",
    "carry",
    "enable",
    "disable",
    "enabled",
    "flush",
    "records",
    "drain_records",
    "emit_event",
    "trace_path",
    "render_prometheus",
    "quantile_table",
    "load_trace",
    "build_trees",
    "render_tree",
    "summarize",
]
