"""Exporters: Prometheus text exposition and trace analysis.

Two consumers are served here:

* a scrape endpoint — :func:`render_prometheus` renders every metric in
  the registry in the Prometheus text exposition format (versioned
  ``# HELP``/``# TYPE`` headers, label sets, ``_bucket``/``_sum``/
  ``_count`` expansion for histograms); :func:`quantile_table` adds the
  estimated p50/p95/p99 per histogram series as comment lines (the
  output stays valid exposition format);
* offline trace analysis — :func:`load_trace`, :func:`build_trees` and
  :func:`summarize` parse the JSONL stream written under ``REPRO_OBS=1``
  and power the ``python -m repro.obs`` CLI.
"""

from __future__ import annotations

import json
from collections import defaultdict
from pathlib import Path
from typing import Dict, List, Optional, Tuple

from .registry import (
    HISTOGRAM,
    MetricsRegistry,
    get_registry,
    histogram_quantile,
)

# ----------------------------------------------------------- prometheus


def _escape(value: object) -> str:
    """A label value as the text format spells it: backslash, double
    quote and line feed escaped, so an outside name cannot break a line."""
    return (
        str(value).replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")
    )


def _fmt_labels(labels: Dict[str, str]) -> str:
    if not labels:
        return ""
    inner = ",".join(f'{k}="{_escape(v)}"' for k, v in sorted(labels.items()))
    return "{" + inner + "}"


def _fmt_value(value: float) -> str:
    try:
        whole = int(value)
    except (OverflowError, ValueError):  # an infinity, or NaN
        return "NaN" if value != value else ("+Inf" if value > 0 else "-Inf")
    if value == whole:
        return str(whole)
    return repr(float(value))


def render_prometheus(registry: Optional[MetricsRegistry] = None) -> str:
    """The whole registry in Prometheus text exposition format."""
    registry = registry or get_registry()
    lines: List[str] = []
    for metric in registry.collect():
        if metric.help:
            lines.append(f"# HELP {metric.name} {metric.help}")
        lines.append(f"# TYPE {metric.name} {metric.kind}")
        for labels, child in sorted(
            metric.series(), key=lambda pair: sorted(pair[0].items())
        ):
            if metric.kind == HISTOGRAM:
                snap = child.histogram_snapshot()
                for bound, count in zip(snap["buckets"], snap["counts"]):
                    bucket_labels = dict(labels, le=_fmt_value(bound))
                    lines.append(
                        f"{metric.name}_bucket{_fmt_labels(bucket_labels)} {count}"
                    )
                inf_labels = dict(labels, le="+Inf")
                lines.append(
                    f"{metric.name}_bucket{_fmt_labels(inf_labels)} {snap['count']}"
                )
                lines.append(
                    f"{metric.name}_sum{_fmt_labels(labels)} {_fmt_value(snap['sum'])}"
                )
                lines.append(
                    f"{metric.name}_count{_fmt_labels(labels)} {snap['count']}"
                )
            else:
                lines.append(
                    f"{metric.name}{_fmt_labels(labels)} {_fmt_value(child.value)}"
                )
    return "\n".join(lines) + ("\n" if lines else "")


def quantile_table(
    registry: Optional[MetricsRegistry] = None,
    quantiles: Tuple[float, ...] = (0.5, 0.95, 0.99),
) -> str:
    """Estimated quantiles for every histogram series, as ``# ``-prefixed
    comment lines — appended to an exposition the output stays a valid
    scrape while giving the human reader the p50/p95/p99 at a glance."""
    registry = registry or get_registry()
    rows: List[str] = []
    for metric in registry.collect():
        if metric.kind != HISTOGRAM:
            continue
        for labels, child in sorted(
            metric.series(), key=lambda pair: sorted(pair[0].items())
        ):
            buckets, counts, _sum, count = child.raw_counts()
            if count == 0:
                continue
            estimates = " ".join(
                f"p{int(q * 100)}={_fmt_value(round(histogram_quantile(buckets, counts, q) or 0.0, 6))}"
                for q in quantiles
            )
            rows.append(
                f"# quantiles {metric.name}{_fmt_labels(labels)} "
                f"count={count} {estimates}"
            )
    if not rows:
        return ""
    header = "# -- estimated histogram quantiles (linear interpolation) --"
    return "\n".join([header, *rows]) + "\n"


# ------------------------------------------------------------ trace files


def load_trace(path) -> Tuple[List[dict], List[dict]]:
    """Parse one JSONL trace file into (spans, events).

    Unparseable lines are skipped (a crashed writer may leave a torn
    final line); unknown record types are ignored for forward
    compatibility.
    """
    spans: List[dict] = []
    events: List[dict] = []
    with Path(path).open("r", encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
            except json.JSONDecodeError:
                continue
            if record.get("type") == "span":
                spans.append(record)
            elif record.get("type") == "event":
                events.append(record)
    return spans, events


def build_trees(spans: List[dict]) -> Dict[str, List[dict]]:
    """Group spans into per-trace trees.

    Returns ``{trace_id: [root spans]}`` where every span dict gains a
    ``children`` list, ordered by start time.
    """
    by_id: Dict[str, dict] = {}
    for span in spans:
        span = dict(span, children=[])
        by_id[span["span_id"]] = span
    trees: Dict[str, List[dict]] = defaultdict(list)
    for span in by_id.values():
        parent = by_id.get(span.get("parent_id") or "")
        if parent is not None:
            parent["children"].append(span)
        else:
            trees[span["trace_id"]].append(span)
    for span in by_id.values():
        span["children"].sort(key=lambda s: (s.get("start", 0.0), s.get("seq", 0)))
    return dict(trees)


def render_tree(roots: List[dict], indent: str = "") -> List[str]:
    """Render one trace's span tree as indented text lines."""
    lines: List[str] = []
    for span in sorted(roots, key=lambda s: (s.get("start", 0.0), s.get("seq", 0))):
        ms = span.get("duration", 0.0) * 1000.0
        attrs = span.get("attrs") or {}
        shown = " ".join(f"{k}={v}" for k, v in attrs.items())
        status = "" if span.get("status", "ok") == "ok" else f" !{span['error']}"
        lines.append(f"{indent}{span['name']} [{ms:.3f}ms] {shown}{status}".rstrip())
        lines.extend(render_tree(span["children"], indent + "  "))
    return lines


def summarize(path, trees: int = 1) -> str:
    """The ``python -m repro.obs summarize`` report for one trace file."""
    spans, events = load_trace(path)
    out: List[str] = [f"== Trace summary: {path}"]
    forest = build_trees(spans)
    out.append(
        f"{len(spans)} spans across {len(forest)} traces, {len(events)} events"
    )

    # -- top span names by total time
    totals: Dict[str, List[float]] = defaultdict(list)
    for span in spans:
        totals[span["name"]].append(span.get("duration", 0.0))
    if totals:
        out.append("")
        out.append("-- Top spans by total time")
        out.append(f"{'name':<24} {'count':>6} {'total_ms':>10} {'mean_ms':>9} {'max_ms':>9}")
        ranked = sorted(totals.items(), key=lambda kv: -sum(kv[1]))
        for name, durations in ranked[:12]:
            total = sum(durations) * 1000.0
            out.append(
                f"{name:<24} {len(durations):>6} {total:>10.3f} "
                f"{total / len(durations):>9.3f} {max(durations) * 1000.0:>9.3f}"
            )

    # -- fallback-depth breakdown from serve.launch spans
    launches = [s for s in spans if s["name"] == "serve.launch"]
    if launches:
        depths: Dict[int, int] = defaultdict(int)
        served: Dict[str, int] = defaultdict(int)
        for span in launches:
            attrs = span.get("attrs") or {}
            depths[int(attrs.get("fallback_depth", 0))] += 1
            served[str(attrs.get("served", ""))] += 1
        out.append("")
        out.append("-- Fallback depth breakdown")
        for depth in sorted(depths):
            out.append(f"depth {depth}: {depths[depth]} launch(es)")
        out.append(
            "served by rung: "
            + ", ".join(f"{rung}={n}" for rung, n in sorted(served.items()))
        )

    # -- quality-vs-speedup timeline
    quality = [e for e in events if e.get("kind") == "quality_sample"]
    changes = [
        e
        for e in events
        if e.get("kind")
        in ("knob_change", "toq_violation", "drift", "breaker", "brownout")
    ]
    if quality or changes:
        out.append("")
        out.append("-- Quality timeline")
        merged = sorted(quality + changes, key=lambda e: e.get("seq", 0))
        for entry in merged[-40:]:
            launch = entry.get("launch_id", "?")
            if entry.get("kind") == "quality_sample":
                est = entry.get("estimate")
                est_s = f"{est:.4f}" if isinstance(est, (int, float)) else "-"
                verdict = entry.get("verdict") or "ok"
                out.append(
                    f"launch {launch:>5}  {entry.get('variant', '?'):<28} "
                    f"quality={entry.get('quality', 0.0):.4f} est={est_s} "
                    f"speedup={entry.get('speedup', 0.0):.2f}x  {verdict}"
                )
            elif entry.get("kind") == "knob_change":
                out.append(
                    f"launch {launch:>5}  KNOB {entry.get('from_variant')} -> "
                    f"{entry.get('to_variant')} ({entry.get('reason')})"
                )
            elif entry.get("kind") == "breaker":
                out.append(
                    f"launch {launch:>5}  BREAKER {entry.get('variant')} -> "
                    f"{entry.get('state')} ({entry.get('reason')})"
                )
            elif entry.get("kind") == "brownout":
                pressure = entry.get("pressure")
                pressure_s = (
                    f"{pressure:.3f}"
                    if isinstance(pressure, (int, float))
                    else "-"
                )
                out.append(
                    f"{entry.get('frontend', '?'):>12}  BROWNOUT level "
                    f"{entry.get('from_level')} -> {entry.get('to_level')} "
                    f"[{entry.get('state')}] ({entry.get('reason')}) "
                    f"pressure={pressure_s}"
                )
            else:
                out.append(
                    f"launch {launch:>5}  {entry.get('kind', '').upper()} "
                    f"variant={entry.get('variant')} quality={entry.get('quality')}"
                )

    # -- span trees for the most recent traces
    if forest and trees > 0:
        def trace_start(item):
            return min(s.get("start", 0.0) for s in item[1])

        recent = sorted(forest.items(), key=trace_start)[-trees:]
        for trace_id, roots in recent:
            out.append("")
            out.append(f"-- Span tree ({trace_id})")
            out.extend(render_tree(roots))
    return "\n".join(out)
