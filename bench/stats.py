"""Order statistics and span arithmetic shared by every workload."""

from __future__ import annotations

import json
import math
import statistics
from dataclasses import asdict, dataclass
from typing import Dict, Iterable, List, Optional, Sequence

median = statistics.median


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile (``q`` in [0, 100]) of a non-empty sequence."""
    ordered = sorted(values)
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return ordered[rank - 1]


def geomean(values: Iterable[float]) -> float:
    logs = [math.log(v) for v in values]
    return math.exp(sum(logs) / len(logs))


def spread(values: Sequence[float]) -> float:
    """Distance between the first and third quartile as a share of the median
    — the steadiness figure the driver accepts or rejects a metric on."""
    q1, _q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / abs(median(values))


# ----------------------------------------------------------------- spans


@dataclass
class Span:
    """One timed call into a layer, recorded by the benchmark itself."""

    span_id: int
    name: str
    start: float
    end: float
    parent: Optional[int]  # span_id of the span that caused this one
    request: int  # spans of one request share this id

    @property
    def duration(self) -> float:
        return self.end - self.start


class SpanRecorder:
    """Keeps spans in memory; :meth:`dump` writes them when the run ends."""

    def __init__(self) -> None:
        self.spans: List[Span] = []

    def add(
        self, name: str, start: float, end: float, request: int,
        parent: Optional[int] = None,
    ) -> int:
        span_id = len(self.spans)
        self.spans.append(Span(span_id, name, start, end, parent, request))
        return span_id

    def dump(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(asdict(span)) + "\n")


def self_times(spans: Sequence[Span]) -> Dict[int, float]:
    """Self time of every span: its duration minus the part of its interval
    that its direct children cover (overlapping children count once)."""
    children: Dict[int, List[Span]] = {}
    for span in spans:
        if span.parent is not None:
            children.setdefault(span.parent, []).append(span)
    out: Dict[int, float] = {}
    for span in spans:
        covered, reach = 0.0, span.start
        for child in sorted(children.get(span.span_id, ()), key=lambda s: s.start):
            lo, hi = max(child.start, reach), min(child.end, span.end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out[span.span_id] = span.duration - covered
    return out


def self_time_by_name(spans: Sequence[Span]) -> Dict[str, float]:
    """Median self time per span name."""
    selfs = self_times(spans)
    by_name: Dict[str, List[float]] = {}
    for span in spans:
        by_name.setdefault(span.name, []).append(selfs[span.span_id])
    return {name: median(values) for name, values in by_name.items()}
