"""Process-wide metrics registry: counters, gauges, histograms with labels.

Every subsystem registers its counters here instead of keeping private
dicts: the codegen cache, the shard runtime, the worker pools, the guard
and every serving session all increment registry metrics, and
``metrics_snapshot()`` (plus the Prometheus exposition in
:mod:`repro.obs.export`) are *views* over this one store — two callers
can never assemble diverging counts from parallel bookkeeping.

Naming follows the Prometheus conventions the exposition format expects:
``repro_<subsystem>_<what>[_total|_seconds]``, lowercase snake_case, with
dimensions expressed as labels (``pool="shard"``, ``session="s0"``)
rather than baked into names.  See ``docs/OBSERVABILITY.md``.
"""

from __future__ import annotations

import threading
from typing import Dict, Iterable, List, Optional, Tuple

from ..errors import ConfigError

COUNTER = "counter"
GAUGE = "gauge"
HISTOGRAM = "histogram"

#: Default histogram buckets: wall-times from 100us to 10s.
DEFAULT_BUCKETS = (
    0.0001, 0.0005, 0.001, 0.005, 0.01, 0.05, 0.1, 0.5, 1.0, 5.0, 10.0
)


def histogram_quantile(
    buckets: Tuple[float, ...], counts: List[int], q: float
) -> Optional[float]:
    """Estimate the ``q``-quantile of a bucketed histogram.

    ``counts`` is per-bucket (non-cumulative), one entry per bound plus a
    final +inf entry.  Linear interpolation inside the containing bucket,
    the Prometheus ``histogram_quantile`` convention: the first bucket
    interpolates from 0, and a quantile landing in the +inf bucket clamps
    to the largest finite bound (the estimate cannot exceed what the
    buckets resolve).  Returns None for an empty histogram.
    """
    if not 0.0 <= q <= 1.0:
        raise ConfigError(f"quantile must be in [0, 1], got {q}")
    total = sum(counts)
    if total == 0:
        return None
    rank = q * total
    cumulative = 0.0
    for i, bound in enumerate(buckets):
        in_bucket = counts[i]
        if cumulative + in_bucket >= rank and in_bucket > 0:
            lower = buckets[i - 1] if i > 0 else 0.0
            fraction = (rank - cumulative) / in_bucket
            return lower + fraction * (bound - lower)
        cumulative += in_bucket
    return buckets[-1] if buckets else None


def _label_key(labelnames: Tuple[str, ...], labels: Dict[str, str]) -> Tuple[str, ...]:
    missing = [n for n in labelnames if n not in labels]
    extra = [n for n in labels if n not in labelnames]
    if missing or extra:
        raise ConfigError(
            f"metric labels mismatch (missing={missing}, unexpected={extra}; "
            f"declared {list(labelnames)})"
        )
    return tuple(str(labels[n]) for n in labelnames)


class Child:
    """One (metric, label-values) time series."""

    __slots__ = ("_lock", "_value", "kind", "_buckets", "_counts", "_sum", "_count")

    def __init__(self, kind: str, buckets: Optional[Tuple[float, ...]] = None):
        self._lock = threading.Lock()
        self.kind = kind
        self._value = 0.0
        if kind == HISTOGRAM:
            self._buckets = tuple(sorted(buckets or DEFAULT_BUCKETS))
            self._counts = [0] * (len(self._buckets) + 1)  # +inf bucket
            self._sum = 0.0
            self._count = 0

    # -- counters / gauges ---------------------------------------------------

    def inc(self, amount: float = 1.0) -> None:
        with self._lock:
            self._value += amount

    def set(self, value: float) -> None:
        with self._lock:
            self._value = float(value)

    def max(self, value: float) -> None:
        """Ratchet: keep the largest value ever set (pool high-water marks)."""
        with self._lock:
            if value > self._value:
                self._value = float(value)

    @property
    def value(self) -> float:
        with self._lock:
            return self._value

    # -- histograms ----------------------------------------------------------

    def observe(self, value: float) -> None:
        with self._lock:
            self._sum += value
            self._count += 1
            for i, bound in enumerate(self._buckets):
                if value <= bound:
                    self._counts[i] += 1
                    return
            self._counts[-1] += 1

    def raw_counts(self) -> Tuple[Tuple[float, ...], List[int], float, int]:
        """(buckets, per-bucket counts, sum, count) — non-cumulative,
        +inf bucket last."""
        with self._lock:
            return self._buckets, list(self._counts), self._sum, self._count

    def quantile(self, q: float) -> Optional[float]:
        """Estimated ``q``-quantile over the full observation history
        (:func:`histogram_quantile`); None when nothing was observed."""
        buckets, counts, _sum, _count = self.raw_counts()
        return histogram_quantile(buckets, counts, q)

    def histogram_snapshot(self) -> Dict[str, object]:
        with self._lock:
            cumulative, running = [], 0
            for c in self._counts:
                running += c
                cumulative.append(running)
            return {
                "buckets": list(self._buckets),
                "counts": cumulative,  # cumulative, le-style
                "sum": self._sum,
                "count": self._count,
            }


class Metric:
    """A named metric family; label values select :class:`Child` series."""

    def __init__(
        self,
        name: str,
        kind: str,
        help: str = "",
        labelnames: Iterable[str] = (),
        buckets: Optional[Tuple[float, ...]] = None,
    ):
        self.name = name
        self.kind = kind
        self.help = help
        self.labelnames = tuple(labelnames)
        self._buckets = buckets
        self._children: Dict[Tuple[str, ...], Child] = {}
        self._lock = threading.Lock()
        self._unlabelled: Optional[Child] = None

    def labels(self, **labels: object) -> Child:
        key = _label_key(self.labelnames, {k: str(v) for k, v in labels.items()})
        with self._lock:
            child = self._children.get(key)
            if child is None:
                child = self._children[key] = Child(self.kind, self._buckets)
            return child

    # Unlabelled families proxy to their single anonymous child, looked
    # up once.

    def _anonymous(self) -> Child:
        child = self._unlabelled
        if child is None:
            if self.labelnames:
                raise ConfigError(
                    f"metric {self.name} has labels {self.labelnames}; "
                    "use .labels(...)"
                )
            child = self._unlabelled = self.labels()
        return child

    def inc(self, amount: float = 1.0) -> None:
        self._anonymous().inc(amount)

    def set(self, value: float) -> None:
        self._anonymous().set(value)

    def observe(self, value: float) -> None:
        self._anonymous().observe(value)

    def quantile(self, q: float) -> Optional[float]:
        return self._anonymous().quantile(q)

    @property
    def value(self) -> float:
        return self._anonymous().value

    def children(self) -> Dict[Tuple[str, ...], Child]:
        with self._lock:
            return dict(self._children)

    def series(self) -> List[Tuple[Dict[str, str], Child]]:
        """(labels dict, child) pairs, for exporters and registry views."""
        return [
            (dict(zip(self.labelnames, key)), child)
            for key, child in self.children().items()
        ]


class MetricsRegistry:
    """The process-wide metric store.

    ``counter``/``gauge``/``histogram`` are idempotent: re-registering an
    existing name returns the existing family (so module reload, repeated
    session construction and tests all share one series set), but
    re-registering under a different kind or label set is a bug and
    raises.
    """

    def __init__(self) -> None:
        self._metrics: Dict[str, Metric] = {}
        self._lock = threading.Lock()

    def _register(
        self,
        name: str,
        kind: str,
        help: str,
        labelnames: Iterable[str],
        buckets: Optional[Tuple[float, ...]] = None,
    ) -> Metric:
        labelnames = tuple(labelnames)
        with self._lock:
            existing = self._metrics.get(name)
            if existing is not None:
                if existing.kind != kind or existing.labelnames != labelnames:
                    raise ConfigError(
                        f"metric {name!r} already registered as "
                        f"{existing.kind}{existing.labelnames}, cannot "
                        f"re-register as {kind}{labelnames}"
                    )
                return existing
            metric = Metric(name, kind, help, labelnames, buckets)
            self._metrics[name] = metric
            return metric

    def counter(self, name: str, help: str = "", labelnames=()) -> Metric:
        return self._register(name, COUNTER, help, labelnames)

    def gauge(self, name: str, help: str = "", labelnames=()) -> Metric:
        return self._register(name, GAUGE, help, labelnames)

    def histogram(
        self, name: str, help: str = "", labelnames=(), buckets=None
    ) -> Metric:
        return self._register(name, HISTOGRAM, help, labelnames, buckets)

    def get(self, name: str) -> Optional[Metric]:
        with self._lock:
            return self._metrics.get(name)

    def collect(self) -> List[Metric]:
        with self._lock:
            return [self._metrics[name] for name in sorted(self._metrics)]

    def snapshot(self) -> Dict[str, object]:
        """Every series as a flat JSON-friendly dict (debugging/tests)."""
        out: Dict[str, object] = {}
        for metric in self.collect():
            for labels, child in metric.series():
                suffix = (
                    "{" + ",".join(f"{k}={v}" for k, v in sorted(labels.items())) + "}"
                    if labels
                    else ""
                )
                if metric.kind == HISTOGRAM:
                    out[metric.name + suffix] = child.histogram_snapshot()
                else:
                    out[metric.name + suffix] = child.value
        return out


#: The default registry every subsystem registers into.
REGISTRY = MetricsRegistry()


def get_registry() -> MetricsRegistry:
    return REGISTRY


class CounterGroup:
    """A subsystem's fixed set of counters, as one object.

    ``fields`` maps a field name to its help text; each becomes the
    registry counter ``repro_<prefix>_<field>`` — or
    ``repro_<prefix>_<names[field]>`` where the series name differs from
    the field (``launches`` -> ``launches_total``).  ``labels`` are
    constant label values carried by every series of the group (one group
    per session shares the families, ``session=<label>`` tells them
    apart).  The only way to change a value is :meth:`inc` (one locked
    add on the series) or :meth:`reset` — there is deliberately no
    attribute assignment, so ``STATS.x += 1``, a locked read followed by a
    separate locked write that loses updates between threads, is an
    ``AttributeError`` rather than a latent race.  Reading ``STATS.x`` and
    :meth:`snapshot` return ints, except for the names in ``floats``
    (accumulated seconds).
    """

    __slots__ = ("_series", "_floats")

    def __init__(
        self,
        prefix: str,
        fields: Dict[str, str],
        floats: Iterable[str] = (),
        names: Optional[Dict[str, str]] = None,
        labels: Optional[Dict[str, str]] = None,
    ) -> None:
        names = names or {}
        labels = labels or {}
        self._series: Dict[str, Child] = {
            field: REGISTRY.counter(
                f"repro_{prefix}_{names.get(field, field)}", help, tuple(labels)
            ).labels(**labels)
            for field, help in fields.items()
        }
        self._floats = frozenset(floats)

    def inc(self, name: str, n: float = 1) -> None:
        self._series[name].inc(n)

    def __getattr__(self, name: str):
        if name.startswith("_"):  # an unset slot, not a counter
            raise AttributeError(name)
        try:
            value = self._series[name].value
        except KeyError:
            raise AttributeError(name) from None
        return value if name in self._floats else int(value)

    def snapshot(self) -> Dict[str, object]:
        return {
            name: round(getattr(self, name), 6)
            if name in self._floats
            else getattr(self, name)
            for name in self._series
        }

    def reset(self) -> None:
        for child in self._series.values():
            child.set(0.0)
