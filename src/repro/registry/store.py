"""The cross-session variant registry: a crash-safe on-disk tuning store.

One registry directory holds everything a fleet of serving workers has
learned about a knob space, keyed by ``(kernel fingerprint, device
fingerprint, input-distribution sketch)`` (:mod:`repro.registry.sketch`).
Per key it keeps the by-variant merged measurement points: their Pareto
front (:mod:`repro.registry.pareto`) seeds warm tuning, and warm tuning
reads every stored point by variant name for the rungs it does not
re-measure.

Durability model — **one document, replaced whole**:

* All state lives in ``<root>/registry.json``:
  ``{"format": 2, "sketches": {key: sketch}, "points": {key: [point, ...]}}``.
  A front is a small table (13 apps leave 47 points in 18 KB), so every
  write rewrites the document: a temp file, flushed and fsynced, then
  ``os.replace``.  Rename is atomic, so a reader or a crash sees either
  the old document or the new one, never part of either.
* Writers hold an exclusive ``fcntl.flock`` on ``<root>/.lock`` and
  re-read the document first if another writer replaced it, so the
  process-pool fleet can share one directory without losing points.
  Readers take no lock; they re-read only when the document's
  (inode, size, ``mtime_ns``) changed.  In-process, a
  ``threading.Lock`` serializes the same paths.
* A document that does not parse or validate is ignored: the handle
  reads like a fresh directory (tuning falls back to a cold sweep), the
  load counts in ``stats()["unreadable"]``, and the next write replaces
  it.  ``seg-*.jsonl`` files of the older segment-log format are not
  read.

``root=None`` keeps the registry purely in memory — the zero-IO mode
sessions use when no registry directory is configured.

One environment variable, a deployment path: ``REPRO_REGISTRY_DIR`` is
the directory ``resolve_registry`` opens when a session asks for
``registry="auto"``.  The tuning values are :class:`VariantRegistry`
constructor arguments.
"""

from __future__ import annotations

import io
import json
import os
import threading
import time
from dataclasses import replace
from pathlib import Path
from typing import Dict, List, Optional, Tuple

from ..errors import SerializationError
from ..obs import trace as obs_trace
from .pareto import ParetoPoint, knee, merge_points, pareto_front
from .sketch import (
    DEFAULT_TOLERANCE,
    input_sketch_vector,
    key_prefix,
    registry_key,
    sketch_distance,
    sketch_from_json,
    sketch_to_json,
)

try:  # pragma: no cover - always present on the POSIX hosts we target
    import fcntl
except ImportError:  # pragma: no cover - non-POSIX fallback (no-op locks)
    fcntl = None

#: On-disk document format version.
FORMAT = 2
DOCUMENT = "registry.json"

DEFAULT_MARGIN = 0.005
DEFAULT_MIN_POINTS = 2

State = Dict[str, Dict[str, ParetoPoint]]


class _Metrics:
    """Lazily-registered ``repro_registry_*`` metric families."""

    _instance = None

    def __init__(self) -> None:
        from ..obs.registry import get_registry

        registry = get_registry()
        self.lookups = registry.counter(
            "repro_registry_lookups_total",
            "registry front lookups",
            labelnames=("result",),
        )
        self.writes = registry.counter(
            "repro_registry_writes_total", "points written to the registry"
        )
        self.warmstarts = registry.counter(
            "repro_registry_warmstarts_total",
            "tuner seedings by mode",
            labelnames=("mode",),
        )
        self.unreadable = registry.counter(
            "repro_registry_unreadable_total",
            "registry documents ignored at load because they did not parse",
        )
        self.keys = registry.gauge(
            "repro_registry_keys", "distinct keys held in memory"
        )
        self.points = registry.gauge(
            "repro_registry_points", "merged points held in memory"
        )

    @classmethod
    def get(cls) -> "_Metrics":
        if cls._instance is None:
            cls._instance = cls()
        return cls._instance


class _FileLock:
    """Exclusive ``flock`` on ``<root>/.lock`` for a ``with`` block; a
    no-op when rootless or non-POSIX."""

    def __init__(self, root: Optional[Path]) -> None:
        self.path = root / ".lock" if root is not None else None
        self._fh: Optional[io.IOBase] = None

    def __enter__(self) -> None:
        if self.path is not None and fcntl is not None:
            self._fh = self.path.open("a+b")
            fcntl.flock(self._fh.fileno(), fcntl.LOCK_EX)

    def __exit__(self, *_exc) -> None:
        if self._fh is not None:
            self._fh.close()  # closing the descriptor releases the lock
            self._fh = None


def _parse(data: bytes) -> Tuple[State, Dict[str, list]]:
    """The points and sketches of a document; raises on anything else."""
    doc = json.loads(data.decode("utf-8"))
    if not isinstance(doc, dict) or doc.get("format") != FORMAT:
        raise SerializationError("not a registry document of this format")
    sketches = {str(k): sketch_from_json(v) for k, v in doc["sketches"].items()}
    state: State = {}
    for key, points in doc["points"].items():
        held = state[str(key)] = {}
        for raw in points:
            point = ParetoPoint.from_dict(raw)
            held[point.variant] = point
    return state, sketches


class VariantRegistry:
    """The shared store of per-key measurement points and their Pareto fronts.

    Args:
        root: registry directory (created if missing); ``None`` for a
            purely in-memory registry.
        margin: TOQ safety margin for knee selection — warm starts only
            trust front points clearing ``toq + margin``.
        min_points: front points required before warm starts engage.
    """

    def __init__(
        self,
        root: Optional[object] = None,
        margin: float = DEFAULT_MARGIN,
        min_points: int = DEFAULT_MIN_POINTS,
    ) -> None:
        self.root = Path(root) if root is not None else None
        self.margin = margin
        self.min_points = min_points
        self._state: State = {}
        self._sketches: Dict[str, list] = {}  # key -> stored sketch vector
        self._pending_sketches: Dict[str, list] = {}  # minted, not yet written
        self.path = self.root / DOCUMENT if self.root is not None else None
        self._seen: Optional[tuple] = None  # signature of the document held
        self._lock = threading.Lock()
        self._flock = _FileLock(self.root)
        self.unreadable = 0
        if self.root is not None:
            self.root.mkdir(parents=True, exist_ok=True)
            self.refresh()

    # -- keys ------------------------------------------------------------------

    def resolve_key(self, app, spec, inputs) -> str:
        """The key this (app, device, input set) should tune under.

        Sample moments wobble between draws of the same distribution, so
        exact sketch digests cannot be the matcher.  Instead every key
        stores its continuous sketch vector; resolution finds the
        nearest stored key with the same kernel/device prefix and reuses
        it when within :data:`DEFAULT_TOLERANCE` (Chebyshev, log2-ish units).
        Only genuinely new distributions mint new keys.
        """
        self.refresh()
        prefix = key_prefix(app, spec) + "/"
        vector = input_sketch_vector(inputs)
        best_key, best_distance = None, float("inf")
        with self._lock:
            for key, stored in self._sketches.items():
                if not key.startswith(prefix):
                    continue
                distance = sketch_distance(vector, stored)
                if distance < best_distance:
                    best_key, best_distance = key, distance
        if best_key is not None and best_distance <= DEFAULT_TOLERANCE:
            return best_key
        key = registry_key(app, spec, inputs)
        with self._lock:
            if key not in self._sketches:
                self._pending_sketches[key] = sketch_to_json(vector)
        return key

    def keys(self) -> List[str]:
        with self._lock:
            return sorted(self._state)

    def __len__(self) -> int:
        with self._lock:
            return len(self._state)

    # -- the document ----------------------------------------------------------

    def _load(self) -> None:
        """Re-read the document if it was replaced since this handle last
        read or wrote it (called under ``self._lock``)."""
        if self.root is None:
            return
        try:
            fh = self.path.open("rb")
        except FileNotFoundError:
            return
        with fh:
            st = os.fstat(fh.fileno())
            seen = (st.st_ino, st.st_size, st.st_mtime_ns)
            if seen == self._seen:
                return
            self._seen = seen
            data = fh.read()
        try:
            self._state, self._sketches = _parse(data)
        except (ValueError, SerializationError, KeyError, TypeError, AttributeError,
                RecursionError):
            # Reads like a fresh directory; the next write replaces it.
            self._state, self._sketches = {}, {}
            self.unreadable += 1
            _Metrics.get().unreadable.inc()
        self._publish_gauges()

    def _store(self, state: State, sketches: Dict[str, list]) -> None:
        """Make ``state`` the registry's content: replace the document,
        then memory, so a failed write changes neither (called under both
        locks)."""
        if self.root is not None:
            doc = {
                "format": FORMAT,
                "sketches": {k: sketch_to_json(v) for k, v in sketches.items()},
                "points": {
                    k: [p.to_dict() for p in held.values()]
                    for k, held in state.items()
                },
            }
            tmp = self.path.with_suffix(".tmp")
            with tmp.open("w", encoding="utf-8") as fh:
                json.dump(doc, fh, sort_keys=True, separators=(",", ":"))
                fh.flush()
                # mtime can be as coarse as a clock tick and a freed inode
                # number is reused: a nanosecond stamp makes every write
                # change the signature readers compare.
                now = time.time_ns()
                os.utime(fh.fileno(), ns=(now, now))
                os.fsync(fh.fileno())
                st = os.fstat(fh.fileno())
            os.replace(tmp, self.path)
            self._seen = (st.st_ino, st.st_size, st.st_mtime_ns)
        self._state, self._sketches = state, sketches
        self._publish_gauges()

    def _publish_gauges(self) -> None:
        metrics = _Metrics.get()
        metrics.keys.set(len(self._state))
        metrics.points.set(sum(len(v) for v in self._state.values()))

    # -- writes ----------------------------------------------------------------

    def record(self, key: str, point: ParetoPoint) -> None:
        """Merge one measurement point and write it back."""
        self.record_many(key, [point])

    def record_many(self, key: str, points: List[ParetoPoint]) -> None:
        """Record a batch in one write (a tuning write-back)."""
        if not points:
            return
        with self._lock, self._flock:
            self._load()  # fold in other writers before merging ours
            held = merge_points(dict(self._state.get(key, {})), points)
            sketches = self._sketches
            sketch = self._pending_sketches.get(key)
            if sketch is not None and key not in sketches:
                # First write under a freshly minted key: persist its
                # sketch vector so future sessions can proximity-match.
                sketches = {**sketches, key: sketch_from_json(sketch)}
            self._store({**self._state, key: held}, sketches)
            self._pending_sketches.pop(key, None)
            _Metrics.get().writes.inc(len(points))

    def record_observation(
        self, key: str, variant: str, quality: float, speedup: Optional[float] = None
    ) -> bool:
        """Fold one served-quality observation (e.g. a drift sample) into
        the variant's point.  Timelines carry no cycle counts, so the
        stored speedup is reused unless a fresh one is given.  Returns
        False when the variant has no point yet (nothing to refine)."""
        return self._observe([(key, variant, quality, speedup)]) == 1

    def ingest_timeline(self, entries: List[dict]) -> int:
        """Fold quality-timeline entries (``registry_key``-stamped quality
        samples) back into the store — the obs-export-to-training-data
        path — in one write.  Returns the number of observations absorbed."""
        observations = [
            (str(e["registry_key"]), str(e["variant"]), e["quality"], e.get("speedup"))
            for e in entries
            if e.get("kind") == "quality_sample"
            and e.get("registry_key")
            and e.get("variant")
            and e["variant"] != "exact"
            and isinstance(e.get("quality"), (int, float))
        ]
        return self._observe(observations)

    def _observe(self, observations: List[tuple]) -> int:
        """Fold ``(key, variant, quality, speedup)`` observations in order,
        each into the point the previous ones left, then write once."""
        if not observations:
            return 0
        with self._lock, self._flock:
            self._load()
            folded: State = {}
            absorbed = 0
            for key, variant, quality, speedup in observations:
                held = folded.get(key)
                if held is None:
                    held = dict(self._state.get(key, {}))
                point = held.get(variant)
                if point is None:
                    continue
                observation = replace(
                    point,
                    quality=float(quality),
                    speedup=point.speedup if speedup is None else float(speedup),
                    cycles=0.0,
                    knobs=dict(point.knobs),
                    samples=1,
                )
                folded[key] = merge_points(held, [observation])
                absorbed += 1
            if absorbed:
                self._store({**self._state, **folded}, self._sketches)
                _Metrics.get().writes.inc(absorbed)
            return absorbed

    # -- reads -----------------------------------------------------------------

    def refresh(self) -> None:
        """Re-read the document if another handle replaced it."""
        with self._lock:
            self._load()

    def points(self, key: str) -> List[ParetoPoint]:
        """Every merged point held for ``key``, one per variant (the front
        is a subset)."""
        with self._lock:
            return list(self._state.get(key, {}).values())

    def lookup(self, key: str, refresh: bool = True) -> List[ParetoPoint]:
        """The Pareto front for ``key`` (empty when unknown).

        Reads through to disk first (one ``fstat`` unless the document
        changed) so a fleet worker sees what its peers just learned.
        """
        with obs_trace.span("registry.lookup", key=key) as span:
            if refresh:
                self.refresh()
            front = pareto_front(self.points(key))
            result = "hit" if front else "miss"
            span.set(result=result, points=len(front))
            _Metrics.get().lookups.labels(result=result).inc()
        return front

    def knee_for(self, key: str, toq: float) -> Optional[ParetoPoint]:
        """The TOQ-feasible knee of ``key``'s front, margin applied."""
        return knee(self.lookup(key), toq, self.margin)

    def stats(self) -> dict:
        """A JSON-friendly snapshot for ``metrics_snapshot()`` and the CLI."""
        with self._lock:
            return {
                "root": str(self.root) if self.root is not None else None,
                "keys": len(self._state),
                "points": sum(len(v) for v in self._state.values()),
                "unreadable": self.unreadable,
                "margin": self.margin,
                "min_points": self.min_points,
            }

    # -- maintenance -----------------------------------------------------------

    def merge_from(self, other: "VariantRegistry") -> int:
        """Absorb every point another registry holds; returns points merged."""
        other.refresh()
        merged = 0
        with obs_trace.span("registry.merge", source=str(other.root)):
            for key in other.keys():
                points = other.points(key)
                with other._lock:
                    sketch = other._sketches.get(key)
                if sketch is not None:
                    with self._lock:
                        if key not in self._sketches:
                            self._pending_sketches[key] = sketch_to_json(sketch)
                self.record_many(key, points)
                merged += len(points)
        return merged

    def compact(self) -> int:
        """Garbage collection: keep only each key's Pareto front and
        rewrite the document; returns the number of points dropped."""
        with obs_trace.span("registry.gc") as span:
            with self._lock, self._flock:
                self._load()
                state = {
                    key: {p.variant: p for p in pareto_front(held.values())}
                    for key, held in self._state.items()
                }
                removed = sum(len(v) for v in self._state.values()) - sum(
                    len(v) for v in state.values()
                )
                self._store(state, self._sketches)
            span.set(points_removed=removed)
        return removed


def resolve_registry(registry) -> Optional[VariantRegistry]:
    """Coerce a session's ``registry=`` argument into a store.

    Accepts a ready :class:`VariantRegistry`, a directory path, ``None``
    (registry disabled), or ``"auto"`` (open ``REPRO_REGISTRY_DIR`` when
    set, else disabled).
    """
    if registry is None:
        return None
    if isinstance(registry, VariantRegistry):
        return registry
    if registry == "auto":
        root = os.environ.get("REPRO_REGISTRY_DIR")
        return VariantRegistry(root) if root else None
    return VariantRegistry(registry)
