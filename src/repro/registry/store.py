"""The cross-session variant registry: a crash-safe on-disk tuning store.

One registry directory holds everything a fleet of serving workers has
learned about a knob space, keyed by ``(kernel fingerprint, device
fingerprint, input-distribution sketch)`` (:mod:`repro.registry.sketch`).
Per key it keeps the by-variant merged measurement points: their Pareto
front (:mod:`repro.registry.pareto`) seeds warm tuning, and warm tuning
reads every stored point by variant name for the rungs it does not
re-measure.

Durability model — **versioned append-only segments**:

* All state lives in ``seg-<NNNNNN>.jsonl`` files, one JSON record per
  line, replayed in segment order at load.  Writers only ever append;
  a torn final line (crash mid-write) is detected and dropped, and a
  corrupt line abandons the rest of *that segment only* — the store
  rebuilds from the last good record of the last good generation.
* The active segment rotates at ``segment_bytes``; compaction
  (:meth:`VariantRegistry.compact`) writes the consolidated state into a
  fresh segment beginning with a ``truncate`` record (so replay ignores
  everything older even if deleting the old segments is interrupted),
  then removes the superseded files.
* Cross-process safety: every append and every load holds an
  ``fcntl.flock`` on ``<root>/.lock`` (exclusive for writers, shared for
  readers), so the process-pool fleet can share one registry directory.
  In-process, a ``threading.Lock`` serializes the same paths.

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
import re
import threading
from pathlib import Path
from typing import Dict, List, Optional

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

#: On-disk record format version.
FORMAT = 1

_SEGMENT_RE = re.compile(r"^seg-(\d{6})\.jsonl$")

DEFAULT_SEGMENT_BYTES = 1 << 20
DEFAULT_MARGIN = 0.005
DEFAULT_MIN_POINTS = 2


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
            "repro_registry_writes_total", "points appended to the registry"
        )
        self.warmstarts = registry.counter(
            "repro_registry_warmstarts_total",
            "tuner seedings by mode",
            labelnames=("mode",),
        )
        self.recovered = registry.counter(
            "repro_registry_recovered_lines_total",
            "corrupt or torn segment lines dropped at load",
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
    """``flock`` on ``<root>/.lock``; a no-op when rootless or non-POSIX."""

    def __init__(self, root: Optional[Path]) -> None:
        self.path = root / ".lock" if root is not None else None
        self._fh: Optional[io.IOBase] = None

    def acquire(self, shared: bool = False) -> None:
        if self.path is None or fcntl is None:
            return
        self._fh = self.path.open("a+b")
        fcntl.flock(
            self._fh.fileno(), fcntl.LOCK_SH if shared else fcntl.LOCK_EX
        )

    def release(self) -> None:
        if self._fh is None:
            return
        if fcntl is not None:
            fcntl.flock(self._fh.fileno(), fcntl.LOCK_UN)
        self._fh.close()
        self._fh = None


class VariantRegistry:
    """The shared store of per-key measurement points and their Pareto fronts.

    Args:
        root: registry directory (created if missing); ``None`` for a
            purely in-memory registry.
        segment_bytes: active-segment rotation threshold.
        margin: TOQ safety margin for knee selection — warm starts only
            trust front points clearing ``toq + margin``.
        min_points: front points required before warm starts engage.
        fsync: fsync every append (off by default; the append-only
            format already confines a crash to the torn final line).
    """

    def __init__(
        self,
        root: Optional[object] = None,
        segment_bytes: int = DEFAULT_SEGMENT_BYTES,
        margin: float = DEFAULT_MARGIN,
        min_points: int = DEFAULT_MIN_POINTS,
        fsync: bool = False,
    ) -> None:
        self.root = Path(root) if root is not None else None
        self.segment_bytes = segment_bytes
        self.margin = margin
        self.min_points = min_points
        self.fsync = fsync
        self._state: Dict[str, Dict[str, ParetoPoint]] = {}
        self._sketches: Dict[str, list] = {}  # key -> stored sketch vector
        self._pending_sketches: Dict[str, list] = {}  # minted, not yet appended
        self._offsets: Dict[str, int] = {}  # segment name -> bytes consumed
        self._poisoned: set = set()  # segments with an unparseable tail
        self._lock = threading.Lock()
        self._flock = _FileLock(self.root)
        self.recovered_lines = 0
        if self.root is not None:
            self.root.mkdir(parents=True, exist_ok=True)
            with self._lock:
                self._flock.acquire(shared=True)
                try:
                    self._replay()
                finally:
                    self._flock.release()

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

    # -- segment machinery -----------------------------------------------------

    def _segments(self) -> List[Path]:
        if self.root is None:
            return []
        found = []
        for path in self.root.iterdir():
            if _SEGMENT_RE.match(path.name):
                found.append(path)
        return sorted(found)

    @staticmethod
    def _segment_seq(path: Path) -> int:
        return int(_SEGMENT_RE.match(path.name).group(1))

    def generation(self) -> int:
        """The current segment generation (0 for a fresh/memory store)."""
        segments = self._segments()
        return self._segment_seq(segments[-1]) if segments else 0

    def _replay(self) -> None:
        """Rebuild (or incrementally extend) memory state from segments.

        Called under both locks.  Segments already consumed are resumed
        from their recorded byte offset; a previously-seen segment that
        vanished (compaction by another process) forces a full rebuild.
        """
        segments = self._segments()
        names = {p.name for p in segments}
        if any(name not in names for name in self._offsets):
            self._state.clear()
            self._offsets.clear()
            self._poisoned.clear()
        for path in segments:
            self._replay_segment(path)
        self._publish_gauges()

    def _replay_segment(self, path: Path) -> None:
        offset = self._offsets.get(path.name, 0)
        try:
            size = path.stat().st_size
        except OSError:
            return
        if size <= offset:
            return
        generation = self._segment_seq(path)
        with path.open("rb") as fh:
            fh.seek(offset)
            consumed = offset
            for raw in fh:
                if not raw.endswith(b"\n"):
                    # Torn final line: a writer crashed (or is) mid-append.
                    # Stop here; the offset lets a later replay resume once
                    # the line is completed.
                    self.recovered_lines += 1
                    _Metrics.get().recovered.inc()
                    break
                consumed += len(raw)
                line = raw.strip()
                if not line:
                    continue
                try:
                    record = json.loads(line.decode("utf-8"))
                    self._apply(record, generation)
                except (ValueError, SerializationError, KeyError, TypeError):
                    # A corrupt line poisons the rest of its segment (we
                    # cannot trust framing past it) but not the store:
                    # later segments still replay.
                    self.recovered_lines += 1
                    _Metrics.get().recovered.inc()
                    self._poisoned.add(path.name)
                    consumed = size
                    break
        self._offsets[path.name] = consumed

    def _apply(self, record: dict, generation: int) -> None:
        op = record.get("op", "point")
        if op == "truncate":
            # A compacted segment starts from nothing: everything the
            # older segments said is superseded.
            self._state.clear()
            self._sketches.clear()
        elif op == "sketch":
            self._sketches[str(record["key"])] = [
                (str(s), [float(v) for v in c])
                for s, c in record["sketch"]
            ]
        elif op == "point":
            point = ParetoPoint.from_dict(record["point"])
            if point.generation < generation:
                point = ParetoPoint.from_dict(
                    {**point.to_dict(), "generation": generation}
                )
            merge_points(
                self._state.setdefault(str(record["key"]), {}), [point]
            )
        else:
            raise SerializationError(f"unknown registry op {op!r}")

    def _active_segment(self) -> Path:
        segments = self._segments()
        if not segments:
            return self.root / "seg-000001.jsonl"
        active = segments[-1]
        try:
            size = active.stat().st_size
        except OSError:
            return active
        # Rotate when full — and also when the segment has a tail replay
        # could not consume (a torn line from a crashed writer, or framing
        # poisoned by a corrupt record).  Appending after such a tail
        # would glue the new record onto the unreadable bytes and lose
        # it; a fresh segment is readable by every replayer.  Called
        # after ``_replay`` under the exclusive lock, so the offset is
        # current.
        unreadable_tail = (
            active.name in self._poisoned
            or self._offsets.get(active.name, 0) != size
        )
        if size >= self.segment_bytes or unreadable_tail:
            return self.root / f"seg-{self._segment_seq(active) + 1:06d}.jsonl"
        return active

    def _append(self, records: List[dict]) -> None:
        """Append records to the active segment (called under both locks)."""
        if self.root is None:
            return
        path = self._active_segment()
        payload = "".join(
            json.dumps(r, sort_keys=True, separators=(",", ":")) + "\n"
            for r in records
        )
        with path.open("a", encoding="utf-8") as fh:
            fh.write(payload)
            fh.flush()
            if self.fsync:
                os.fsync(fh.fileno())
        self._offsets[path.name] = (
            self._offsets.get(path.name, 0) + len(payload.encode("utf-8"))
        )

    def _publish_gauges(self) -> None:
        metrics = _Metrics.get()
        metrics.keys.set(len(self._state))
        metrics.points.set(sum(len(v) for v in self._state.values()))

    # -- writes ----------------------------------------------------------------

    def record(self, key: str, point: ParetoPoint) -> None:
        """Merge one measurement point and append it to the log."""
        self.record_many(key, [point])

    def record_many(self, key: str, points: List[ParetoPoint]) -> None:
        """Record a batch under one lock acquisition (a tuning write-back)."""
        if not points:
            return
        metrics = _Metrics.get()
        with self._lock:
            self._flock.acquire()
            try:
                self._replay()  # fold in other writers before merging ours
                generation = max(1, self.generation())
                stamped = [
                    ParetoPoint.from_dict(
                        {**p.to_dict(), "generation": generation}
                    )
                    for p in points
                ]
                merge_points(self._state.setdefault(key, {}), stamped)
                records: List[dict] = []
                sketch = self._pending_sketches.pop(key, None)
                if sketch is not None and key not in self._sketches:
                    # First write under a freshly minted key: persist its
                    # sketch vector so future sessions can proximity-match.
                    self._sketches[key] = sketch_from_json(sketch)
                    records.append(
                        {"v": FORMAT, "op": "sketch", "key": key, "sketch": sketch}
                    )
                records.extend(
                    {"v": FORMAT, "op": "point", "key": key, "point": p.to_dict()}
                    for p in stamped
                )
                self._append(records)
                metrics.writes.inc(len(stamped))
                self._publish_gauges()
            finally:
                self._flock.release()

    def record_observation(
        self,
        key: str,
        variant: str,
        quality: float,
        speedup: Optional[float] = None,
    ) -> bool:
        """Fold one served-quality observation (e.g. a drift sample) into
        the variant's point.  Timelines carry no cycle counts, so the
        stored speedup is reused unless a fresh one is given.  Returns
        False when the variant has no point yet (nothing to refine)."""
        with self._lock:
            held = self._state.get(key, {}).get(variant)
        if held is None:
            return False
        observation = ParetoPoint(
            variant=variant,
            quality=float(quality),
            speedup=float(speedup) if speedup is not None else held.speedup,
            cycles=0.0,
            knobs=dict(held.knobs),
            identity=held.identity,
            samples=1,
        )
        self.record(key, observation)
        return True

    def ingest_timeline(self, entries: List[dict]) -> int:
        """Fold quality-timeline entries (``registry_key``-stamped quality
        samples) back into the store — the obs-export-to-training-data
        path.  Returns the number of observations absorbed."""
        absorbed = 0
        for entry in entries:
            if entry.get("kind") != "quality_sample":
                continue
            key = entry.get("registry_key")
            variant = entry.get("variant")
            quality = entry.get("quality")
            if not key or not variant or variant == "exact":
                continue
            if not isinstance(quality, (int, float)):
                continue
            if self.record_observation(
                str(key), str(variant), float(quality),
                speedup=entry.get("speedup"),
            ):
                absorbed += 1
        return absorbed

    # -- reads -----------------------------------------------------------------

    def refresh(self) -> None:
        """Fold in whatever other processes appended since the last read."""
        if self.root is None:
            return
        with self._lock:
            self._flock.acquire(shared=True)
            try:
                self._replay()
            finally:
                self._flock.release()

    def points(self, key: str) -> List[ParetoPoint]:
        """Every merged point held for ``key``, one per variant (the front
        is a subset)."""
        with self._lock:
            return list(self._state.get(key, {}).values())

    def lookup(self, key: str, refresh: bool = True) -> List[ParetoPoint]:
        """The Pareto front for ``key`` (empty when unknown).

        Reads through to disk first (cheap stat-based tail replay) so a
        fleet worker sees what its peers just learned.
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
                "segments": len(self._segments()),
                "generation": self.generation(),
                "recovered_lines": self.recovered_lines,
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

    def compact(self, front_only: bool = False) -> int:
        """Rewrite the store as one fresh segment; returns segments removed.

        ``front_only=True`` is garbage collection: dominated points are
        dropped and only each key's Pareto front survives.  The new
        segment starts with a ``truncate`` record, so the rewrite is
        correct even if deleting the superseded segments is interrupted.
        """
        if self.root is None:
            with self._lock:
                if front_only:
                    for key in list(self._state):
                        front = pareto_front(self._state[key].values())
                        self._state[key] = {p.variant: p for p in front}
            return 0
        with obs_trace.span("registry.gc", front_only=front_only) as span:
            with self._lock:
                self._flock.acquire()
                try:
                    self._replay()
                    old_segments = self._segments()
                    generation = self.generation() + 1
                    records: List[dict] = [{"v": FORMAT, "op": "truncate"}]
                    for key in sorted(self._sketches):
                        records.append(
                            {
                                "v": FORMAT,
                                "op": "sketch",
                                "key": key,
                                "sketch": sketch_to_json(self._sketches[key]),
                            }
                        )
                    for key in sorted(self._state):
                        held = self._state[key].values()
                        keep = pareto_front(held) if front_only else sorted(
                            held, key=lambda p: p.variant
                        )
                        if front_only:
                            self._state[key] = {p.variant: p for p in keep}
                        for point in keep:
                            records.append(
                                {
                                    "v": FORMAT,
                                    "op": "point",
                                    "key": key,
                                    "point": point.to_dict(),
                                }
                            )
                    path = self.root / f"seg-{generation:06d}.jsonl"
                    tmp = path.with_suffix(".tmp")
                    with tmp.open("w", encoding="utf-8") as fh:
                        for record in records:
                            fh.write(
                                json.dumps(
                                    record, sort_keys=True, separators=(",", ":")
                                )
                                + "\n"
                            )
                        fh.flush()
                        os.fsync(fh.fileno())
                    tmp.replace(path)
                    for old in old_segments:
                        old.unlink(missing_ok=True)
                        self._offsets.pop(old.name, None)
                        self._poisoned.discard(old.name)
                    self._offsets[path.name] = path.stat().st_size
                    self._publish_gauges()
                    span.set(segments_removed=len(old_segments))
                    return len(old_segments)
                finally:
                    self._flock.release()


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
