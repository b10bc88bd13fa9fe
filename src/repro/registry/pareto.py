"""Pareto fronts over (quality, speedup) variant measurements.

The registry never stores the raw design space — only the points worth
keeping: for each (kernel, device, input-sketch) key, the set of variants
no other variant dominates on both axes, following autoAx's observation
that search over the front is as good as search over the space at a
fraction of the cost.  Points are merged by variant name with running
means, so repeated observations of the same variant sharpen one point
instead of growing the store.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Dict, Iterable, List, Optional

from ..errors import SerializationError


@dataclass(frozen=True)
class ParetoPoint:
    """One characterized variant: where it lands on the quality/speedup
    plane, under which knob values, and how much evidence backs it.

    Attributes:
        variant: the variant's stable name (``gaussian__stencil_row_d1``).
        quality: mean measured output quality in [0, 1].
        speedup: mean modelled speedup over the exact program.
        cycles: mean modelled cycles (0.0 when unknown, e.g. timeline
            observations carry no cycle counts).
        knobs: the knob values the variant encodes, JSON-plain.
        identity: content identity of the variant (kernel-IR fingerprint
            via :func:`repro.runtime.tuner.variant_identity`), so two
            differently-configured variants sharing a name never merge.
        samples: measurements folded into the running means.
    """

    variant: str
    quality: float
    speedup: float
    cycles: float = 0.0
    knobs: Dict[str, object] = field(default_factory=dict)
    identity: str = ""
    samples: int = 1

    def merged_with(self, other: "ParetoPoint") -> "ParetoPoint":
        """Fold ``other``'s evidence into this point (running means).

        Cycles of 0.0 mean "unknown" and never dilute a known mean.
        """
        n = self.samples + other.samples
        w_self = self.samples / n
        w_other = other.samples / n
        if self.cycles and other.cycles:
            cycles = self.cycles * w_self + other.cycles * w_other
        else:
            cycles = self.cycles or other.cycles
        return replace(
            self,
            quality=self.quality * w_self + other.quality * w_other,
            speedup=self.speedup * w_self + other.speedup * w_other,
            cycles=cycles,
            knobs=dict(other.knobs) if other.knobs else dict(self.knobs),
            identity=other.identity or self.identity,
            samples=n,
        )

    # -- serialization -------------------------------------------------------

    def to_dict(self) -> dict:
        return {
            "variant": self.variant,
            "quality": float(self.quality),
            "speedup": float(self.speedup),
            "cycles": float(self.cycles),
            "knobs": dict(self.knobs),
            "identity": self.identity,
            "samples": int(self.samples),
        }

    @classmethod
    def from_dict(cls, data: dict) -> "ParetoPoint":
        if not isinstance(data, dict):
            raise SerializationError(
                f"ParetoPoint.from_dict expects a dict, got {type(data).__name__}"
            )
        missing = [k for k in ("variant", "quality", "speedup") if k not in data]
        if missing:
            raise SerializationError(
                f"ParetoPoint.from_dict: missing keys {missing}"
            )
        bad = [
            k
            for k in ("quality", "speedup")
            if not isinstance(data[k], (int, float))
            or isinstance(data[k], bool)
        ]
        if bad:
            raise SerializationError(
                f"ParetoPoint.from_dict: mistyped keys {bad}: {data!r}"
            )
        knobs = data.get("knobs", {})
        if not isinstance(knobs, dict):
            raise SerializationError(
                f"ParetoPoint.from_dict: knobs must be a dict, got {knobs!r}"
            )
        return cls(
            variant=str(data["variant"]),
            quality=float(data["quality"]),
            speedup=float(data["speedup"]),
            cycles=float(data.get("cycles", 0.0) or 0.0),
            knobs=knobs,
            identity=str(data.get("identity", "")),
            samples=max(1, int(data.get("samples", 1))),
        )


def dominates(a: ParetoPoint, b: ParetoPoint) -> bool:
    """True when ``a`` is at least as good as ``b`` on both axes and
    strictly better on one."""
    return (
        a.quality >= b.quality
        and a.speedup >= b.speedup
        and (a.quality > b.quality or a.speedup > b.speedup)
    )


def pareto_front(points: Iterable[ParetoPoint]) -> List[ParetoPoint]:
    """The non-dominated subset, sorted by descending quality.

    Equal (quality, speedup) pairs keep the better-evidenced point.  The
    sort order matches :meth:`TuningResult.frontier` so front walks read
    like tuning frontiers.
    """
    pool = sorted(
        points, key=lambda p: (-p.quality, -p.speedup, -p.samples, p.variant)
    )
    front: List[ParetoPoint] = []
    best_speedup = float("-inf")
    for point in pool:
        if point.speedup > best_speedup:
            front.append(point)
            best_speedup = point.speedup
    return front


def feasible(
    front: Iterable[ParetoPoint], toq: float, margin: float = 0.0
) -> List[ParetoPoint]:
    """Front points whose recorded quality clears the TOQ plus margin."""
    bar = toq + margin
    return [p for p in front if p.quality >= bar]


def knee(
    front: Iterable[ParetoPoint], toq: float, margin: float = 0.0
) -> Optional[ParetoPoint]:
    """The TOQ-feasible knee: the fastest point still clearing the target.

    This is where greedy tuning would have ended up, found by lookup
    instead of walking the whole ladder; None when nothing on the front
    clears the bar (the caller falls back to cold tuning or the exact
    program).
    """
    candidates = feasible(front, toq, margin)
    if not candidates:
        return None
    return min(candidates, key=lambda p: (-p.speedup, -p.quality, p.variant))


def merge_points(
    existing: Dict[str, ParetoPoint], incoming: Iterable[ParetoPoint]
) -> Dict[str, ParetoPoint]:
    """Merge ``incoming`` into a by-variant map (running-mean semantics).

    A point whose content ``identity`` differs from the stored one is a
    *replacement* (the variant's kernel changed), not more evidence.
    """
    for point in incoming:
        held = existing.get(point.variant)
        if held is None:
            existing[point.variant] = point
        elif point.identity and held.identity and point.identity != held.identity:
            existing[point.variant] = point
        else:
            existing[point.variant] = held.merged_with(point)
    return existing
