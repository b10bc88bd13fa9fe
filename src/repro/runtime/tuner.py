"""The runtime tuner (paper Fig 2, right-hand box).

Paraprox's compiler emits approximate kernels with knobs; a Green/SAGE-
style runtime then *profiles* them on training inputs and greedily picks
the fastest variant whose measured output quality satisfies the TOQ,
falling back to the exact kernel when nothing qualifies.  Modelled cycles
come from the device cost model, quality from the application's metric.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from ..device import CostModel, DeviceSpec
from ..errors import SerializationError, TuningError
from ..obs import trace as obs_trace


@dataclass
class VariantProfile:
    """Measured behaviour of one variant on the training inputs.

    ``variant_name`` preserves the identity of a profile that was
    deserialized from :meth:`TuningResult.from_dict` before its variant
    object has been rebound (see :meth:`GreedyTuner.resume`).

    ``predicted`` marks profiles a registry warm start copied from a
    stored measurement instead of re-measuring this session; they are
    never *chosen* directly, but the recalibration ladder includes them.
    """

    variant: object  # ApproxKernel | ScanVariant | None for exact
    quality: float
    cycles: float
    speedup: float
    variant_name: Optional[str] = None
    predicted: bool = False

    @property
    def name(self) -> str:
        if self.variant is not None:
            return self.variant.name
        return self.variant_name or "exact"

    @property
    def is_exact(self) -> bool:
        return self.variant is None and (self.variant_name in (None, "exact"))


@dataclass
class TuningResult:
    """Outcome of tuning one application for one device.

    ``resumed`` records whether the result was restored from a
    serialized snapshot (:meth:`GreedyTuner.resume`) rather than
    measured; serving sessions surface it as the tune cache state.
    """

    app: str
    device: str
    toq: float
    chosen: VariantProfile
    profiles: List[VariantProfile] = field(default_factory=list)
    resumed: bool = False
    #: how the profiling run was seeded: "cold" (full sweep) or "warm"
    #: (registry knee + local refinement).
    seed_mode: str = "cold"

    @property
    def speedup(self) -> float:
        return self.chosen.speedup

    @property
    def quality(self) -> float:
        return self.chosen.quality

    def frontier(self) -> List[VariantProfile]:
        """Quality/speedup pairs sorted by quality, for Fig-12-style
        tradeoff curves (exact point included)."""
        return sorted(self.profiles, key=lambda p: -p.quality)

    def summary(self) -> dict:
        """A JSON-serialisable record of this tuning run — what a
        deployment would persist to skip retuning on restart."""
        def row(p: VariantProfile) -> dict:
            return {
                "name": p.name,
                "quality": float(p.quality),
                "speedup": float(p.speedup),
                "knobs": _plain(getattr(p.variant, "knobs", {})),
            }

        return {
            "app": self.app,
            "device": self.device,
            "toq": float(self.toq),
            "chosen": row(self.chosen),
            "profiles": [row(p) for p in self.profiles],
        }

    def to_json(self) -> str:
        import json

        return json.dumps(self.summary(), indent=2)

    # -- round-trip serialization (disk cache / session restarts) ------------

    def to_dict(self) -> dict:
        """A complete JSON-serialisable form; unlike :meth:`summary` it also
        records modelled cycles so :meth:`from_dict` restores every field."""
        def row(p: VariantProfile) -> dict:
            return {
                "name": p.name,
                "quality": float(p.quality),
                "cycles": float(p.cycles),
                "speedup": float(p.speedup),
                "predicted": bool(p.predicted),
            }

        return {
            "app": self.app,
            "device": self.device,
            "toq": float(self.toq),
            "chosen": self.chosen.name,
            "profiles": [row(p) for p in self.profiles],
            "resumed": bool(self.resumed),
            "seed_mode": str(self.seed_mode),
        }

    @classmethod
    def from_dict(cls, data: dict) -> "TuningResult":
        """Rebuild a result whose profiles carry names but no live variant
        objects; :meth:`rebind` (or :meth:`GreedyTuner.resume`) reattaches
        compiled variants.  Malformed data raises
        :class:`~repro.errors.SerializationError`."""
        if not isinstance(data, dict):
            raise SerializationError(
                f"TuningResult.from_dict expects a dict, "
                f"got {type(data).__name__}"
            )
        missing = [
            k for k in ("app", "device", "toq", "chosen", "profiles")
            if k not in data
        ]
        if missing:
            raise SerializationError(
                f"TuningResult.from_dict: missing keys {missing}"
            )
        toq = data["toq"]
        if not isinstance(toq, (int, float)) or not 0.0 < float(toq) <= 1.0:
            raise SerializationError(
                f"TuningResult.from_dict: toq must be in (0, 1], got {toq!r}"
            )
        rows = data["profiles"]
        if not isinstance(rows, list):
            raise SerializationError(
                f"TuningResult.from_dict: profiles must be a list of dicts, "
                f"got {type(rows).__name__}"
            )
        profiles: List[VariantProfile] = []
        for i, row in enumerate(rows):
            if not isinstance(row, dict):
                raise SerializationError(
                    f"TuningResult.from_dict: profile {i} must be a dict, "
                    f"got {type(row).__name__}: {row!r}"
                )
            bad = [
                k for k in ("name", "quality", "cycles", "speedup")
                if not isinstance(row.get(k), (str if k == "name" else (int, float)))
            ]
            if bad:
                raise SerializationError(
                    f"TuningResult.from_dict: profile {i} has missing or "
                    f"mistyped keys {bad}: {row!r}"
                )
            profiles.append(
                VariantProfile(
                    variant=None,
                    quality=float(row["quality"]),
                    cycles=float(row["cycles"]),
                    speedup=float(row["speedup"]),
                    variant_name=str(row["name"]),
                    predicted=bool(row.get("predicted", False)),
                )
            )
        chosen_name = data["chosen"]
        chosen = next((p for p in profiles if p.name == chosen_name), None)
        if chosen is None:
            raise SerializationError(
                f"TuningResult.from_dict: chosen variant {chosen_name!r} "
                f"not among profiles {[p.name for p in profiles]}"
            )
        return cls(
            app=str(data["app"]),
            device=str(data["device"]),
            toq=float(toq),
            chosen=chosen,
            profiles=profiles,
            resumed=bool(data.get("resumed", False)),
            seed_mode=str(data.get("seed_mode", "cold")),
        )

    def rebind(self, variants) -> "TuningResult":
        """Reattach live variant objects (matched by name) to profiles that
        were deserialized.  Profiles whose variant is no longer in the
        compiled set keep ``variant=None`` and stay name-only; the chosen
        profile must rebind (or be exact) for the result to be runnable."""
        by_name = {v.name: v for v in variants}
        for p in self.profiles:
            if p.variant is None and p.variant_name not in (None, "exact"):
                p.variant = by_name.get(p.variant_name)
        if (
            self.chosen.variant is None
            and self.chosen.variant_name not in (None, "exact")
        ):
            raise TuningError(
                f"cannot rebind chosen variant {self.chosen.name!r}: not in "
                f"the compiled set {sorted(by_name)}"
            )
        return self


def variant_identity(variant) -> str:
    """A content key for one variant, stored on its registry points.

    Prefers the fingerprint of the variant's kernel IR (robust against
    two differently-configured variants sharing a name); falls back to
    ``name + knobs`` for variants without a module (e.g. scan pipeline
    variants, whose knobs fully determine behaviour).
    """
    module = getattr(variant, "module", None)
    kernel_name = getattr(variant, "kernel", None)
    if module is not None and kernel_name is not None:
        try:
            from ..codegen.fingerprint import fingerprint_kernel

            return fingerprint_kernel(module[kernel_name], module)
        except Exception:
            pass
    knobs = getattr(variant, "knobs", {}) or {}
    return f"{variant.name}|{sorted(knobs.items())!r}"


def _plain(knobs: dict) -> dict:
    """Knob values coerced to JSON-friendly types."""
    out = {}
    for k, v in (knobs or {}).items():
        if isinstance(v, tuple):
            out[k] = list(v)
        elif isinstance(v, (str, int, float, bool, list)) or v is None:
            out[k] = v
        else:
            out[k] = str(v)
    return out


class GreedyTuner:
    """Profiles variants and picks the fastest that satisfies the TOQ.

    Variants are measured one after another on the calling thread; the
    exact program runs once per input set, up front.

    ``registry`` (a :class:`~repro.registry.VariantRegistry`) switches
    profiling into the *seeded* mode: when the registry holds a usable
    Pareto front for this (kernel, device, input-sketch) key, tuning
    starts from the front's TOQ-feasible knee and refines locally —
    measuring a fraction of the ladder, and reading every other rung's
    stored measurement by variant name (a variant with no stored point
    stays off the ladder) — and every measurement (seeded or cold) is
    written back so the next session starts warmer.  After a
    ``profile`` call, ``last_measured``, ``last_seed_mode`` and
    ``last_registry_key`` describe what happened.
    """

    def __init__(
        self,
        spec: DeviceSpec,
        toq: float = 0.90,
        registry=None,
    ) -> None:
        if not 0.0 < toq <= 1.0:
            raise TuningError(f"TOQ must be in (0, 1], got {toq}")
        self.spec = spec
        self.cost_model = CostModel(spec)
        self.toq = toq
        self.registry = registry
        #: variants actually measured by the most recent ``profile`` call.
        self.last_measured = 0
        #: "cold", "warm" or "off" after the most recent ``profile`` call.
        self.last_seed_mode = "off"
        #: the registry key the most recent ``profile`` call tuned under.
        self.last_registry_key: Optional[str] = None

    def profile(
        self, app, variants, inputs, repeats: int = 1, exclude=()
    ) -> TuningResult:
        """Run the exact program and every variant on ``inputs`` and build
        the tuning result.

        ``repeats`` > 1 averages quality over several fresh input sets
        (the paper trains over its first 10 executions).  ``exclude``
        names variants barred from being *chosen* (e.g. quarantined by a
        circuit breaker); they are still profiled, so their measurements
        stay warm for re-admission.
        """
        with obs_trace.span(
            "tune.profile", app=app.name, repeats=repeats
        ):
            return self._profile(app, variants, inputs, repeats, exclude)

    def _profile(
        self, app, variants, inputs, repeats: int, exclude
    ) -> TuningResult:
        input_sets = [inputs]
        for r in range(1, repeats):
            input_sets.append(app.generate_inputs(seed=app.seed + 1000 + r))

        exact_runs = [app.run_exact(i) for i in input_sets]
        exact_cycles = sum(
            self.cost_model.cycles(t) for _o, t in exact_runs
        ) / len(exact_runs)

        def measure(variant) -> VariantProfile:
            with obs_trace.span("tune.measure", variant=variant.name) as span:
                qualities, cycles = [], []
                for (exact_out, _t), ins in zip(exact_runs, input_sets):
                    out, trace = app.run_variant(variant, ins)
                    qualities.append(float(app.quality(out, exact_out)))
                    cycles.append(float(self.cost_model.cycles(trace)))
                mean_cycles = sum(cycles) / len(cycles)
                span.set(input_sets=len(input_sets))
                return VariantProfile(
                    variant=variant,
                    quality=sum(qualities) / len(qualities),
                    cycles=mean_cycles,
                    speedup=exact_cycles / mean_cycles if mean_cycles > 0 else 0.0,
                )

        variants = list(variants)
        registry = self.registry
        registry_key = None
        front = []
        if registry is not None:
            registry_key = registry.resolve_key(app, self.spec, input_sets[0])
            front = registry.lookup(registry_key)
        self.last_registry_key = registry_key

        exact_profile = VariantProfile(
            variant=None, quality=1.0, cycles=exact_cycles, speedup=1.0
        )
        warm = (
            self._warm_profiles(
                variants, front, measure, exact_cycles, exclude, registry_key
            )
            if registry is not None and front
            else None
        )
        if warm is not None:
            profiles = [exact_profile] + warm
            seed_mode = "warm"
        else:
            profiles = [exact_profile] + [measure(v) for v in variants]
            self.last_measured = len(variants)
            seed_mode = "cold" if registry is not None else "off"
        self.last_seed_mode = seed_mode

        if registry is not None:
            self._write_back(registry, registry_key, profiles)
            from ..registry.store import _Metrics

            _Metrics.get().warmstarts.labels(mode=seed_mode).inc()

        chosen = self.choose(profiles, exclude=exclude)
        return TuningResult(
            app=app.name,
            device=self.spec.kind.value,
            toq=self.toq,
            chosen=chosen,
            profiles=profiles,
            seed_mode=seed_mode if seed_mode != "off" else "cold",
        )

    # -- registry seeding ------------------------------------------------------

    def _warm_profiles(
        self, variants, front, measure, exact_cycles, exclude, registry_key
    ) -> Optional[List[VariantProfile]]:
        """Knee-seeded local refinement over the registry front.

        Returns the non-exact profiles (measured, or copied from the
        variant's stored point) or None when the front is not trustworthy
        for this variant set — too few points, no TOQ-feasible knee, or a
        knee naming a variant that no longer exists — in which case the
        caller falls back to the cold sweep.

        The measurement budget is capped at half the ladder, which is
        what makes warm recalibration cheap by construction: starting at
        the knee (the variant greedy tuning would have converged to), a
        miss steps down toward safer rungs until something clears the
        TOQ or the budget runs out.
        """
        from ..registry.pareto import knee

        registry = self.registry
        by_name = {v.name: v for v in variants}
        known = [p for p in front if p.variant in by_name]
        if not known:
            return None
        # Evidence gate: total stored points, not front survivors — a
        # front can legitimately collapse to one dominating variant.
        evidence = [
            p for p in registry.points(registry_key) if p.variant in by_name
        ]
        if len(evidence) < registry.min_points:
            return None
        knee_point = knee(known, self.toq, registry.margin)
        if knee_point is None:
            return None

        # (quality, speedup) by variant name.  A variant with no stored
        # point reads as infeasible, so it can neither be chosen nor put
        # on the ladder without a measurement.
        stored = {p.variant: (p.quality, p.speedup) for p in evidence}
        unknown = (0.0, 1.0)

        # Slow-but-safe to fast-but-risky, exactly the recalibrator's
        # ladder orientation; refinement walks it downward from the knee.
        order = sorted(
            variants, key=lambda v: (stored.get(v.name, unknown)[1], v.name)
        )
        start = next(
            i for i, v in enumerate(order) if v.name == knee_point.variant
        )
        budget = max(1, len(variants) // 2)
        excluded = set(exclude)

        measured: Dict[str, VariantProfile] = {}
        found = False
        index = start
        while index >= 0 and len(measured) < budget:
            candidate = order[index]
            index -= 1
            if candidate.name in excluded:
                continue
            profile = measure(candidate)
            measured[candidate.name] = profile
            if profile.quality >= self.toq:
                found = True
                break
        if not found and len(measured) < budget:
            # Nothing at or below the knee qualified; probe one rung
            # above in case the whole front shifted upward.
            for candidate in order[start + 1 :]:
                if len(measured) >= budget:
                    break
                if candidate.name in excluded or candidate.name in measured:
                    continue
                profile = measure(candidate)
                measured[candidate.name] = profile
                if profile.quality >= self.toq:
                    break

        self.last_measured = len(measured)
        profiles: List[VariantProfile] = []
        for variant in variants:
            hit = measured.get(variant.name)
            if hit is not None:
                profiles.append(hit)
                continue
            quality, speedup = stored.get(variant.name, unknown)
            cycles = exact_cycles / speedup if speedup > 0 else exact_cycles
            profiles.append(
                VariantProfile(
                    variant=variant,
                    quality=quality,
                    cycles=cycles,
                    speedup=speedup,
                    predicted=True,
                )
            )
        return profiles

    def _write_back(self, registry, registry_key, profiles) -> None:
        """Persist every *measured* profile as registry evidence."""
        from ..registry.pareto import ParetoPoint

        points = [
            ParetoPoint(
                variant=p.name,
                quality=float(p.quality),
                speedup=float(p.speedup),
                cycles=float(p.cycles),
                knobs=_plain(getattr(p.variant, "knobs", {}) or {}),
                identity=variant_identity(p.variant),
            )
            for p in profiles
            if not p.is_exact and not p.predicted
        ]
        registry.record_many(registry_key, points)

    def choose(
        self, profiles: List[VariantProfile], exclude=()
    ) -> VariantProfile:
        """Fastest variant meeting the TOQ; the exact program otherwise.

        Ties are broken deterministically: highest speedup, then highest
        quality, then lexicographically smallest name — so the pick never
        depends on variant enumeration order.  Variants named in
        ``exclude`` (quarantined) are never chosen; the exact program is
        exempt — there must always be something to serve.  Predicted
        profiles populate the recalibration ladder but are never chosen
        sight-unseen: only measured evidence picks the serving variant.
        """
        exclude = set(exclude)
        eligible = [
            p
            for p in profiles
            if p.quality >= self.toq
            and not p.predicted
            and (p.is_exact or p.name not in exclude)
        ]
        if not eligible:
            return next(p for p in profiles if p.is_exact)
        return min(eligible, key=lambda p: (-p.speedup, -p.quality, p.name))

    def resume(self, app, variants, data: dict, exclude=()) -> TuningResult:
        """Resume tuning from a serialized :class:`TuningResult` instead of
        re-profiling from scratch.

        The persisted profiles are rebound to the freshly compiled
        ``variants`` by name.  When every profiled variant (including the
        chosen one) rebinds and the persisted TOQ matches this tuner's, the
        result is returned as-is — the near-free restart path a serving
        session uses.  When the variant set has drifted (new names, missing
        names) or the TOQ changed, the stale profiles are discarded and the
        variants re-profiled.  A restored result whose chosen variant is in
        ``exclude`` (quarantined since it was persisted) is re-chosen from
        the restored profiles without re-measuring.
        """
        try:
            restored = TuningResult.from_dict(data)
        except SerializationError:
            return self.profile(
                app, variants, app.generate_inputs(seed=app.seed),
                exclude=exclude,
            )
        names = {v.name for v in variants}
        persisted = {
            p.name for p in restored.profiles if p.variant_name != "exact"
        }
        if (
            abs(restored.toq - self.toq) > 1e-12
            or restored.device != self.spec.kind.value
            or persisted != names
        ):
            return self.profile(
                app, variants, app.generate_inputs(seed=app.seed),
                exclude=exclude,
            )
        restored.rebind(variants)
        restored.resumed = True
        self.last_measured = 0
        self.last_seed_mode = "resume"
        if exclude and restored.chosen.name in set(exclude):
            restored.chosen = self.choose(restored.profiles, exclude=exclude)
        return restored
