"""The Paraprox facade: detection -> transformation -> tuning (paper Fig 2).

``Paraprox.compile(app)`` turns an application's kernel into the full set
of approximate variants its patterns admit; ``Paraprox.optimize(app,
device)`` additionally profiles the variants on training inputs and picks
the best one subject to the TOQ, which is the whole pipeline the paper
evaluates.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from typing import Dict, List, Optional

from ..device import DeviceKind, spec_for
from ..errors import ConfigError, TransformError
from ..patterns import (
    MapMatch,
    PatternDetector,
    ReductionMatch,
    ScanMatch,
    StencilMatch,
)
from ..runtime.tuner import GreedyTuner, TuningResult
from .base import VariantSet
from .memoization import TABLE_SPACES, MemoizationTransform, profile_device_calls
from .reduction import ReductionTransform
from .scan import ScanTransform
from .stencil import StencilTransform

#: Legal values for the enumerated knobs (validated on construction).
STENCIL_SCHEMES = ("center", "row", "column")
MEMO_MODES = ("nearest", "linear")


@dataclass
class ParaproxConfig:
    """Knob ranges the compiler explores when generating variants.

    Instances validate on construction: a knob tuple outside the ranges the
    transforms accept (e.g. ``skipping_rates=(0,)``, which would silently
    generate a variant that skips nothing) raises
    :class:`~repro.errors.ConfigError` instead of being carried along.
    """

    skipping_rates: tuple = (2, 4, 8)
    reaching_distances: tuple = (1, 2)
    stencil_schemes: tuple = ("center", "row", "column")
    scan_skip_fractions: tuple = (0.125, 0.25, 0.375, 0.5)
    memo_modes: tuple = ("nearest",)
    memo_spaces: tuple = ("global",)
    memo_extra_tables: int = 2
    memo_start_bits: Optional[int] = None
    #: extension beyond the paper (its §5 safety discussion): guard every
    #: division in generated approximate kernels so an approximated zero
    #: divisor skips the calculation instead of faulting.
    guard_divisions: bool = False

    def __post_init__(self) -> None:
        self.validate()

    def validate(self) -> None:
        """Raise :class:`~repro.errors.ConfigError` on any illegal knob."""
        def check(cond: bool, message: str) -> None:
            if not cond:
                raise ConfigError(f"ParaproxConfig: {message}")

        for name in (
            "skipping_rates",
            "reaching_distances",
            "stencil_schemes",
            "scan_skip_fractions",
            "memo_modes",
            "memo_spaces",
        ):
            value = getattr(self, name)
            check(
                isinstance(value, (tuple, list)),
                f"{name} must be a tuple, got {value!r}",
            )
            setattr(self, name, tuple(value))
        for r in self.skipping_rates:
            check(
                isinstance(r, int) and not isinstance(r, bool) and r >= 2,
                f"skipping_rates entries must be integers >= 2 "
                f"(skip rate 1-in-r), got {r!r}",
            )
        for d in self.reaching_distances:
            check(
                isinstance(d, int) and not isinstance(d, bool) and d >= 1,
                f"reaching_distances entries must be integers >= 1, got {d!r}",
            )
        for s in self.stencil_schemes:
            check(
                s in STENCIL_SCHEMES,
                f"unknown stencil scheme {s!r}; known: {STENCIL_SCHEMES}",
            )
        for f_ in self.scan_skip_fractions:
            check(
                isinstance(f_, (int, float)) and 0.0 < float(f_) <= 0.5,
                f"scan_skip_fractions entries must be in (0, 0.5] "
                f"(the kept prefix must predict the tail), got {f_!r}",
            )
        for m in self.memo_modes:
            check(m in MEMO_MODES, f"unknown memo mode {m!r}; known: {MEMO_MODES}")
        for sp in self.memo_spaces:
            check(
                sp in TABLE_SPACES,
                f"unknown memo table space {sp!r}; known: {TABLE_SPACES}",
            )
        check(
            isinstance(self.memo_extra_tables, int)
            and not isinstance(self.memo_extra_tables, bool)
            and self.memo_extra_tables >= 0,
            f"memo_extra_tables must be a non-negative integer, "
            f"got {self.memo_extra_tables!r}",
        )
        if self.memo_start_bits is not None:
            check(
                isinstance(self.memo_start_bits, int)
                and not isinstance(self.memo_start_bits, bool)
                and 1 <= self.memo_start_bits <= 24,
                f"memo_start_bits must be in [1, 24] or None, "
                f"got {self.memo_start_bits!r}",
            )
        check(
            isinstance(self.guard_divisions, bool),
            f"guard_divisions must be a bool, got {self.guard_divisions!r}",
        )

    # -- serialization (the session cache key hashes ``to_dict()``) ----------

    def to_dict(self) -> dict:
        """A JSON-serialisable form; ``from_dict`` round-trips it."""
        out: Dict[str, object] = {}
        for f_ in fields(self):
            value = getattr(self, f_.name)
            out[f_.name] = list(value) if isinstance(value, tuple) else value
        return out

    @classmethod
    def from_dict(cls, data: dict) -> "ParaproxConfig":
        """Rebuild a validated config; unknown keys or bad knob values
        raise :class:`~repro.errors.ConfigError`."""
        if not isinstance(data, dict):
            raise ConfigError(
                f"ParaproxConfig.from_dict expects a dict, got {type(data).__name__}"
            )
        known = {f_.name for f_ in fields(cls)}
        # repr-keyed sort: `data` may carry non-string keys, and a mixed
        # set would make the plain sort itself raise TypeError.
        unknown = sorted(set(data) - known, key=repr)
        if unknown:
            raise ConfigError(
                f"ParaproxConfig.from_dict: unknown keys {unknown}; "
                f"known: {sorted(known)}"
            )
        kwargs = {
            k: tuple(v) if isinstance(v, list) else v for k, v in data.items()
        }
        return cls(**kwargs)


class Paraprox:
    """The compiler + runtime pipeline.

    Args:
        target_quality: the user-supplied TOQ in (0, 1].
        device: default device the Eq.-1 profitability test and the tuner
            model (each call may override it).
        config: knob ranges for variant generation.
    """

    def __init__(
        self,
        target_quality: float = 0.90,
        device: DeviceKind = DeviceKind.GPU,
        config: Optional[ParaproxConfig] = None,
    ) -> None:
        if not isinstance(target_quality, (int, float)) or isinstance(
            target_quality, bool
        ):
            raise ValueError(
                f"target_quality must be a number in (0, 1], "
                f"got {target_quality!r}"
            )
        if not 0.0 < target_quality <= 1.0:
            hint = ""
            if 1.0 < target_quality <= 100.0:
                hint = (
                    f" (quality is a fraction — for {target_quality:.0f}% "
                    f"write {target_quality / 100.0:g})"
                )
            raise ValueError(
                f"target_quality must be in (0, 1], got {target_quality}{hint}"
            )
        self.toq = float(target_quality)
        self.device = device
        self.config = config or ParaproxConfig()

    # -- compilation -----------------------------------------------------------

    def compile(self, app, device: Optional[DeviceKind] = None) -> VariantSet:
        """Generate every approximate variant ``app``'s patterns admit,
        returned as a typed :class:`~repro.approx.base.VariantSet` (iterable
        like the plain list earlier releases returned).

        Applications with a custom pipeline (the scan benchmark) may define
        ``build_variants(toq, config)`` and take over entirely.
        """
        custom = getattr(app, "build_variants", None)
        if callable(custom):
            self.last_skipped = []
            exact = getattr(app, "kernel", None)
            fn = getattr(exact, "fn", None)
            return VariantSet(
                kernel=fn.name if fn is not None else "",
                variants=list(custom(self.toq, self.config)),
                exact=exact,
            )
        spec = spec_for(device or self.device)
        detector = PatternDetector(latency_table=spec.latencies)
        kernel_name = app.kernel.fn.name
        matches = detector.detect(app.kernel).for_kernel(kernel_name)
        cfg = self.config
        variants: List[object] = []
        skipped: List[str] = []
        for match in matches:
            try:
                self._apply_match(app, match, kernel_name, cfg, variants)
            except TransformError as exc:
                # A pattern that matched but cannot be rewritten (e.g. a
                # partition tile too large to unroll) is skipped, exactly as
                # a production compiler would bail out of one optimization
                # without failing the build.
                skipped.append(f"{match.pattern.value}: {exc}")
        self.last_skipped = skipped
        if cfg.guard_divisions:
            from .base import ApproxKernel
            from .safety import guard_divisions

            for variant in variants:
                if isinstance(variant, ApproxKernel):
                    variant.module, guards = guard_divisions(
                        variant.module, variant.kernel
                    )
                    variant.knobs["division_guards"] = guards
        return VariantSet(
            kernel=kernel_name,
            variants=variants,
            exact=app.kernel,
            skipped=skipped,
        )

    def _apply_match(self, app, match, kernel_name, cfg, variants) -> None:
        module = app.kernel.module
        if isinstance(match, MapMatch):
            inputs = app.generate_inputs(seed=app.seed + 77)
            _kernel, grid, args = app.training_launch(inputs)
            profiles = profile_device_calls(
                module[kernel_name], grid, args, match.candidates, module=module
            )
            transform = MemoizationTransform(
                toq=self.toq,
                quality_fn=app.metric.quality,
                modes=cfg.memo_modes,
                spaces=cfg.memo_spaces,
                extra_tables=cfg.memo_extra_tables,
                start_bits=cfg.memo_start_bits,
            )
            variants.extend(transform.generate(module, kernel_name, match, profiles))
        elif isinstance(match, StencilMatch):
            transform = StencilTransform(
                schemes=cfg.stencil_schemes,
                reaching_distances=cfg.reaching_distances,
            )
            variants.extend(transform.generate(module, kernel_name, match))
        elif isinstance(match, ReductionMatch):
            transform = ReductionTransform(skipping_rates=cfg.skipping_rates)
            variants.extend(transform.generate(module, kernel_name, match))
        elif isinstance(match, ScanMatch):
            # Scan approximation reconfigures a three-phase *program*;
            # kernel-level applications cannot express it, so apps with
            # scan patterns provide build_variants (handled in compile()).
            pass

    # -- full pipeline -----------------------------------------------------------

    def optimize(
        self,
        app,
        device: Optional[DeviceKind] = None,
        variants: Optional[List[object]] = None,
        repeats: int = 1,
    ) -> TuningResult:
        """Compile (unless ``variants`` is given), profile, and choose the
        best variant for ``device`` under the TOQ."""
        kind = device or self.device
        if variants is None:
            variants = self.compile(app, kind)
        tuner = GreedyTuner(spec_for(kind), toq=self.toq)
        training_inputs = app.generate_inputs(seed=app.seed)
        return tuner.profile(app, variants, training_inputs, repeats=repeats)
