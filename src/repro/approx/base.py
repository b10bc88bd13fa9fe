"""Shared vocabulary of the approximation transforms.

Every transform emits :class:`ApproxKernel` variants: a rewritten module
plus the knob values that variant was generated with and any host-side
data (lookup tables) the rewritten kernel needs as extra launch arguments.
The runtime tuner then profiles variants and picks the fastest one whose
output quality satisfies the TOQ (paper Fig 2).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np

from ..kernel import ir
from ..patterns.base import Pattern


@dataclass(frozen=True)
class ApproxMeta:
    """Compile-time description of the approximation baked into a kernel.

    Every transform attaches one of these to the rewritten
    :class:`~repro.kernel.ir.Function` (as the ``approx`` attribute), and
    the record keys the variant's identity, not its lowering:

    * :func:`repro.codegen.fingerprint_kernel` serializes the whole
      record, so the compiled-kernel cache, ``variant_identity`` and the
      registries' point identities tell two knob settings — and a tagged
      and an untagged copy of one IR — apart; the emitter reads nothing
      from it, so both copies lower to the same source;
    * :meth:`VariantSet.describe` and the serving metrics surface the
      per-variant lowering outcome.

    The record is a frozen, picklable value: it survives the on-disk
    variant cache round trip alongside the module it annotates.

    Attributes:
        transform: ``"memo"``, ``"stencil"``, ``"reduction"`` or
            ``"scan"`` — which §3 transform produced the kernel.
        knobs: the knob values baked into the IR, as a sorted
            ``(name, value)`` tuple (hashable, fingerprint-friendly).
        tables: ``(table param name, entry count)`` per lookup table the
            kernel gained; part of the fingerprint, so a variant keeps the
            identity its cache entries and registry points were stored
            under.
    """

    transform: str
    knobs: Tuple[Tuple[str, object], ...] = ()
    tables: Tuple[Tuple[str, int], ...] = ()

    @staticmethod
    def knob_tuple(knobs: Dict[str, object]) -> Tuple[Tuple[str, object], ...]:
        """Normalize a knob dict into the hashable sorted-tuple form."""
        return tuple(sorted((k, _freeze(v)) for k, v in knobs.items()))


def _freeze(value):
    """Make one knob value hashable (lists -> tuples, arrays -> shapes)."""
    if isinstance(value, list):
        return tuple(_freeze(v) for v in value)
    if isinstance(value, np.ndarray):  # pragma: no cover - defensive
        return (value.dtype.str, value.shape)
    return value


def tag_approx(fn: ir.Function, meta: ApproxMeta) -> ir.Function:
    """Attach ``meta`` to ``fn`` (call *after* the final rewrite pass —
    :class:`~repro.kernel.visitors.Transformer` rebuilds functions without
    extra attributes)."""
    fn.approx = meta
    return fn


@dataclass
class ApproxKernel:
    """One generated approximate kernel variant.

    Attributes:
        name: unique variant label, e.g. ``black_scholes__memo_t2048``.
        pattern: the pattern whose optimization produced this variant.
        kernel: name of the rewritten kernel inside ``module``.
        module: module holding the rewritten kernel (+ device functions).
        knobs: tuning-parameter values this variant encodes
            (e.g. ``{"table_bits": 11, "lookup": "nearest"}``).
        extra_args: host-side buffers/scalars appended to the original
            launch arguments, in the order of the extra parameters the
            rewrite added (lookup tables, quantization constants...).
        aggressiveness: coarse ordering key — higher means more
            approximation; the tuner's back-off walks it downwards.
    """

    name: str
    pattern: Pattern
    kernel: str
    module: ir.Module
    knobs: Dict[str, object] = field(default_factory=dict)
    extra_args: List[object] = field(default_factory=list)
    aggressiveness: float = 0.0

    def launch_args(self, original_args: List[object]) -> List[object]:
        """Original kernel arguments extended with this variant's extras."""
        return list(original_args) + list(self.extra_args)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        knobs = ", ".join(f"{k}={v}" for k, v in self.knobs.items())
        return f"<ApproxKernel {self.name} ({self.pattern.value}; {knobs})>"


@dataclass
class VariantSet:
    """The typed result of ``Paraprox.compile``: every approximate variant
    generated for one kernel, plus a handle on the exact program.

    Iterating (or indexing) a ``VariantSet`` yields the approximate
    variants in generation order, so code written against the old
    ``List[object]`` return type keeps working unchanged; comparison
    against a plain list compares the variants the same way.

    Attributes:
        kernel: name of the kernel the variants approximate ("" for
            multi-kernel programs that build their own pipeline).
        variants: the generated variants (:class:`ApproxKernel` or an
            app-specific variant type such as ``ScanVariant``).
        exact: the unmodified kernel (a ``KernelFn``) when the app has a
            single-kernel shape, else ``None``.
        skipped: notes about patterns that matched but could not be
            rewritten (mirrors ``Paraprox.last_skipped``).
    """

    kernel: str
    variants: List[ApproxKernel] = field(default_factory=list)
    exact: Optional[object] = None
    skipped: List[str] = field(default_factory=list)

    # -- container protocol (backward compatibility with the list return) ----

    def __iter__(self):
        return iter(self.variants)

    def __len__(self) -> int:
        return len(self.variants)

    def __getitem__(self, index):
        return self.variants[index]

    def __bool__(self) -> bool:
        return bool(self.variants)

    def __contains__(self, item) -> bool:
        return item in self.variants

    def __eq__(self, other) -> bool:
        if isinstance(other, VariantSet):
            return (
                self.kernel == other.kernel and self.variants == other.variants
            )
        if isinstance(other, (list, tuple)):
            return self.variants == list(other)
        return NotImplemented

    # -- typed accessors -----------------------------------------------------

    def names(self) -> List[str]:
        return [v.name for v in self.variants]

    def by_pattern(self, pattern) -> List[ApproxKernel]:
        """Variants produced for ``pattern`` (a :class:`Pattern` or its
        string value, e.g. ``"stencil"``)."""
        if isinstance(pattern, str):
            try:
                pattern = Pattern(pattern)
            except ValueError:
                raise KeyError(
                    f"unknown pattern {pattern!r}; "
                    f"known: {[p.value for p in Pattern]}"
                ) from None
        return [v for v in self.variants if getattr(v, "pattern", None) is pattern]

    def by_name(self, name: str) -> ApproxKernel:
        """The variant called ``name``; raises ``KeyError`` with the known
        names when absent."""
        for v in self.variants:
            if v.name == name:
                return v
        raise KeyError(f"no variant named {name!r}; known: {self.names()}")

    def sorted_by_aggressiveness(self) -> List[ApproxKernel]:
        return sorted(self.variants, key=lambda v: v.aggressiveness)

    def patterns(self) -> List[Pattern]:
        """Distinct patterns represented, in first-seen order."""
        seen: List[Pattern] = []
        for v in self.variants:
            p = getattr(v, "pattern", None)
            if p is not None and p not in seen:
                seen.append(p)
        return seen

    def describe(self, lowering: bool = True) -> str:
        """A human-readable table of the set: one line per variant with its
        pattern, knob values, and — unless ``lowering=False`` — the codegen
        lowering outcome (``codegen`` with what its specializations did, or
        ``interpreter`` with the fallback reason), so silent
        ``backend="auto"`` fallbacks are visible from ``repro.tools
        inspect``."""
        header = f"VariantSet for kernel {self.kernel or '<pipeline>'!r}: " \
                 f"{len(self.variants)} variant(s)"
        lines = [header]
        for v in self.variants:
            pattern = getattr(v, "pattern", None)
            pname = pattern.value if isinstance(pattern, Pattern) else "?"
            knobs = ", ".join(
                f"{k}={val}" for k, val in getattr(v, "knobs", {}).items()
            )
            line = f"  {v.name:<58s} [{pname}] {knobs}"
            if lowering:
                mode, detail = variant_lowering(v)
                line += f"  -> {mode}" + (f" ({detail})" if detail else "")
            lines.append(line)
        for note in self.skipped:
            lines.append(f"  [skipped] {note}")
        return "\n".join(lines)

    def lowering_outcomes(self) -> Dict[str, Dict[str, str]]:
        """``{variant name: {"mode": ..., "detail": ...}}`` for every
        variant — the machine-readable face of :meth:`describe`'s lowering
        column (what ``metrics_snapshot()["codegen"]["variants"]`` serves)."""
        return {
            v.name: dict(zip(("mode", "detail"), variant_lowering(v)))
            for v in self.variants
        }


def variant_lowering(variant) -> Tuple[str, str]:
    """Classify how one variant's kernel(s) will execute under the codegen
    backend: ``("codegen" | "interpreter", detail)``.

    Works for plain :class:`ApproxKernel` variants and for paired/pipeline
    variants that expose inner ``ApproxKernel`` attributes (e.g. the
    separable-convolution ``row``/``col`` pair); variants with no
    recognizable kernel handle classify as ``("n/a", ...)``.
    """
    from ..codegen.cache import classify_lowering  # lazy: avoid import cycle

    inner = [
        getattr(variant, attr)
        for attr in ("row", "col")
        if isinstance(getattr(variant, attr, None), ApproxKernel)
    ]
    if not inner and getattr(variant, "module", None) is not None:
        inner = [variant]
    if not inner:
        return "n/a", f"{type(variant).__name__} has no kernel handle"
    modes, details = [], []
    for ak in inner:
        try:
            fn = ak.module[ak.kernel]
        except Exception as exc:  # pragma: no cover - defensive
            return "n/a", f"kernel {ak.kernel!r} unresolvable: {exc}"
        mode, detail = classify_lowering(fn, ak.module)
        modes.append(mode)
        details.append(detail)
    if len(set(modes)) == 1:
        return modes[0], details[0]
    return "mixed", "; ".join(f"{m}: {d}" for m, d in zip(modes, details))


def fresh_name(base: str, suffix: str) -> str:
    """Variant naming convention shared by all transforms."""
    return f"{base}__{suffix}"
