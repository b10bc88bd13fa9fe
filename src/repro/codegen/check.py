"""Differential testing harness: interpreter vs codegen, bit for bit.

Every kernel the codegen backend can execute must produce *identical
bytes* to the interpreter — not merely close values.  This module runs a
kernel (or a whole application) under both backends on the same seeded
inputs and compares every output array with ``tobytes()`` equality, so a
lowering bug can never hide behind a tolerance.

Usage from tests::

    result = diff_kernel(my_kernel, grid, args)
    assert result.ok, result.describe()

or over the full app registry (what CI runs)::

    python -m repro.codegen.check
"""

from __future__ import annotations

import copy
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

import numpy as np

from .._options import LaunchOptions, options
from ..engine.launch import Grid


@dataclass
class DiffResult:
    """Outcome of one two-backend comparison."""

    name: str
    ok: bool
    mismatches: List[str] = field(default_factory=list)

    def describe(self) -> str:
        if self.ok:
            return f"{self.name}: backends agree bit-exactly"
        detail = "; ".join(self.mismatches)
        return f"{self.name}: backends DIVERGE — {detail}"


def _compare_arrays(name: str, a: np.ndarray, b: np.ndarray) -> Optional[str]:
    """A human-readable mismatch description, or None when bit-identical."""
    if a.dtype != b.dtype or a.shape != b.shape:
        return f"{name}: dtype/shape {a.dtype}{a.shape} vs {b.dtype}{b.shape}"
    if a.tobytes() == b.tobytes():
        return None
    diff = np.flatnonzero(a.view(np.uint8) != b.view(np.uint8))
    first = int(diff[0]) // max(a.dtype.itemsize, 1)
    flat_a, flat_b = a.reshape(-1), b.reshape(-1)
    return (
        f"{name}: {diff.size} differing bytes, first at element {first} "
        f"(interp={flat_a[first]!r}, codegen={flat_b[first]!r})"
    )


def diff_kernel(
    kernel,
    grid: Grid,
    args: Sequence,
    module=None,
    bounds_check: bool = True,
) -> DiffResult:
    """Launch ``kernel`` under both backends on copies of ``args``.

    Array arguments are deep-copied per backend (kernels mutate them in
    place); every array argument is then compared, which covers outputs
    and any scratch buffers the kernel writes.
    """
    from ..engine.interpreter import launch

    from .lower import lower_kernel  # surface CodegenError eagerly, not mid-diff
    from ..engine.launch import resolve_kernel, resolve_module

    fn = resolve_kernel(kernel)
    lower_kernel(fn, resolve_module(kernel, module), bounds_check)

    runs: Dict[str, List[np.ndarray]] = {}
    for backend in ("interp", "codegen"):
        local = [
            a.copy() if isinstance(a, np.ndarray) else a for a in args
        ]
        launch(
            kernel,
            grid,
            local,
            module=module,
            bounds_check=bounds_check,
            options=LaunchOptions(backend=backend),
        )
        runs[backend] = [a for a in local if isinstance(a, np.ndarray)]

    mismatches = []
    array_index = 0
    for a, b in zip(runs["interp"], runs["codegen"]):
        note = _compare_arrays(f"array[{array_index}]", a, b)
        if note is not None:
            mismatches.append(note)
        array_index += 1
    return DiffResult(name=fn.name, ok=not mismatches, mismatches=mismatches)


def diff_app(app, inputs=None) -> DiffResult:
    """Run one application's exact pipeline under both backends.

    Uses a :func:`repro.options` backend scope so multi-kernel
    ``Program`` apps (scan, sort-based pipelines) are covered without the
    app knowing about backends.  Compares the full output array(s).
    """
    if inputs is None:
        inputs = app.generate_inputs()
    outputs: Dict[str, List[np.ndarray]] = {}
    for backend in ("interp", "codegen"):
        with options(backend=backend):
            out = app.run_exact(copy.deepcopy(inputs))
        # run_exact returns (output, trace); keep only the data arrays —
        # traces legitimately differ (codegen records the launch, not ops).
        parts = out if isinstance(out, (tuple, list)) else [out]
        outputs[backend] = [
            np.asarray(p) for p in parts if isinstance(p, np.ndarray)
        ]
    name = type(app).__name__
    mismatches = []
    for i, (a, b) in enumerate(zip(outputs["interp"], outputs["codegen"])):
        note = _compare_arrays(f"output[{i}]", a, b)
        if note is not None:
            mismatches.append(note)
    return DiffResult(name=name, ok=not mismatches, mismatches=mismatches)


def check_apps(names: Optional[Sequence[str]] = None, verbose: bool = True) -> List[DiffResult]:
    """Differential-check every registered application (CI entry point)."""
    from ..apps.registry import APP_CLASSES, make_app

    results = []
    for name in names if names is not None else sorted(APP_CLASSES):
        app = make_app(name, seed=0)
        result = diff_app(app)
        results.append(result)
        if verbose:
            status = "ok " if result.ok else "FAIL"
            print(f"[{status}] {name}: {result.describe()}")
    return results


def diff_variant(app, variant, inputs=None) -> DiffResult:
    """Run one approximate variant under both backends, bit-exactly.

    Approximation changes *what* the program computes; the lowering must
    not change it further — for a fixed knob setting the compiled variant
    (including every v2 specialization) and the interpreter running the
    same transformed IR must agree to the byte.
    """
    if inputs is None:
        inputs = app.generate_inputs()
    outputs: Dict[str, List[np.ndarray]] = {}
    for backend in ("interp", "codegen"):
        with options(backend=backend):
            out = app.run_variant(variant, copy.deepcopy(inputs))
        parts = out if isinstance(out, (tuple, list)) else [out]
        outputs[backend] = [
            np.asarray(p) for p in parts if isinstance(p, np.ndarray)
        ]
    name = f"{type(app).__name__}:{getattr(variant, 'name', variant)}"
    mismatches = []
    for i, (a, b) in enumerate(zip(outputs["interp"], outputs["codegen"])):
        note = _compare_arrays(f"output[{i}]", a, b)
        if note is not None:
            mismatches.append(note)
    return DiffResult(name=name, ok=not mismatches, mismatches=mismatches)


def check_approx_apps(
    names: Optional[Sequence[str]] = None,
    verbose: bool = True,
    per_transform: Optional[int] = None,
) -> Dict[str, List[DiffResult]]:
    """Differential-check the *approximate* variants of every app.

    For each app the full variant set is generated (every transform at
    every knob setting the compiler emits) and each variant runs under
    both backends on the same seeded inputs; tagged variants take the v2
    lowering, so this is the harness that proves the approx-specialized
    code paths bit-exact.  ``per_transform`` caps how many knob settings
    per (pattern, transform) group are checked (None = all).
    """
    from ..approx.base import variant_lowering
    from ..approx.compiler import Paraprox
    from ..apps.registry import APP_CLASSES, make_app

    all_results: Dict[str, List[DiffResult]] = {}
    for name in names if names is not None else sorted(APP_CLASSES):
        app = make_app(name, seed=0)
        variant_set = Paraprox(target_quality=0.9).compile(app)
        selected = list(variant_set)
        if per_transform is not None:
            by_group: Dict[str, List[object]] = {}
            for v in variant_set:
                pattern = getattr(v, "pattern", None)
                by_group.setdefault(getattr(pattern, "value", "?"), []).append(v)
            selected = [
                v for group in by_group.values() for v in group[:per_transform]
            ]
        inputs = app.generate_inputs()
        results: List[DiffResult] = []
        for variant in selected:
            result = diff_variant(app, variant, inputs)
            results.append(result)
            if verbose:
                status = "ok " if result.ok else "FAIL"
                mode, _detail = variant_lowering(variant)
                print(f"[{status}] {result.name} [{mode}]: {result.describe()}")
        if verbose and not selected:
            print(f"[ok ] {name}: no approximate variants generated")
        all_results[name] = results
    return all_results


def main(argv: Optional[Sequence[str]] = None) -> int:
    import argparse

    parser = argparse.ArgumentParser(
        prog="python -m repro.codegen.check",
        description="Assert interpreter and codegen backends agree bit-exactly "
        "on every registered application.",
    )
    parser.add_argument("apps", nargs="*", help="app names (default: all)")
    parser.add_argument(
        "--approx",
        action="store_true",
        help="diff every app's approximate variants (v2 lowering) instead of "
        "the exact pipelines",
    )
    parser.add_argument(
        "--per-transform",
        type=int,
        default=None,
        metavar="N",
        help="with --approx: check at most N knob settings per transform",
    )
    ns = parser.parse_args(argv)
    if ns.approx:
        per_app = check_approx_apps(ns.apps or None, per_transform=ns.per_transform)
        ok_apps = sum(1 for rs in per_app.values() if all(r.ok for r in rs))
        total_variants = sum(len(rs) for rs in per_app.values())
        failed_variants = sum(1 for rs in per_app.values() for r in rs if not r.ok)
        print(
            f"{ok_apps}/{len(per_app)} apps bit-exact across "
            f"{total_variants} approximate variant(s) "
            f"({failed_variants} failing)"
        )
        return 1 if failed_variants else 0
    results = check_apps(ns.apps or None)
    failed = [r for r in results if not r.ok]
    print(f"{len(results) - len(failed)}/{len(results)} apps bit-exact")
    return 1 if failed else 0


if __name__ == "__main__":
    raise SystemExit(main())
