"""Developer inspection CLI.

``python -m repro.tools`` exposes the compiler's intermediate artefacts —
the layers a user debugging a mis-detected kernel needs to see:

* ``list`` — the benchmark registry,
* ``inspect <app>`` — kernel source (CUDA or OpenCL dialect), detected
  patterns, Eq.-1 cost estimates, and the approximate variants Paraprox
  would generate with their knob settings; ``--lowered`` adds the NumPy
  source the codegen backend generates for the exact kernel and for each
  variant, with its lowering detail string; ``--shards`` adds, for each
  kernel the exact program and the variants launch, its shardability
  verdict and the mode a sharded launch of it takes on each lane,
* ``tune <app>`` — run the full pipeline and print the tuning frontier.
"""

from __future__ import annotations

import argparse
import sys
from typing import Dict, List, Optional

from ._options import options
from .analysis.latency import cycles_needed
from .apps import APP_CLASSES, make_app
from .approx.compiler import Paraprox
from .codegen import classify_lowering, lower_kernel
from .device import DeviceKind, spec_for
from .engine import LaunchEvent, launch_hook
from .kernel.printer import print_function, print_module
from .parallel.analysis import analyze_shardability
from .patterns import PatternDetector


def cmd_list(_args) -> int:
    print(f"{'key':<14} {'application':<28} {'patterns (Table 1)':<22} metric")
    print("-" * 84)
    for key, cls in APP_CLASSES.items():
        info = cls.info
        print(
            f"{key:<14} {info.name:<28} {'+'.join(info.patterns):<22} "
            f"{info.error_metric}"
        )
    return 0


def _device(args) -> DeviceKind:
    return DeviceKind.CPU if args.device == "cpu" else DeviceKind.GPU


def _print_lowered(label: str, fn, module) -> None:
    """The generated NumPy source of one kernel, as a launch would run it."""
    mode, detail = classify_lowering(fn, module)
    print(f"\n=== lowered: {label} -> {mode} ({detail}) ===")
    if mode == "codegen":
        print(lower_kernel(fn, module)[0].rstrip())


def launched_kernels(app, variant_set) -> Dict[str, LaunchEvent]:
    """The first launch of each kernel the exact program and every variant
    make (compiled, serial), by kernel name in launch order."""
    launched: Dict[str, LaunchEvent] = {}
    inputs = app.generate_inputs(seed=0)
    with launch_hook(lambda e: launched.setdefault(e.kernel, e)), options(backend="codegen"):
        app.run_exact(inputs)
        for variant in variant_set:
            app.run_variant(variant, inputs)
    return launched


def _print_shards(app, variant_set) -> None:
    """Where the shards of each launched kernel write, per lane
    (docs/PARALLEL.md), and why a kernel runs serial."""
    launched = launched_kernels(app, variant_set)
    width = max(map(len, launched))
    print(f"\n=== shard verdicts: kernels of the exact program + {len(variant_set)} variants ===")
    print(f"  {'kernel':<{width}} thread   guarded  process  why serial")
    for name, event in launched.items():
        verdict = analyze_shardability(
            event.fn, event.module, flat=event.grid.threads_per_block_y == 1
        )
        lanes = ("direct", "staged", "direct") if verdict.shardable else ("serial",) * 3
        why = "; ".join(verdict.reasons)
        print(f"  {name:<{width}} {''.join(f'{lane:<9}' for lane in lanes)}{why}".rstrip())


def cmd_inspect(args) -> int:
    app = make_app(args.app, scale=args.scale)
    spec = spec_for(_device(args))
    detector = PatternDetector(latency_table=spec.latencies)

    if not hasattr(app, "kernel"):
        print(f"{app.info.name} is a multi-kernel program; its pipeline:")
        print(f"  patterns (Table 1): {'+'.join(app.info.patterns)}")
        variant_set = Paraprox(target_quality=args.toq).compile(app)
        print(f"  variants: {variant_set.names()}")
        if args.shards:
            _print_shards(app, variant_set)
        return 0

    module = app.kernel.module
    print(f"=== {app.info.name}: kernel source ({args.dialect}) ===")
    print(print_module(module, args.dialect))

    print("\n=== static costs (Eq. 1) ===")
    for fn in module.device_functions():
        print(
            f"  {fn.name}: {cycles_needed(fn, spec.latencies, module):.0f} cycles "
            f"(memoization threshold: {10 * spec.latencies.l1:.0f})"
        )

    print("\n=== detected patterns ===")
    for match in detector.detect(app.kernel).for_kernel(app.kernel.fn.name):
        extra = ""
        if hasattr(match, "candidates"):
            extra = f" candidates={match.candidates}"
        if hasattr(match, "tiles") and match.tiles:
            tile = match.tile
            extra = f" tile={tile.rows}x{tile.cols}"
        if hasattr(match, "loops"):
            extra = f" loops={[(l.variable, l.op) for l in match.loops]}"
        print(f"  {match.pattern.value}{extra}")

    paraprox = Paraprox(target_quality=args.toq)
    variant_set = paraprox.compile(app, _device(args))
    print(f"\n=== generated variants (TOQ {args.toq:.0%}) ===")
    print(variant_set.describe())
    if args.show_variant and variant_set:
        v = variant_set[0]
        print(f"\n=== rewritten kernel: {v.name} ({args.dialect}) ===")
        print(print_function(v.module[v.kernel], args.dialect))
    if args.lowered:
        _print_lowered(f"{app.kernel.fn.name} (exact)", app.kernel.fn, module)
        for v in variant_set:
            _print_lowered(v.name, v.module[v.kernel], v.module)
    if args.shards:
        _print_shards(app, variant_set)
    return 0


def cmd_tune(args) -> int:
    app = make_app(args.app, scale=args.scale)
    result = Paraprox(target_quality=args.toq).optimize(app, _device(args))
    print(f"{app.info.name} on {result.device} (TOQ {args.toq:.0%})")
    print(f"{'variant':<64} {'quality':>8} {'speedup':>8}")
    print("-" * 84)
    for p in result.frontier():
        marker = " <= chosen" if p is result.chosen else ""
        print(f"{p.name:<64} {p.quality:8.4f} {p.speedup:7.2f}x{marker}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.tools",
        description="Inspect Paraprox's detection and rewriting of the benchmarks.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="list the benchmark registry").set_defaults(
        func=cmd_list
    )

    def common(p):
        p.add_argument("app", choices=sorted(APP_CLASSES))
        p.add_argument("--toq", type=float, default=0.90)
        p.add_argument("--scale", type=float, default=None)
        p.add_argument("--device", choices=("gpu", "cpu"), default="gpu")

    inspect_p = sub.add_parser("inspect", help="source, patterns, variants")
    common(inspect_p)
    inspect_p.add_argument("--dialect", choices=("cuda", "opencl"), default="cuda")
    inspect_p.add_argument(
        "--show-variant", action="store_true", help="print the first rewritten kernel"
    )
    inspect_p.add_argument(
        "--lowered",
        action="store_true",
        help="print the generated NumPy source and lowering detail of the exact "
        "kernel and of each variant",
    )
    inspect_p.add_argument(
        "--shards",
        action="store_true",
        help="print each launched kernel's shardability verdict and mode per lane",
    )
    inspect_p.set_defaults(func=cmd_inspect)

    tune_p = sub.add_parser("tune", help="run the pipeline, print the frontier")
    common(tune_p)
    tune_p.set_defaults(func=cmd_tune)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
