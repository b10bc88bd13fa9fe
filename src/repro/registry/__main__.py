"""``python -m repro.registry`` — operate on a variant-registry directory.

Subcommands:

* ``inspect DIR`` (default) — stats, keys, Pareto fronts, surrogate
  leave-one-out errors; ``--json`` for machine-readable output.
* ``merge DEST SRC...`` — absorb every point (and sketch) from the
  source registries into DEST.
* ``gc DIR`` — compact to a single fresh segment; by default only each
  key's Pareto front survives (``--keep-all`` keeps dominated points).
* ``ingest DIR TRACE.jsonl`` — fold ``registry_key``-stamped quality
  samples from an exported trace/timeline stream back into the store.

Self-contained check:

* ``--smoke --procs N`` — N concurrent writer processes hammer one
  shared registry; verifies no corruption and no lost points.

(Warm-vs-cold tuning savings are the ``warm_start`` contract of
``python -m repro.conformance``.)
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import List, Optional

from .store import VariantRegistry


def _cmd_inspect(args) -> int:
    registry = VariantRegistry(args.dir)
    stats = registry.stats()
    if args.json:
        payload = dict(stats)
        payload["keys_detail"] = {}
        for key in registry.keys():
            front = registry.lookup(key, refresh=False)
            model = registry.fit(key)
            q_err, s_err = model.loo_error() if model.trained else (0.0, 0.0)
            payload["keys_detail"][key] = {
                "points": len(registry.points(key)),
                "front": [p.to_dict() for p in front],
                "surrogate": {
                    "trained": model.trained,
                    "points": len(model),
                    "loo_quality_mae": q_err,
                    "loo_speedup_mae": s_err,
                },
            }
        print(json.dumps(payload, indent=2, sort_keys=True))
        return 0
    print(f"registry {stats['root']}")
    print(
        f"  {stats['keys']} keys, {stats['points']} points, "
        f"{stats['segments']} segments (generation {stats['generation']}, "
        f"{stats['recovered_lines']} recovered lines)"
    )
    for key in registry.keys():
        front = registry.lookup(key, refresh=False)
        total = len(registry.points(key))
        model = registry.fit(key)
        q_err, s_err = model.loo_error() if model.trained else (0.0, 0.0)
        print(f"  {key}")
        print(
            f"    front {len(front)}/{total} points; surrogate "
            f"loo mae quality={q_err:.4f} speedup={s_err:.3f}"
        )
        for point in front:
            print(
                f"      {point.variant:40s} quality={point.quality:.4f} "
                f"speedup={point.speedup:.2f}x samples={point.samples}"
            )
    return 0


def _cmd_merge(args) -> int:
    dest = VariantRegistry(args.dest)
    merged = 0
    for src in args.sources:
        merged += dest.merge_from(VariantRegistry(src))
    print(f"merged {merged} points from {len(args.sources)} registries into {args.dest}")
    return 0


def _cmd_gc(args) -> int:
    registry = VariantRegistry(args.dir)
    before = registry.stats()
    removed = registry.compact(front_only=not args.keep_all)
    after = registry.stats()
    print(
        f"gc {args.dir}: {before['points']} -> {after['points']} points, "
        f"{removed} segments removed (now generation {after['generation']})"
    )
    return 0


def _cmd_ingest(args) -> int:
    registry = VariantRegistry(args.dir)
    entries = []
    with open(args.trace, encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if not line:
                continue
            try:
                entries.append(json.loads(line))
            except ValueError:
                continue
    absorbed = registry.ingest_timeline(entries)
    print(f"ingested {absorbed} quality observations from {args.trace}")
    return 0


# ---------------------------------------------------------------- smoke

#: One writer process: append `rounds` batches under its own name, then
#: print how many points it wrote.  Run via ``python -c`` so the smoke
#: test exercises real cross-process locking, not threads.
_SMOKE_WRITER = """
import sys
from repro.registry.pareto import ParetoPoint
from repro.registry.store import VariantRegistry

root, worker, rounds = sys.argv[1], int(sys.argv[2]), int(sys.argv[3])
registry = VariantRegistry(root, segment_bytes=2048)
written = 0
for i in range(rounds):
    points = [
        ParetoPoint(
            variant=f"w{worker}-v{j}",
            quality=0.90 + 0.001 * j,
            speedup=1.0 + 0.1 * j + 0.01 * worker,
            knobs={"rate": j},
        )
        for j in range(4)
    ]
    registry.record_many(f"smoke/key-{i % 3}", points)
    written += len(points)
print(written)
"""


def _smoke(procs: int, rounds: int, root: Optional[str], out=print) -> int:
    import os
    import subprocess
    import tempfile

    env = dict(os.environ)
    src = os.path.dirname(os.path.dirname(os.path.dirname(__file__)))
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")

    def run(directory: str) -> int:
        workers = [
            subprocess.Popen(
                [
                    sys.executable, "-c", _SMOKE_WRITER,
                    directory, str(i), str(rounds),
                ],
                stdout=subprocess.PIPE,
                stderr=subprocess.PIPE,
                env=env,
                text=True,
            )
            for i in range(procs)
        ]
        failures = 0
        for worker in workers:
            stdout, stderr = worker.communicate(timeout=120)
            if worker.returncode != 0:
                out(f"writer failed: {stderr.strip()}")
                failures += 1
        if failures:
            return 1
        registry = VariantRegistry(directory)
        stats = registry.stats()
        expected_variants = procs * 4  # distinct (worker, j) names per key
        out(
            f"smoke: {procs} writers x {rounds} rounds -> {stats['keys']} keys, "
            f"{stats['points']} points, {stats['segments']} segments, "
            f"{stats['recovered_lines']} recovered lines"
        )
        ok = (
            stats["recovered_lines"] == 0
            and stats["keys"] == min(3, rounds)
            and all(
                len(registry.points(key)) == expected_variants
                for key in registry.keys()
            )
        )
        if not ok:
            out("FAIL: store state does not match what the writers wrote")
            return 1
        out("smoke OK: concurrent writers, no corruption, no lost points")
        return 0

    if root is not None:
        return run(root)
    with tempfile.TemporaryDirectory(prefix="repro-registry-smoke-") as tmp:
        return run(tmp)


# ---------------------------------------------------------------- entry


def main(argv: Optional[List[str]] = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = argparse.ArgumentParser(
        prog="python -m repro.registry",
        description="Inspect and maintain a cross-session variant registry.",
    )
    parser.add_argument(
        "--smoke", action="store_true",
        help="concurrent-writer smoke test (use with --procs/--dir)",
    )
    parser.add_argument(
        "--procs", type=int, default=2, help="smoke writer processes"
    )
    parser.add_argument(
        "--rounds", type=int, default=8, help="smoke write rounds per process"
    )
    parser.add_argument(
        "--dir", default=None, help="registry directory for --smoke"
    )
    sub = parser.add_subparsers(dest="command")

    p_inspect = sub.add_parser("inspect", help="show keys, fronts, surrogates")
    p_inspect.add_argument("dir")
    p_inspect.add_argument("--json", action="store_true")
    p_inspect.set_defaults(func=_cmd_inspect)

    p_merge = sub.add_parser("merge", help="absorb source registries into dest")
    p_merge.add_argument("dest")
    p_merge.add_argument("sources", nargs="+")
    p_merge.set_defaults(func=_cmd_merge)

    p_gc = sub.add_parser("gc", help="compact; prune dominated points")
    p_gc.add_argument("dir")
    p_gc.add_argument(
        "--keep-all", action="store_true",
        help="compact segments but keep dominated points",
    )
    p_gc.set_defaults(func=_cmd_gc)

    p_ingest = sub.add_parser(
        "ingest", help="fold exported timeline quality samples into the store"
    )
    p_ingest.add_argument("dir")
    p_ingest.add_argument("trace")
    p_ingest.set_defaults(func=_cmd_ingest)

    # Bare `python -m repro.registry DIR` means inspect.
    if argv and not argv[0].startswith("-") and argv[0] not in (
        "inspect", "merge", "gc", "ingest"
    ):
        argv = ["inspect", *argv]
    args = parser.parse_args(argv)
    if args.smoke:
        return _smoke(args.procs, args.rounds, args.dir)
    if not hasattr(args, "func"):
        parser.print_help()
        return 2
    return args.func(args)


if __name__ == "__main__":
    raise SystemExit(main())
