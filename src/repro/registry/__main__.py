"""``python -m repro.registry`` — operate on a variant-registry directory.

Subcommands:

* ``inspect DIR`` (default) — stats, keys and Pareto fronts; ``--json``
  for machine-readable output.
* ``merge DEST SRC...`` — absorb every point (and sketch) from the
  source registries into DEST.
* ``gc DIR`` — drop dominated points: only each key's Pareto front
  survives the rewrite of ``DIR/registry.json``.
* ``ingest DIR TRACE.jsonl`` — fold ``registry_key``-stamped quality
  samples from an exported trace/timeline stream back into the store.

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
            payload["keys_detail"][key] = {
                "points": len(registry.points(key)),
                "front": [p.to_dict() for p in front],
            }
        print(json.dumps(payload, indent=2, sort_keys=True))
        return 0
    print(f"registry {stats['root']}")
    print(
        f"  {stats['keys']} keys, {stats['points']} points, "
        f"{stats['unreadable']} unreadable documents ignored"
    )
    for key in registry.keys():
        front = registry.lookup(key, refresh=False)
        total = len(registry.points(key))
        print(f"  {key}")
        print(f"    front {len(front)}/{total} points")
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
    before = registry.stats()["points"]
    registry.compact()
    print(f"gc {args.dir}: {before} -> {registry.stats()['points']} points")
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


def main(argv: Optional[List[str]] = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = argparse.ArgumentParser(
        prog="python -m repro.registry",
        description="Inspect and maintain a cross-session variant registry.",
    )
    sub = parser.add_subparsers(dest="command")

    p_inspect = sub.add_parser("inspect", help="show keys and fronts")
    p_inspect.add_argument("dir")
    p_inspect.add_argument("--json", action="store_true")
    p_inspect.set_defaults(func=_cmd_inspect)

    p_merge = sub.add_parser("merge", help="absorb source registries into dest")
    p_merge.add_argument("dest")
    p_merge.add_argument("sources", nargs="+")
    p_merge.set_defaults(func=_cmd_merge)

    p_gc = sub.add_parser("gc", help="prune dominated points")
    p_gc.add_argument("dir")
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
    if not hasattr(args, "func"):
        parser.print_help()
        return 2
    return args.func(args)


if __name__ == "__main__":
    raise SystemExit(main())
