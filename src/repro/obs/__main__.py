"""CLI for offline trace analysis: ``python -m repro.obs <command>``.

Commands:

* ``summarize <trace.jsonl> [--trees N]`` — the full report: top spans
  by total time, fallback-depth breakdown, the quality-vs-speedup
  timeline (including brownout level changes) and the span tree(s) of
  the most recent N traces.
* ``tree <trace.jsonl> [--trace ID]`` — just the span trees (all traces,
  or one).
* ``metrics`` — the current process's registry in Prometheus text
  format, followed by ``# ``-commented p50/p95/p99 estimates per
  histogram series (mostly useful under ``python -m`` with ``-i`` or
  from tests; a fresh process has only just-registered series).
"""

from __future__ import annotations

import argparse
import sys

from .export import (
    build_trees,
    load_trace,
    quantile_table,
    render_prometheus,
    render_tree,
    summarize,
)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.obs", description=__doc__
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_sum = sub.add_parser("summarize", help="summarize a JSONL trace file")
    p_sum.add_argument("trace", help="path to the JSONL trace file")
    p_sum.add_argument(
        "--trees", type=int, default=1,
        help="span trees to render for the most recent traces (default 1)",
    )

    p_tree = sub.add_parser("tree", help="render span trees from a trace file")
    p_tree.add_argument("trace", help="path to the JSONL trace file")
    p_tree.add_argument("--trace-id", default=None, help="render one trace only")

    sub.add_parser(
        "metrics",
        help="print the registry in Prometheus format with quantile columns",
    )

    args = parser.parse_args(argv)
    if args.command == "summarize":
        print(summarize(args.trace, trees=args.trees))
    elif args.command == "tree":
        spans, _events = load_trace(args.trace)
        forest = build_trees(spans)
        if args.trace_id is not None:
            forest = {k: v for k, v in forest.items() if k == args.trace_id}
            if not forest:
                print(f"no trace {args.trace_id!r} in {args.trace}", file=sys.stderr)
                return 1
        for trace_id, roots in sorted(forest.items()):
            print(f"-- {trace_id}")
            print("\n".join(render_tree(roots)))
    elif args.command == "metrics":
        sys.stdout.write(render_prometheus())
        sys.stdout.write(quantile_table())
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
