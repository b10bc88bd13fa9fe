"""``python3 -m bench``: run the benchmark, print every metric, keep the record.

With ``--workload`` (the driver's form) one workload runs and the last line of
standard output is the JSON object the benchmark contract asks for.  Without
it all six workloads run, each in a fresh child process, and one JSON document
is written to ``bench/out/``.  This module never imports the program under
test; ``bench/worker.py`` does, in the child.
"""

from __future__ import annotations

import argparse
import datetime
import importlib.metadata
import json
import os
import platform
import signal
import subprocess
import sys
import time
from typing import Dict, List, Optional

from . import spec
from .stats import median

#: Set-up is timed this many times per run — the measuring process and
#: set-up-only processes before it — and reported as the median.  Two, not
#: more: on the large workloads each costs 2.3 s of a run that must average
#: under 25 s, noise included.
SETUP_SAMPLES = 2

#: A child that runs longer than this is killed, with its process group.
CHILD_TIMEOUT_S = 170

#: ``--selfcheck`` makes two sets of this many passes, in turn, and compares
#: their medians.  Two single passes differ by more than a 25 % bound on one
#: or two of the 42 pairings more often than not (a p99, a ``setup_s``).
SELFCHECK_PASSES = 3


def run_child(workload: str, seed: int, seconds: float, trace: int, quick: bool,
              setup_only: bool = False) -> Optional[dict]:
    """Run ``bench.worker`` to its end; None when it printed no result."""
    cmd = [
        sys.executable, "-m", "bench.worker", "--workload", workload,
        "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace),
        "--spawned-at", repr(time.time()),
    ]
    if quick:
        cmd.append("--quick")
    if setup_only:
        cmd.append("--setup-only")
    proc = subprocess.Popen(
        cmd, cwd=spec.ROOT, stdout=subprocess.PIPE, text=True, start_new_session=True
    )
    try:
        stdout, _ = proc.communicate(timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)  # the worker and any pool workers
        proc.communicate()
        print(f"bench: {workload} timed out after {CHILD_TIMEOUT_S}s", file=sys.stderr)
        return None
    lines = stdout.strip().splitlines()
    try:
        return json.loads(lines[-1])
    except (IndexError, ValueError):
        print(f"bench: {workload} exited {proc.returncode} without a result",
              file=sys.stderr)
        return None


def run_workload(workload: str, seed: int, seconds: float, trace: int,
                 quick: bool) -> Optional[dict]:
    """One workload: the measuring child, and for an untraced full run the
    set-up-only children whose times ``setup_s`` is the median of."""
    setups: List[float] = []
    if not trace and not quick:
        for _ in range(SETUP_SAMPLES - 1):
            probe = run_child(workload, seed, seconds, 0, quick, setup_only=True)
            if probe is None:
                return None
            setups.append(probe["metrics"]["setup_s"])
    result = run_child(workload, seed, seconds, trace, quick)
    if result is None:
        return None
    setups.append(result["metrics"]["setup_s"])
    result["metrics"]["setup_s"] = median(setups)
    result["detail"]["setup_samples_s"] = setups
    return result


def split_metrics(result: dict) -> Dict[str, Dict[str, float]]:
    """The worker's flat metric dict as declared end-to-end / per-layer."""
    measured = result["metrics"]
    return {
        kind: {n: measured[n] for n in spec.declared(kind) if n in measured}
        for kind in ("end_to_end", "per_layer")
    }


def print_metrics(workload: str, result: dict) -> None:
    units = spec.metric_units()
    detail = result["detail"]
    raw = detail.get("raw", {})
    for kind, metrics in split_metrics(result).items():
        for name, value in metrics.items():
            note = f"   (wall clock read {raw[name]:.6g})" if name in raw else ""
            print(f"{workload:14s} {kind:10s} {name:42s} {value:14.6g} {units[name]}{note}")
    if "speed_factor" in detail:
        print(f"{workload:14s} times are at reference speed; this run's speed factor "
              f"was {detail['speed_factor']:.3f} (bench/speed.py)")
    for step in detail.get("steps", ()):
        print(f"{workload:14s} step       {json.dumps(step)}")
    if detail.get("unstable"):
        print(f"{workload:14s} UNSTABLE: the served variants changed during the run")
    for failure in detail["failures"]:
        print(f"{workload:14s} FAILED: {failure}")


def driver_line(result: dict, trace: int) -> str:
    """The contract's result object: exactly the declared metrics of the mode.
    A per-layer metric that does not apply to the workload reads 0."""
    kind = "per_layer" if trace else "end_to_end"
    measured = result["metrics"]
    metrics = {}
    for name, decl in spec.declared(kind).items():
        if name not in measured and not trace:
            raise KeyError(f"end-to-end metric {name} was not measured")
        metrics[name] = {"value": measured.get(name, 0.0), "unit": decl["unit"]}
    return json.dumps({
        "correct": result["correct"], "attempted": result["attempted"],
        "failed": result["failed"], "metrics": metrics,
    })


# ------------------------------------------------------- the whole benchmark


def machine() -> dict:
    model = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            model = next(
                line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")
            )
    except (OSError, StopIteration):
        pass
    try:  # read from the package's metadata: this process never imports NumPy
        numpy = importlib.metadata.version("numpy")
    except importlib.metadata.PackageNotFoundError:
        numpy = "unknown"
    return {
        "nproc": os.cpu_count(), "cpu": model,
        "python": platform.python_version(), "numpy": numpy,
    }


def commit() -> str:
    proc = subprocess.run(
        ["git", "rev-parse", "HEAD"], cwd=spec.ROOT, stdout=subprocess.PIPE,
        stderr=subprocess.DEVNULL, text=True,
    )
    return proc.stdout.strip() or "unknown"


def run_all(names: List[str], seed: int, seconds: float, traces: List[int],
            quick: bool) -> dict:
    """Every named workload in every trace mode; the run's JSON document."""
    document = {
        "commit": commit(),
        "utc": datetime.datetime.now(datetime.timezone.utc).isoformat(timespec="seconds"),
        "seed": seed, "seconds": seconds, "quick": quick, "machine": machine(),
        "correct": True, "workloads": {},
    }
    for name in names:
        entry = document["workloads"][name] = {}
        for trace in traces:
            result = run_workload(name, seed, seconds, trace, quick)
            if result is None:
                document["correct"] = False
                continue
            print_metrics(name, result)
            document["correct"] &= result["correct"]
            kind = "per_layer" if trace else "end_to_end"
            entry[kind] = split_metrics(result)[kind]
            if trace:  # the traced child's end-to-end readings ride along
                entry["end_to_end_traced"] = split_metrics(result)["end_to_end"]
                entry.setdefault("end_to_end", entry["end_to_end_traced"])
            entry.setdefault("detail", {})[kind] = result["detail"]
            entry["failed"] = entry.get("failed", 0) + result["failed"]
            entry["attempted"] = entry.get("attempted", 0) + result["attempted"]
    return document


def write_document(document: dict) -> str:
    spec.OUT_DIR.mkdir(exist_ok=True)
    stamp = document["utc"].replace(":", "").replace("-", "")[:15]
    path = spec.OUT_DIR / f"run-{stamp}-seed{document['seed']}.json"
    path.write_text(json.dumps(document, indent=1) + "\n", encoding="utf-8")
    return str(path)


def record(document: dict) -> None:
    """Append the run's end-to-end metrics to the committed trajectory."""
    line = {k: document[k] for k in ("commit", "utc", "seed", "seconds", "machine")}
    line["end_to_end"] = {
        name: entry["end_to_end"]
        for name, entry in document["workloads"].items()
        if "end_to_end" in entry
    }
    with spec.HISTORY.open("a", encoding="utf-8") as fh:
        fh.write(json.dumps(line, sort_keys=True) + "\n")


def selfcheck(first: List[dict], second: List[dict]) -> List[str]:
    """Pairings of metric and workload on which the medians of two sets of
    passes over the same tree differ by more than the metric's bound — the
    driver's own comparison, in small."""
    bounds = {n: m["bound"] for n, m in spec.declared("end_to_end").items()}

    def medians(documents: List[dict], name: str) -> Dict[str, float]:
        runs = [d["workloads"][name].get("end_to_end", {}) for d in documents]
        return {
            metric: median([run[metric] for run in runs])
            for metric in runs[0]
            if all(metric in run for run in runs)
        }

    out = []
    for name in first[0]["workloads"]:
        other = medians(second, name)
        for metric, a in medians(first, name).items():
            b = other.get(metric)
            if b is None or abs(a - b) > bounds[metric] * abs(a):
                out.append(f"{name}.{metric}: {a:.6g} vs {b} (bound {bounds[metric]:.0%})")
    return out


def main(argv=None) -> int:
    decl = spec.load_declaration()
    parser = argparse.ArgumentParser(prog="python3 -m bench", description=__doc__)
    parser.add_argument("--workload", choices=list(spec.WORKLOADS),
                        help="run one workload and end with the driver's result line")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=float(decl["run_seconds"]),
                        help="length of the timed phase of each workload")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: the per-layer run in place of the end-to-end run")
    parser.add_argument("--traced", action="store_true",
                        help="all workloads: the per-layer run after the end-to-end run")
    parser.add_argument("--quick", action="store_true",
                        help="1 block of 0.5 s and 20 peel samples: a smoke run, not a measurement")
    parser.add_argument("--selfcheck", action="store_true",
                        help="two sets of three passes; fail if a median moves past its bound")
    parser.add_argument("--record", action="store_true",
                        help="append the end-to-end metrics to bench/history.jsonl")
    args = parser.parse_args(argv)
    if not (spec.SRC / "repro" / "__init__.py").is_file():
        print(f"bench: no program to measure at {spec.SRC}", file=sys.stderr)
        return 2

    if args.workload:
        result = run_workload(args.workload, args.seed, args.seconds, args.trace, args.quick)
        if result is None:
            return 1
        print_metrics(args.workload, result)
        print(driver_line(result, args.trace))
        return 0 if result["correct"] else 1

    if args.traced:
        # A smoke run takes its end-to-end readings from the traced child too.
        traces = [1] if args.quick else [0, 1]
    else:
        traces = [args.trace]
    names = list(spec.WORKLOADS)
    document = run_all(names, args.seed, args.seconds, traces, args.quick)
    print("wrote", write_document(document))
    status = 0 if document["correct"] else 1
    if args.selfcheck:
        sides = ([document], [])
        for turn in range(1, 2 * SELFCHECK_PASSES):
            again = run_all(names, args.seed, args.seconds, [0], args.quick)
            print("wrote", write_document(again))
            sides[turn % 2].append(again)
        moved = selfcheck(*sides)
        for line in moved:
            print("selfcheck:", line)
        print(f"selfcheck: {len(moved)} pairing(s) of metric and workload beyond bound")
        correct = all(d["correct"] for side in sides for d in side)
        status = status or (0 if correct and not moved else 1)
    if args.record and status == 0:
        record(document)
    return status


if __name__ == "__main__":
    raise SystemExit(main())
