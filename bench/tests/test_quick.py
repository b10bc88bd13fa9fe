"""``--quick`` drives all six workloads, traced run included, in about a
minute and a half, and what it emits is what ``BENCHMARK.json`` declares."""

import json
import subprocess
import sys
import time

import pytest

from bench import spec


@pytest.fixture(scope="module")
def quick_run():
    started = time.time()
    proc = subprocess.run(
        [sys.executable, "-W", "error::DeprecationWarning", "-m", "bench", "--quick",
         "--traced", "--seed", "1"],
        cwd=spec.ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]
    wrote = [line for line in proc.stdout.splitlines() if line.startswith("wrote ")]
    with open(wrote[-1].split(" ", 1)[1], encoding="utf-8") as fh:
        return json.load(fh), proc.stdout, time.time() - started


def test_every_workload_ran_and_verified(quick_run):
    run, _stdout, elapsed = quick_run
    assert run["correct"] is True and run["quick"] is True
    assert list(run["workloads"]) == list(spec.WORKLOADS)
    for name, entry in run["workloads"].items():
        assert entry["failed"] == 0 and entry["attempted"] > 0, name
    assert elapsed < 180


def test_emitted_names_are_the_declared_names(quick_run):
    run, stdout, _elapsed = quick_run
    end_to_end = set(spec.declared("end_to_end"))
    per_layer = set(spec.declared("per_layer"))
    seen = set()
    for name, entry in run["workloads"].items():
        assert set(entry["end_to_end"]) == end_to_end, name
        assert set(entry["per_layer"]) <= per_layer, name
        seen |= set(entry["per_layer"])
    assert seen == per_layer, sorted(per_layer - seen)
    units = spec.metric_units()
    for name in end_to_end | per_layer:
        assert any(
            line.split()[2:3] == [name] and line.split()[4] == units[name]
            for line in stdout.splitlines()
            if len(line.split()) >= 5
        ), f"{name} is not printed with its unit"


def test_deterministic_counts_repeat(quick_run):
    """Same seed, same tree: the counts the compiler decides repeat exactly."""
    run, _stdout, _elapsed = quick_run
    proc = subprocess.run(
        [sys.executable, "-m", "bench", "--workload", "cold_start", "--quick",
         "--seed", "1", "--trace", "1"],
        cwd=spec.ROOT, stdout=subprocess.PIPE, text=True, timeout=120,
    )
    assert proc.returncode == 0
    again = json.loads(proc.stdout.strip().splitlines()[-1])["metrics"]
    first = run["workloads"]["cold_start"]["per_layer"]
    for name in ("approx.variants", "runtime.tuner.measurements",
                 "runtime.tuner.modelled_speedup"):
        assert again[name]["value"] == first[name], name
    assert again["failed_frac"]["value"] == 0
