"""The parent process: result line, self-check, trajectory."""

import json

import pytest

from bench import __main__ as cli
from bench import spec


def fake_result(**metrics) -> dict:
    measured = {name: 1.0 for name in spec.declared("end_to_end")}
    measured.update(metrics)
    return {
        "correct": True, "attempted": 10, "failed": 0, "metrics": measured,
        "detail": {"failures": []},
    }


def test_driver_line_holds_exactly_the_declared_metrics():
    result = fake_result(**{"serve.frontend.self_ms": 0.25})
    for trace, kind in ((0, "end_to_end"), (1, "per_layer")):
        line = json.loads(cli.driver_line(result, trace))
        assert set(line) == {"correct", "attempted", "failed", "metrics"}
        declared = spec.declared(kind)
        assert set(line["metrics"]) == set(declared)
        for name, entry in line["metrics"].items():
            assert set(entry) == {"value", "unit"}
            assert entry["unit"] == declared[name]["unit"]
    assert line["metrics"]["serve.frontend.self_ms"]["value"] == 0.25


def test_driver_line_refuses_a_missing_end_to_end_metric():
    result = fake_result()
    del result["metrics"]["latency_p50_ms"]
    with pytest.raises(KeyError):
        cli.driver_line(result, 0)


def document(**metrics) -> dict:
    values = {name: 100.0 for name in spec.declared("end_to_end")}
    values.update(metrics)
    return {"workloads": {"small_closed": {"end_to_end": values}}}


def test_selfcheck_flags_only_moves_past_the_bound():
    bound = spec.declared("end_to_end")["throughput_rps"]["bound"]
    inside = document(throughput_rps=100.0 * (1 + 0.9 * bound))
    beyond = document(throughput_rps=100.0 * (1 + 1.1 * bound))
    same = [document(), document(), document()]
    assert cli.selfcheck(same, [inside, inside, beyond]) == []  # medians, not single passes
    moved = cli.selfcheck(same, [beyond, inside, beyond])
    assert len(moved) == 1 and moved[0].startswith("small_closed.throughput_rps")
    missing = document()
    del missing["workloads"]["small_closed"]["end_to_end"]["setup_s"]
    assert len(cli.selfcheck(same, [missing, document(), document()])) == 1


def test_record_appends_one_line_per_run(tmp_path, monkeypatch):
    history = tmp_path / "history.jsonl"
    monkeypatch.setattr(spec, "HISTORY", history)
    run = {
        "commit": "abc", "utc": "2026-01-01T00:00:00+00:00", "seed": 0, "seconds": 10.0,
        "machine": {"nproc": 2, "cpu": "x", "python": "3", "numpy": "1"},
        "workloads": {
            "small_closed": {"end_to_end": {"setup_s": 0.5}, "per_layer": {"x": 1.0}},
            "cold_start": {},
        },
    }
    cli.record(run)
    cli.record(run)
    lines = [json.loads(line) for line in history.read_text().splitlines()]
    assert len(lines) == 2
    assert set(lines[0]) == {"commit", "utc", "seed", "seconds", "machine", "end_to_end"}
    assert lines[0]["end_to_end"] == {"small_closed": {"setup_s": 0.5}}
