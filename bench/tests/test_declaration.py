"""``BENCHMARK.json`` keeps to the driver's contract and to ``bench/spec.py``."""

import re

from bench import spec

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}$")


def test_keys_and_limits():
    decl = spec.load_declaration()
    assert set(decl) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"
    }
    assert decl["paths"] == ["bench"]
    assert decl["command"][0] == "python3" and len(decl["command"]) <= 32
    assert isinstance(decl["run_seconds"], int) and 1 <= decl["run_seconds"] <= 60
    assert 2 <= len(decl["workloads"]) <= 8
    assert 1 <= len(decl["end_to_end"]) <= 16
    assert 1 <= len(decl["per_layer"]) <= 128


def test_workloads_match_the_spec():
    decl = spec.load_declaration()
    assert [w["name"] for w in decl["workloads"]] == list(spec.WORKLOADS)
    for workload in decl["workloads"]:
        assert set(workload) == {"name", "why"}
        assert 0 < len(workload["why"]) <= 200 and "\n" not in workload["why"]


def test_metric_names_units_and_bounds():
    decl = spec.load_declaration()
    names = [m["name"] for m in decl["end_to_end"] + decl["per_layer"]]
    names += [w["name"] for w in decl["workloads"]]
    assert len(names) == len(set(names)), "a name is used once"
    for metric in decl["end_to_end"]:
        assert set(metric) == {"name", "unit", "better", "bound"}
        assert 0 < metric["bound"] <= 0.25
    for metric in decl["per_layer"]:
        assert set(metric) == {"name", "unit", "better"}
    for metric in decl["end_to_end"] + decl["per_layer"]:
        assert NAME.match(metric["name"]), metric["name"]
        assert UNIT.match(metric["unit"]), metric["unit"]
        assert metric["better"] in ("lower", "higher")
    setup = spec.declared("end_to_end")["setup_s"]
    assert (setup["unit"], setup["better"]) == ("s", "lower")
    assert setup["bound"] == max(m["bound"] for m in decl["end_to_end"])


def test_per_app_rows_expand_to_the_right_apps():
    from repro.apps.registry import APP_CLASSES

    layer = spec.declared("per_layer")
    for name in spec.SERVING_APPS:
        assert f"codegen.kernel_ms.{name}" in layer
        assert f"parallel.shard.speedup.{name}" in layer
    for name in APP_CLASSES:
        assert f"approx.compile_ms.{name}" in layer
        assert f"runtime.tuner.profile_ms.{name}" in layer
