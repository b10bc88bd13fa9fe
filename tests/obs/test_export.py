"""Trace-file analysis and the ``python -m repro.obs`` CLI."""

import json

import pytest

from repro.obs.__main__ import main
from repro.obs.export import build_trees, load_trace, render_tree, summarize


def _span(name, span_id, parent_id=None, trace_id="t0", **attrs):
    return {
        "type": "span",
        "name": name,
        "trace_id": trace_id,
        "span_id": span_id,
        "parent_id": parent_id,
        "start": float(int(span_id[1:])),
        "duration": 0.01,
        "thread": "MainThread",
        "seq": int(span_id[1:]),
        "status": "ok",
        "error": "",
        "attrs": attrs,
        "events": [],
    }


def _write_trace(path, records):
    path.write_text("\n".join(json.dumps(r) for r in records) + "\n")


def _sample_records():
    return [
        _span("serve.launch", "s0", fallback_depth=1, served="exact_codegen"),
        _span("ladder.rung", "s1", parent_id="s0", rung="variant"),
        _span("ladder.rung", "s2", parent_id="s0", rung="exact_codegen"),
        _span("engine.launch", "s3", parent_id="s2", backend="codegen"),
        {
            "type": "event",
            "kind": "quality_sample",
            "seq": 10,
            "launch_id": 0,
            "variant": "v",
            "quality": 0.91,
            "estimate": 0.92,
            "speedup": 1.5,
            "verdict": "ok",
        },
        {
            "type": "event",
            "kind": "knob_change",
            "seq": 11,
            "launch_id": 0,
            "from_variant": "v",
            "to_variant": "exact",
            "reason": "toq_violation",
        },
    ]


class TestLoadTrace:
    def test_splits_spans_from_events(self, tmp_path):
        path = tmp_path / "t.jsonl"
        _write_trace(path, _sample_records())
        spans, events = load_trace(path)
        assert len(spans) == 4
        assert len(events) == 2

    def test_torn_and_blank_lines_are_skipped(self, tmp_path):
        path = tmp_path / "t.jsonl"
        good = json.dumps(_span("a", "s0"))
        path.write_text(good + "\n\n{\"type\": \"span\", \"na")
        spans, events = load_trace(path)
        assert len(spans) == 1 and events == []


class TestTrees:
    def test_build_trees_links_children(self, tmp_path):
        spans, _ = (_sample_records()[:4], None)
        forest = build_trees(spans)
        (root,) = forest["t0"]
        assert root["name"] == "serve.launch"
        rungs = [c["name"] for c in root["children"]]
        assert rungs == ["ladder.rung", "ladder.rung"]
        assert root["children"][1]["children"][0]["name"] == "engine.launch"

    def test_orphan_parents_become_roots(self):
        forest = build_trees([_span("lost", "s5", parent_id="missing")])
        assert forest["t0"][0]["name"] == "lost"

    def test_render_tree_indents_by_depth(self):
        forest = build_trees(_sample_records()[:4])
        lines = render_tree(forest["t0"])
        assert lines[0].startswith("serve.launch")
        assert lines[1].startswith("  ladder.rung")
        assert lines[3].startswith("    engine.launch")


class TestSummarize:
    def test_report_sections(self, tmp_path):
        path = tmp_path / "t.jsonl"
        _write_trace(path, _sample_records())
        report = summarize(path)
        assert "4 spans across 1 traces, 2 events" in report
        assert "-- Top spans by total time" in report
        assert "depth 1: 1 launch(es)" in report
        assert "served by rung: exact_codegen=1" in report
        assert "-- Quality timeline" in report
        assert "quality=0.9100" in report
        assert "KNOB v -> exact (toq_violation)" in report
        assert "-- Span tree (t0)" in report

    def test_an_slo_entry_from_an_older_trace_is_not_rendered(self, tmp_path):
        path = tmp_path / "t.jsonl"
        records = _sample_records() + [
            {
                "type": "event",
                "kind": "slo",
                "seq": 12,
                "objective": "avail",
                "from_state": "OK",
                "to_state": "WARN",
            }
        ]
        _write_trace(path, records)
        report = summarize(path)
        assert "4 spans across 1 traces, 3 events" in report
        assert "KNOB v -> exact (toq_violation)" in report
        assert "SLO" not in report and "avail" not in report


class TestCli:
    def test_summarize_command(self, tmp_path, capsys):
        path = tmp_path / "t.jsonl"
        _write_trace(path, _sample_records())
        assert main(["summarize", str(path)]) == 0
        out = capsys.readouterr().out
        assert "Trace summary" in out and "serve.launch" in out

    def test_tree_command_filters_by_trace_id(self, tmp_path, capsys):
        path = tmp_path / "t.jsonl"
        _write_trace(path, _sample_records())
        assert main(["tree", str(path), "--trace-id", "t0"]) == 0
        assert "serve.launch" in capsys.readouterr().out
        assert main(["tree", str(path), "--trace-id", "t9"]) == 1

    def test_metrics_command_renders_prometheus(self, capsys):
        from repro.obs import get_registry

        get_registry().counter("repro_cli_smoke_total", "smoke").inc()
        assert main(["metrics"]) == 0
        assert "repro_cli_smoke_total 1" in capsys.readouterr().out

    @pytest.mark.parametrize("command", ["flame", "top"])
    def test_only_trace_and_metrics_commands_remain(self, command, tmp_path, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main([command, str(tmp_path / "profile.collapsed")])
        assert exit_info.value.code == 2
        assert "invalid choice" in capsys.readouterr().err
