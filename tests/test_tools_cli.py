"""Tests for the inspection CLI."""

import pytest

from repro.tools import main


class TestListCommand:
    def test_lists_all_apps(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "blackscholes" in out and "cumhist" in out
        assert out.count("\n") >= 14


class TestInspectCommand:
    def test_inspect_kernel_app(self, capsys):
        assert main(["inspect", "gaussian"]) == 0
        out = capsys.readouterr().out
        assert "__global__ void gaussian_kernel" in out
        assert "stencil tile=3x3" in out
        assert "stencil_center_rd1" in out

    def test_inspect_opencl_dialect(self, capsys):
        assert main(["inspect", "gaussian", "--dialect", "opencl"]) == 0
        out = capsys.readouterr().out
        assert "__kernel void gaussian_kernel" in out

    def test_inspect_shows_eq1_costs(self, capsys):
        assert main(["inspect", "blackscholes", "--scale", "0.005"]) == 0
        out = capsys.readouterr().out
        assert "bs_body:" in out and "threshold" in out

    def test_inspect_show_variant(self, capsys):
        assert main(["inspect", "gaussian", "--show-variant"]) == 0
        out = capsys.readouterr().out
        assert "rewritten kernel" in out and "_cse1" in out

    def test_inspect_lowered_prints_generated_source_and_detail(self, capsys):
        assert main(["inspect", "gaussian", "--lowered"]) == 0
        out = capsys.readouterr().out
        assert "=== lowered: gaussian_kernel (exact) -> codegen (" in out
        assert "def _kernel_gaussian_kernel(_G, " in out
        assert "def _kernel_gaussian_kernel__stencil_center_rd1(_G, " in out
        assert "slots=" in out and "merges_elided=" in out and "reused_exprs=" in out
        assert "out=_w0" in out

    def test_inspect_program_app(self, capsys):
        assert main(["inspect", "cumhist", "--scale", "0.01"]) == 0
        out = capsys.readouterr().out
        assert "multi-kernel program" in out
        assert "scan" in out

    def test_inspect_shards_prints_each_launched_kernels_lanes(self, capsys):
        assert main(["inspect", "cumhist", "--shards"]) == 0
        rows = {
            line.split()[0]: line.split()[1:]
            for line in capsys.readouterr().out.splitlines()
            if line.startswith("  scan_")
        }
        assert rows["scan_tail_predict"] == ["direct", "staged", "direct"]
        why = "stores to 'sums_scan' are not proved private and may overlap across blocks"
        assert rows["scan_phase2"] == ["serial", "serial", "serial"] + why.split()
        assert set(rows) == {"scan_phase1", "scan_phase2", "scan_phase3", "scan_tail_predict"}

    def test_inspect_shards_names_why_a_kernel_stays_serial(self, capsys):
        assert main(["inspect", "naivebayes", "--shards"]) == 0
        out = capsys.readouterr().out
        assert "naive_bayes_kernel" in out and "serial   serial   serial" in out
        assert "global atomic_add on 'counts'" in out

    def test_unknown_app_rejected(self):
        with pytest.raises(SystemExit):
            main(["inspect", "bitcoin"])


class TestTuneCommand:
    def test_tune_prints_frontier_with_choice(self, capsys):
        assert main(["tune", "meanfilter", "--scale", "0.05"]) == 0
        out = capsys.readouterr().out
        assert "<= chosen" in out
        assert "exact" in out

    def test_tune_cpu_device(self, capsys):
        assert main(["tune", "meanfilter", "--scale", "0.05", "--device", "cpu"]) == 0
        out = capsys.readouterr().out
        assert "on cpu" in out
