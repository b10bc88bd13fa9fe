"""A wrong answer, or no program to measure, must fail the run."""

import json
import shutil
import subprocess
import sys
import warnings

import numpy as np

from bench import serving, spec, worker


def test_corrupted_response_fails_the_run(monkeypatch, capsys):
    class Corrupting(serving.ApproxSession):
        """Test double: one app's session returns a NaN in every output."""

        def launch(self, inputs, **kwargs):
            out = super().launch(inputs, **kwargs)
            if type(self.app).__name__ == "GaussianFilterApp":
                out = np.array(out, dtype=float, copy=True)
                out.flat[0] = np.nan
            return out

    monkeypatch.setattr(serving, "ApproxSession", Corrupting)
    monkeypatch.setattr(sys, "path", list(sys.path))
    with warnings.catch_warnings():
        status = worker.main(["--workload", "small_closed", "--quick", "--seed", "2"])
    assert status != 0
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert result["correct"] is False and result["failed"] > 0
    assert result["metrics"]["failed_frac"] > 0
    assert any("gaussian" in line for line in result["detail"]["failures"])


def test_no_result_without_the_program(tmp_path):
    """In a directory that holds only BENCHMARK.json and bench/, exit non-zero
    and print no result."""
    shutil.copy(spec.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(
        spec.BENCH_DIR, tmp_path / "bench",
        ignore=shutil.ignore_patterns("out", "__pycache__", ".pytest_cache"),
    )
    proc = subprocess.run(
        [sys.executable, "-m", "bench", "--workload", "small_closed", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        timeout=120,
    )
    assert proc.returncode != 0
    assert "{" not in proc.stdout
