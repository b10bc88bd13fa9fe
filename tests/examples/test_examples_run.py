"""Every shipped example must run to completion and print its story."""

import subprocess
import sys
from pathlib import Path

import pytest

EXAMPLES = Path(__file__).resolve().parents[2] / "examples"


def _run(name: str, timeout: int = 240) -> str:
    proc = subprocess.run(
        [sys.executable, str(EXAMPLES / name)],
        capture_output=True,
        text=True,
        timeout=timeout,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    return proc.stdout


def test_quickstart():
    out = _run("quickstart.py")
    assert "GPU" in out and "CPU" in out
    assert "speedup" in out and "chosen variant" in out


def test_image_pipeline():
    out = _run("image_pipeline.py")
    for stage in ("denoise", "blur", "tone-map"):
        assert stage in out
    assert "pixel difference" in out


def test_custom_kernel():
    out = _run("custom_kernel.py")
    assert "__global__ void score_loans" in out
    assert "pattern: map" in out
    assert "quality on fresh inputs" in out


def test_ml_sampling():
    out = _run("ml_sampling.py")
    assert "classifier decisions unchanged" in out
    assert "overlap" in out


def test_edge_detection():
    out = _run("edge_detection.py")
    assert "tile 3x3" in out
    assert "quality collapses" in out  # the center-scheme failure mode


def test_video_stream():
    out = _run("video_stream.py")
    assert "streamed 48 frames" in out
    assert "effective stream speedup" in out
    assert "quality-check overhead" in out


def test_serving_session():
    out = _run("serving_session.py", timeout=400)
    assert "drifts" in out
    # the drift must step the session down at least once, and a session
    # at exact steps up only when the rung above clears the TOQ again:
    # the drift persists, so never
    assert "recalibrate_down" in out
    assert "recalibrate_up" not in out
    assert "final variant" in out


def test_serving_frontend():
    out = _run("serving_frontend.py", timeout=400)
    assert "probe refused" in out  # TOQ-floor admission control
    assert "shed by backpressure" in out
    assert "requests through" in out  # batching actually fused requests
