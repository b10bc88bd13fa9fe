"""Sampling wall-clock profiler with span-context attribution.

Tracing (:mod:`repro.obs.trace`) answers *what ran and for how long*;
this module answers *where the time actually went inside it*.  A single
daemon timer thread wakes every ``interval_s``, snapshots every thread's
Python frames (``sys._current_frames()``) and the per-thread span stacks
the trace layer maintains, and attributes the sample twice over:

* **collapsed stacks** — ``span.a;span.b;mod.func;mod.func2 <count>``,
  the flamegraph.pl / speedscope collapsed format, with the active span
  chain as synthetic root frames so flames group by seam
  (``engine.launch``, ``codegen.compile``, ``shard.run``,
  ``tune.profile``, ``serve.batch`` …) before code;
* **seam aggregation** — per ``(seam, kernel, variant)`` self-time,
  read back with :meth:`SamplingProfiler.top` and the
  ``python -m repro.obs top`` subcommand: the profile the ROADMAP's
  tuning loop actually wants (which variant of which kernel burns the
  wall-clock).

The cost model is the sampler's, not the program's: threads pay nothing
between samples, and each sample is one frame walk per live thread.  At
the default 10ms interval the measured overhead stays within the
``benchmarks/test_obs_overhead.py`` 3% floor.

Enable programmatically (:func:`start`, :func:`stop`) or with
``REPRO_OBS_PROFILE=1`` in the environment (optionally
``REPRO_OBS_PROFILE_INTERVAL=<seconds>`` and
``REPRO_OBS_PROFILE_OUT=<path>`` to write the collapsed profile at
exit).  ``/debug/profile`` on the embedded HTTP endpoint serves the
live collapsed stacks of the active profiler.
"""

from __future__ import annotations

import os
import sys
import threading
from collections import defaultdict
from typing import Dict, List, Optional, Tuple

from .registry import get_registry
from . import trace as obs_trace

_TRUTHY = ("1", "true", "yes", "on")

DEFAULT_INTERVAL_S = 0.01

#: Span names treated as attribution seams, innermost match wins.  The
#: tuple mirrors the instrumented production seams (docs/OBSERVABILITY.md).
SEAMS = (
    "engine.launch",
    "codegen.compile",
    "shard.run",
    "tune.profile",
    "serve.batch",
    "serve.launch",
    "proc.launch",
    "ladder.rung",
)

_MAX_DEPTH = 64


def _frame_label(frame) -> str:
    code = frame.f_code
    module = os.path.splitext(os.path.basename(code.co_filename))[0]
    return f"{module}.{code.co_name}"


class SamplingProfiler:
    """The timer-thread sampler; one per process is the intended shape."""

    def __init__(
        self,
        interval_s: float = DEFAULT_INTERVAL_S,
        registry=None,
    ) -> None:
        self.interval_s = max(0.001, float(interval_s))
        self._lock = threading.Lock()
        self._stacks: Dict[Tuple[str, ...], int] = defaultdict(int)
        self._seams: Dict[Tuple[str, str, str], int] = defaultdict(int)
        self._samples = 0
        self._stop = threading.Event()
        self._thread: Optional[threading.Thread] = None
        registry = registry if registry is not None else get_registry()
        self._samples_total = registry.counter(
            "repro_profile_samples_total", "profiler samples taken"
        )
        self._seam_family = registry.counter(
            "repro_profile_seam_samples_total",
            "profiler samples attributed per seam span",
            labelnames=("seam",),
        )

    # -- lifecycle -----------------------------------------------------------

    def start(self) -> "SamplingProfiler":
        if self._thread is not None:
            return self
        self._stop.clear()
        self._thread = threading.Thread(
            target=self._run, name="repro-obs-profiler", daemon=True
        )
        self._thread.start()
        return self

    def stop(self) -> None:
        thread = self._thread
        if thread is None:
            return
        self._stop.set()
        thread.join(timeout=5.0)
        self._thread = None

    @property
    def running(self) -> bool:
        return self._thread is not None

    def __enter__(self) -> "SamplingProfiler":
        return self.start()

    def __exit__(self, *_exc) -> None:
        self.stop()

    # -- sampling ------------------------------------------------------------

    def _run(self) -> None:
        own_ident = threading.get_ident()
        while not self._stop.wait(self.interval_s):
            self._sample(own_ident)

    def _sample(self, own_ident: int) -> None:
        frames = sys._current_frames()
        span_stacks = obs_trace.thread_stacks()
        # Prune stacks of threads that no longer exist, so long-lived
        # processes with thread churn don't grow the registry unboundedly.
        for ident in list(span_stacks):
            if ident not in frames:
                span_stacks.pop(ident, None)
        collected: List[Tuple[Tuple[str, ...], Tuple[str, str, str]]] = []
        for ident, frame in frames.items():
            if ident == own_ident:
                continue
            # Span context: copy under the GIL; a torn read misattributes
            # at worst one sample.
            spans = list(span_stacks.get(ident, ()))
            span_names = tuple(s.name for s in spans)
            seam_key = self._seam_of(spans)
            stack: List[str] = []
            depth = 0
            while frame is not None and depth < _MAX_DEPTH:
                stack.append(_frame_label(frame))
                frame = frame.f_back
                depth += 1
            stack.reverse()
            collected.append((span_names + tuple(stack), seam_key))
        with self._lock:
            self._samples += 1
            for stack_key, seam_key in collected:
                self._stacks[stack_key] += 1
                if seam_key is not None:
                    self._seams[seam_key] += 1
        self._samples_total.inc()
        for _stack_key, seam_key in collected:
            if seam_key is not None:
                self._seam_family.labels(seam=seam_key[0]).inc()

    @staticmethod
    def _seam_of(spans) -> Optional[Tuple[str, str, str]]:
        """(seam, kernel, variant) from the innermost seam span."""
        for span in reversed(spans):
            if span.name in SEAMS:
                attrs = span.attrs or {}
                kernel = str(
                    attrs.get("kernel")
                    or attrs.get("app")
                    or attrs.get("key")
                    or ""
                )
                variant = str(attrs.get("variant") or "")
                return (span.name, kernel, variant)
        return None

    # -- views ---------------------------------------------------------------

    def sample_count(self) -> int:
        with self._lock:
            return self._samples

    def collapsed_stacks(self) -> str:
        """The profile in collapsed-stack format, one ``frames count``
        line per distinct stack — flamegraph.pl / speedscope input."""
        with self._lock:
            items = sorted(self._stacks.items(), key=lambda kv: -kv[1])
        return "\n".join(
            ";".join(stack) + f" {count}" for stack, count in items
        ) + ("\n" if items else "")

    def top(self, limit: int = 20) -> List[dict]:
        """Per-(seam, kernel, variant) self-time, hottest first."""
        with self._lock:
            items = sorted(self._seams.items(), key=lambda kv: -kv[1])
        return [
            {
                "seam": seam,
                "kernel": kernel,
                "variant": variant,
                "samples": count,
                "seconds": count * self.interval_s,
            }
            for (seam, kernel, variant), count in items[:limit]
        ]

    def export_collapsed(self, path) -> str:
        text = self.collapsed_stacks()
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
        return str(path)

    def reset(self) -> None:
        with self._lock:
            self._stacks.clear()
            self._seams.clear()
            self._samples = 0


# ----------------------------------------------------------- global state

_ACTIVE: Optional[SamplingProfiler] = None
_ACTIVE_LOCK = threading.Lock()


def active_profiler() -> Optional[SamplingProfiler]:
    return _ACTIVE


def start(
    interval_s: float = DEFAULT_INTERVAL_S, registry=None
) -> SamplingProfiler:
    """Start (or return) the process-wide sampling profiler."""
    global _ACTIVE
    with _ACTIVE_LOCK:
        if _ACTIVE is None:
            _ACTIVE = SamplingProfiler(interval_s, registry=registry)
        _ACTIVE.start()
        return _ACTIVE


def stop() -> Optional[SamplingProfiler]:
    """Stop the process-wide profiler; returns it (data intact)."""
    with _ACTIVE_LOCK:
        if _ACTIVE is not None:
            _ACTIVE.stop()
        return _ACTIVE


def _write_out_at_exit(path: str) -> None:
    profiler = _ACTIVE
    if profiler is None:
        return
    profiler.stop()
    try:
        profiler.export_collapsed(path)
    except OSError:
        pass


def _init_from_env() -> None:
    if os.environ.get("REPRO_OBS_PROFILE", "").lower() not in _TRUTHY:
        return
    interval = DEFAULT_INTERVAL_S
    raw = os.environ.get("REPRO_OBS_PROFILE_INTERVAL", "")
    if raw:
        try:
            interval = float(raw)
        except ValueError:
            interval = DEFAULT_INTERVAL_S
    start(interval)
    out = os.environ.get("REPRO_OBS_PROFILE_OUT")
    if out:
        import atexit

        atexit.register(_write_out_at_exit, out)


_init_from_env()
