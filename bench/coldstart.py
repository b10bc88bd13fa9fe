"""The ``cold_start`` workload: the compiler does the work, serving does none.

For each of the 13 Table-1 apps at registry default scale, in Table-1 order:
clear the compiled-kernel cache, build a session on an empty ``cache_dir``,
``compile()`` → ``tune()`` → first ``launch`` (cold start); then a second
fresh session on the same ``cache_dir`` → first ``launch`` (disk-warm
restart).  Sweeps repeat until ``--seconds`` have passed; every per-app figure
is the median across sweeps of times at reference speed (``bench/speed.py``):
the speed factor is measured just before and just after each app's turn.
"""

from __future__ import annotations

import shutil
import time
from typing import Dict, List

import numpy as np

import repro
from repro import ApproxSession, LaunchOptions, MonitorConfig
from repro.apps.registry import APP_CLASSES, make_app
from repro.codegen import clear_cache

from . import spec
from .serving import interp_ms_per_kthread, output_ok, speedup_ratio
from .speed import SpeedGauge
from .stats import geomean, median

clock = time.perf_counter

#: Never fewer sweeps than this, however short ``--seconds`` is, so that a
#: per-app median exists.
MIN_SWEEPS = 3

OPTIONS = LaunchOptions(backend="codegen")


def new_session(app, cache_dir, registry=None) -> ApproxSession:
    return ApproxSession(
        app,
        target_quality=spec.TARGET_QUALITY,
        options=OPTIONS,
        monitor=MonitorConfig(sample_every=spec.SAMPLE_EVERY),
        cache_dir=cache_dir,
        registry=registry,
    )


class ColdStart:
    """Apps, inputs and the per-app timings gathered sweep by sweep."""

    def __init__(self, seed: int, tmp_root, gauge: SpeedGauge) -> None:
        self.tmp_root = tmp_root
        self.gauge = gauge
        self.apps = {name: make_app(name) for name in APP_CLASSES}
        # Two input sets per app; sweep k serves set k % 2.
        self.inputs = {
            name: [app.generate_inputs(seed=1000 * seed + i) for i in range(2)]
            for name, app in self.apps.items()
        }
        self.failures: List[str] = []
        self.attempted = 0
        self.sweeps = 0
        self.qualities: Dict[tuple, float] = {}
        #: per app, one entry per sweep
        self.timings: Dict[str, Dict[str, List[float]]] = {
            name: {
                k: []
                for k in ("cold", "warm", "compile", "profile", "disk_hit", "resume", "cold_raw")
            }
            for name in self.apps
        }
        self.sessions: Dict[str, ApproxSession] = {}

    def sweep(self) -> None:
        cache_dir = self.tmp_root / f"sweep-{self.sweeps}"
        which = self.sweeps % 2
        try:
            for name, app in self.apps.items():
                inputs = self.inputs[name][which]
                clear_cache()
                self.attempted += 2
                self.gauge.sample(5)
                t0 = clock()
                cold = new_session(app, cache_dir)
                cold.compile()
                cold.tune()
                out = cold.launch(inputs)
                t1 = clock()
                warm = new_session(app, cache_dir)
                out_warm = warm.launch(inputs)
                t2 = clock()
                self.gauge.sample(5)
                factor = self.gauge.factor()
                row = self.timings[name]
                row["cold"].append((t1 - t0) / factor)
                row["warm"].append((t2 - t1) / factor)
                row["cold_raw"].append(t1 - t0)
                for session, compile_key, tune_key in (
                    (cold, "compile", "profile"), (warm, "disk_hit", "resume")
                ):
                    timings = session.metrics_snapshot()["timings"]
                    row[compile_key].append(timings["compile_seconds"] / factor)
                    row[tune_key].append(timings["tune_seconds"] / factor)
                if (name, which) not in self.qualities:
                    self.verify(name, app, cold, inputs, out, out_warm)
                elif not (output_ok(out, None) and output_ok(out_warm, None)):
                    self.failures.append(f"{name}: response not finite")
                warm.close()
                previous = self.sessions.pop(name, None)
                if previous is not None:
                    previous.close()
                self.sessions[name] = cold  # kept for approx_speedup
        finally:
            shutil.rmtree(cache_dir, ignore_errors=True)
        self.sweeps += 1

    def verify(self, name, app, session, inputs, out, out_warm) -> None:
        """Outside the timed regions: the exact path against the interpreter,
        the disk-warm session against the cold one, shape and finiteness."""
        with repro.options(backend="interp"):
            reference, _trace = app.run_exact(inputs)
        exact = session.launch(inputs, variant="exact")
        if not np.array_equal(reference, exact, equal_nan=True):
            self.failures.append(f"{name}: exact path differs from interpreter")
        if not np.array_equal(out, out_warm, equal_nan=True):
            self.failures.append(f"{name}: warm restart differs from cold start")
        if not output_ok(out, np.shape(reference)):
            self.failures.append(f"{name}: output not finite or wrong shape")
        self.qualities[(name, self.sweeps % 2)] = float(app.quality(out, reference))

    def run(self, seconds: float, min_sweeps: int = MIN_SWEEPS) -> None:
        """Sweeps for ``seconds``; one that would end later is not started."""
        started = clock()
        longest = 0.0
        while self.sweeps < min_sweeps or clock() - started + longest <= seconds:
            before = clock()
            self.sweep()
            longest = max(longest, clock() - before)

    def approx_speedup(self, pairs: int) -> float:
        """The wall-clock Fig. 11 over all 13 apps at default scale."""
        return geomean(
            speedup_ratio(session, self.inputs[name], pairs)
            for name, session in self.sessions.items()
        )

    def metrics(self) -> Dict[str, float]:
        med = {
            name: {key: median(values) for key, values in row.items()}
            for name, row in self.timings.items()
        }
        cold = [m["cold"] for m in med.values()]
        warm = [m["warm"] for m in med.values()]
        out = {
            "cold_start_s": sum(cold),
            "cold_start_geomean_ms": 1e3 * geomean(cold),
            "warm_start_s": sum(warm),
            # The serving vocabulary, so that every workload reports every
            # end-to-end metric: an operation here is one session bring-up,
            # the typical latency is the typical app's cold start and the tail
            # is the slowest app's (13 samples support no finer percentile).
            "throughput_rps": (len(cold) + len(warm)) / (sum(cold) + sum(warm)),
            "latency_p50_ms": 1e3 * geomean(cold),
            "latency_p99_ms": 1e3 * max(cold),
            "quality_mean": sum(self.qualities.values()) / len(self.qualities),
            "serve.cache.disk_hit_ms": 1e3 * sum(m["disk_hit"] for m in med.values()),
            "runtime.tuner.resume_ms": 1e3 * sum(m["resume"] for m in med.values()),
            "approx.variants": float(
                sum(len(s.compile()) for s in self.sessions.values())
            ),
            "runtime.tuner.measurements": float(
                sum(len(s.tuning.profiles) for s in self.sessions.values())
            ),
            "runtime.tuner.modelled_speedup": geomean(
                s.tuning.speedup for s in self.sessions.values()
            ),
        }
        for name, m in med.items():
            out[f"approx.compile_ms.{name}"] = 1e3 * m["compile"]
            out[f"runtime.tuner.profile_ms.{name}"] = 1e3 * m["profile"]
        return out

    def raw_cold_start_s(self) -> float:
        """``cold_start_s`` as the wall clock read it, not at reference speed."""
        return sum(median(row["cold_raw"]) for row in self.timings.values())

    def layer_extras(self) -> Dict[str, float]:
        """Traced run only: pattern detection alone, the interpreter's rate
        (the tuner profiles through it), and tuning seeded from a registry
        that a first cold pass filled."""
        from repro import DeviceKind, PatternDetector
        from repro.device import spec_for

        detect = 0.0
        interp = []
        warm_tune = 0.0
        registry_dir = self.tmp_root / "registry"
        for name, app in self.apps.items():
            self.gauge.sample(3)
            if hasattr(app, "kernel"):
                detector = PatternDetector(
                    latency_table=spec_for(DeviceKind.GPU).latencies
                )
                t0 = clock()
                detector.detect(app.kernel)
                detect += clock() - t0
            interp.append(interp_ms_per_kthread(app, self.inputs[name][0], 1))
            filler = new_session(app, None, registry=registry_dir)
            filler.tune()
            filler.close()
            seeded = new_session(app, None, registry=registry_dir)
            t0 = clock()
            seeded.tune()
            warm_tune += clock() - t0
            seeded.close()
        factor = self.gauge.factor()
        return {
            "patterns.detect_ms": 1e3 * detect / factor,
            "engine.interp.ms_per_kthread": sum(interp) / len(interp) / factor,
            "registry.warm_tune_ms": 1e3 * warm_tune / factor,
        }

    def close(self) -> None:
        for session in self.sessions.values():
            session.close()
        shutil.rmtree(self.tmp_root, ignore_errors=True)
