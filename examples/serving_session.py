"""Online approximation serving: compile once, monitor, recalibrate.

The one-shot ``Paraprox.optimize`` pipeline re-detects patterns and
re-profiles variants on every call; a service cannot afford that.  This
script runs the persistent alternative — an ``ApproxSession`` that

* caches the compiled variant set on disk (restart the script: the
  compile and tune phases become cache hits),
* streams invocations of a Kernel-Density-Estimation workload whose
  input distribution drifts mid-stream,
* samples output quality on a cadence, detects the TOQ violation the
  drift causes, and greedily steps down the variant ladder until quality
  recovers (paper §3.5),
* prints the structured metrics snapshot a deployment would scrape.

    python examples/serving_session.py
"""

import json
import tempfile
from pathlib import Path

import numpy as np

from repro import ApproxSession, DeviceKind, MonitorConfig
from repro.apps.kde import KernelDensityApp
from repro.obs import trace as obs_trace

TOQ = 0.80
CACHE_DIR = Path(tempfile.gettempdir()) / "paraprox-cache"


class DriftingKDE(KernelDensityApp):
    """KDE whose inputs become concentration-heavy after the drift point."""

    def __init__(self, **kwargs):
        super().__init__(**kwargs)
        self.drifted = False

    def generate_inputs(self, seed=None):
        inputs = super().generate_inputs(seed)
        if self.drifted:
            rng = np.random.default_rng((seed or 0) + 1)
            refs = inputs["refs"].reshape(-1, self.nfeat)
            far = rng.normal(6.0, 0.05, refs.shape).astype(np.float32)
            keep = rng.random(len(refs)) < 0.05
            refs = np.where(keep[:, None], refs, far)
            inputs["refs"] = np.ascontiguousarray(refs.ravel())
        return inputs


def main() -> None:
    app = DriftingKDE()
    # JSONL audit trail: spans + quality timeline in one stream.
    # REPRO_OBS/REPRO_OBS_TRACE take precedence when set in the environment.
    trace_file = CACHE_DIR / "events.jsonl"
    if not obs_trace.enabled():
        CACHE_DIR.mkdir(parents=True, exist_ok=True)
        obs_trace.enable(trace_path=trace_file)
    with ApproxSession(
        app,
        target_quality=TOQ,
        device=DeviceKind.GPU,
        cache_dir=CACHE_DIR,
        # KDE's quality varies a few points between input sets, so give the
        # drift detector more slack than the default 0.05.
        monitor=MonitorConfig(
            sample_every=3, window=3, min_samples=2, drift_drop=0.25
        ),
    ) as session:
        variants = session.compile()
        print(variants.describe())
        tuning = session.tune()
        print(
            f"\nserving {tuning.chosen.name} "
            f"(training quality {tuning.chosen.quality:.1%}, "
            f"speedup {tuning.speedup:.2f}x, TOQ {TOQ:.0%})\n"
        )

        for i in range(36):
            if i == 12 and not app.drifted:
                app.drifted = True
                print(f"[launch {i}] *** input distribution drifts ***")
            session.launch(app.generate_inputs(seed=1000 + i))
            record = session.metrics.records[-1]
            if record.action:
                print(
                    f"[launch {i}] quality {record.quality:.1%} -> "
                    f"{record.action} ({record.reason}); now serving "
                    f"{session.current_variant}"
                )

        snapshot = session.metrics_snapshot()
        print(f"\nfinal variant  : {snapshot['session']['current_variant']}")
        print(f"cache          : {snapshot['cache']}")
        print(
            f"monitoring     : {snapshot['sampled_checks']} checks over "
            f"{snapshot['launches']} launches "
            f"({snapshot['sampling_overhead']:.0%} of launch wall time), "
            f"{snapshot['toq_violations']} TOQ violations"
        )
        print("transitions    :")
        for t in snapshot["transitions"]:
            print(
                f"  launch {t['launch']}: {t['from_variant']} -> "
                f"{t['to_variant']} ({t['reason']})"
            )
        print(f"\ntrace stream   : {trace_file}")
        print("full snapshot  :")
        print(json.dumps(snapshot["session"], indent=2, default=str))


if __name__ == "__main__":
    main()
