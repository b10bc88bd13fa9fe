"""Streaming video denoise under a TOQ — the paper's opening motivation.

"A consumer using a mobile device can tolerate occasional dropped frames
or a small loss in resolution during video playback, especially when this
allows video playback to occur seamlessly."  This script synthesises a
short panning video (a scene translating under camera noise), tunes the
denoise stage once, and then streams frames through a serving session that
samples quality every 12th frame (paper §3.5) — reporting the effective
throughput improvement, the measured per-frame quality at the sampled
checks, and the total quality-check overhead.

    python examples/video_stream.py
"""

import numpy as np

from repro import ApproxSession, DeviceKind, MonitorConfig
from repro.apps.gaussian import MeanFilterApp
from repro.apps.images import synthetic_image
from repro.device import CostModel, GTX560

FRAMES = 48
SIDE = 128


class VideoDenoise(MeanFilterApp):
    """Mean-filter denoise over frames of a panning synthetic scene."""

    def __init__(self):
        super().__init__(scale=1.0)
        self.side = SIDE
        scene = synthetic_image(SIDE * 2, SIDE, seed=9)
        self._scene = scene
        self._rng = np.random.default_rng(42)

    def frame(self, index: int) -> dict:
        pan = (index * 2) % SIDE
        crop = self._scene[:, pan : pan + SIDE]
        noisy = crop + self._rng.normal(0, 0.02, crop.shape).astype(np.float32)
        return {"img": np.clip(noisy, 0.01, 1.0).astype(np.float32)}

    def generate_inputs(self, seed=None):
        return self.frame(0 if seed is None else seed % FRAMES)


def main() -> None:
    app = VideoDenoise()
    session = ApproxSession(
        app,
        target_quality=0.90,
        device=DeviceKind.GPU,
        monitor=MonitorConfig(sample_every=12, advance_after=2, margin=0.02),
    )
    tuning = session.tune()
    variants = {p.name: p.variant for p in tuning.profiles}
    print(f"tuned once: {tuning.chosen.name} "
          f"({tuning.speedup:.2f}x at {tuning.quality:.1%} quality)")

    cost = CostModel(GTX560)
    approx_cycles = exact_cycles = 0.0
    for i in range(FRAMES):
        inputs = app.frame(i)
        session.launch(inputs)
        # account modelled per-frame cost of the variant actually used
        served = variants.get(session.last_launch.variant)
        if served is not None:
            _o, trace = app.run_variant(served, inputs)
        else:
            _o, trace = app.run_exact(inputs)
        approx_cycles += cost.cycles(trace)
        _o, trace = app.run_exact(inputs)
        exact_cycles += cost.cycles(trace)

    snapshot = session.metrics_snapshot()
    checks = [r.quality for r in session.metrics.records if r.quality is not None]
    overhead = snapshot["sampled_checks"] / snapshot["launches"]
    print(f"\nstreamed {FRAMES} frames at variant {session.current_variant}")
    print(f"effective stream speedup: {exact_cycles / approx_cycles:.2f}x "
          f"(modelled cycles, {snapshot['sampled_checks']} quality checks "
          f"included separately)")
    print(f"quality at sampled checks: {', '.join(f'{q:.1%}' for q in checks)}")
    print(f"quality-check overhead: {overhead:.1%} extra exact frames "
          f"(paper §5: <5% at 40-50-frame intervals)")


if __name__ == "__main__":
    main()
