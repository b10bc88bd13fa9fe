"""§3.1.3's runtime table switching: "Paraprox can accelerate the process
of switching between different sized lookup tables by storing multiple
tables in memory and changing the pointer passed to the kernel" — and
"no more than three tables are needed".

Here a serving session walks a ladder of memoized variants whose only
difference is the table (size + pointer), backing off to a larger table
when drifted inputs push quality below the TOQ.
"""

import numpy as np
import pytest

from repro import ApproxSession, MonitorConfig, ParaproxConfig
from repro.apps.blackscholes import BlackScholesApp


class DriftingBlackScholes(BlackScholesApp):
    """After drift, prices move far outside the training range: every table
    clamps to its highest level and quality collapses (§3.1.3's clamping
    keeps execution safe but not accurate)."""

    drifted = False

    def generate_inputs(self, seed=None):
        inputs = super().generate_inputs(seed)
        if self.drifted:
            rng = np.random.default_rng((seed or 0) + 7)
            inputs["price"] = (rng.random(self.n) * 200 + 100).astype(np.float32)
            inputs["strike"] = (rng.random(self.n) * 15 + 5).astype(np.float32)
        return inputs


@pytest.fixture(scope="module")
def ladder_setup():
    app = DriftingBlackScholes(scale=0.005)
    session = ApproxSession(
        app,
        target_quality=0.90,
        config=ParaproxConfig(memo_extra_tables=2),
        monitor=MonitorConfig(sample_every=2, advance_after=0),
    )
    tuning = session.tune()
    memo_profiles = [
        p for p in tuning.profiles if p.variant is not None and p.quality >= 0.90
    ]
    # least -> most aggressive = biggest table (safest) first
    memo_profiles.sort(key=lambda p: -p.variant.knobs["table_bits"])
    return session, [p.variant for p in memo_profiles]


class TestTableLadder:
    def test_multiple_table_sizes_generated(self, ladder_setup):
        _session, ladder = ladder_setup
        sizes = [v.knobs["table_bits"] for v in ladder]
        assert len(sizes) >= 2
        assert len(set(sizes)) == len(sizes)  # distinct table sizes
        assert len(sizes) <= 3  # the paper: no more than three needed

    def test_tables_are_distinct_buffers(self, ladder_setup):
        _session, ladder = ladder_setup
        tables = [v.extra_args[0] for v in ladder]
        assert len({t.shape for t in tables}) == len(tables)

    def test_runtime_switches_tables_on_drift(self, ladder_setup):
        session, ladder = ladder_setup
        if len(ladder) < 2:
            pytest.skip("search found only one qualifying table size")
        app = session.app
        bits = {v.name: v.knobs["table_bits"] for v in ladder}
        assert session.current_variant in bits  # serving starts on a table
        for i in range(8):
            session.launch(app.generate_inputs(seed=100 + i))
        app.drifted = True
        for i in range(12):
            session.launch(app.generate_inputs(seed=200 + i))
        snapshot = session.metrics_snapshot()
        assert snapshot["recalibrations"]["down"] >= 1
        # Drift must have pushed the session down the ladder, each step a
        # pure pointer/kernel swap to a bigger table, or to exact.
        for t in snapshot["transitions"]:
            assert t["to_variant"] == "exact" or (
                bits[t["to_variant"]] > bits[t["from_variant"]]
            ), t
