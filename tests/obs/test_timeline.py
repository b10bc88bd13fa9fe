"""The quality-drift timeline: entries, correlation ids, trace mirroring."""

from repro.obs import trace as obs_trace
from repro.obs.timeline import (
    BREAKER,
    BROWNOUT,
    DRIFT,
    KINDS,
    KNOB_CHANGE,
    QUALITY_SAMPLE,
    TOQ_VIOLATION,
    timeline,
)


class TestDisabled:
    def test_record_is_a_noop_while_tracing_is_off(self, untraced):
        assert timeline().record(QUALITY_SAMPLE, quality=0.9) is None
        assert timeline().entries() == []


class TestEntries:
    def test_quality_sample_carries_correlation_ids(self, traced_memory):
        timeline().quality_sample(
            session="s9",
            launch_id=7,
            trace_id="t3",
            variant="v",
            quality=0.95,
            estimate=0.94,
            toq=0.9,
            speedup=2.0,
            verdict="ok",
        )
        (entry,) = timeline().entries(kind=QUALITY_SAMPLE)
        assert entry["session"] == "s9"
        assert entry["launch_id"] == 7
        assert entry["trace_id"] == "t3"
        assert entry["quality"] == 0.95

    def test_verdict_knob_change_and_breaker_kinds(self, traced_memory):
        timeline().verdict(
            TOQ_VIOLATION, session="s9", launch_id=1, trace_id=None,
            variant="v", quality=0.5,
        )
        timeline().verdict(
            DRIFT, session="s9", launch_id=2, trace_id=None,
            variant="v", quality=0.6,
        )
        timeline().knob_change(
            session="s9", launch_id=2, trace_id=None,
            from_variant="v", to_variant="exact", reason="drift",
        )
        timeline().breaker(
            session="s9", launch_id=3, trace_id=None,
            variant="v", state="open", reason="crash",
        )
        kinds = [e["kind"] for e in timeline().entries(session="s9")]
        assert kinds == [TOQ_VIOLATION, DRIFT, KNOB_CHANGE, BREAKER]

    def test_six_kinds_and_no_slo_entry(self):
        assert KINDS == (
            QUALITY_SAMPLE, TOQ_VIOLATION, DRIFT, KNOB_CHANGE, BREAKER, BROWNOUT
        )
        assert not hasattr(timeline(), "slo")

    def test_session_filter(self, traced_memory):
        timeline().breaker(
            session="a", launch_id=0, trace_id=None,
            variant="v", state="open", reason="r",
        )
        timeline().breaker(
            session="b", launch_id=0, trace_id=None,
            variant="v", state="open", reason="r",
        )
        assert len(timeline().entries(session="a")) == 1

    def test_entries_are_seq_ordered(self, traced_memory):
        for i in range(3):
            timeline().record(KNOB_CHANGE, launch_id=i)
        seqs = [e["seq"] for e in timeline().entries()]
        assert seqs == sorted(seqs)

    def test_clear(self, traced_memory):
        timeline().record(KNOB_CHANGE, launch_id=0)
        timeline().clear()
        assert timeline().entries() == []


class TestTraceMirroring:
    def test_entries_are_mirrored_into_the_trace_stream(self, traced_memory):
        timeline().breaker(
            session="s9", launch_id=3, trace_id="t1",
            variant="v", state="open", reason="crash",
        )
        mirrored = [
            r for r in obs_trace.drain_records() if r.get("type") == "event"
        ]
        assert len(mirrored) == 1
        assert mirrored[0]["kind"] == BREAKER
        assert mirrored[0]["launch_id"] == 3
