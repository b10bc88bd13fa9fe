"""Order statistics, span self-time arithmetic, the speed gauge."""

import pytest

from bench import speed
from bench.stats import Span, geomean, percentile, self_time_by_name, self_times, spread


def test_percentile_is_nearest_rank():
    values = list(range(1, 101))
    assert percentile(values, 50) == 50
    assert percentile(values, 99) == 99
    assert percentile(values, 100) == 100
    assert percentile([7.0], 99) == 7.0
    assert percentile(list(range(1, 161)), 99) == 159  # a round: the second largest


def test_geomean_and_spread():
    assert geomean([1.0, 4.0]) == pytest.approx(2.0)
    assert spread([10.0] * 10) == 0.0
    # statistics.quantiles(n=4) of these is [9.75, 10, 10.25]
    assert spread([8, 9, 10, 10, 10, 10, 10, 10, 11, 12]) == pytest.approx(0.05)


def test_self_time_is_duration_minus_what_children_cover():
    spans = [
        Span(0, "request", 0.0, 10.0, None, 1),
        Span(1, "frontend", 1.0, 9.0, 0, 1),
        Span(2, "session", 2.0, 5.0, 1, 1),
        Span(3, "session", 4.0, 7.0, 1, 1),  # overlaps its sibling: [4, 5] counts once
        Span(4, "kernel", 2.5, 3.0, 2, 1),
        Span(5, "late", 8.0, 12.0, 1, 1),  # outlives its parent: clipped at 9
    ]
    selfs = self_times(spans)
    assert selfs[0] == pytest.approx(2.0)  # 10 - [1, 9]
    assert selfs[1] == pytest.approx(8.0 - 5.0 - 1.0)  # [2, 7] and [8, 9] covered
    assert selfs[2] == pytest.approx(2.5)
    assert selfs[3] == pytest.approx(3.0)
    assert selfs[4] == pytest.approx(0.5)
    by_name = self_time_by_name(spans)
    assert by_name["session"] == pytest.approx(2.75)  # median of 2.5 and 3.0
    assert sum(selfs[i] for i in range(5)) == pytest.approx(10.0)  # nothing counted twice


def test_speed_gauge_factor(monkeypatch):
    monkeypatch.setattr(speed, "reference_loop", lambda: 1.5 * speed.NOMINAL_S)
    gauge = speed.SpeedGauge()
    gauge.sample(4)
    assert gauge.factor() == pytest.approx(1.5)
    monkeypatch.setattr(speed, "reference_loop", lambda: 0.5 * speed.NOMINAL_S)
    gauge.tick()  # a loop was timed less than INTERVAL_S ago: none is due
    assert gauge.factor() == pytest.approx(0.5)  # an empty gauge samples on demand
    assert gauge.factors == [pytest.approx(1.5), pytest.approx(0.5)]


def test_reference_loop_does_fixed_work():
    assert speed.reference_loop() > 0.0
