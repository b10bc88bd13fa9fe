"""Tests for bit tuning: hill climbing and the TOQ table-size search."""

import numpy as np
import pytest

from repro.apps.registry import make_app
from repro.approx.bit_tuning import (
    BitTuner,
    equal_split,
    neighbours,
    search_table_size,
)
from repro.approx.memoization import MemoizationTransform, profile_device_calls
from repro.approx.quantize import InputRange, quantize_value
from repro.device import DeviceKind, spec_for
from repro.patterns import MapMatch, PatternDetector
from repro.runtime.quality import MEAN_RELATIVE


class TestTreeStructure:
    def test_equal_split(self):
        assert equal_split(15, 3) == (5, 5, 5)
        assert equal_split(16, 3) == (6, 5, 5)
        assert equal_split(4, 1) == (4,)

    def test_equal_split_rejects_zero_inputs(self):
        with pytest.raises(ValueError):
            equal_split(8, 0)

    def test_neighbours_move_one_bit_between_adjacent_inputs(self):
        kids = neighbours((5, 5, 5))
        assert (4, 6, 5) in kids and (6, 4, 5) in kids
        assert (5, 4, 6) in kids and (5, 6, 4) in kids
        # non-adjacent moves are not children (paper Fig 4)
        assert (4, 5, 6) not in kids

    def test_neighbours_respect_zero(self):
        kids = neighbours((0, 4))
        assert (-1, 5) not in kids
        assert (1, 3) in kids

    def test_neighbour_totals_preserved(self):
        for child in neighbours((3, 7, 2)):
            assert sum(child) == 12


def _make_tuner(sensitivity=(1.0, 30.0)):
    """A 2-input function much more sensitive to its second input."""
    rng = np.random.default_rng(0)
    a = rng.uniform(0, 1, 4000)
    b = rng.uniform(0, 1, 4000)

    def f(x, y):
        return sensitivity[0] * x + np.sin(sensitivity[1] * y)

    exact = f(a, b)
    return BitTuner(
        f,
        [a, b],
        exact,
        MEAN_RELATIVE.quality,
        ranges=[InputRange(0, 1), InputRange(0, 1)],
    )


class TestHillClimbing:
    def test_sensitive_input_receives_more_bits(self):
        tuner = _make_tuner()
        config = tuner.tune(12)
        assert config.bits[1] > config.bits[0]

    def test_quality_improves_monotonically_along_path(self):
        tuner = _make_tuner()
        tuner.tune(12)
        path_q = [q for _n, q, _c in tuner.path]
        assert all(b > a for a, b in zip(path_q, path_q[1:]))

    def test_memoization_of_node_quality(self):
        tuner = _make_tuner()
        tuner.tune(10)
        n1 = tuner.nodes_evaluated
        tuner.tune(10)
        assert tuner.nodes_evaluated == n1  # all nodes cached

    def test_more_bits_never_hurt_at_optimum(self):
        tuner = _make_tuner()
        q_small = tuner.tune(6).quality
        q_large = tuner.tune(14).quality
        assert q_large >= q_small


class TestTableSizeSearch:
    def test_finds_smallest_satisfying_table(self):
        tuner = _make_tuner(sensitivity=(1.0, 6.0))
        result = search_table_size(tuner, toq=0.95, start_bits=10)
        assert result.chosen is not None
        chosen_bits = result.chosen.total
        assert result.chosen.quality >= 0.95
        # one bit fewer must fail the TOQ (that is why the search stopped)
        if chosen_bits - 1 in result.explored:
            assert result.explored[chosen_bits - 1].quality < 0.95

    def test_grows_when_start_misses(self):
        tuner = _make_tuner()
        result = search_table_size(tuner, toq=0.97, start_bits=4)
        assert result.chosen is not None
        assert result.chosen.total > 4

    def test_unreachable_toq_returns_best_available(self):
        tuner = _make_tuner()
        result = search_table_size(tuner, toq=0.9999999, start_bits=6, max_bits=8)
        assert result.chosen is None
        best = result.best_available()
        assert best.total in result.explored
        assert best.quality == max(c.quality for c in result.explored.values())


class DirectTuner(BitTuner):
    """Scores every node on all N snapped samples, one evaluation each:
    the reference the distinct-point path must agree with exactly."""

    def node_quality(self, bits):
        if bits not in self._cache:
            snapped = [
                quantize_value(x, rng, q)
                for x, rng, q in zip(self.inputs, self.ranges, bits)
            ]
            self._cache[bits] = float(
                self.quality_fn(self.evaluate(*snapped), self.exact)
            )
        return self._cache[bits]


def _app_tuners(name, device):
    """(transform, profile, module) for every memoizable function of an
    app's map matches, profiled as ``Paraprox.compile`` profiles them."""
    app = make_app(name, seed=0)
    module = app.kernel.module
    kernel_name = app.kernel.fn.name
    detector = PatternDetector(latency_table=spec_for(device).latencies)
    out = []
    for match in detector.detect(app.kernel).for_kernel(kernel_name):
        if not isinstance(match, MapMatch):
            continue
        _kernel, grid, args = app.training_launch(
            app.generate_inputs(seed=app.seed + 77)
        )
        profiles = profile_device_calls(
            module[kernel_name], grid, args, match.candidates, module=module
        )
        transform = MemoizationTransform(toq=0.9, quality_fn=app.metric.quality)
        out.extend((transform, profile, module) for profile in profiles.values())
    return out


class TestDistinctPointsAreExact:
    """Each distinct snapped point is evaluated once; every node's quality
    equals the one the direct N-sample evaluation gives, bit for bit."""

    @pytest.mark.parametrize("device", [DeviceKind.GPU, DeviceKind.CPU])
    @pytest.mark.parametrize(
        "name", ["blackscholes", "quasirandom", "gamma", "boxmuller"]
    )
    def test_every_visited_node_matches_direct_evaluation(self, name, device):
        cases = _app_tuners(name, device)
        assert cases
        for transform, profile, module in cases:
            search, _variable, tuner = transform._tune_with_tuner(module, profile)
            transform._select_configs(search, tuner)
            direct = DirectTuner(
                tuner.evaluate, tuner.inputs, tuner.exact, tuner.quality_fn,
                ranges=tuner.ranges,
            )
            assert search_table_size(direct, transform.toq).explored == search.explored
            n = tuner.inputs[0].size
            # The distinct-point path ran on at least one visited node.
            assert any((1 << sum(bits)) <= n for bits in tuner._cache)
            for bits, quality in tuner._cache.items():
                assert quality == direct.node_quality(bits), bits

    def _synthetic(self, inputs, ranges):
        def f(x, y):
            return np.exp(-x) * np.cos(3.0 * y) + x * y

        exact = f(*inputs)
        return tuple(
            cls(f, inputs, exact, MEAN_RELATIVE.quality, ranges=ranges)
            for cls in (BitTuner, DirectTuner)
        )

    @pytest.mark.parametrize(
        "bits", [(5, 6), (0, 11), (11, 0), (8, 9), (2, 2), (0, 0)]
    )
    def test_more_addresses_than_samples(self, bits):
        """``2**Q`` above N (and below it) on a 300-sample input."""
        rng = np.random.default_rng(1)
        inputs = [rng.uniform(0.1, 2.0, 300), rng.uniform(-1.0, 1.0, 300)]
        tuner, direct = self._synthetic(
            inputs, [InputRange.of(a) for a in inputs]
        )
        assert tuner.node_quality(bits) == direct.node_quality(bits)

    @pytest.mark.parametrize("bits", [(6, 6), (12, 0), (0, 12), (3, 9)])
    def test_constant_input(self, bits):
        """An input whose training range is one value snaps every sample
        to that value, whatever its bits."""
        rng = np.random.default_rng(2)
        inputs = [rng.uniform(0.0, 1.0, 5000), np.full(5000, 0.25)]
        ranges = [InputRange.of(inputs[0]), InputRange(0.25, 0.25)]
        tuner, direct = self._synthetic(inputs, ranges)
        assert tuner.node_quality(bits) == direct.node_quality(bits)
        assert (
            search_table_size(tuner, 0.999, start_bits=6, max_bits=14).explored
            == search_table_size(direct, 0.999, start_bits=6, max_bits=14).explored
        )
