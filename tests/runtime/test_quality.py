"""Tests for the quality metrics, including metric-axiom property tests."""

import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis.extra.numpy import arrays

from repro.runtime.quality import (
    L1_NORM,
    L2_NORM,
    MEAN_RELATIVE,
    QualityMetric,
    l1_norm_error,
    l2_norm_error,
    mean_relative_error,
    relative_errors,
)

finite = arrays(
    np.float64,
    st.integers(1, 64),
    elements=st.floats(-1e6, 1e6, allow_nan=False, allow_infinity=False),
)


class TestMetricAxioms:
    @given(finite)
    @settings(max_examples=60)
    def test_zero_error_on_identical_outputs(self, x):
        for fn in (mean_relative_error, l1_norm_error, l2_norm_error):
            assert fn(x, x) == pytest.approx(0.0, abs=1e-12)

    @given(finite)
    @settings(max_examples=60)
    def test_errors_are_nonnegative(self, x):
        noisy = x + 1.0
        for fn in (mean_relative_error, l1_norm_error, l2_norm_error):
            assert fn(noisy, x) >= 0.0

    @given(finite, st.floats(0.001, 0.2))
    @settings(max_examples=60)
    def test_error_scales_with_perturbation(self, x, eps):
        small = l1_norm_error(x * (1 + eps / 2), x)
        large = l1_norm_error(x * (1 + eps), x)
        assert large >= small - 1e-12


class TestMetricValues:
    def test_l1_norm_is_relative(self):
        exact = np.array([10.0, 10.0])
        approx = np.array([11.0, 9.0])
        assert l1_norm_error(approx, exact) == pytest.approx(0.1)

    def test_l2_norm(self):
        exact = np.array([3.0, 4.0])
        approx = np.array([3.0, 4.0]) + np.array([3.0, 4.0]) * 0.1
        assert l2_norm_error(approx, exact) == pytest.approx(0.1)

    def test_mean_relative(self):
        exact = np.array([1.0, 2.0])
        approx = np.array([1.1, 2.4])
        assert mean_relative_error(approx, exact) == pytest.approx(0.15)

    def test_zero_exact_values_use_epsilon_floor(self):
        err = mean_relative_error(np.array([0.1]), np.array([0.0]))
        assert np.isfinite(err) and err > 1.0

    def test_per_element_errors(self):
        errs = relative_errors(np.array([1.1, 2.0]), np.array([1.0, 2.0]))
        np.testing.assert_allclose(errs, [0.1, 0.0], atol=1e-12)

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError, match="shape mismatch"):
            l1_norm_error(np.ones(3), np.ones(4))


class TestQualityMetricWrapper:
    def test_quality_is_one_minus_error(self):
        exact = np.array([10.0])
        approx = np.array([10.5])
        assert L1_NORM.quality(approx, exact) == pytest.approx(0.95)

    def test_quality_floored_at_zero(self):
        assert MEAN_RELATIVE.quality(np.array([100.0]), np.array([1.0])) == 0.0

    def test_unknown_metric_rejected(self):
        with pytest.raises(KeyError):
            QualityMetric("l7")

    def test_named_instances(self):
        assert L2_NORM.name == "l2" and MEAN_RELATIVE.name == "mean_relative"


class TestNonFiniteInputs:
    """Regression: a NaN/Inf output must score as a hard violation, not
    poison the monitor with NaN comparisons (NaN < toq is always False)."""

    METRICS = (mean_relative_error, l1_norm_error, l2_norm_error)
    POISONS = (np.nan, np.inf, -np.inf)

    @pytest.mark.parametrize("poison", POISONS)
    def test_poisoned_approx_scores_infinite_error(self, poison):
        exact = np.array([1.0, 2.0, 3.0])
        approx = np.array([1.0, poison, 3.0])
        for fn in self.METRICS:
            err = fn(approx, exact)
            assert err == np.inf and not np.isnan(err)

    @pytest.mark.parametrize("poison", POISONS)
    def test_poisoned_exact_scores_infinite_error(self, poison):
        exact = np.array([1.0, poison])
        approx = np.array([1.0, 2.0])
        for fn in self.METRICS:
            assert fn(approx, exact) == np.inf

    @pytest.mark.parametrize("poison", POISONS)
    def test_quality_of_poisoned_output_is_zero(self, poison):
        exact = np.array([1.0, 2.0])
        approx = np.array([poison, 2.0])
        for metric in (MEAN_RELATIVE, L1_NORM, L2_NORM):
            quality = metric.quality(approx, exact)
            assert quality == 0.0  # never NaN: NaN < toq compares False

    def test_all_nan_output_still_scores_zero(self):
        exact = np.ones(4)
        approx = np.full(4, np.nan)
        assert L1_NORM.quality(approx, exact) == 0.0

    @given(finite)
    @settings(max_examples=40)
    def test_finite_inputs_never_return_non_finite_error(self, x):
        for fn in self.METRICS:
            assert np.isfinite(fn(x + 0.5, x))


# -- the promote-then-compute formulas the in-place metrics must reproduce --


def _reference_as_f64(a, e):
    a = np.asarray(a, dtype=np.float64).ravel()
    e = np.asarray(e, dtype=np.float64).ravel()
    if a.shape != e.shape:
        raise ValueError(f"shape mismatch: approx {a.shape} vs exact {e.shape}")
    return a, e


def _reference_finite(a):
    return bool(np.isfinite(a).all())


def reference_mean_relative_error(approx, exact):
    a, e = _reference_as_f64(approx, exact)
    if not (_reference_finite(a) and _reference_finite(e)):
        return float("inf")
    denom = np.maximum(np.abs(e), 1e-12)
    return float(np.mean(np.abs(a - e) / denom))


def reference_l1_norm_error(approx, exact):
    a, e = _reference_as_f64(approx, exact)
    if not (_reference_finite(a) and _reference_finite(e)):
        return float("inf")
    denom = max(float(np.sum(np.abs(e))), 1e-12)
    return float(np.sum(np.abs(a - e)) / denom)


def reference_l2_norm_error(approx, exact):
    a, e = _reference_as_f64(approx, exact)
    if not (_reference_finite(a) and _reference_finite(e)):
        return float("inf")
    denom = max(float(np.sqrt(np.sum(e * e))), 1e-12)
    return float(np.sqrt(np.sum((a - e) ** 2)) / denom)


def reference_relative_errors(approx, exact):
    a, e = _reference_as_f64(approx, exact)
    return np.abs(a - e) / np.maximum(np.abs(e), 1e-12)


PAIRS = (
    (mean_relative_error, reference_mean_relative_error),
    (l1_norm_error, reference_l1_norm_error),
    (l2_norm_error, reference_l2_norm_error),
)

# f64 stays below 1e100 so that no finite pair overflows to a NaN score.
ELEMENTS = {
    np.float16: st.floats(width=16, allow_nan=False, allow_infinity=False),
    np.float32: st.floats(width=32, allow_nan=False, allow_infinity=False),
    np.float64: st.floats(-1e100, 1e100, allow_nan=False, allow_infinity=False),
    np.int32: st.integers(-(2**31), 2**31 - 1),
}
LAYOUTS = ("c", "fortran", "transposed", "strided")


def _laid_out(draw, dtype, shape, layout):
    """One array of ``shape`` in ``layout``, a third of its entries zero."""
    stored = {
        "transposed": shape[::-1],
        "strided": (2 * shape[0], shape[1]),
    }.get(layout, shape)
    elements = st.one_of(st.just(0), ELEMENTS[dtype])
    x = draw(arrays(dtype, stored, elements=elements))
    if layout == "fortran":
        return np.asfortranarray(x)
    if layout == "transposed":
        return x.T
    if layout == "strided":
        return x[::2]
    return x


@st.composite
def metric_cases(draw):
    dtype = draw(st.sampled_from(sorted(ELEMENTS, key=str)))
    shape = (draw(st.integers(1, 9)), draw(st.integers(1, 9)))
    approx = _laid_out(draw, dtype, shape, draw(st.sampled_from(LAYOUTS)))
    exact = _laid_out(draw, dtype, shape, draw(st.sampled_from(LAYOUTS)))
    if np.issubdtype(dtype, np.floating) and draw(st.booleans()):
        side = draw(st.sampled_from((approx, exact)))
        poisoned = np.array(side)  # writable, whatever view ``side`` is
        flat = draw(st.integers(0, poisoned.size - 1))
        poisoned.reshape(-1)[flat] = draw(st.sampled_from((np.nan, np.inf, -np.inf)))
        if side is approx:
            approx = poisoned
        else:
            exact = poisoned
    if draw(st.booleans()):
        approx = approx.reshape(-1)  # same size, another shape
    return approx, exact


class TestReferenceOracle:
    """The in-place metrics equal the promote-then-compute formulas they
    replaced — the same float, not a close one — on every dtype the apps
    produce, on views, with zeros in the exact output and with NaN/Inf."""

    @given(metric_cases())
    @settings(max_examples=400, deadline=None)
    def test_errors_equal_the_reference(self, case):
        approx, exact = case
        for fn, reference in PAIRS:
            assert fn(approx, exact) == reference(approx, exact)

    @given(metric_cases())
    @settings(max_examples=200, deadline=None)
    def test_relative_errors_equal_the_reference(self, case):
        approx, exact = case
        with np.errstate(invalid="ignore"):  # inf - inf, inf / inf
            got = relative_errors(approx, exact)
            want = reference_relative_errors(approx, exact)
        assert got.dtype == want.dtype and got.shape == want.shape
        np.testing.assert_array_equal(got, want)  # NaN where it has NaN

    def test_size_mismatch_raises_like_the_reference(self):
        for fn, reference in PAIRS + ((relative_errors, reference_relative_errors),):
            for args in ((np.ones(3), np.ones(4)), (np.ones((2, 3)), np.ones(5))):
                with pytest.raises(ValueError) as got:
                    fn(*args)
                with pytest.raises(ValueError) as want:
                    reference(*args)
                assert str(got.value) == str(want.value)

    def test_scalars_compare_like_one_element_arrays(self):
        for fn, reference in PAIRS:
            assert fn(1.5, 2.0) == reference(1.5, 2.0)
        np.testing.assert_array_equal(
            relative_errors(1.5, 2.0), reference_relative_errors(1.5, 2.0)
        )


class TestAllocationGuard:
    """Each metric allocates only its own float64 buffers: no promoted copy
    of either side and no chained temporaries.  NumPy reports its data
    buffers to tracemalloc, so the peak is a deterministic count."""

    N = 1_000_000
    BUFFER = 8 * N  # one float64 buffer over the pair
    SLACK = 2 * N  # the two isfinite masks, one byte an element, and change

    @pytest.fixture(scope="class")
    def pair(self):
        rng = np.random.default_rng(0)
        exact = rng.random(self.N, dtype=np.float32) + np.float32(0.5)
        approx = exact * np.float32(1.01)
        return approx, exact

    @pytest.mark.parametrize(
        "fn, buffers",
        [
            (mean_relative_error, 2),
            (l1_norm_error, 1),
            (l2_norm_error, 1),
            (relative_errors, 2),
        ],
        ids=["mean_relative", "l1", "l2", "relative_errors"],
    )
    def test_peak_is_the_metrics_own_buffers(self, pair, fn, buffers):
        import tracemalloc

        fn(*pair)  # warm any one-time allocation outside the measurement
        tracemalloc.start()
        try:
            result = fn(*pair)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        del result
        assert peak <= buffers * self.BUFFER + self.SLACK, peak
