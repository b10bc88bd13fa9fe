"""Deeper interpreter semantics: C arithmetic rules, nested divergence,
returns under masks, uniformity enforcement — including hypothesis
properties comparing against C semantics."""

import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import given, settings

from repro.engine import Grid, launch
from repro.engine.interpreter import _c_divide, _c_mod
from repro.errors import ExecutionError
from repro.kernel import device, kernel
from repro.kernel.dsl import *  # noqa: F401,F403
from repro.kernel.types import F32, I32

ints = st.integers(-1000, 1000)
nonzero = ints.filter(lambda v: v != 0)


class TestCArithmetic:
    @given(ints, nonzero)
    @settings(max_examples=200)
    def test_integer_division_truncates_toward_zero(self, a, b):
        got = int(_c_divide(np.int64(a), np.int64(b), I32))
        want = int(a / b)  # float division + int() truncates toward zero
        assert got == want

    @given(ints, nonzero)
    @settings(max_examples=200)
    def test_remainder_sign_follows_dividend(self, a, b):
        r = int(_c_mod(np.int64(a), np.int64(b), I32))
        assert a == int(_c_divide(np.int64(a), np.int64(b), I32)) * b + r
        if r != 0:
            assert (r > 0) == (a > 0)

    def test_float_division_is_ieee(self):
        out = _c_divide(np.float32(1.0), np.float32(4.0), F32)
        assert float(out) == 0.25


@kernel
def nested_divergence(out: array_f32, x: array_f32, n: i32):
    i = global_id()
    if i < n:
        v = x[i]
        if v > 0.5:
            if v > 0.75:
                out[i] = 4.0
            else:
                out[i] = 3.0
        else:
            if v > 0.25:
                out[i] = 2.0
            else:
                out[i] = 1.0


@kernel
def early_return_quartiles(out: array_f32, x: array_f32, n: i32):
    i = global_id()
    if i >= n:
        return
    v = x[i]
    if v > 0.75:
        out[i] = 4.0
        return
    if v > 0.5:
        out[i] = 3.0
        return
    if v > 0.25:
        out[i] = 2.0
        return
    out[i] = 1.0


@device
def sign_via_returns(x: f32) -> f32:
    if x > 0.0:
        return 1.0
    if x < 0.0:
        return -1.0
    return 0.0


@kernel
def sign_kernel(out: array_f32, x: array_f32, n: i32):
    i = global_id()
    if i < n:
        out[i] = sign_via_returns(x[i])


class TestDivergence:
    def _quartile_ref(self, x):
        return np.select(
            [x > 0.75, x > 0.5, x > 0.25], [4.0, 3.0, 2.0], default=1.0
        ).astype(np.float32)

    def test_nested_ifs(self):
        rng = np.random.default_rng(0)
        x = rng.random(1000).astype(np.float32)
        out = np.zeros_like(x)
        launch(nested_divergence, Grid.for_elements(1000), [out, x, 1000])
        np.testing.assert_array_equal(out, self._quartile_ref(x))

    def test_early_returns_in_kernel(self):
        rng = np.random.default_rng(1)
        x = rng.random(1000).astype(np.float32)
        out = np.zeros_like(x)
        launch(early_return_quartiles, Grid.for_elements(1000), [out, x, 1000])
        np.testing.assert_array_equal(out, self._quartile_ref(x))

    def test_returned_lanes_stop_writing(self):
        # lanes beyond n return before any store: out stays zero there
        x = np.ones(64, dtype=np.float32)
        out = np.zeros(64, dtype=np.float32)
        launch(early_return_quartiles, Grid(1, 64), [out, x, 32])
        assert (out[32:] == 0).all()
        assert (out[:32] == 4.0).all()

    def test_device_function_multi_return(self):
        x = np.array([-2.0, -0.0, 0.0, 3.0], dtype=np.float32)
        out = np.zeros(4, dtype=np.float32)
        launch(sign_kernel, Grid(1, 4), [out, x, 4])
        np.testing.assert_array_equal(out, [-1.0, 0.0, 0.0, 1.0])


@kernel
def divergent_loop_bound(out: array_f32, x: array_f32, n: i32):
    i = global_id()
    m = i + 1  # thread-dependent
    for k in range(0, m):
        out[i] = f32(k)


@kernel
def zero_step(out: array_f32, n: i32):
    for k in range(0, 4, 0):
        out[0] = 1.0


class TestUniformityEnforcement:
    def test_divergent_loop_bound_rejected(self):
        out = np.zeros(8, dtype=np.float32)
        x = np.zeros(8, dtype=np.float32)
        with pytest.raises(ExecutionError, match="uniform"):
            launch(divergent_loop_bound, Grid(1, 8), [out, x, 8])

    def test_zero_step_rejected(self):
        with pytest.raises(ExecutionError, match="zero loop step"):
            launch(zero_step, Grid(1, 4), [np.zeros(4, dtype=np.float32), 4])


@kernel
def masked_atomic(hist: array_f32, x: array_f32, n: i32):
    i = global_id()
    if x[i] > 0.5:
        atomic_add(hist, 0, 1.0)


class TestMaskedSideEffects:
    def test_atomics_respect_masks(self):
        rng = np.random.default_rng(2)
        x = rng.random(256).astype(np.float32)
        hist = np.zeros(1, dtype=np.float32)
        launch(masked_atomic, Grid.for_elements(256), [hist, x, 256])
        assert hist[0] == float((x > 0.5).sum())

    def test_masked_stores_do_not_touch_inactive_lanes(self):
        x = np.linspace(0, 1, 64, dtype=np.float32)
        out = np.full(64, -5.0, dtype=np.float32)
        launch(nested_divergence, Grid(1, 64), [out, x, 32])
        assert (out[32:] == -5.0).all()


@kernel
def guarded_shift(out: array_f32, x: array_f32, n: i32, shift: i32):
    i = global_id()
    if i < n:
        out[i + shift] = x[i + shift]


@kernel
def tail_shift(out: array_f32, x: array_f32, lo: i32):
    i = global_id()
    if i >= lo:
        out[i - lo] = x[i - lo]


@kernel
def uniform_slot(out: array_f32, x: array_f32, n: i32, k: i32):
    i = global_id()
    if i < n:
        out[i] = x[k]


@kernel
def shared_shift(out: array_f32, x: array_f32, shift: i32):
    tile = shared(32, f32)
    t = thread_id()
    g = global_id()
    tile[t] = x[g]
    barrier()
    out[g] = tile[t + shift]


class TestAccessUnderPredication:
    """What an index may be, lane by lane: a dead lane may compute any
    address and touches nothing; a live lane out of range raises, naming the
    array, the live lanes' range and the size."""

    def _run(self, n, shift, size=32, threads=64, **kwargs):
        x = np.arange(size, dtype=np.float32) + 1
        out = np.full(size, -1.0, dtype=np.float32)
        launch(guarded_shift, Grid(1, threads), [out, x, n, shift], **kwargs)
        return out, x

    def test_dead_lanes_out_of_range_neither_raise_nor_write(self):
        # lanes 24..39 are dead but in range, 40..63 dead and out of range
        out, x = self._run(n=24, shift=0, size=40)
        np.testing.assert_array_equal(out[:24], x[:24])
        assert (out[24:] == -1.0).all()

    def test_live_lane_past_the_end_raises_with_live_range(self):
        with pytest.raises(ExecutionError) as err:
            self._run(n=32, shift=5)
        assert str(err.value) == (
            "guarded_shift: index into 'x' out of range [5, 36] vs size 32"
        )

    def test_negative_index_raises_with_live_range(self):
        with pytest.raises(ExecutionError) as err:
            self._run(n=20, shift=-3)
        assert str(err.value) == (
            "guarded_shift: index into 'x' out of range [-3, 16] vs size 32"
        )

    def test_negative_index_on_dead_lanes_only_is_fine(self):
        x = np.arange(32, dtype=np.float32) + 1
        out = np.full(32, -1.0, dtype=np.float32)
        # lanes 0..3 are dead and compute -4..-1; lanes 4..31 hit 0..27
        launch(tail_shift, Grid(1, 32), [out, x, 4])
        np.testing.assert_array_equal(out[:28], x[:28])
        assert (out[28:] == -1.0).all()

    def test_no_live_lane_checks_nothing(self):
        out, _x = self._run(n=0, shift=1000)
        assert (out == -1.0).all()

    def test_bounds_check_off_clamps_instead_of_raising(self):
        out, x = self._run(n=32, shift=5, bounds_check=False)
        # live lanes 27..31 clamp to the last element
        np.testing.assert_array_equal(out[5:], x[5:])
        assert (out[:5] == -1.0).all()
        out, x = self._run(n=20, shift=-3, bounds_check=False)
        np.testing.assert_array_equal(out[:17], x[:17])

    def test_uniform_index_in_range_under_a_mask(self):
        x = np.arange(16, dtype=np.float32)
        out = np.full(64, -1.0, dtype=np.float32)
        launch(uniform_slot, Grid(1, 64), [out, x, 40, 15])
        assert (out[:40] == 15.0).all() and (out[40:] == -1.0).all()

    @pytest.mark.parametrize("k", [16, -1])
    def test_uniform_index_out_of_range_raises(self, k):
        x = np.arange(16, dtype=np.float32)
        out = np.zeros(64, dtype=np.float32)
        with pytest.raises(ExecutionError) as err:
            launch(uniform_slot, Grid(1, 64), [out, x, 40, k])
        assert str(err.value) == (
            f"uniform_slot: index into 'x' out of range [{k}, {k}] vs size 16"
        )

    def test_uniform_index_out_of_range_clamps_without_the_check(self):
        x = np.arange(16, dtype=np.float32)
        out = np.zeros(64, dtype=np.float32)
        launch(uniform_slot, Grid(1, 64), [out, x, 40, 99], bounds_check=False)
        assert (out[:40] == 15.0).all()

    def test_shared_arrays_are_per_block(self):
        x = np.arange(96, dtype=np.float32)
        out = np.zeros(96, dtype=np.float32)
        launch(shared_shift, Grid(3, 32), [out, x, 0])
        np.testing.assert_array_equal(out, x)

    def test_shared_index_is_checked_against_the_block_size(self):
        x = np.arange(96, dtype=np.float32)
        out = np.zeros(96, dtype=np.float32)
        with pytest.raises(ExecutionError) as err:
            launch(shared_shift, Grid(3, 32), [out, x, 1])
        assert str(err.value) == (
            "shared_shift: index into 'tile' out of range [1, 32] vs size 32"
        )
        with pytest.raises(ExecutionError, match=r"\[-2, 29\] vs size 32"):
            launch(shared_shift, Grid(3, 32), [out, x, -2])

    def test_shared_index_clamps_inside_its_own_block(self):
        x = np.arange(96, dtype=np.float32)
        out = np.zeros(96, dtype=np.float32)
        launch(shared_shift, Grid(3, 32), [out, x, 1], bounds_check=False)
        want = x.reshape(3, 32)[:, np.minimum(np.arange(32) + 1, 31)].ravel()
        np.testing.assert_array_equal(out, want)
