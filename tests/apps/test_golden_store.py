"""The input key and the golden-output store behind the sampled check.

The key means "these bytes, read in C order, as this dtype and shape" —
whatever the array's memory layout — and the store keeps the exact
program's own output, read-only, instead of a copy of it.
"""

import numpy as np
import pytest

from repro.apps.base import _input_fingerprint
from repro.apps.gaussian import GaussianFilterApp


def key(value, **others):
    return _input_fingerprint({"x": value, **others})


@pytest.fixture
def grid():
    return np.arange(48, dtype=np.float32).reshape(6, 8) * np.float32(0.25)


class TestInputKey:
    def test_equal_content_gives_one_key_in_every_layout(self, grid):
        fortran = np.asfortranarray(grid)
        assert fortran.flags.f_contiguous and not fortran.flags.c_contiguous
        wide = np.zeros((6, 16), dtype=np.float32)
        wide[:, ::2] = grid
        strided = wide[:, ::2]
        assert not strided.flags.c_contiguous
        assert key(fortran) == key(strided) == key(grid)

    def test_a_transposed_view_is_its_own_content(self, grid):
        assert key(grid.T) == key(np.ascontiguousarray(grid.T))
        assert key(grid.T) != key(grid)

    def test_one_flipped_bit_changes_the_key(self, grid):
        flipped = grid.copy()
        flipped.view(np.uint32)[3, 5] ^= np.uint32(1)
        assert key(flipped) != key(grid)

    def test_same_bytes_as_another_dtype_is_another_key(self, grid):
        assert key(grid.view(np.int32)) != key(grid)

    def test_same_bytes_in_another_shape_is_another_key(self, grid):
        assert key(grid.reshape(8, 6)) != key(grid)
        assert key(grid.reshape(-1)) != key(grid)

    def test_hashing_leaves_the_input_alone(self, grid):
        before = grid.copy()
        key(grid)
        key(np.asfortranarray(grid))
        assert grid.flags.writeable
        np.testing.assert_array_equal(grid, before)


class TestGoldenStore:
    @pytest.fixture
    def app(self):
        return GaussianFilterApp(scale=0.05)

    def test_the_stored_golden_is_the_exact_run_and_read_only(self, app):
        inputs = app.generate_inputs(seed=1)
        returned = []

        def run_exact(fresh):
            out, trace = app.run_exact(fresh)
            returned.append(out)
            return out, trace

        golden = app.golden_output(inputs, run_exact)
        assert golden is returned[0]  # kept, not copied
        assert not golden.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            golden[0, 0] = 1.0
        assert app.golden_output(inputs, run_exact) is golden
        assert len(returned) == 1

    def test_a_view_returned_by_run_exact_is_copied(self, app):
        inputs = app.generate_inputs(seed=1)
        backing = []

        def run_exact(fresh):
            out, trace = app.run_exact(fresh)
            base = np.zeros((2,) + out.shape, dtype=out.dtype)
            base[0] = out
            backing.append(base)
            return base[0], trace

        golden = app.golden_output(inputs, run_exact)
        expected = backing[0][0].copy()
        assert golden.flags.owndata and not golden.flags.writeable
        backing[0][0] = -1.0  # whoever owns the base may write it later
        np.testing.assert_array_equal(golden, expected)
        assert backing[0].flags.writeable  # the base itself is untouched
