"""Cross-launch fusion: learn/defer/fuse protocol and the elision contract.

Fusion is opt-in (``LaunchOptions(fuse=True)``) and must (a) never change
any *output* byte, (b) genuinely elide writes to the caller's
intermediate array on fused pairs, and (c) degrade to plain sequential
launches at every window boundary (mismatch, interp launch, ladder rung,
explicit flush).
"""

import numpy as np
import pytest

import kernel_zoo as zoo
import repro
from repro.apps.convsep import (
    ConvolutionSeparableApp,
    conv_col_kernel,
    conv_row_kernel,
    gaussian_taps,
)
from repro.engine import Grid, LaunchOptions, launch
from repro.engine import fusion
from repro.errors import ConfigError


@pytest.fixture(autouse=True)
def _clean_window():
    fusion.reset()
    yield
    fusion.reset()


def _chain(n=512, fuse=False, sentinel=np.float32(-3.0)):
    """square_map twice: out = x**4 through an intermediate tmp."""
    x = np.random.default_rng(7).random(n, dtype=np.float32)
    tmp = np.full(n, sentinel, np.float32)
    out = np.zeros(n, np.float32)
    grid = Grid.for_elements(n)
    with repro.options(backend="codegen", fuse=fuse):
        launch(zoo.square_map, grid, [tmp, x, np.int32(n)])
        launch(zoo.square_map, grid, [out, tmp, np.int32(n)])
    fusion.flush()
    return x, tmp, out


class TestProtocol:
    def test_first_pair_learns_second_pair_fuses(self):
        baseline = fusion.stats_snapshot()
        _x, _tmp, out1 = _chain(fuse=True)  # learns (runs normally)
        _x, tmp2, out2 = _chain(fuse=True)  # defers + fuses
        stats = fusion.stats_snapshot()
        assert stats["plans_learned"] == baseline["plans_learned"] + 1
        assert stats["fused_runs"] == baseline["fused_runs"] + 1
        assert out1.tobytes() == out2.tobytes()
        # The fused pair never wrote the caller's intermediate.
        assert np.all(tmp2 == np.float32(-3.0))

    def test_fused_outputs_match_unfused_bit_exactly(self):
        _x, tmp_plain, out_plain = _chain(fuse=False)
        _chain(fuse=True)  # learn
        _x, _tmp, out_fused = _chain(fuse=True)
        assert out_fused.tobytes() == out_plain.tobytes()
        assert not np.all(tmp_plain == np.float32(-3.0))  # unfused writes tmp

    def test_fuse_off_never_engages(self):
        baseline = fusion.stats_snapshot()
        _chain(fuse=False)
        _chain(fuse=False)
        stats = fusion.stats_snapshot()
        assert stats["plans_learned"] == baseline["plans_learned"]
        assert stats["deferred"] == baseline["deferred"]

    def test_mismatched_consumer_flushes_producer(self):
        n = 256
        x = np.random.default_rng(1).random(n, dtype=np.float32)
        tmp = np.full(n, np.float32(-3.0), np.float32)
        out = np.zeros(n, np.float32)
        grid = Grid.for_elements(n)
        with repro.options(backend="codegen", fuse=True):
            # learn the plan
            launch(zoo.square_map, grid, [tmp, x, np.int32(n)])
            launch(zoo.square_map, grid, [out, tmp, np.int32(n)])
            tmp[:] = np.float32(-3.0)
            baseline = fusion.stats_snapshot()
            launch(zoo.square_map, grid, [tmp, x, np.int32(n)])  # deferred
            assert np.all(tmp == np.float32(-3.0))  # not yet run
            # unrelated kernel: not the consumer -> producer must flush
            launch(zoo.noop, grid, [np.zeros(n, np.float32), x, np.int32(n)])
        stats = fusion.stats_snapshot()
        assert stats["flushes"] == baseline["flushes"] + 1
        np.testing.assert_array_equal(tmp, x * x)

    def test_interp_launch_is_a_window_boundary(self):
        n = 256
        x = np.random.default_rng(2).random(n, dtype=np.float32)
        tmp = np.full(n, np.float32(-3.0), np.float32)
        grid = Grid.for_elements(n)
        with repro.options(backend="codegen", fuse=True):
            launch(zoo.square_map, grid, [tmp, x, np.int32(n)])
            launch(zoo.square_map, grid, [np.zeros(n, np.float32), tmp, np.int32(n)])
            tmp[:] = np.float32(-3.0)
            launch(zoo.square_map, grid, [tmp, x, np.int32(n)])  # deferred
        with repro.options(backend="interp"):
            launch(zoo.noop, grid, [np.zeros(n, np.float32), x, np.int32(n)])
        np.testing.assert_array_equal(tmp, x * x)  # flushed by the interp launch

    def test_explicit_flush_is_idempotent(self):
        fusion.flush()
        fusion.flush()
        assert fusion.plan_count() == 0


class TestEligibility:
    def test_grid_mismatch_does_not_learn(self):
        n = 256
        x = np.random.default_rng(3).random(n, dtype=np.float32)
        tmp = np.zeros(n, np.float32)
        with repro.options(backend="codegen", fuse=True):
            launch(zoo.square_map, Grid.for_elements(n), [tmp, x, np.int32(n)])
            launch(
                zoo.square_map,
                Grid(blocks=2, threads_per_block=128),
                [np.zeros(n, np.float32), tmp, np.int32(n)],
            )
        # Same element count but different grids: Grid equality decides.
        assert fusion.plan_count() == 0

    def test_unrelated_launches_do_not_learn(self):
        n = 256
        x = np.random.default_rng(4).random(n, dtype=np.float32)
        grid = Grid.for_elements(n)
        with repro.options(backend="codegen", fuse=True):
            launch(zoo.square_map, grid, [np.zeros(n, np.float32), x, np.int32(n)])
            launch(zoo.square_map, grid, [np.zeros(n, np.float32), x, np.int32(n)])
        assert fusion.plan_count() == 0

    def test_options_fuse_field_is_validated(self):
        with pytest.raises(ConfigError):
            LaunchOptions(fuse="yes")
        assert LaunchOptions(fuse=True).fuse is True
        assert LaunchOptions().fuse is None


class Test2DAndSharded:
    def _run_2d(self, fuse, workers=None):
        w = h = 48
        img = np.random.default_rng(5).random((h, w)).astype(np.float32)
        mid = np.full(h * w, np.float32(-9.0), np.float32)
        out = np.zeros(h * w, np.float32)
        grid = Grid.for_image(w, h, tx=16, ty=16)
        opts = {"backend": "codegen", "fuse": fuse}
        if workers is not None:
            opts["parallel"] = workers
            opts["min_shard_threads"] = 1
        with repro.options(**opts):
            for _ in range(2):  # first pair learns, second fuses
                launch(
                    zoo.tile_scale2d,
                    grid,
                    [mid, img.reshape(-1), np.int32(w), np.int32(h), np.float32(2.0)],
                )
                launch(
                    zoo.tile_scale2d,
                    grid,
                    [out, mid, np.int32(w), np.int32(h), np.float32(0.5)],
                )
                if fuse:
                    mid[:] = np.float32(-9.0)
        fusion.flush()
        return mid, out

    def test_2d_grid_pair_fuses_bit_exactly(self):
        _mid, out_plain = self._run_2d(fuse=False)
        baseline = fusion.stats_snapshot()
        mid, out_fused = self._run_2d(fuse=True)
        stats = fusion.stats_snapshot()
        assert stats["fused_runs"] == baseline["fused_runs"] + 1
        assert out_fused.tobytes() == out_plain.tobytes()
        assert np.all(mid == np.float32(-9.0))

    def test_sharded_fused_pair_bit_exact(self):
        _mid, out_plain = self._run_2d(fuse=False)
        baseline = fusion.stats_snapshot()
        mid, out_fused = self._run_2d(fuse=True, workers=2)
        stats = fusion.stats_snapshot()
        assert stats["fused_runs"] == baseline["fused_runs"] + 1
        assert out_fused.tobytes() == out_plain.tobytes()
        assert np.all(mid == np.float32(-9.0))


class TestConvSep:
    """The acceptance pipeline: ConvSep's row->col pair with tmp elided."""

    def _run(self, fuse):
        app = ConvolutionSeparableApp(scale=0.01, seed=0)
        img = app.generate_inputs()["img"].astype(np.float32)
        h, w = img.shape
        taps = gaussian_taps()
        grid = Grid.for_elements(h * w)
        src = img.reshape(-1).copy()
        tmp = np.full(h * w, np.float32(-7.0), np.float32)
        out = np.zeros(h * w, np.float32)
        with repro.options(backend="codegen", fuse=fuse):
            for _ in range(2):
                launch(conv_row_kernel, grid, [tmp, src, taps, np.int32(w), np.int32(h)])
                launch(conv_col_kernel, grid, [out, tmp, taps, np.int32(w), np.int32(h)])
                if fuse:
                    tmp[:] = np.float32(-7.0)
        fusion.flush()
        return tmp, out

    def test_intermediate_elided_outputs_exact(self):
        _tmp, out_plain = self._run(fuse=False)
        tmp, out_fused = self._run(fuse=True)
        assert out_fused.tobytes() == out_plain.tobytes()
        assert np.all(tmp == np.float32(-7.0))


class TestServeIntegration:
    def test_session_metrics_expose_fusion_block(self):
        from repro.serve import ApproxSession

        app = ConvolutionSeparableApp(scale=0.01, seed=0)
        with ApproxSession(app, target_quality=0.9) as session:
            session.launch(app.generate_inputs())
            snapshot = session.metrics_snapshot()
        block = snapshot["codegen"]["fusion"]
        assert set(block) == {
            "plans_learned", "deferred", "fused_runs", "elided_writes", "flushes",
        }

    def test_session_metrics_expose_variant_lowerings(self):
        from repro.serve import ApproxSession

        app = ConvolutionSeparableApp(scale=0.01, seed=0)
        with ApproxSession(app, target_quality=0.9) as session:
            session.launch(app.generate_inputs())
            snapshot = session.metrics_snapshot()
        variants = snapshot["codegen"]["variants"]
        assert variants  # the compiled ladder surfaces its lowering outcomes
        for entry in variants.values():
            assert entry["mode"] in ("codegen", "interpreter")
