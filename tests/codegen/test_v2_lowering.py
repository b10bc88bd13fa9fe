"""Codegen v2: approx-specialized lowering stays bit-exact and observable.

The v2 emitter may fold constants, reassociate integer chains, elide
identity casts and lower proven-in-range LUT loads as gathers — but only
for kernels carrying :class:`~repro.approx.base.ApproxMeta`, and never in
a way the differential harness can distinguish from the interpreter.
"""

import numpy as np
import pytest

from repro.approx.base import ApproxMeta, tag_approx, variant_lowering
from repro.approx.compiler import Paraprox
from repro.apps.registry import make_app
from repro.codegen import (
    classify_lowering,
    clear_cache,
    fingerprint_kernel,
    lower_kernel_ex,
    stats_snapshot,
)
from repro.codegen.cache import _CACHE, get_compiled
from repro.conformance import Cell, app_subject, check, sweep_variants
from repro.engine import Grid
from repro.engine.launch import resolve_kernel, resolve_module
from repro.kernel import kernel
from repro.kernel.dsl import *  # noqa: F401,F403
from repro.kernel.visitors import clone


@kernel
def _const_chain(out: array_i32, x: array_i32, n: i32):
    gid = global_id()
    if gid < n:
        # 3 constant adds around one variable term: v2 reassociates the
        # int32 chain into (x + const); v1 must leave the tree alone.
        out[gid] = 1 + x[gid] + 2 + 3


def _tagged(fn_kernel, transform="test", knobs=None, tables=()):
    """A clone of the kernel tagged as an approximate variant."""
    fn = resolve_kernel(fn_kernel)
    mod = resolve_module(fn_kernel, None)
    tagged = clone(fn)
    meta = ApproxMeta(
        transform=transform,
        knobs=ApproxMeta.knob_tuple(knobs if knobs is not None else {"k": 1}),
        tables=tuple(tables),
    )
    tag_approx(tagged, meta)
    return tagged, mod


class TestModeSelection:
    def test_untagged_kernels_stay_v1(self):
        fn = resolve_kernel(_const_chain)
        mod = resolve_module(_const_chain, None)
        mode, detail = classify_lowering(fn, mod)
        assert mode == "codegen-v1"
        assert "no approx metadata" in detail

    def test_tagged_kernels_take_v2(self):
        tagged, mod = _tagged(_const_chain)
        mode, detail = classify_lowering(tagged, mod)
        assert mode == "codegen-v2"
        assert "reassociated" in detail

    def test_cache_keys_separate_modes(self):
        clear_cache()
        tagged, mod = _tagged(_const_chain)
        grid = Grid.for_elements(64)
        get_compiled(resolve_kernel(_const_chain), mod, grid)
        get_compiled(tagged, mod, grid)
        modes = {key[3] for key in _CACHE}
        assert modes == {"v1", "v2"}


class TestFoldAndReassociate:
    def test_v1_source_keeps_constants_v2_folds_them(self):
        fn = resolve_kernel(_const_chain)
        mod = resolve_module(_const_chain, None)
        tagged, _ = _tagged(_const_chain)
        v1_src, _, _, v1_info = lower_kernel_ex(fn, mod, True, "v1")
        v2_src, _, _, v2_info = lower_kernel_ex(tagged, mod, True, "v2")
        assert v1_info == {
            "folded": 0, "reassociated": 0, "table_gathers": 0, "cast_elisions": 0,
        }
        assert v2_info["reassociated"] >= 1
        # The reassociated chain collapses 1+2+3 into one trailing
        # constant: two of the three adds disappear from the source.
        assert v2_src.count("np.add") < v1_src.count("np.add")

    def test_v2_is_bit_exact_against_v1(self):
        mod = resolve_module(_const_chain, None)
        tagged, _ = _tagged(_const_chain)
        grid = Grid.for_elements(128)
        rng = np.random.default_rng(0)
        x = rng.integers(-(2**30), 2**30, 128, dtype=np.int32)
        outs = {}
        for mode, fn in (("v1", resolve_kernel(_const_chain)), ("v2", tagged)):
            clear_cache()
            compiled = get_compiled(fn, mod, grid)
            assert compiled.lowering == f"codegen-{mode}"
            out = np.zeros(128, np.int32)
            compiled.run(grid, {"out": out, "x": x.copy(), "n": np.int32(128)})
            outs[mode] = out
        assert outs["v1"].tobytes() == outs["v2"].tobytes()

    def test_v2_stats_counters_move(self):
        clear_cache()
        before = stats_snapshot()
        tagged, mod = _tagged(_const_chain)
        get_compiled(tagged, mod, Grid.for_elements(32))
        after = stats_snapshot()
        assert after["v2_compiles"] == before["v2_compiles"] + 1
        assert after["v2_folds"] > before["v2_folds"]


class TestFingerprint:
    def test_knob_values_split_fingerprints(self):
        fn = resolve_kernel(_const_chain)
        mod = resolve_module(_const_chain, None)
        a, _ = _tagged(_const_chain, transform="memoization", knobs={"bits": 8})
        b, _ = _tagged(_const_chain, transform="memoization", knobs={"bits": 6})
        assert fingerprint_kernel(a, mod) != fingerprint_kernel(b, mod)
        assert fingerprint_kernel(a, mod) != fingerprint_kernel(fn, mod)

    def test_meta_is_frozen_into_the_kernel(self):
        tagged, _ = _tagged(_const_chain)
        meta = tagged.approx
        assert isinstance(meta, ApproxMeta)
        assert meta.transform == "test" and meta.knobs == (("k", 1),)


class TestVariantSurface:
    @pytest.fixture(scope="class")
    def variants(self):
        app = make_app("gaussian", seed=0)
        return Paraprox(target_quality=0.9).compile(app)

    def test_describe_includes_lowering_outcome(self, variants):
        text = variants.describe()
        assert "codegen-v2" in text

    def test_lowering_outcomes_cover_every_variant(self, variants):
        outcomes = variants.lowering_outcomes()
        assert set(outcomes) == {v.name for v in variants}
        for entry in outcomes.values():
            assert entry["mode"] in ("codegen-v2", "codegen-v1", "interpreter")
            assert entry["detail"]

    def test_variant_lowering_matches_compiled_kernel(self, variants):
        v = next(iter(variants))
        mode, _detail = variant_lowering(v)
        assert mode == "codegen-v2"


class TestDifferential:
    def test_gaussian_variants_bit_exact(self):
        app = make_app("gaussian", seed=0)
        variants = Paraprox(target_quality=0.9).compile(app)
        for v in variants:
            result = check(app_subject(app, v), Cell(backend="codegen"), contract="variant")
            assert result.status == "ok", result.describe()

    def test_memoized_blackscholes_uses_table_gather(self):
        app = make_app("blackscholes", seed=0)
        variants = Paraprox(target_quality=0.9).compile(app)
        memo = [v for v in variants if "memo" in v.name]
        assert memo, [v.name for v in variants]
        mode, detail = variant_lowering(memo[0])
        assert mode == "codegen-v2"
        assert "table_gathers" in detail
        result = check(app_subject(app, memo[0]), Cell(backend="codegen"), contract="variant")
        assert result.status == "ok", result.describe()

    def test_runner_sweeps_every_variant_lane(self):
        app = make_app("gamma", seed=0)
        results = list(sweep_variants(app))
        variants = Paraprox(target_quality=0.9).compile(app)
        assert {r.subject for r in results} == {f"{app.name}:{v.name}" for v in variants}
        assert all(r.status == "ok" for r in results), [
            r.describe() for r in results if r.status != "ok"
        ]
