"""The lowering's specializations stay bit-exact and observable.

The emitter elides identity casts and hands launch-invariant addressing to
address plans — the same way for every kernel, exact or carrying
:class:`~repro.approx.base.ApproxMeta` (the lowering reads nothing from
the tag), and never in a way the conformance runner can distinguish from
the interpreter.
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
    lower_kernel,
    stats_snapshot,
)
from repro.codegen.cache import _CACHE, get_compiled
from repro.conformance import Cell, app_subject, check, kernel_subject, sweep_variants
from repro.engine import Grid
from repro.engine.launch import resolve_kernel, resolve_module
from repro.kernel import kernel
from repro.kernel.dsl import *  # noqa: F401,F403
from repro.kernel.visitors import Transformer, clone


@kernel
def _const_chain(out: array_i32, x: array_i32, n: i32):
    gid = global_id()
    if gid < n:
        # 3 constant adds around one variable term, evaluated as written:
        # the int32 chain wraps at every step, like the interpreter's.
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


def _strip_name(source, fn):
    return source.replace(fn.name, "K")


class TestOneLowering:
    def test_tagged_and_untagged_lower_to_the_same_source(self):
        fn = resolve_kernel(_const_chain)
        tagged, mod = _tagged(_const_chain)
        tagged.name = "tagged_clone"
        plain_src, _, _, plain_info = lower_kernel(fn, mod)
        tagged_src, _, _, tagged_info = lower_kernel(tagged, mod)
        assert _strip_name(plain_src, fn) == _strip_name(tagged_src, tagged)
        assert plain_info == tagged_info
        assert classify_lowering(tagged, mod) == classify_lowering(fn, mod)
        # A memoized variant's tag names its lookup table; its load still
        # lowers like any other global load.
        app = make_app("blackscholes", seed=0)
        memo = next(
            v for v in Paraprox(target_quality=0.9).compile(app) if "memo" in v.name
        )
        tagged = memo.module[memo.kernel]
        assert tagged.approx.tables
        untagged = Transformer().transform_function(tagged)  # drops the tag
        assert getattr(untagged, "approx", None) is None
        tagged_src, _, _, tagged_info = lower_kernel(tagged, memo.module)
        untagged_src, _, _, untagged_info = lower_kernel(untagged, memo.module)
        assert tagged_src == untagged_src
        assert tagged_info == untagged_info
        assert "rt.load_global(v___memo_" in tagged_src

    def test_cache_keys_have_no_mode_axis(self):
        clear_cache()
        tagged, mod = _tagged(_const_chain)
        grid = Grid.for_elements(64)
        get_compiled(resolve_kernel(_const_chain), mod, grid)
        get_compiled(tagged, mod, grid)
        # Two entries because the approx tag is part of the fingerprint.
        assert len(_CACHE) == 2
        for key in _CACHE:
            fingerprint, grid_class, bounds_check = key
            assert (grid_class, bounds_check) == ("1d", True)

    def test_bit_exact_against_the_interpreter(self):
        rng = np.random.default_rng(0)
        x = rng.integers(-(2**30), 2**30, 128, dtype=np.int32)
        args = [np.zeros(128, np.int32), x, np.int32(128)]
        tagged, mod = _tagged(_const_chain)
        for subject in (
            kernel_subject(_const_chain, Grid.for_elements(128), args),
            kernel_subject(tagged, Grid.for_elements(128), args, module=mod),
        ):
            clear_cache()
            result = check(subject, Cell(backend="codegen"))
            assert result.status == "ok", result.describe()

    def test_specialization_counters_move(self):
        clear_cache()
        before = stats_snapshot()
        get_compiled(
            resolve_kernel(_const_chain),
            resolve_module(_const_chain, None),
            Grid.for_elements(32),
        )
        after = stats_snapshot()
        assert after["compiles"] == before["compiles"] + 1
        assert after["cast_elisions"] > before["cast_elisions"]
        assert after["planned_sites"] > before["planned_sites"]


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
        assert "-> codegen (" in text

    def test_lowering_outcomes_cover_every_variant(self, variants):
        outcomes = variants.lowering_outcomes()
        assert set(outcomes) == {v.name for v in variants}
        for entry in outcomes.values():
            assert entry["mode"] in ("codegen", "interpreter")
            assert entry["detail"]

    def test_variant_lowering_matches_compiled_kernel(self, variants):
        v = next(iter(variants))
        mode, _detail = variant_lowering(v)
        assert mode == "codegen"


class TestDifferential:
    def test_gaussian_variants_bit_exact(self):
        app = make_app("gaussian", seed=0)
        variants = Paraprox(target_quality=0.9).compile(app)
        for v in variants:
            result = check(app_subject(app, v), Cell(backend="codegen"), contract="variant")
            assert result.status == "ok", result.describe()

    def test_runner_sweeps_every_variant_lane(self):
        app = make_app("gamma", seed=0)
        results = list(sweep_variants(app))
        variants = Paraprox(target_quality=0.9).compile(app)
        assert {r.subject for r in results} == {f"{app.name}:{v.name}" for v in variants}
        assert all(r.status == "ok" for r in results), [
            r.describe() for r in results if r.status != "ok"
        ]
