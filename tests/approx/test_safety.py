"""Tests for the division-guard safety pass (the §5 safety extension)."""

import numpy as np
import pytest

from repro.apps.registry import APP_CLASSES, make_app
from repro.approx.safety import guard_divisions
from repro.engine import Grid, launch
from repro.kernel import ir, kernel, validate_module
from repro.kernel.dsl import *  # noqa: F401,F403
from repro.kernel.printer import print_function
from repro.kernel.visitors import walk


@kernel
def divide_kernel(out: array_f32, num: array_f32, den: array_f32, n: i32):
    i = global_id()
    if i < n:
        out[i] = num[i] / den[i]


@kernel
def safe_divide_kernel(out: array_f32, x: array_f32, n: i32):
    i = global_id()
    if i < n:
        out[i] = x[i] / 4.0  # constant divisor: no guard needed
        out[i] = out[i] / exp(x[i])  # exp is provably positive


class TestGuardInsertion:
    def test_unsafe_division_guarded(self):
        module, guards = guard_divisions(divide_kernel)
        assert guards == 1
        validate_module(module)
        selects = [n for n in walk(module["divide_kernel"]) if isinstance(n, ir.Select)]
        assert len(selects) == 1
        assert "!= 0.0f" in print_function(module["divide_kernel"])

    def test_provably_safe_divisions_untouched(self):
        module, guards = guard_divisions(safe_divide_kernel)
        assert guards == 0

    def test_idempotent(self):
        once, n1 = guard_divisions(divide_kernel)
        twice, n2 = guard_divisions(once, "divide_kernel")
        selects = [n for n in walk(twice["divide_kernel"]) if isinstance(n, ir.Select)]
        assert len(selects) == 1  # no double guards

    def test_integer_division_guarded_too(self):
        @kernel
        def int_div(out: array_i32, a: array_i32, b: array_i32, n: i32):
            i = global_id()
            if i < n:
                out[i] = a[i] / b[i]

        _module, guards = guard_divisions(int_div)
        assert guards == 1

    def test_a_module_needs_its_kernel_name(self):
        with pytest.raises(TypeError, match="kernel_name"):
            guard_divisions(divide_kernel.module)


class TestGuardedSemantics:
    def test_zero_divisor_skips_instead_of_inf(self):
        module, _g = guard_divisions(divide_kernel)
        num = np.array([1.0, 2.0, 3.0, 4.0], dtype=np.float32)
        den = np.array([2.0, 0.0, 4.0, 0.0], dtype=np.float32)
        out = np.full(4, -1.0, dtype=np.float32)
        launch(module["divide_kernel"], Grid(1, 4), [out, num, den, 4], module=module)
        np.testing.assert_allclose(out, [0.5, 0.0, 0.75, 0.0])
        assert np.isfinite(out).all()

    def test_nonzero_divisors_unchanged(self):
        module, _g = guard_divisions(divide_kernel)
        num = np.arange(1, 9, dtype=np.float32)
        den = np.arange(1, 9, dtype=np.float32) * 2
        guarded = np.zeros(8, dtype=np.float32)
        plain = np.zeros(8, dtype=np.float32)
        launch(module["divide_kernel"], Grid(1, 8), [guarded, num, den, 8], module=module)
        launch(divide_kernel, Grid(1, 8), [plain, num, den, 8])
        np.testing.assert_array_equal(guarded, plain)


class TestCompilerIntegration:
    def test_guards_applied_to_generated_variants(self):
        from repro import DeviceKind, Paraprox, ParaproxConfig
        from repro.apps.blackscholes import BlackScholesApp

        px = Paraprox(
            target_quality=0.90, config=ParaproxConfig(guard_divisions=True)
        )
        app = BlackScholesApp(scale=0.01)
        variants = px.compile(app, DeviceKind.GPU)
        assert variants
        assert all("division_guards" in v.knobs for v in variants)
        # the memoized kernel still runs and meets TOQ with guards in place
        result = px.optimize(app, DeviceKind.GPU, variants=variants)
        assert result.quality >= 0.90


class TestGuardsOnlyWhatRuns:
    """A guard counts only if it sits where the variant's kernel runs: in
    the kernel or a device function it reaches.  Memoized variants no
    longer call the function they tabulated, so guarding it changed
    nothing but the count."""

    @pytest.mark.parametrize("name", sorted(APP_CLASSES))
    def test_division_guards_count_exactly_the_guards_that_change_the_kernel(
        self, name
    ):
        from repro import DeviceKind, Paraprox, ParaproxConfig
        from repro.parallel.profiler import variant_identity

        plain = Paraprox(target_quality=0.9).compile(
            make_app(name, seed=0), DeviceKind.GPU
        )
        guarded = Paraprox(
            target_quality=0.9, config=ParaproxConfig(guard_divisions=True)
        ).compile(make_app(name, seed=0), DeviceKind.GPU)
        assert [v.name for v in plain] == [v.name for v in guarded]
        for before, after in zip(plain, guarded):
            if "division_guards" not in after.knobs:
                continue  # a pipeline variant: no module of its own to guard
            changed = variant_identity(before) != variant_identity(after)
            assert (after.knobs["division_guards"] > 0) == changed, after.name
