"""Every IR module the compiler emits is structurally valid.

The transforms build IR programmatically; ``validate_module`` is the
structural oracle that catches a malformed rewrite before the interpreter
or the lowering trips over it, and ``Paraprox.compile`` runs it on every
rewritten module.  The modules checked are the ones a variant
really launches, so convsep's row/column pair and cumhist's scan kernels
are covered along with every single-kernel ``ApproxKernel``.
"""

import copy
from dataclasses import replace

import pytest

from repro import DeviceKind, Paraprox
from repro.apps.registry import APP_CLASSES, make_app
from repro.approx.base import ApproxKernel
from repro.approx.memoization import MemoizationTransform
from repro.approx.reduction import ReductionTransform
from repro.approx.stencil import StencilTransform
from repro.engine import launch_hook
from repro.errors import ValidationError
from repro.kernel import ir, validate_module
from repro.kernel.types import I32


@pytest.mark.parametrize("device", [DeviceKind.GPU, DeviceKind.CPU], ids=["gpu", "cpu"])
@pytest.mark.parametrize("name", list(APP_CLASSES))
def test_every_launched_variant_module_validates(name, device):
    app = make_app(name, seed=0)
    variants = Paraprox(target_quality=0.9, device=device).compile(app)
    assert len(variants) >= 1
    inputs = app.generate_inputs(seed=0)
    modules = {}
    for variant in variants:
        launched = []
        with launch_hook(launched.append):
            app.run_variant(variant, inputs)
        assert launched, f"{variant.name} launched no kernel"
        for event in launched:
            modules[id(event.module)] = event.module
        if isinstance(variant, ApproxKernel):
            assert id(variant.module) in modules, variant.name
    for module in modules.values():
        validate_module(module)


#: An app each transform's rewrites reach ``compile`` through.
MALFORMED_VIA = {
    "gaussian": StencilTransform,
    "convsep": StencilTransform,
    "gamma": MemoizationTransform,
    "kde": ReductionTransform,
}


@pytest.mark.parametrize("name", list(MALFORMED_VIA))
def test_a_malformed_rewrite_raises_at_compile(name, monkeypatch):
    """gaussian's stencil, gamma's memoization and kde's reduction variants
    come from ``_apply_match``, convsep's row/column pairs from its own
    ``build_variants``: all are checked."""
    transform = MALFORMED_VIA[name]
    generate = transform.generate

    def malformed(self, module, kernel_name, match, *rest):
        variants = []
        for variant in generate(self, module, kernel_name, match, *rest):
            broken = copy.deepcopy(variant.module)
            broken[variant.kernel].body.append(ir.Assign("x", ir.Var("ghost", I32)))
            variants.append(replace(variant, module=broken))
        return variants

    monkeypatch.setattr(transform, "generate", malformed)
    with pytest.raises(ValidationError, match="undefined variable 'ghost'"):
        Paraprox(target_quality=0.9).compile(make_app(name, seed=0))
