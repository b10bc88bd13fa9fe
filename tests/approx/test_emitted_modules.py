"""Every IR module the compiler emits is structurally valid.

The transforms build IR programmatically; ``validate_module`` is the
structural oracle that catches a malformed rewrite before the interpreter
or the lowering trips over it.  The modules checked are the ones a variant
really launches, so convsep's row/column pair and cumhist's scan kernels
are covered along with every single-kernel ``ApproxKernel``.
"""

import pytest

from repro import DeviceKind, Paraprox
from repro.apps.registry import APP_CLASSES, make_app
from repro.approx.base import ApproxKernel
from repro.engine import launch_hook
from repro.kernel import validate_module


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
