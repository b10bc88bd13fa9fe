"""The ``exact`` contract: every backend and executor agrees with the
interpreter bit-for-bit.

Parametrized over every registered application (its whole fault-free
row of conformance cells) plus zoo kernels covering
the semantics corners: divergent control flow with early returns, device
functions with multiple returns, 2-D grids, shared memory + barriers,
atomics, uniform loops, and both branches of the compiled kernels' index
resolution (all lanes in range; dead lanes outside the array).
"""

import numpy as np
import pytest

import kernel_zoo as zoo
from repro.apps.registry import APP_CLASSES, make_app
from repro.conformance import (
    Cell,
    check,
    compare,
    kernel_subject,
    run_cell,
    sweep_pipeline,
)
from repro.engine import Grid


@pytest.mark.parametrize("name", sorted(APP_CLASSES))
def test_app_bit_exact_across_backends(name):
    app = make_app(name, seed=0)
    results = list(sweep_pipeline(app, seeds=(), contracts=("exact",)))
    assert Cell(backend="codegen") in [r.cell for r in results]
    for result in results:
        assert result.status == "ok", result.describe()


def _rand(n, seed=0):
    return np.random.default_rng(seed).random(n, dtype=np.float32)


ZOO_CASES = {
    "black_scholes": lambda n: (
        zoo.black_scholes,
        Grid.for_elements(n),
        [
            np.zeros(n, np.float32),
            _rand(n, 1) * 100 + 1,
            _rand(n, 2) * 100 + 1,
            _rand(n, 3) + 0.1,
            0.02,
            0.3,
            n,
        ],
    ),
    "square_map": lambda n: (
        zoo.square_map,
        Grid.for_elements(n),
        [np.zeros(n, np.float32), _rand(n), n],
    ),
    "clamp_map": lambda n: (
        # device function with multiple divergent returns
        zoo.clamp_map,
        Grid.for_elements(n),
        [np.zeros(n, np.float32), _rand(n) * 2 - 0.5, n],
    ),
    "divergent_return": lambda n: (
        # kernel-level early returns deactivate lanes at different points
        zoo.divergent_return,
        Grid.for_elements(n),
        [np.zeros(n, np.float32), _rand(n), n],
    ),
    "tile_scale2d": lambda n: (
        # true 2-D grid through the x/y intrinsic pairs
        zoo.tile_scale2d,
        Grid.for_image(50, 30),
        [np.zeros(1500, np.float32), _rand(1500), 50, 30, 1.7],
    ),
    "mean3x3": lambda n: (
        zoo.mean3x3,
        Grid.for_image(32, 24),
        [np.zeros(32 * 24, np.float32), _rand(32 * 24), 32, 24],
    ),
    "row_stencil": lambda n: (
        zoo.row_stencil,
        Grid.for_elements(n),
        [np.zeros(n, np.float32), _rand(n), n],
    ),
    "sum_chunks": lambda n: (
        # uniform for-loop over chunks
        zoo.sum_chunks,
        Grid.for_elements(n // 4),
        [np.zeros(n // 4, np.float32), _rand(n), n, 4],
    ),
    "atomic_histogram": lambda n: (
        zoo.atomic_histogram,
        Grid.for_elements(n),
        [
            np.zeros(16, np.int32),
            np.random.default_rng(4).integers(0, 16, n).astype(np.int32),
            n,
            1,
        ],
    ),
    "min_reduce": lambda n: (
        zoo.min_reduce,
        Grid.for_elements(2),
        [np.full(2, 3.4e38, np.float32), _rand(8192, 5), 8192, 4096],
    ),
    "scan_phase1": lambda n: (
        # shared memory + barriers + guarded-load ternary
        zoo.scan_phase1,
        Grid(4, zoo.SCAN_BLOCK),
        [
            np.zeros(4 * zoo.SCAN_BLOCK, np.float32),
            np.zeros(4, np.float32),
            _rand(4 * zoo.SCAN_BLOCK, 6),
        ],
    ),
    "gather_expensive": lambda n: (
        zoo.gather_expensive,
        Grid.for_elements(n),
        [
            np.zeros(n, np.float32),
            _rand(n, 7) * 50 + 1,
            np.random.default_rng(8).integers(0, n, n).astype(np.int32),
            n,
        ],
    ),
    # both outcomes of the compiled kernels' index resolution, + int64 indices
    **zoo.ACCESS_CASES,
}


@pytest.mark.parametrize("name", sorted(ZOO_CASES))
def test_zoo_kernel_bit_exact_across_backends(name):
    kernel, grid, args = ZOO_CASES[name](1000)
    result = check(kernel_subject(kernel, grid, args), Cell(backend="codegen"))
    assert result.status == "ok", result.describe()


def test_live_out_of_range_lane_raises_the_same_text_on_both_backends():
    """``border_stencil`` minus its predicate: the index that merely clamps
    there must raise here, and the compiled kernel must say what the
    interpreter says."""
    subject = kernel_subject(*zoo.border_case(zoo.border_stencil_unguarded, 1024))
    interp = run_cell(subject, Cell(backend="interp")).error
    assert "index into 'x' out of range [-1, 1022] vs size 1024" in interp
    assert run_cell(subject, Cell(backend="codegen")).error == interp


def test_diff_kernel_reports_divergence_readably():
    # Feed deliberately different kernels through the comparator helper to
    # make sure a real divergence would be reported, not masked.
    a = np.arange(4, dtype=np.float32)
    b = a.copy()
    b[2] = 7.0
    note = compare([a], [b])
    assert note is not None and "element 2" in note
    assert compare([a], [a.copy()]) is None


def test_approx_variants_bit_exact_across_backends():
    """Generated *approximate* variants must also lower identically —
    the serving hot path runs variants, not the exact kernel."""
    from repro.approx.compiler import Paraprox
    from repro import options

    app = make_app("meanfilter", seed=0)
    variants = Paraprox(target_quality=0.5).compile(app)
    assert len(variants) > 0
    inputs = app.generate_inputs(seed=1)
    for variant in list(variants)[:4]:
        outs = {}
        for backend in ("interp", "codegen"):
            with options(backend=backend):
                out, _trace = app.run_variant(variant, inputs)
            outs[backend] = np.asarray(out)
        assert outs["interp"].tobytes() == outs["codegen"].tobytes(), (
            f"variant {getattr(variant, 'name', variant)!r} diverges"
        )
