"""Shardability classification of every kernel in the zoo and every kernel
the 13 apps launch, and the per-array store rule behind it."""

import pytest

import kernel_zoo as zoo
from repro.analysis.affine import Poly
from repro.analysis.index import build_index_fact, index_fact
from repro.apps.registry import APP_CLASSES, make_app
from repro.apps.scanlib import scan_tail_predict
from repro.approx.compiler import Paraprox
from repro.parallel.analysis import _private, analyze_function, analyze_shardability
from repro.tools import launched_kernels

IN_PLACE = (True, ())  # shardable: its shards write one copy in place


def serial(*reasons):
    return (False, reasons)


def verdict(result):
    """``(shardable, reasons)``."""
    return (result.shardable, tuple(result.reasons))


def overlap(name):
    return f"stores to {name!r} are not proved private and may overlap across blocks"


OVERLAP = overlap("out")
LOADED_Y = "array 'y' is loaded and stored"

#: Every kernel in the zoo with its verdict.  This list is exhaustive on
#: purpose: a new zoo kernel must be classified here or the completeness
#: test fails.
EXPECTED = {
    "black_scholes": IN_PLACE,
    "square_map": IN_PLACE,
    "gather_expensive": IN_PLACE,
    "impure_map": serial("impure builtin 'printf' in impure_fn"),
    "mean3x3": IN_PLACE,
    "row_stencil": IN_PLACE,
    "sum_chunks": IN_PLACE,
    # global atomics need a combine, not a merge
    "atomic_histogram": serial("global atomic_add on 'hist'"),
    "min_reduce": IN_PLACE,
    "scan_phase1": IN_PLACE,  # shared memory + barriers are per-block: fine
    "noop": IN_PLACE,
    "clamp_map": IN_PLACE,
    "divergent_return": IN_PLACE,
    "tile_scale2d": serial(OVERLAP),  # y*w + x: x/y intrinsics times a param
    "tiled_matmul": serial(overlap("c")),  # through / and % of block_id and thread_id
    "border_stencil": IN_PLACE,
    "border_stencil_unguarded": IN_PLACE,  # it raises, in whichever shard
    "transpose_i64": serial(OVERLAP),
    # private stores, but a shard run twice over one copy would apply twice
    "saxpy_inplace": serial(LOADED_Y),  # y[i] loaded and stored through one private index
    "rescale_inplace": serial(LOADED_Y),  # the same, spelled two ways
    "overlapping_thread_stores": serial(OVERLAP),
    "overlapping_block_stores": serial(OVERLAP),
    "block_varying_bound": serial("loop stop for 'k' is not grid-uniform"),
    "uniform_store": serial(OVERLAP),  # every block stores out[n]: the last one wins
    "masked_uniform_store": serial(OVERLAP),  # the same, the last active block
}

#: Every kernel the 13 apps launch (exact program and every variant at TOQ
#: 90 %), by name, with its verdict on the 1-D grids they launch over.
_ATOMICS = serial("global atomic_add on 'class_counts'", "global atomic_add on 'counts'")
APP_KERNELS = {
    "black_scholes_kernel": IN_PLACE,
    "black_scholes_kernel__memo_bs_body_t4096_nearest_global": IN_PLACE,
    "black_scholes_kernel__memo_bs_body_t8192_nearest_global": IN_PLACE,
    "black_scholes_kernel__memo_bs_body_t16384_nearest_global": IN_PLACE,
    "quasirandom_kernel": IN_PLACE,
    "quasirandom_kernel__memo_moro_inv_cnd_t64_nearest_global": IN_PLACE,
    "quasirandom_kernel__memo_moro_inv_cnd_t128_nearest_global": IN_PLACE,
    "quasirandom_kernel__memo_moro_inv_cnd_t256_nearest_global": IN_PLACE,
    "gamma_kernel": IN_PLACE,
    "gamma_kernel__memo_gamma_correct_t8_nearest_global": IN_PLACE,
    "gamma_kernel__memo_gamma_correct_t16_nearest_global": IN_PLACE,
    "gamma_kernel__memo_gamma_correct_t32_nearest_global": IN_PLACE,
    "boxmuller_kernel": IN_PLACE,
    "boxmuller_kernel__memo_box_muller_payoff_t1024_nearest_global": IN_PLACE,
    "boxmuller_kernel__memo_box_muller_payoff_t2048_nearest_global": IN_PLACE,
    "boxmuller_kernel__memo_box_muller_payoff_t4096_nearest_global": IN_PLACE,
    "hotspot_kernel": IN_PLACE,
    "hotspot_kernel__stencil_center_rd1": IN_PLACE,
    "hotspot_kernel__stencil_row_rd1": IN_PLACE,
    "hotspot_kernel__stencil_column_rd1": IN_PLACE,
    "conv_row_kernel": IN_PLACE,
    "conv_col_kernel": IN_PLACE,
    "conv_row_kernel__stencil_column_rd1": IN_PLACE,
    "conv_col_kernel__stencil_row_rd1": IN_PLACE,
    "conv_row_kernel__stencil_column_rd2": IN_PLACE,
    "conv_col_kernel__stencil_row_rd2": IN_PLACE,
    "conv_row_kernel__red_skip2": IN_PLACE,
    "conv_col_kernel__red_skip2": IN_PLACE,
    "conv_row_kernel__red_skip4": IN_PLACE,
    "conv_col_kernel__red_skip4": IN_PLACE,
    "conv_row_kernel__red_skip8": IN_PLACE,
    "conv_col_kernel__red_skip8": IN_PLACE,
    "gaussian_kernel": IN_PLACE,
    "gaussian_kernel__stencil_center_rd1": IN_PLACE,
    "gaussian_kernel__stencil_row_rd1": IN_PLACE,
    "gaussian_kernel__stencil_column_rd1": IN_PLACE,
    "mean_kernel": IN_PLACE,
    "mean_kernel__stencil_center_rd1": IN_PLACE,
    "mean_kernel__stencil_row_rd1": IN_PLACE,
    "mean_kernel__stencil_column_rd1": IN_PLACE,
    # c[row*n + col] with row, col through / and % (docs/PARALLEL.md)
    "matmul_kernel": serial(overlap("c")),
    "matmul_kernel__stencil_center_rd1": serial(overlap("c")),
    "matmul_kernel__stencil_center_rd2": serial(overlap("c")),
    "matmul_kernel__red_skip2": serial(overlap("c")),
    "matmul_kernel__red_skip4": serial(overlap("c")),
    "matmul_kernel__red_skip8": serial(overlap("c")),
    "denoise_kernel": IN_PLACE,
    "denoise_kernel__red_skip2": IN_PLACE,
    "denoise_kernel__red_skip4": IN_PLACE,
    "denoise_kernel__red_skip8": IN_PLACE,
    "naive_bayes_kernel": _ATOMICS,
    "naive_bayes_kernel__red_skip2": _ATOMICS,
    "naive_bayes_kernel__red_skip4": _ATOMICS,
    "naive_bayes_kernel__red_skip8": _ATOMICS,
    "kde_kernel": IN_PLACE,
    "kde_kernel__red_l0_skip2": IN_PLACE,
    "kde_kernel__red_l0_skip4": IN_PLACE,
    "kde_kernel__red_l0_skip8": IN_PLACE,
    "kde_kernel__red_l1_skip2": IN_PLACE,
    "kde_kernel__red_l1_skip4": IN_PLACE,
    "kde_kernel__red_l1_skip8": IN_PLACE,
    "scan_phase1": IN_PLACE,
    # sums_scan[thread_id()]: every block would store the same elements
    "scan_phase2": serial(overlap("sums_scan")),
    "scan_phase3": IN_PLACE,
    # out[(kept + block_id()) * block_dim() + thread_id()]: kept is a param
    "scan_tail_predict": IN_PLACE,
}


def _zoo_kernels():
    return {
        name: obj
        for name, obj in vars(zoo).items()
        if getattr(getattr(obj, "fn", None), "kind", None) == "kernel"
    }


def test_every_zoo_kernel_is_classified():
    assert set(_zoo_kernels()) == set(EXPECTED)


@pytest.mark.parametrize("name", sorted(EXPECTED))
def test_zoo_classification(name):
    k = _zoo_kernels()[name]
    assert verdict(analyze_shardability(k.fn, k.module)) == EXPECTED[name]


@pytest.fixture(scope="module")
def app_kernels():
    """``{kernel name: its first launch}`` over all 13 apps."""
    launched = {}
    for name in APP_CLASSES:
        app = make_app(name)
        launched.update(launched_kernels(app, Paraprox(target_quality=0.9).compile(app)))
    return launched


def test_every_app_kernel_is_classified(app_kernels):
    assert set(app_kernels) == set(APP_KERNELS)
    assert all(e.grid.threads_per_block_y == 1 for e in app_kernels.values())


def test_app_kernel_verdicts(app_kernels):
    got = {
        name: verdict(analyze_shardability(e.fn, e.module))
        for name, e in app_kernels.items()
    }
    assert {n: v for n, v in got.items() if v != APP_KERNELS[n]} == {}


def test_written_arrays_in_declaration_order():
    scan = zoo.scan_phase1
    result = analyze_function(scan.fn, scan.module)
    assert result.written_arrays == ["partial", "sums"]


def test_sharding_needs_written_arrays_the_kernel_never_loads():
    """Private stores alone are not enough to share one copy of the written
    arrays: a shard that runs twice must store the same bytes again."""
    saxpy = analyze_function(zoo.saxpy_inplace.fn, zoo.saxpy_inplace.module)
    assert _private(index_fact(zoo.saxpy_inplace.fn, zoo.saxpy_inplace.module).stores["y"], True)
    assert not saxpy.shardable and saxpy.reasons == [LOADED_Y]
    assert "serial" in saxpy.describe()
    # unproved stores into a write-only array: serial too
    tile = analyze_function(zoo.tile_scale2d.fn, zoo.tile_scale2d.module)
    assert not tile.shardable and tile.reasons == [OVERLAP]


def test_analysis_is_cached_by_fingerprint():
    k = zoo.square_map
    assert analyze_shardability(k.fn, k.module) is analyze_shardability(k.fn, k.module)


def test_describe_mentions_mode():
    k = zoo.square_map
    assert "in place" in analyze_shardability(k.fn, k.module).describe()
    hist = zoo.atomic_histogram
    assert "serial" in analyze_shardability(hist.fn, hist.module).describe()


# --------------------------------------------------------- the index fact

B, T, D, DY = (Poly.symbol(f"%{n}") for n in ("block_id", "thread_id", "block_dim", "block_dim_y"))
P = Poly.symbol("kept")


def _c(value):
    return Poly.constant(value)


def test_the_fact_reads_global_id_as_block_and_thread():
    fact = build_index_fact(zoo.rescale_inplace.fn)
    gid = B * D * DY + T
    assert fact.loads == {"y": [gid]} and fact.stores == {"y": [gid]}


def test_the_fact_keeps_only_launch_invariant_symbols():
    # `acc` is an accumulator, `x = gid % w` opaque: not polynomials the
    # launch fixes; `w` is a param the body never assigns
    fact = build_index_fact(zoo.mean3x3.fn)
    assert None in fact.loads["img"] and fact.stores["out"] == [B * D * DY + T] * 2
    matmul = build_index_fact(zoo.tiled_matmul.fn)
    assert matmul.stores == {"c": [None]}


def test_a_reassigned_param_is_neither_uniform_nor_invariant():
    fact = build_index_fact(zoo.block_varying_bound.fn)
    assert "n" not in fact.uniform and "acc" not in fact.uniform
    square = build_index_fact(zoo.square_map.fn)
    assert "n" in square.uniform


def test_index_facts_are_built_once_per_fingerprint():
    k = zoo.square_map
    assert index_fact(k.fn, k.module) is index_fact(k.fn, k.module)


# ------------------------------------------------------ the per-array rule


@pytest.mark.parametrize(
    "forms,flat,private",
    [
        ([(P + B) * D + T], True, True),  # scan_tail_predict
        ([(P + B) * D + T], False, False),  # thread_id counts block_dim*block_dim_y
        ([B * D * DY + T], False, True),  # global_id
        ([B * D * DY + T, B * D * DY + T + _c(1)], True, False),  # one apart
        ([_c(2) * (B * D + T), _c(2) * (B * D + T) + _c(1)], True, True),  # interleaved
        ([_c(-1) * (B * D + T)], True, True),  # reversed
        ([B * D - T + _c(3)], True, True),  # A = c*k*block_dim with k = -1
        ([B * D + _c(2) * T], True, False),  # A is not c*k*block_dim
        ([B * D + T, B * D + T + P], True, False),  # non-constant parts differ
        ([B * D + T, _c(2) * B * D + T], True, False),  # A differs per site
        ([B], True, True),  # block-private
        ([B, B + _c(1)], True, False),  # one apart
        ([_c(2) * B, _c(2) * B + _c(1)], True, True),
        ([_c(8) * B * D, _c(8) * B * D + _c(5)], True, True),  # |A| >= 8 > 5
        ([B * D, B * D + _c(5)], True, False),  # block_dim may be 1
        ([B * P], True, False),  # a bare param may be zero
        ([T], True, False),  # every block stores the same elements
        ([None], True, False),
    ],
)
def test_store_rule(forms, flat, private):
    assert _private(forms, flat) is private


def test_the_block_shape_is_part_of_the_verdict():
    """Blocks ``block_dim_y`` rows tall hold more than ``block_dim``
    threads: a ``block_id() * block_dim()`` stride no longer separates
    them, a ``global_id()`` one still does."""
    tail = scan_tail_predict
    assert analyze_shardability(tail.fn, tail.module, flat=True).shardable
    tall = analyze_shardability(tail.fn, tail.module, flat=False)
    assert not tall.shardable and tall.reasons == [overlap("out")]
    square = zoo.square_map
    assert analyze_shardability(square.fn, square.module, flat=False).shardable
