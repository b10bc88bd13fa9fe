"""Shardability classification of every kernel in the zoo."""

import pytest

import kernel_zoo as zoo
from repro.parallel.analysis import analyze_function, analyze_shardability

#: Every kernel in the zoo with its expected classification.  This list
#: is exhaustive on purpose: a new zoo kernel must be classified here or
#: the completeness test fails.
EXPECTED = {
    "black_scholes": True,
    "square_map": True,
    "gather_expensive": True,
    "impure_map": False,  # printf in a reachable device function
    "mean3x3": True,
    "row_stencil": True,
    "sum_chunks": True,
    "atomic_histogram": False,  # global atomics need a combine, not a merge
    "min_reduce": True,
    "scan_phase1": True,  # shared memory + barriers are per-block: fine
    "noop": True,
    "clamp_map": True,
    "divergent_return": True,
    "tile_scale2d": True,
    "tiled_matmul": True,
    "border_stencil": True,
    "border_stencil_unguarded": True,  # it raises, in whichever shard
    "transpose_i64": True,
    "saxpy_inplace": True,  # y[i] loaded and stored through one private index
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
    result = analyze_shardability(k.fn, k.module)
    assert result.shardable == EXPECTED[name], result.describe()
    if result.shardable:
        assert result.reasons == []
    else:
        assert result.reasons, "serial classification must carry reasons"


def test_unshardable_reasons_are_specific():
    hist = zoo.atomic_histogram
    result = analyze_function(hist.fn, hist.module)
    assert any("atomic" in r for r in result.reasons)
    impure = zoo.impure_map
    result = analyze_function(impure.fn, impure.module)
    assert any("printf" in r for r in result.reasons)


def test_written_arrays_in_declaration_order():
    scan = zoo.scan_phase1
    result = analyze_function(scan.fn, scan.module)
    assert result.written_arrays == ["partial", "sums"]


def test_disjoint_writes_for_elementwise_stores():
    # out[i] with i = global_id(): provably thread-private -> zero-copy
    result = analyze_function(zoo.square_map.fn, zoo.square_map.module)
    assert result.disjoint_writes
    # sums[block_id()]: block-private, still zero-copy eligible
    result = analyze_function(zoo.scan_phase1.fn, zoo.scan_phase1.module)
    assert result.disjoint_writes
    # out[y*w+x] multiplies two varying intrinsics by a runtime param:
    # not provably disjoint, so the overlay path must handle it
    result = analyze_function(zoo.tile_scale2d.fn, zoo.tile_scale2d.module)
    assert result.shardable and not result.disjoint_writes


def test_in_place_needs_written_arrays_the_kernel_never_loads():
    """Private stores alone are not enough to share one copy of the written
    arrays: a shard that runs twice must store the same bytes again."""
    result = analyze_function(zoo.square_map.fn, zoo.square_map.module)
    assert result.write_only and result.in_place
    saxpy = analyze_function(zoo.saxpy_inplace.fn, zoo.saxpy_inplace.module)
    assert saxpy.shardable and saxpy.disjoint_writes
    assert not saxpy.write_only and not saxpy.in_place
    assert "copy+merge" in saxpy.describe()
    # unproved stores into a write-only array: still not in place
    tile = analyze_function(zoo.tile_scale2d.fn, zoo.tile_scale2d.module)
    assert tile.write_only and not tile.in_place


def test_analysis_is_cached_by_fingerprint():
    k = zoo.square_map
    first = analyze_shardability(k.fn, k.module)
    second = analyze_shardability(k.fn, k.module)
    assert first is second


def test_describe_mentions_mode():
    k = zoo.square_map
    text = analyze_shardability(k.fn, k.module).describe()
    assert "zero-copy" in text
    text = analyze_shardability(
        zoo.atomic_histogram.fn, zoo.atomic_histogram.module
    ).describe()
    assert "serial" in text
