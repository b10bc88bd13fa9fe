"""The one-pass trace recorder against the naive reference, field for field.

``reference_trace.ReferenceTrace`` is the recorder as it stood before it was
made cheap.  Random address streams and whole kernel launches are priced by
both; every ``MemStats`` field, every op count and the dict orders (the cost
model sums floats in insertion order) must agree.  Nothing here depends on
stored numbers or on the platform.
"""

import pickle
import tracemalloc

import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import given, settings

import kernel_zoo as zoo
import reference_trace
from reference_trace import (
    ReferenceTrace,
    reference_max_run_length,
    trace_fields,
)
from repro import DeviceKind, Paraprox
from repro.apps.registry import APP_CLASSES, make_app
from repro.engine import Grid, interpreter, launch
from repro.engine import trace as trace_module
from repro.engine.trace import (
    COALESCE_SAMPLE,
    MAX_TRACKED_SEGMENTS,
    PRICED_PATTERNS,
    WARP_SIZE,
    Trace,
    _max_run_length,
)
from repro.kernel import kernel
from repro.kernel.dsl import array_f32, global_id, i32

SPACES = ("global", "constant", "shared")
KINDS = ("load", "store", "atomic")

#: 0-d, under one warp, exactly one warp, a ragged last warp, the sample
#: limit and beyond it.
LENGTHS = st.sampled_from(
    [None, 1, 7, WARP_SIZE - 1, WARP_SIZE, WARP_SIZE + 5, 3 * WARP_SIZE,
     COALESCE_SAMPLE - 1, COALESCE_SAMPLE, COALESCE_SAMPLE + WARP_SIZE + 3]
)


@st.composite
def address_streams(draw):
    """A few accesses to one stream: ``(addresses, count)`` pairs with the
    shapes real kernels produce (affine, strided, broadcast, random), then
    re-records of earlier ones, as a loop body issues them: the same
    addresses with another count, the same sampled lanes with other lanes
    beyond the sample, or the same values in the other index dtype."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    dtype = draw(st.sampled_from([np.int32, np.int64]))
    accesses = []
    for _ in range(draw(st.integers(1, 4))):
        length = draw(LENGTHS)
        if length is None:
            addresses = np.asarray(dtype(rng.integers(0, 1 << 16)))
        else:
            shape = draw(st.sampled_from(["affine", "strided", "same", "random", "few"]))
            lanes = np.arange(length)
            addresses = {
                "affine": lanes + rng.integers(0, 1 << 12),
                "strided": lanes * int(rng.integers(2, 65)),
                "same": np.full(length, rng.integers(0, 1 << 12)),
                "random": rng.integers(0, 1 << 20, length),
                "few": rng.integers(0, 40, length),
            }[shape].astype(dtype)
        accesses.append((addresses, int(rng.integers(1, 1 << 16))))
    for _ in range(draw(st.integers(0, 4))):
        addresses, _count = accesses[draw(st.integers(0, len(accesses) - 1))]
        form = draw(st.sampled_from(["recount", "tail", "dtype"]))
        if form == "tail" and addresses.size > COALESCE_SAMPLE:
            addresses = addresses.copy()
            addresses[COALESCE_SAMPLE:] = rng.integers(
                0, 1 << 20, addresses.size - COALESCE_SAMPLE
            )
        elif form == "dtype":
            other = np.int64 if addresses.dtype == np.int32 else np.int32
            addresses = addresses.astype(other)
        accesses.append((addresses, int(rng.integers(1, 1 << 16))))
    return accesses


@kernel
def strided_sweep(out: array_f32, x: array_f32, n: i32, steps: i32):
    """Each step reads the next row of ``x``: a new sampled address
    pattern on every loop iteration."""
    i = global_id()
    acc = 0.0
    for k in range(0, steps):
        acc += x[k * n + i]
    out[i] = acc


class TestRecordAccessAgainstReference:
    @pytest.mark.parametrize("kind", KINDS)
    @pytest.mark.parametrize("space", SPACES)
    @given(address_streams(), st.sampled_from([1, 4, 8]))
    @settings(max_examples=60, deadline=None)
    def test_every_field_matches(self, space, kind, accesses, element_size):
        new, ref = Trace(), ReferenceTrace()
        for addresses, count in accesses:
            for trace in (new, ref):
                trace.record_access(space, kind, element_size, count, addresses, "a")
        assert trace_fields(new) == trace_fields(ref)

    def test_no_addresses_counts_only(self):
        new, ref = Trace(), ReferenceTrace()
        for trace in (new, ref):
            trace.record_access("global", "load", 4, 10, None, "a")
        assert trace_fields(new) == trace_fields(ref)

    @pytest.mark.parametrize("uniform_last", [False, True])
    def test_saturation_crossing(self, uniform_last):
        """The working set saturates on the same access, and stays shut."""
        new, ref = Trace(), ReferenceTrace()
        stride = 32  # f32 elements per 128-byte segment: one segment per lane
        calls = MAX_TRACKED_SEGMENTS // COALESCE_SAMPLE
        for call in range(calls + 2):
            lanes = (np.arange(COALESCE_SAMPLE) + call * COALESCE_SAMPLE) * stride
            for trace in (new, ref):
                trace.record_access("global", "load", 4, 64, lanes, "a")
            saturated = new.mem[("global", "load", "a")].segments_saturated
            assert saturated == (call >= calls)
            assert trace_fields(new) == trace_fields(ref)
        if uniform_last:
            for trace in (new, ref):
                trace.record_access("global", "load", 4, 64, np.asarray(np.int32(5)), "a")
        assert trace_fields(new) == trace_fields(ref)

    @pytest.mark.parametrize("space", SPACES)
    def test_repeats_after_saturation(self, space):
        """Patterns priced before the working set saturates and repeated
        after it (memo hits, no segments noted) match the reference, and
        the set stays shut."""
        new, ref = Trace(), ReferenceTrace()
        stride = 32
        calls = MAX_TRACKED_SEGMENTS // COALESCE_SAMPLE
        patterns = [
            (np.arange(COALESCE_SAMPLE) + call * COALESCE_SAMPLE) * stride
            for call in range(calls + 1)
        ]
        order = [0, 1, 0] + list(range(2, calls + 1)) + [0, calls, 1, 0]
        for step, i in enumerate(order):
            for trace in (new, ref):
                trace.record_access(space, "atomic", 4, 100 + step, patterns[i], "a")
            assert trace_fields(new) == trace_fields(ref)
        stats = new.mem[(space, "atomic", "a")]
        assert stats.segments_saturated and stats.segments == set()
        assert len(stats.priced) == calls + 1  # every pattern priced once

    def test_memo_is_not_trace_data(self):
        """A memoized trace copies, merges, compares, prints and pickles
        as the trace it recorded; the copy starts with an empty memo and
        keeps recording the same numbers."""
        new, ref = Trace(), ReferenceTrace()
        rows = np.arange(WARP_SIZE * 8) * 5
        for count in (10, 20, 30):
            for trace in (new, ref):
                trace.record_access("global", "load", 4, count, rows, "a")
                trace.record_access("shared", "store", 8, count, rows % 64, "b")
        stats = new.mem[("global", "load", "a")]
        assert len(stats.priced) == 1
        plain = Trace()
        plain.merge(ref)
        assert new == plain and repr(new) == repr(plain)
        merged = Trace()
        merged.merge(new)
        others = [new.copy(), merged, pickle.loads(pickle.dumps(new))]
        for other in others:
            assert trace_fields(other) == trace_fields(ref)
            assert all(s.priced == {} for s in other.mem.values())
        for trace in [*others, ref]:
            trace.record_access("global", "load", 4, 7, rows, "a")
        assert all(trace_fields(other) == trace_fields(ref) for other in others)
        assert stats.priced  # the original keeps its own memo

    def test_memo_stays_within_its_bound(self):
        """A loop over more distinct sampled patterns than the cap prices
        them all and remembers ``PRICED_PATTERNS`` of them: what the live
        trace holds beyond what the reference recorder holds for the same
        launch stays within the documented bound (keys of at most
        ``COALESCE_SAMPLE`` 8-byte addresses, plus the entries' tuples)."""
        steps, threads = 3 * PRICED_PATTERNS, COALESCE_SAMPLE
        x = np.ones(steps * threads, np.float32)
        out = np.zeros(threads, np.float32)
        grid = Grid.for_elements(threads)
        launch(strided_sweep, grid, [out, x, threads, steps])  # warm caches
        recorders = [trace_module.__file__, reference_trace.__file__]
        traces, held = [], []
        for trace in (Trace(), ReferenceTrace()):
            tracemalloc.start()
            try:
                launch(strided_sweep, grid, [out, x, threads, steps], trace=trace)
                snapshot = tracemalloc.take_snapshot()
            finally:
                tracemalloc.stop()
            traces.append(trace)
            held.append(
                sum(
                    stat.size
                    for stat in snapshot.filter_traces(
                        [tracemalloc.Filter(True, path) for path in recorders]
                    ).statistics("filename")
                )
            )
        new, ref = traces
        assert trace_fields(new) == trace_fields(ref)
        stats = new.mem[("global", "load", "x")]
        assert stats.accesses == steps * threads
        assert len(stats.priced) == PRICED_PATTERNS
        key_bound = PRICED_PATTERNS * COALESCE_SAMPLE * 8
        assert sum(len(key[2]) for key in stats.priced) <= key_bound
        entry_overhead = PRICED_PATTERNS * 512
        assert 0 < held[0] - held[1] <= len(new.mem) * (key_bound + entry_overhead)

    def test_uniform_address_is_one_partial_warp_in_every_space(self):
        """The documented quirk: a 0-d address costs one warp, one
        transaction and chain 1 — no bank or word arithmetic, whatever the
        lane count."""
        for space in SPACES:
            for kind in KINDS:
                trace = Trace()
                trace.record_access(space, kind, 4, 4096, np.asarray(np.int64(77)), "a")
                stats = trace.mem[(space, kind, "a")]
                assert (stats.accesses, stats.bytes) == (4096, 16384)
                assert (stats.warps, stats.transactions) == (1, 1)
                assert stats.atomic_chain == (1 if kind == "atomic" else 0)
                assert stats.segments == {77 * 4 // 128}


class TestMaxRunLength:
    @given(
        st.integers(1, 40), st.integers(1, WARP_SIZE), st.integers(1, 50),
        st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=200, deadline=None)
    def test_matches_lane_by_lane_loop(self, rows, width, distinct, seed):
        rng = np.random.default_rng(seed)
        sorted_rows = np.sort(rng.integers(0, distinct, (rows, width)), axis=1)
        assert _max_run_length(sorted_rows) == reference_max_run_length(sorted_rows)


def _launch_both(kernel, grid, make_args):
    """One launch per recorder on identical fresh arguments."""
    traces = []
    for trace in (Trace(), ReferenceTrace()):
        launch(kernel, grid, make_args(), trace=trace)
        traces.append(trace_fields(trace))
    return traces


def _zoo_cases():
    n = 1000
    rng = np.random.default_rng(5)
    x = rng.random(n, dtype=np.float32)
    bins = rng.integers(0, 16, n).astype(np.int32)
    image = rng.random(64 * 64, dtype=np.float32)
    blocks = 4
    scan_in = rng.random(blocks * zoo.SCAN_BLOCK, dtype=np.float32)
    return {
        "black_scholes": (
            zoo.black_scholes, Grid.for_elements(n),
            lambda: [np.zeros(n, np.float32), x + 1, x + 1, x + 0.5,
                     np.float32(0.02), np.float32(0.3), n],
        ),
        "mean3x3": (
            zoo.mean3x3, Grid.for_elements(64 * 64),
            lambda: [np.zeros(64 * 64, np.float32), image, 64, 64],
        ),
        "sum_chunks": (
            zoo.sum_chunks, Grid.for_elements(n // 8),
            lambda: [np.zeros(n // 8, np.float32), x, n, 8],
        ),
        "atomic_histogram": (
            zoo.atomic_histogram, Grid.for_elements(n // 8),
            lambda: [np.zeros(16, np.int32), bins, n, 8],
        ),
        "scan_phase1": (
            zoo.scan_phase1, Grid(blocks, zoo.SCAN_BLOCK),
            lambda: [np.zeros(blocks * zoo.SCAN_BLOCK, np.float32),
                     np.zeros(blocks, np.float32), scan_in],
        ),
        "tile_scale2d": (
            zoo.tile_scale2d, Grid.for_image(60, 50),
            lambda: [np.zeros(64 * 64, np.float32), image, 60, 50, np.float32(2)],
        ),
        "divergent_return": (
            zoo.divergent_return, Grid.for_elements(n),
            lambda: [np.zeros(n, np.float32), x, n],
        ),
        **{
            name: (case(1200)[0], case(1200)[1], (lambda c=case: c(1200)[2]))
            for name, case in zoo.ACCESS_CASES.items()
        },
    }


class TestWholeLaunchesAgainstReference:
    @pytest.mark.parametrize("name", sorted(_zoo_cases()))
    def test_zoo_kernel(self, name):
        kernel, grid, make_args = _zoo_cases()[name]
        new, ref = _launch_both(kernel, grid, make_args)
        assert new == ref

    @pytest.mark.parametrize("name", list(APP_CLASSES))
    def test_app_exact_and_variants(self, name, monkeypatch):
        """Every launch of the app — exact program and each compiled
        variant, multi-kernel pipelines included — records the same trace
        through either recorder."""
        app = make_app(name, seed=0)
        variants = list(Paraprox(target_quality=0.90).compile(app, DeviceKind.GPU))
        inputs = app.generate_inputs(seed=0)

        def run_all():
            yield app.run_exact(inputs)[1]
            for variant in variants:
                yield app.run_variant(variant, inputs)[1]

        new = [trace_fields(t) for t in run_all()]
        # Launches that are not handed a trace make their own: make it the
        # reference recorder (sub-launch traces are merged into plain ones).
        monkeypatch.setattr(interpreter, "Trace", ReferenceTrace)
        ref = [trace_fields(t) for t in run_all()]
        assert new == ref
