"""Address plans: a compiled kernel resolves its addressing once per
(grid, scalars, buffer sizes) and executes many.

A launch -- of the full grid, or of one span of it on a shard lane -- either
does not plan (first launch of a key), builds (second launch: computes every
site as an unplanned launch does and offers the result) or hits.  All three must be the interpreter bit for bit, raise
what it raises where it raises it, and the stored forms must reproduce
``buf.take(idx)`` / ``buf[idx] = v`` element for element.
"""

import functools
import os
import sys
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import kernel_zoo as zoo
import repro
from repro import ApproxSession, LaunchOptions
from repro.apps.registry import APP_CLASSES, make_app
from repro.codegen import clear_cache, get_compiled, stats_snapshot
from repro.codegen import runtime as rt
from repro.conformance import compare, output_arrays
from repro.engine import Grid, bind_arguments, launch
from repro.engine.launch import resolve_kernel, resolve_module
from repro.errors import ExecutionError
from repro.kernel import kernel
from repro.kernel.dsl import array_f32, f32, global_id, i32
from repro.parallel.shard import plan_shards, run_shard
from repro.parallel.shard import stats_snapshot as shard_stats
from test_differential import ZOO_CASES

CODEGEN = LaunchOptions(backend="codegen")
INTERP = LaunchOptions(backend="interp")


@pytest.fixture(autouse=True)
def _fresh_plans():
    """Every test starts with no compiled kernel, no plan, no geometry and
    no worker process (forked workers know no plan and no kernel), and
    leaves none behind for the rest of the suite."""
    repro.reset()
    yield
    repro.reset()


def _fresh(args, seed):
    """The launch arguments again: same shapes and scalars, new float data
    (integer arrays hold indices/bins and keep their values), fresh outputs."""
    rng = np.random.default_rng(seed)
    out = []
    for arg in args:
        if isinstance(arg, np.ndarray) and arg.dtype.kind == "f" and arg.any():
            out.append((rng.random(arg.shape) * (np.abs(arg).max() + 1)).astype(arg.dtype))
        elif isinstance(arg, np.ndarray):
            out.append(arg.copy())
        else:
            out.append(arg)
    return out


def _arrays(args):
    return [a for a in args if isinstance(a, np.ndarray)]


def _outcome(kernel, grid, args, options, **kwargs):
    """The array arguments after one launch, or the ExecutionError text."""
    args = [a.copy() if isinstance(a, np.ndarray) else a for a in args]
    try:
        launch(kernel, grid, args, options=options, **kwargs)
    except ExecutionError as exc:
        return str(exc)
    return _arrays(args)


def _resident():
    return list(rt._RESIDENT)


def _held_arrays():
    return [a for plan in _resident() for a in plan.held.values()]


# ------------------------------------------- launches 1-4 are the interpreter


@pytest.mark.parametrize("name", sorted(ZOO_CASES))
def test_zoo_kernel_unplanned_building_and_hit_launches_match_the_interpreter(name):
    kernel, grid, args = ZOO_CASES[name](1000)
    for launch_no in range(1, 5):  # unplanned, building, hit, hit
        fresh = _fresh(args, seed=launch_no)
        want = _outcome(kernel, grid, fresh, INTERP)
        got = _outcome(kernel, grid, fresh, CODEGEN)
        assert not isinstance(want, str)
        assert compare(want, got) is None, f"launch {launch_no}"


@functools.lru_cache(maxsize=None)
def served_variant(name):
    """``(app, the variant a TOQ-0.9 session serves)`` -- tuned once for
    this module and ``test_workspace``."""
    app = make_app(name, seed=0)
    with ApproxSession(app, target_quality=0.9) as session:
        session.tune()
        for profile in session.tuning.profiles:
            if profile.name == session.current_variant:
                return app, profile.variant
    return app, None


@pytest.mark.parametrize("name", sorted(APP_CLASSES))
def test_app_exact_and_served_kernels_match_the_interpreter_on_every_launch(name):
    app, served = served_variant(name)
    clear_cache()  # tuning launched too: start the count from nothing
    for variant in (None, served) if served is not None else (None,):
        for launch_no in range(1, 5):
            inputs = app.generate_inputs(seed=50 + launch_no)
            outputs = []
            for options in (INTERP, CODEGEN):
                with repro.options(options):
                    run = app.run_exact if variant is None else (
                        lambda x: app.run_variant(variant, x)
                    )
                    outputs.append(output_arrays(run(inputs)[0]))
            label = f"{'exact' if variant is None else variant.name} launch {launch_no}"
            assert compare(*outputs) is None, label
    assert stats_snapshot()["plan_bytes"] <= rt.PLAN_BYTE_CAP


def test_the_third_launch_is_a_hit_and_reads_every_site_from_the_plan():
    kernel, grid, args = zoo.ACCESS_CASES["border_stencil"](1024)
    before = stats_snapshot()
    for _ in range(4):
        launch(kernel, grid, _fresh(args, 0), options=CODEGEN)
    after = stats_snapshot()
    assert after["plan_builds"] - before["plan_builds"] == 1
    assert after["plan_hits"] - before["plan_hits"] == 2
    (plan,) = _resident()
    assert plan.complete and plan.nbytes == after["plan_bytes"] > 0
    compiled = get_compiled(resolve_kernel(kernel), resolve_module(kernel), grid)
    assert f"planned_sites={len(plan.sites)}" in compiled.detail
    assert compiled.source.count("def _kernel_") == 1  # the planned kernel is the kernel


# --------------------------------------------------------- shards plan too


def _sharded(workers=2, executor="thread"):
    return LaunchOptions(
        backend="codegen", parallel=workers, executor=executor, min_shard_threads=1
    )


#: Kernels whose shards write in place, each over a grid of two and more
#: blocks: shared-memory tiles behind barriers, dead edge lanes that index
#: -1 and n, and a gather through an index array.
SPAN_CASES = {
    name: ZOO_CASES[name] for name in ("scan_phase1", "border_stencil", "gather_expensive")
}


@pytest.mark.parametrize("executor", ["thread", "process"])
@pytest.mark.parametrize("name", sorted(SPAN_CASES))
def test_a_sharded_key_builds_once_per_span_and_hits_from_the_third_launch(
    name, executor
):
    kernel, grid, args = SPAN_CASES[name](1024)
    spans = len(plan_shards(grid.total_blocks, 2))
    assert spans == 2
    codegen, shards = stats_snapshot(), shard_stats()
    for launch_no in range(1, 5):  # unplanned, building, hit, hit
        fresh = _fresh(args, seed=launch_no)
        want = _outcome(kernel, grid, fresh, INTERP)
        got = _outcome(kernel, grid, fresh, _sharded(executor=executor))
        assert compare(want, got) is None, f"launch {launch_no}"
    moved = {k: v - shards[k] for k, v in shard_stats().items()}
    assert moved["sharded_launches"] == 4 and moved["shards_run"] == 4 * spans
    assert moved["planned"] == 2 * spans  # launches three and four, every span
    if executor == "thread":  # a worker process counts its own
        after = stats_snapshot()
        assert after["plan_builds"] - codegen["plan_builds"] == spans
        assert after["plan_hits"] - codegen["plan_hits"] == 2 * spans
        views = rt.geometry(grid).shards
        assert len(views) == spans and not rt.geometry(grid).plans
        assert {id(p.entry) for p in _resident()} == {
            id(e) for view in views.values() for e in view.plans.values()
        }


def test_a_changed_worker_count_makes_new_spans_and_the_view_table_stays_bounded(
    monkeypatch,
):
    monkeypatch.setattr(rt, "_SHARD_VIEWS_MAX", 3)
    kernel, grid, args = zoo.ACCESS_CASES["border_stencil"](2048)
    two, three = (set(plan_shards(grid.total_blocks, w)) for w in (2, 3))
    assert not two & three
    for _ in range(3):
        launch(kernel, grid, _fresh(args, 0), options=_sharded(2))
    views = rt.geometry(grid).shards
    assert {span[:2] for span in views} == two and len(_resident()) == 2
    before = stats_snapshot()
    for _ in range(3):
        launch(kernel, grid, _fresh(args, 0), options=_sharded(3))
    after = stats_snapshot()
    # the table held two spans of three: both made way, and their plans with them
    assert {span[:2] for span in views} == three
    assert after["plan_evictions"] - before["plan_evictions"] == 2
    live = [e.plan for view in views.values() for e in view.plans.values()]
    assert sorted(map(id, live)) == sorted(map(id, _resident()))
    assert after["plan_bytes"] == rt._plan_bytes == sum(p.nbytes for p in live) > 0


def test_drop_plans_empties_shard_views_too():
    kernel, grid, args = SPAN_CASES["scan_phase1"](0)
    for _ in range(3):
        launch(kernel, grid, _fresh(args, 1), options=_sharded())
    assert len(rt.geometry(grid).shards) == 2 and len(_resident()) == 2
    rt.drop_plans()
    assert len(rt.geometry(grid).shards) == 0 and _resident() == [] and rt._plan_bytes == 0
    # ... and the next launches start over, on new views
    for _ in range(3):
        launch(kernel, grid, _fresh(args, 1), options=_sharded())
    assert len(_resident()) == 2


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs fork")
def test_a_forked_worker_starts_with_no_plan_of_its_parents():
    """A worker forked after the parent served serially must not count the
    parent's full-grid plans, which it can never reach, against its cap."""
    kernel, grid, args = zoo.ACCESS_CASES["border_stencil"](1024)
    for _ in range(3):
        launch(kernel, grid, _fresh(args, 0), options=CODEGEN)
    assert rt._plan_bytes > 0 and rt.geometry(grid).plans
    compiled = get_compiled(resolve_kernel(kernel), resolve_module(kernel), grid)
    values = bind_arguments(resolve_kernel(kernel), _fresh(args, 0))
    read, write = os.pipe()
    pid = os.fork()
    if pid == 0:  # the child: report, never return into pytest
        try:
            geo = rt.geometry(grid)
            inherited = (rt._plan_bytes, len(rt._RESIDENT), len(geo.plans), len(geo.shards))
            planned = [
                run_shard(compiled, geo, grid.block_threads, values, (0, 2))
                for _ in range(3)
            ]
            report = repr((inherited, planned, rt._plan_bytes > 0, len(rt._RESIDENT)))
        except BaseException as exc:  # noqa: BLE001 - reported to the parent
            report = f"child failed: {exc!r}"
        os.write(write, report.encode())
        os._exit(0)
    os.close(write)
    with os.fdopen(read) as pipe:
        report = pipe.read()
    os.waitpid(pid, 0)
    assert report == repr(((0, 0, 0, 0), [False, False, True], True, 1))
    assert rt._plan_bytes > 0 and rt.geometry(grid).plans  # the parent keeps its own


# ----------------------------------------------------- what re-plans, and when


def test_a_changed_scalar_or_array_size_replans_and_stays_bit_equal():
    rng = np.random.default_rng(3)
    grid = Grid.for_elements(40 * 30)
    builds = stats_snapshot()["plan_builds"]
    shapes = [(40, 30), (30, 40), (40, 30), (24, 50), (40, 25)]  # w, h; last: smaller arrays
    for w, h in shapes * 3:
        x = rng.random(w * h).astype(np.float32)
        args = [np.zeros(w * h, np.float32), x, w, h]
        want = _outcome(zoo.transpose_i64, grid, args, INTERP)
        assert compare(want, _outcome(zoo.transpose_i64, grid, args, CODEGEN)) is None, (w, h)
    # one plan per distinct (w, h, sizes): a changed key never reads another's sites
    assert stats_snapshot()["plan_builds"] - builds == 4
    keys = list(rt.geometry(grid).plans)
    assert len(keys) == 4 and {key[1:3] for key in keys} == {(1200, 1200), (1000, 1000)}


@kernel
def _reciprocal_of_scalar(out: array_f32, x: array_f32, s: f32, n: i32):
    i = global_id()
    if i < n:
        out[i] = x[i] + f32(i) / s


def test_scalar_keys_compare_by_bits_not_by_equality():
    """``-0.0 == 0.0`` but ``i / s`` is -inf against +inf; a NaN is not equal
    to itself but its plan is the same plan every launch."""
    n = 64
    x = np.arange(n, dtype=np.float32)
    grid = Grid.for_elements(n)
    for s in (0.0, -0.0, 0.0, -0.0, 0.0, -0.0):
        args = [np.zeros(n, np.float32), x, np.float32(s), n]
        want = _outcome(_reciprocal_of_scalar, grid, args, INTERP)
        assert compare(want, _outcome(_reciprocal_of_scalar, grid, args, CODEGEN)) is None
    plans = rt.geometry(grid).plans
    assert len(plans) == 2
    for _ in range(20):
        args = [np.zeros(n, np.float32), x, np.float32("nan"), n]
        want = _outcome(_reciprocal_of_scalar, grid, args, INTERP)
        assert compare(want, _outcome(_reciprocal_of_scalar, grid, args, CODEGEN)) is None
    assert len(plans) == 3  # the NaN matched itself: one key, not twenty


def test_the_seen_set_is_bounded():
    n = 32
    grid = Grid.for_elements(n)
    x = np.ones(n, np.float32)
    for k in range(rt._PLAN_KEYS_MAX + 40):
        launch(_reciprocal_of_scalar, grid, [np.zeros(n, np.float32), x, np.float32(k + 1), n],
               options=CODEGEN)
    assert len(rt.geometry(grid).plans) <= rt._PLAN_KEYS_MAX


# ---------------------------------------------------------------- error parity


@kernel
def _store_past_the_end(out: array_f32, x: array_f32, n: i32):
    i = global_id()
    out[i + n] = x[i]


@kernel
def _value_faults_before_the_store(out: array_f32, x: array_f32, n: i32):
    i = global_id()
    out[i + n] = x[i - 1]


@pytest.mark.parametrize(
    "kern, array",
    [
        (zoo.border_stencil_unguarded, "x"),  # a planned load, lane 0 at -1
        (_store_past_the_end, "out"),  # a planned store
        (_value_faults_before_the_store, "x"),  # the value's array, not the store's
    ],
)
def test_an_out_of_range_live_lane_raises_the_interpreter_text_on_every_launch(kern, array):
    n = 256
    grid = Grid.for_elements(n)
    args = [np.zeros(n, np.float32), np.ones(n, np.float32), 1 if kern is not zoo.border_stencil_unguarded else n]
    want = _outcome(kern, grid, args, INTERP)
    assert isinstance(want, str) and f"index into {array!r} out of range" in want
    for launch_no in range(1, 5):
        assert _outcome(kern, grid, args, CODEGEN) == want, launch_no
    # nothing that raised was stored: the faulting site is still computed
    for plan in _resident():
        assert not plan.complete


def test_bounds_check_off_still_clamps():
    n = 256
    grid = Grid.for_elements(n)
    args = [np.zeros(n, np.float32), np.arange(n, dtype=np.float32), n]
    for _ in range(4):
        want = _outcome(zoo.border_stencil_unguarded, grid, args, INTERP, bounds_check=False)
        got = _outcome(zoo.border_stencil_unguarded, grid, args, CODEGEN, bounds_check=False)
        assert not isinstance(want, str) and compare(want, got) is None


# -------------------------------------------------- what a plan holds, and how


def test_plan_values_are_read_only_and_no_output_aliases_one():
    for name in ("mean3x3", "scan_phase1", "tiled_matmul", "row_stencil"):
        kernel, grid, args = ZOO_CASES[name](1000)
        outs = []
        for k in range(4):
            fresh = _fresh(args, k)
            launch(kernel, grid, fresh, options=CODEGEN)
            outs += _arrays(fresh)
        held = _held_arrays()
        assert held, name
        for array in held:
            assert not array.flags.writeable, name
            assert not any(np.shares_memory(array, out) for out in outs), name


def test_a_load_through_a_slice_returns_a_copy():
    n = 512
    grid = Grid.for_elements(n)
    x = np.arange(n, dtype=np.float32)
    for _ in range(3):
        launch(zoo.noop, grid, [np.zeros(n, np.float32), x, n], options=CODEGEN)
    (plan,) = _resident()
    loads = [s for s in plan.sites.values() if isinstance(s, rt._Site) and s.form == "slice"]
    assert loads
    got = loads[0].run(x)
    assert got.flags.owndata or got.base is not x
    assert not np.shares_memory(got, x)


@kernel
def _shift_in_place(x: array_f32, n: i32):
    i = global_id()
    if i < n - 1:
        x[i] = x[i + 1] * 2.0


def test_an_input_also_passed_as_the_output_is_bit_equal():
    n = 300
    grid = Grid.for_elements(n)
    for k in range(4):
        data = np.random.default_rng(k).random(n).astype(np.float32)
        want = _outcome(_shift_in_place, grid, [data, n], INTERP)
        assert compare(want, _outcome(_shift_in_place, grid, [data, n], CODEGEN)) is None
        # and the same buffer as both arguments of a two-array kernel
        both = data.copy()
        launch(zoo.noop, grid, [both, both, n], options=CODEGEN)
        assert both.tobytes() == data.tobytes()


# ---------------------------------------------------------- the storage forms

_SIZE = 40


@st.composite
def _index_and_mask(draw):
    """Index arrays the way resolved accesses look -- progressions, clamped
    ends, runs, duplicates -- and the way they must not be trusted:
    negatives, out of range, empty, 0-d; with a live mask."""
    n = draw(st.integers(0, 48))
    shape = draw(st.sampled_from(["affine", "clamped", "random", "blocks", "wild", "0d"]))
    if shape == "0d":
        return np.int32(draw(st.integers(-3, _SIZE + 2))), None, 1
    if shape == "affine":
        idx = draw(st.integers(0, 8)) + draw(st.integers(0, 3)) * np.arange(n)
    elif shape == "clamped":
        idx = np.clip(np.arange(n) + draw(st.integers(-9, 9)), 0, draw(st.integers(0, _SIZE - 1)))
    elif shape == "blocks":  # five blocks of eight: b*8 + local, local per block alike
        local = draw(st.lists(st.integers(0, 7), min_size=1, max_size=8))
        idx = (np.arange(5)[:, None] * 8 + np.array(local)[None, :]).reshape(-1)
        n = idx.size
    elif shape == "random":
        idx = np.array(draw(st.lists(st.integers(0, _SIZE - 1), min_size=n, max_size=n)), int)
    else:
        idx = np.array(draw(st.lists(st.integers(-_SIZE, _SIZE + 5), min_size=n, max_size=n)), int)
    idx = idx.astype(draw(st.sampled_from([np.int32, np.int64])))
    live = None
    if draw(st.booleans()):
        kind = draw(st.sampled_from(["prefix", "random", "none"]))
        if kind == "prefix":
            live = np.arange(n) < draw(st.integers(0, n))
        elif kind == "random":
            live = np.array(draw(st.lists(st.booleans(), min_size=n, max_size=n)), bool)
        else:
            live = np.zeros(n, bool)
    return idx, live, n


def _try(fn):
    try:
        return fn()
    except (IndexError, ValueError) as exc:
        return type(exc).__name__


@settings(max_examples=300, deadline=None)
@given(_index_and_mask(), st.booleans(), st.integers(0, 3))
def test_every_storage_form_reproduces_take_and_fancy_assignment(case, in_loop, shift):
    idx, live, n = case
    buf = np.arange(_SIZE, dtype=np.float32) * 1.5
    plan = rt._Plan(rt._Entry())
    key = (0, 1) if in_loop else 0
    if in_loop and np.ndim(idx) and idx.size and idx.min() >= shift:
        rt._gather_site(plan, (0, 0), idx - shift, _SIZE, 5, 8)  # an earlier iteration
    # gather: the stored form is buf.take(idx) -- values, dtype, shape, errors
    want = _try(lambda: buf.take(idx))
    site = rt._gather_site(plan, key, idx, _SIZE, 5, 8)
    got = _try(lambda: site.run(buf))
    if isinstance(want, str):
        assert got == want
    else:
        assert np.shape(got) == np.shape(want) and np.asarray(got).tobytes() == want.tobytes()
        if isinstance(got, np.ndarray) and got.ndim:
            assert not np.shares_memory(got, buf)
    if np.ndim(idx) == 0 or isinstance(want, str):
        return
    # scatter: the stored form is _masked_store, duplicates keep the last writer
    value = np.arange(n, dtype=np.float32) + 100
    for val in (value, np.float32(7)):
        old, new = buf.copy(), buf.copy()
        reference = _try(lambda: rt._masked_store(old, idx, val, live, n))
        if isinstance(reference, str):
            continue  # nothing is offered after an access that raised
        rt._scatter_site(idx, _SIZE, live, n, 5, 8).run(new, val)
        assert new.tobytes() == old.tobytes()
    old, new = buf.copy(), buf.copy()
    if _try(lambda: rt._masked_atomic(old, idx, value, live, n, "add")) is None:
        rt._atomic_site(idx, live, n).run(new, value, "add")
        assert new.tobytes() == old.tobytes()


def test_the_forms_the_patterns_meet_are_the_cheap_ones():
    gid = np.arange(4400, dtype=np.int32)
    plan = rt._Plan(rt._Entry())
    form = lambda *a: rt._gather_site(plan, *a).form  # noqa: E731
    assert form(0, gid, 4400, 0, 0) == "slice"  # map: x[gid]
    assert form(1, np.clip(gid - 35, 0, 4095), 4096, 0, 0) == "runs"  # clamped stencil tap
    assert form(2, np.clip(gid, 0, 3999), 4000, 0, 0) == "runs"  # grid padded past n
    assert form(3, np.clip(gid[:64] - 1, 0, 63), 64, 0, 0) == "index"  # too short to pay
    lanes = gid[:1024].astype(np.int64)
    tile = (lanes // 256) * 256 + (lanes % 16) * 16 + 3  # sh[tx*16 + 3], four blocks
    assert form((4, 0), tile, 1024, 4, 256) == "block"
    moved = rt._gather_site(plan, (4, 1), tile + 2, 1024, 4, 256)  # sh[tx*16 + 5]
    assert moved.form == "shift" and moved.arrays[0].size == 256  # shares the first's index
    live = gid < 4000
    assert rt._scatter_site(gid, 4000, live, 4400).form == "slice"  # if gid < n: out[gid] = v
    interior = (gid % 33 > 0) & live
    site = rt._scatter_site(gid, 4000, interior, 4400)
    assert site.form == "mask" and site.arrays == (interior,)  # the live mask, nothing else
    tail = rt._scatter_site(gid[2200:], 4000, interior[2200:], 2200)  # a shard past block 0
    assert tail.form == "mask" and tail.arrays[0].size == 2200
    reverse = rt._scatter_site(gid[::-1].copy(), 4400, interior, 4400)
    assert reverse.form == "index" and reverse.arrays[0].dtype == np.intp  # never int32


# ------------------------------------------------------------------ the byte cap


@kernel
def _gather_reversed(out: array_f32, x: array_f32, n: i32):
    i = global_id()
    out[i] = x[n - 1 - i]  # neither a slice nor runs: holds an index array


def _launch_reversed(n, times):
    grid = Grid.for_elements(n, 64)
    for _ in range(times):
        launch(_gather_reversed, grid, [np.zeros(n, np.float32), np.ones(n, np.float32), n],
               options=CODEGEN)
    (entry,) = rt.geometry(grid).plans.values()
    return entry


def test_resident_bytes_never_exceed_the_cap_and_a_cold_key_does_not_evict_a_hot_one(monkeypatch):
    monkeypatch.setattr(rt, "PLAN_BYTE_CAP", 20_000)
    hot = _launch_reversed(2048, times=30)  # ~17 KB: one intp index array
    assert hot.plan is not None and hot.plan.complete
    evictions = stats_snapshot()["plan_evictions"]
    cold = _launch_reversed(1024, times=3)  # would need ~9 KB more
    assert cold.plan is None and hot.plan is not None  # the newcomer is dropped whole
    assert stats_snapshot()["plan_evictions"] == evictions + 1
    assert rt._plan_bytes <= 20_000
    # ... until it has been launched more often than what it displaces
    cold = _launch_reversed(1024, times=60)
    assert cold.plan is not None and cold.plan.complete and hot.plan is None
    assert rt._plan_bytes == cold.plan.nbytes <= 20_000
    assert stats_snapshot()["plan_bytes"] == rt._plan_bytes


def test_a_plan_larger_than_the_cap_is_dropped_not_truncated(monkeypatch):
    monkeypatch.setattr(rt, "PLAN_BYTE_CAP", 10_000)
    entry = _launch_reversed(2048, times=8)
    assert entry.plan is None and rt._plan_bytes == 0 and _resident() == []
    n = 2048
    args = [np.zeros(n, np.float32), np.arange(n, dtype=np.float32), n]
    want = _outcome(_gather_reversed, Grid.for_elements(n, 64), args, INTERP)
    assert compare(want, _outcome(_gather_reversed, Grid.for_elements(n, 64), args, CODEGEN)) is None


def test_a_plan_that_went_idle_is_evicted_by_a_newcomer_launched_less_often(monkeypatch):
    """Eviction ranks by launch count only while a key is in use: one that
    sat out ``PLAN_IDLE_LAUNCHES`` launches of other keys is the coldest
    there is, however hot it once was (a closed session, the early apps of
    a sweep)."""
    monkeypatch.setattr(rt, "PLAN_BYTE_CAP", 36_000)
    hot = _launch_reversed(2048, times=1000)  # ~17 KB: one intp index array
    assert hot.plan is not None and hot.launches == 1000
    # the idle span: other keys launch (~15 KB of plans, which fit beside
    # it), this one does not
    for k in range(rt.PLAN_IDLE_LAUNCHES + 1):
        launch(_reciprocal_of_scalar, Grid.for_elements(32),
               [np.zeros(32, np.float32), np.ones(32, np.float32), np.float32(k % 3 + 1), 32],
               options=CODEGEN)
    assert hot.plan is not None  # nothing needed its room yet
    cold = _launch_reversed(1024, times=50)  # 50 < 1000, and still it gets in
    assert cold.plan is not None and cold.plan.complete and hot.plan is None
    assert rt._plan_bytes <= 36_000 and stats_snapshot()["plan_bytes"] == rt._plan_bytes


def test_a_plan_still_being_hit_is_not_aged_out(monkeypatch):
    monkeypatch.setattr(rt, "PLAN_BYTE_CAP", 20_000)
    monkeypatch.setattr(rt, "PLAN_IDLE_LAUNCHES", 64)
    hot = _launch_reversed(2048, times=100)
    grid = Grid.for_elements(32)
    for k in range(300):  # far past the idle span in total, never in a row
        launch(_reciprocal_of_scalar, grid,
               [np.zeros(32, np.float32), np.ones(32, np.float32), np.float32(k % 3 + 1), 32],
               options=CODEGEN)
        if k % 40 == 0:
            _launch_reversed(2048, times=1)
    hot = _launch_reversed(2048, times=1)
    cold = _launch_reversed(1024, times=50)
    assert hot.plan is not None and cold.plan is None  # launched less often: stays out


def test_keys_launched_about_equally_often_do_not_displace_each_other(monkeypatch):
    """Only a plan at most half as hot gives way.  With a bare "colder"
    rule, keys launched in turn (the exact programs behind several sessions'
    quality checks) evict one another whenever one is a launch ahead, and
    which of them holds a plan depends on where the turn-taking stopped."""
    monkeypatch.setattr(rt, "PLAN_BYTE_CAP", 20_000)
    first = _launch_reversed(2048, times=30)
    second = _launch_reversed(1024, times=34)  # ahead, not twice as hot
    builds = stats_snapshot()["plan_builds"]
    for _ in range(4):  # taking turns, the newcomer always a few launches ahead
        first = _launch_reversed(2048, times=5)
        second = _launch_reversed(1024, times=5)
        assert first.plan is not None and second.plan is None
    assert stats_snapshot()["plan_builds"] == builds  # and it did not try
    second = _launch_reversed(1024, times=50)  # 104 launches against 50
    assert second.plan is not None and second.plan.complete and first.plan is None


def test_a_key_that_did_not_fit_builds_on_its_first_launch_with_room(monkeypatch):
    """No back-off in launches: a key remembers how far its plan got
    (``need``, a lower bound) and builds again as soon as that much fits --
    so *when* a waiting key gets in follows from when room appeared, not
    from how many launches a run happened to make before."""
    monkeypatch.setattr(rt, "PLAN_BYTE_CAP", 20_000)
    hot = _launch_reversed(2048, times=30)
    cold = _launch_reversed(1024, times=2)  # builds, does not fit
    assert cold.plan is None and 0 < cold.need <= 1024 * 8 + rt._SITE_BYTES
    builds = stats_snapshot()["plan_builds"]
    cold = _launch_reversed(1024, times=9)  # no room: not one more attempt
    assert cold.plan is None and stats_snapshot()["plan_builds"] == builds
    rt.geometry(Grid.for_elements(2048, 64)).plans.clear()  # the hot key's session closed
    with rt._PLAN_LOCK:
        rt._release(hot.plan)
    cold = _launch_reversed(1024, times=1)
    assert cold.plan is not None and cold.plan.complete
    assert stats_snapshot()["plan_builds"] == builds + 1


def test_which_plans_make_way_follows_from_what_is_resident(monkeypatch):
    """Coldest first; among equally cold the largest; never one more than
    half as hot as the newcomer; None when that does not free enough."""
    monkeypatch.setattr(rt, "PLAN_BYTE_CAP", 1000)

    def resident(launches, nbytes):
        entry = rt._Entry()
        entry.launches = launches
        entry.plan = rt._Plan(entry)
        entry.plan.nbytes = nbytes
        return entry.plan

    idle, small, large = resident(500, 100), resident(10, 100), resident(10, 300)
    warm = resident(30, 400)
    idle.entry.last -= rt.PLAN_IDLE_LAUNCHES + 1
    monkeypatch.setattr(rt, "_RESIDENT", {warm, small, idle, large})
    monkeypatch.setattr(rt, "_plan_bytes", 900)
    newcomer = rt._Entry()
    newcomer.launches = 40
    assert rt._victims(newcomer, 100) == []
    assert rt._victims(newcomer, 150) == [idle]
    assert rt._victims(newcomer, 250) == [idle, large]
    assert rt._victims(newcomer, 600) == [idle, large, small]
    assert rt._victims(newcomer, 700) is None  # `warm` is more than half as hot
    newcomer.launches = 60
    assert rt._victims(newcomer, 700) == [idle, large, small, warm]
    assert rt._victims(newcomer, 1001) is None  # more than the cap holds


def test_a_sharded_launch_ticks_the_plan_clock_once():
    """The idle span is counted in launches.  Ticked once per shard, the
    clock of a lane that shards over W workers runs W times as fast and
    ages out keys that are in use."""
    kernel, grid, args = zoo.ACCESS_CASES["border_stencil"](2048)
    launch(kernel, grid, _fresh(args, 0), options=CODEGEN)
    for workers in (1, 2, 3):
        before = rt._plan_clock
        options = _sharded(workers) if workers > 1 else CODEGEN
        launch(kernel, grid, _fresh(args, 0), options=options)
        assert rt._plan_clock - before == pytest.approx(1.0)


# ------------------------------------------------------------ geometry cache


def test_the_geometry_cache_is_lru_and_an_evicted_geometry_releases_its_plan_bytes():
    hot = Grid(3, 32)
    n = hot.threads
    for _ in range(3):
        launch(_gather_reversed, hot, [np.zeros(n, np.float32), np.ones(n, np.float32), n],
               options=CODEGEN)
    kept = rt.geometry(hot)
    assert rt._plan_bytes > 0
    for blocks in range(4, 4 + rt._GEOMETRY_CACHE.cap + 1):  # 65 more grids
        rt.geometry(Grid(blocks, 32))
        assert rt.geometry(hot) is kept  # launched between every one of them
    assert len(rt._GEOMETRY_CACHE) == rt._GEOMETRY_CACHE.cap
    held = rt._plan_bytes
    for blocks in range(100, 100 + rt._GEOMETRY_CACHE.cap):  # now it goes cold
        rt.geometry(Grid(blocks, 32))
    assert rt.geometry(hot) is not kept
    assert held > 0 and rt._plan_bytes == 0 == stats_snapshot()["plan_bytes"]


# ------------------------------------------------------------------- threads


def test_threads_launching_one_kernel_from_cold_agree_with_the_serial_result():
    """More threads than cores, a short switch interval: launches that do not
    plan, build and hit interleave on one plan.  A lost or doubled offer
    would show as a wrong output or as bytes the cap accounts differently
    from what the plans hold."""
    kernel, grid, args = ZOO_CASES["scan_phase1"](0)
    want = _outcome(kernel, grid, args, INTERP)
    workers = 4
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for _round in range(5):
            clear_cache()
            get_compiled(resolve_kernel(kernel), resolve_module(kernel), grid)
            results, barrier = [], threading.Barrier(workers)

            def worker():
                barrier.wait(timeout=30)
                for _ in range(4):
                    results.append(_outcome(kernel, grid, args, CODEGEN))

            threads = [threading.Thread(target=worker) for _ in range(workers)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
                assert not t.is_alive()
            assert len(results) == 4 * workers
            for got in results:
                assert compare(want, got) is None
            assert rt._plan_bytes == sum(p.nbytes for p in _resident())
            assert all(p.complete for p in _resident()) and len(_resident()) == 1
    finally:
        sys.setswitchinterval(interval)


def test_threads_sharding_one_grid_by_different_worker_counts_agree_with_serial(
    monkeypatch,
):
    """Callers that shard one grid two and three ways at once, over a view
    table with room for three spans of the five: views are made, evicted and
    made again while other launches build and read plans on them.  Two views
    of one span, or an evicted view's plan left in the count, would show as a
    wrong output or as bytes the cap accounts differently from what the
    plans hold."""
    monkeypatch.setattr(rt, "_SHARD_VIEWS_MAX", 3)
    kernel, grid, args = zoo.ACCESS_CASES["border_stencil"](2048)
    want = _outcome(kernel, grid, args, INTERP)
    callers = 4
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for _round in range(3):
            clear_cache()
            get_compiled(resolve_kernel(kernel), resolve_module(kernel), grid)
            results, barrier = [], threading.Barrier(callers)

            def caller(number):
                barrier.wait(timeout=30)
                for turn in range(6):
                    options = _sharded(2 + (number + turn) % 2)
                    results.append(_outcome(kernel, grid, args, options))

            threads = [threading.Thread(target=caller, args=(i,)) for i in range(callers)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
                assert not t.is_alive()
            assert len(results) == 6 * callers
            for got in results:
                assert compare(want, got) is None
            assert len(rt.geometry(grid).shards) <= 3
            assert rt._plan_bytes == sum(p.nbytes for p in _resident())
    finally:
        sys.setswitchinterval(interval)
