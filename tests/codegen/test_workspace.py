"""The launch workspace: compiled kernels compute into reused slots.

Every array value with a static dtype and ``(T,)`` shape lands in a slot of
the calling thread's arena, assigned by liveness; masked assignments nobody
can see the other lanes of are plain binds.  None of it may be visible:
whatever the arena held before a launch -- another kernel's values, a byte
pattern -- every launch is the interpreter bit for bit, raises what it
raises, and nothing from the arena outlives it.
"""

import sys
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import kernel_zoo as zoo
import repro
from repro import LaunchOptions
from repro.apps.registry import APP_CLASSES
from repro.codegen import clear_cache, get_compiled, lower_kernel, stats_snapshot
from repro.codegen import runtime as rt
from repro.conformance import compare, output_arrays
from repro.engine import Grid, launch
from repro.engine.launch import resolve_kernel, resolve_module
from repro.kernel import device, ir, kernel
from repro.kernel.dsl import array_f32, array_i32, f32, global_id, i32, sqrt
from repro.kernel.types import F32, I32, ArrayType, ScalarType
from repro.kernel.visitors import walk_statements
from test_address_plan import _arrays, _fresh, _outcome, _shift_in_place, served_variant
from test_differential import ZOO_CASES
from test_v2_lowering import _tagged

CODEGEN = LaunchOptions(backend="codegen")
INTERP = LaunchOptions(backend="interp")

# for the kernels built as IR directly
_LOCALS = ("a", "b", "c")
_ARM_LOCAL = "d"  # read and bound only inside arms a loop opens again
_X = ir.ArrayRef("x", ArrayType(F32))
_Y = ir.ArrayRef("y", ArrayType(F32))
_OUT = ir.ArrayRef("out", ArrayType(F32))
_I = ir.Var("i", I32)


@pytest.fixture(autouse=True)
def _fresh_kernels():
    repro.reset()
    yield
    repro.reset()


def _source(kern, module=None):
    fn = resolve_kernel(kern)
    return lower_kernel(fn, resolve_module(kern, module))


def _dirty_launch(kern, grid, args, **kwargs):
    """One compiled launch over an arena full of 0xA5."""
    rt.scribble_workspace()
    return _outcome(kern, grid, args, CODEGEN, **kwargs)


# ----------------------------------- launches 1-4 over a dirty arena, bit-equal


@pytest.mark.parametrize("name", sorted(ZOO_CASES))
def test_zoo_kernel_never_reads_a_slot_it_did_not_write(name):
    kern, grid, args = ZOO_CASES[name](1000)
    for launch_no in range(1, 5):  # unplanned, building, hit, hit
        fresh = _fresh(args, seed=launch_no)
        want = _outcome(kern, grid, fresh, INTERP)
        assert not isinstance(want, str)
        assert compare(want, _dirty_launch(kern, grid, fresh)) is None, f"launch {launch_no}"


@pytest.mark.parametrize("name", sorted(APP_CLASSES))
def test_app_exact_and_served_kernels_over_a_dirty_arena(name):
    app, served = served_variant(name)
    clear_cache()
    for variant in (None, served) if served is not None else (None,):
        for launch_no in range(1, 5):
            inputs = app.generate_inputs(seed=70 + launch_no)
            run = app.run_exact if variant is None else (lambda x: app.run_variant(variant, x))
            with repro.options(INTERP):
                want = output_arrays(run(inputs)[0])
            rt.scribble_workspace()
            with repro.options(CODEGEN):
                got = output_arrays(run(inputs)[0])
            label = f"{'exact' if variant is None else variant.name} launch {launch_no}"
            assert compare(want, got) is None, label
            arena = rt._arena().buf
            assert not any(np.shares_memory(out, arena) for out in got), label
    assert stats_snapshot()["workspace_bytes"] >= rt._arena().buf.size


def test_kernels_taking_turns_on_one_arena_do_not_see_each_other():
    """A -> B -> A: B's values sit where A's slots are."""
    cases = [ZOO_CASES[name](1000) for name in ("black_scholes", "mean3x3", "scan_phase1")]
    wants = [_outcome(kern, grid, args, INTERP) for kern, grid, args in cases]
    for _round in range(4):
        for (kern, grid, args), want in zip(cases, wants):
            assert compare(want, _outcome(kern, grid, args, CODEGEN)) is None, kern.name


def test_no_output_shares_memory_with_the_arena():
    for name in ("black_scholes", "mean3x3", "tiled_matmul", "clamp_map"):
        kern, grid, args = ZOO_CASES[name](1000)
        for _ in range(3):
            launch(kern, grid, args, options=CODEGEN)
        arena = rt._arena().buf
        assert arena.size > 0, name
        assert not any(np.shares_memory(a, arena) for a in _arrays(args)), name


# ------------------------------------------------------- device-function frames


@device
def _twice(x: f32) -> f32:
    return x + x


@device
def _pick(x: f32) -> f32:
    """Returns its parameter itself on one path."""
    if x > 0.5:
        return x
    return x * 0.25


@kernel
def _calls_in_one_expression(out: array_f32, x: array_f32, y: array_f32, n: i32):
    i = global_id()
    if i < n:
        a = x[i]
        b = y[i]
        out[i] = _twice(a) * _twice(b) - _pick(a) * _pick(b) + _twice(_twice(a))


def test_two_activations_of_one_device_function_in_one_expression():
    """``s*cnd(d1) - x*e*cnd(d2)``: the second call must not overwrite what
    the first returned, nor a callee what its caller still reads."""
    source, _, _, info = _source(zoo.black_scholes)
    assert "_dev_cnd(v_d1, _mask, _retm, _T, _W, _w" in source
    assert "_dev_cnd(v_d2, _mask, _retm, _T, _W, _w" in source
    assert info["slots"] > 0
    n = 700
    grid = Grid.for_elements(n)
    for k in range(4):
        rng = np.random.default_rng(k)
        args = [np.zeros(n, np.float32), rng.random(n, dtype=np.float32),
                rng.random(n, dtype=np.float32), n - 13]
        want = _outcome(_calls_in_one_expression, grid, args, INTERP)
        assert compare(want, _dirty_launch(_calls_in_one_expression, grid, args)) is None, k


def test_a_device_function_never_returns_its_parameter_or_its_frame():
    source, _, _, _ = _source(_calls_in_one_expression)
    assert "rt.returned(_out, v_x)" in source  # `return x`: a copy, or into the caller's slot
    kern, grid, args = ZOO_CASES["clamp_map"](1000)  # divergent returns, one of them `x`
    for launch_no in range(1, 5):
        fresh = _fresh(args, launch_no)
        want = _outcome(kern, grid, fresh, INTERP)
        assert compare(want, _dirty_launch(kern, grid, fresh)) is None, launch_no


def test_a_device_function_on_a_call_cycle_gets_no_slots():
    """Two activations of one function would share a frame: the lowering
    gives such a function none.  (The DSL cannot spell recursion; the IR
    can.)  ``halve(x, k)``: ``x`` if ``k <= 0`` else ``halve(x * 0.5, k - 1)``."""
    x, k = ir.Var("x", F32), ir.Var("k", I32)
    again = ir.Call(
        "halve",
        [ir.binop("mul", x, ir.Const(0.5, F32)), ir.binop("sub", k, ir.Const(1, I32))],
        F32,
    )
    halve = ir.Function(
        "halve",
        [ir.Param("x", ScalarType(F32)), ir.Param("k", ScalarType(I32))],
        [ir.If(ir.binop("le", k, ir.Const(0, I32)), [ir.Return(x)]), ir.Return(again)],
        "device",
        ScalarType(F32),
    )
    caller = ir.Function(
        "calls_halve",
        [ir.Param("out", ArrayType(F32)), ir.Param("x", ArrayType(F32))],
        [
            ir.Assign("i", ir.Call("global_id", [], I32)),
            ir.Store(
                _OUT,
                _I,
                ir.binop(
                    "add",
                    ir.Call("halve", [ir.Load(_X, _I), ir.Const(3, I32)], F32),
                    ir.binop("mul", ir.Load(_X, _I), ir.Const(2.0, F32)),
                ),
            ),
        ],
    )
    module = ir.Module()
    module.add(halve)
    module.add(caller)
    source, _, _, info = lower_kernel(caller, module)
    recursive = source[source.index("def _dev_halve"):]
    assert "out=_w" not in recursive and "_W[" not in recursive
    assert "out=_w" in source[: source.index("def _dev_halve")]  # the kernel still has its own
    n = 256
    grid = Grid.for_elements(n)
    args = [np.zeros(n, np.float32), np.random.default_rng(0).random(n, dtype=np.float32)]
    want = _outcome(caller, grid, args, INTERP, module=module)
    assert not isinstance(want, str)
    for launch_no in range(1, 4):
        assert compare(want, _dirty_launch(caller, grid, args, module=module)) is None


@device
def _quantised(x: f32) -> f32:
    return f32(i32(x * 4.0))  # what it returns is a cast of an array


@kernel
def _carried_call(out: array_f32, x: array_f32, n: i32):
    i = global_id()
    acc = x[i]
    prev = acc  # aliased: the loop keeps `acc` in no slot
    for j in range(0, 3):
        out[i] = out[i] + acc
        acc = _quantised(x[i] + f32(j))
    out[i] = out[i] + prev + _quantised(x[i])


def test_a_returned_cast_lands_where_the_caller_says_or_nowhere():
    """Callers that have no slot to offer pass None for ``_out``: an aliased
    loop-carried target, a caller on a call cycle."""
    source, _, _, _ = _source(_carried_call)
    assert "rt.cast_into(_out, " in source
    assert "_T, _W, None)" in source and "_T, _W, _w" in source
    n = 512
    grid = Grid.for_elements(n)
    for k in range(4):
        args = [np.zeros(n, np.float32), np.random.default_rng(k).random(n, dtype=np.float32), n]
        want = _outcome(_carried_call, grid, args, INTERP)
        assert not isinstance(want, str)
        assert compare(want, _dirty_launch(_carried_call, grid, args)) is None, k

    # ``rec(x, k)``: ``quant(x)`` if ``k <= 0`` else ``rec(x * 0.5, k - 1)``.
    x, k = ir.Var("x", F32), ir.Var("k", I32)
    quant = ir.Function(
        "quant",
        [ir.Param("x", ScalarType(F32))],
        [ir.Return(ir.Cast(ir.Cast(ir.binop("mul", x, ir.Const(4.0, F32)), I32), F32))],
        "device",
        ScalarType(F32),
    )
    again = ir.Call(
        "rec",
        [ir.binop("mul", x, ir.Const(0.5, F32)), ir.binop("sub", k, ir.Const(1, I32))],
        F32,
    )
    rec = ir.Function(
        "rec",
        [ir.Param("x", ScalarType(F32)), ir.Param("k", ScalarType(I32))],
        [
            ir.If(ir.binop("le", k, ir.Const(0, I32)), [ir.Return(ir.Call("quant", [x], F32))]),
            ir.Return(again),
        ],
        "device",
        ScalarType(F32),
    )
    value = ir.binop(
        "add",
        ir.Call("rec", [ir.Load(_X, _I), ir.Const(2, I32)], F32),
        ir.Call("quant", [ir.Load(_X, _I)], F32),
    )
    caller = ir.Function(
        "calls_rec",
        [ir.Param("out", ArrayType(F32)), ir.Param("x", ArrayType(F32))],
        [ir.Assign("i", ir.Call("global_id", [], I32)), ir.Store(_OUT, _I, value)],
    )
    module = ir.Module()
    for fn in (quant, rec, caller):
        module.add(fn)
    source = lower_kernel(caller, module)[0]
    assert "_dev_quant(v_x, _mask, _retm, _T, _W, None)" in source
    args = [np.zeros(n, np.float32), np.random.default_rng(0).random(n, dtype=np.float32) * 8]
    want = _outcome(caller, grid, args, INTERP, module=module)
    assert not isinstance(want, str)
    for launch_no in range(1, 4):
        assert compare(want, _dirty_launch(caller, grid, args, module=module)) is None


# ---------------------------------------------------------------- aliasing


@kernel
def _alias_then_overwrite(out: array_f32, x: array_f32, n: i32):
    i = global_id()
    a = x[i] * 2.0
    b = a  # b is a's array
    a = a + 1.0  # must not be computed in place
    c = b * 3.0
    out[i] = a + c + b


@kernel
def _carried_alias(out: array_f32, x: array_f32, n: i32):
    i = global_id()
    acc = x[i]
    prev = acc
    for j in range(0, 3):
        prev = acc  # last iteration's value, read after acc moves on
        acc = acc * 1.5 + 1.0
        out[i] = acc - prev
    out[i] = out[i] + prev


@pytest.mark.parametrize("kern", [_alias_then_overwrite, _carried_alias])
def test_a_name_bound_to_another_names_value_keeps_it(kern):
    n = 512  # whole blocks: these kernels have no `i < n` guard
    grid = Grid.for_elements(n)
    for k in range(4):
        args = [np.zeros(n, np.float32), np.random.default_rng(k).random(n, dtype=np.float32), n]
        want = _outcome(kern, grid, args, INTERP)
        assert not isinstance(want, str)
        assert compare(want, _dirty_launch(kern, grid, args)) is None, k


def test_an_input_also_passed_as_the_output_is_bit_equal_over_a_dirty_arena():
    n = 300
    grid = Grid.for_elements(n)
    for k in range(4):
        data = np.random.default_rng(k).random(n).astype(np.float32)
        want = _outcome(_shift_in_place, grid, [data, n], INTERP)
        assert compare(want, _dirty_launch(_shift_in_place, grid, [data, n])) is None
        both = data.copy()
        rt.scribble_workspace()
        launch(zoo.noop, grid, [both, both, n], options=CODEGEN)
        assert both.tobytes() == data.tobytes()


# ------------------------------------------------------------------ errors


@kernel
def _planned_fault(out: array_f32, x: array_f32, shift: i32, n: i32):
    i = global_id()
    a = x[i] * 2.0 + 1.0
    b = sqrt(a) - x[i]
    out[i + shift] = a * b  # shift > 0: the last lanes store past the end


@kernel
def _unplanned_fault(out: array_f32, x: array_f32, idx: array_i32, n: i32):
    i = global_id()
    a = x[i] * 2.0 + 1.0
    out[i] = a * x[idx[i]]  # an index that is data: never planned


def test_an_error_mid_kernel_has_the_interpreter_text_and_leaves_the_arena_usable():
    n = 256
    grid = Grid.for_elements(n)
    x = np.random.default_rng(5).random(n, dtype=np.float32)
    good_idx = np.arange(n, dtype=np.int32)[::-1].copy()
    bad_idx = good_idx.copy()
    bad_idx[17] = n + 4
    cases = [
        (_planned_fault, [np.zeros(n, np.float32), x, 3, n], [np.zeros(n, np.float32), x, 0, n]),
        (_unplanned_fault, [np.zeros(n, np.float32), x, bad_idx, n],
         [np.zeros(n, np.float32), x, good_idx, n]),
    ]
    for kern, bad, good in cases:
        want_bad = _outcome(kern, grid, bad, INTERP)
        assert isinstance(want_bad, str) and "out of range" in want_bad, kern.name
        want_good = _outcome(kern, grid, good, INTERP)
        for launch_no in range(1, 5):
            assert _dirty_launch(kern, grid, bad) == want_bad, (kern.name, launch_no)
            # ... and the launch after an error is a launch like any other
            assert compare(want_good, _outcome(kern, grid, good, CODEGEN)) is None, launch_no


# ----------------------------------------------------------------- threads


def test_threads_launching_one_kernel_from_cold_each_own_an_arena():
    kern, grid, args = ZOO_CASES["black_scholes"](1000)
    want = _outcome(kern, grid, args, INTERP)
    workers = 4
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for _round in range(3):
            clear_cache()
            get_compiled(resolve_kernel(kern), resolve_module(kern), grid)
            results, arenas, barrier = [], [], threading.Barrier(workers)

            def worker():
                barrier.wait(timeout=30)
                for _ in range(4):
                    results.append(_outcome(kern, grid, args, CODEGEN))
                arenas.append(rt._arena())

            threads = [threading.Thread(target=worker) for _ in range(workers)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
            assert len(results) == workers * 4
            for got in results:
                assert compare(want, got) is None
            assert len({id(a) for a in arenas}) == workers
            assert not any(
                np.shares_memory(a.buf, b.buf) for a in arenas for b in arenas if a is not b
            )
    finally:
        sys.setswitchinterval(interval)


@pytest.mark.parametrize("name", ["black_scholes", "mean3x3", "tiled_matmul"])
def test_a_two_thread_sharded_launch_agrees_with_serial(name):
    kern, grid, args = ZOO_CASES[name](4096)
    sharded = LaunchOptions(backend="codegen", parallel=2, min_shard_threads=1)
    for launch_no in range(1, 4):
        fresh = _fresh(args, launch_no)
        want = _outcome(kern, grid, fresh, INTERP)
        assert compare(want, _outcome(kern, grid, fresh, sharded)) is None, launch_no
        assert compare(want, _outcome(kern, grid, fresh, CODEGEN)) is None, launch_no


# ---------------------------------------------------------------- the arena


def test_slot_views_are_aligned_reused_and_per_thread():
    layout = rt.Layout(["float32", "int32", "bool"])
    views = rt.frame(layout, 1000)
    assert [v.dtype.name for v in views] == ["float32", "int32", "bool"]
    assert all(v.shape == (1000,) and v.ctypes.data % 64 == 0 for v in views)
    assert rt.frame(layout, 1000) is views  # cached per (thread, layout, T)
    assert not any(np.shares_memory(a, b) for a in views for b in views if a is not b)
    assert rt.frame(layout, 999) is not views
    other = []
    t = threading.Thread(target=lambda: other.append(rt.frame(layout, 1000)))
    t.start()
    t.join()
    assert not any(np.shares_memory(a, b) for a in views for b in other[0])


def test_the_arena_grows_to_the_largest_need_and_is_counted():
    before = stats_snapshot()["workspace_bytes"]
    mine = rt._arena().buf.size
    layout = rt.Layout(["float64"] * 3)
    T = mine // 8 + 10_000  # needs more than this thread holds
    rt.frame(layout, T)
    grown = rt._arena().buf.size
    assert grown >= 3 * 8 * T
    assert stats_snapshot()["workspace_bytes"] - before == grown - mine
    rt.frame(rt.Layout(["float32"]), 16)  # a smaller need: carved from what is there
    assert rt._arena().buf.size == grown

    def short_lived():
        rt.frame(rt.Layout(["float32"] * 2), 50_000)

    t = threading.Thread(target=short_lived)
    t.start()
    t.join()
    del t
    assert stats_snapshot()["workspace_bytes"] - before == grown - mine  # handed back


def test_a_grid_beyond_the_arena_cap_allocates_afresh_and_stays_bit_equal(monkeypatch):
    kern, grid, args = ZOO_CASES["black_scholes"](5000)
    want = _outcome(kern, grid, args, INTERP)
    monkeypatch.setattr(rt, "WORKSPACE_BYTE_CAP", 30_000)  # 12 slots x 20 KB do not fit
    held = stats_snapshot()["workspace_bytes"]
    overflows = stats_snapshot()["workspace_overflows"]
    for launch_no in range(1, 5):
        assert compare(want, _dirty_launch(kern, grid, args)) is None, launch_no
    after = stats_snapshot()
    assert after["workspace_overflows"] == overflows + 4  # every launch that needed more
    assert after["workspace_bytes"] == held  # and the arena did not grow for them
    small, small_grid, small_args = ZOO_CASES["square_map"](500)
    launch(small, small_grid, small_args, options=CODEGEN)  # this one fits
    assert stats_snapshot()["workspace_overflows"] == overflows + 4


# --------------------------------------------------------- what gets a slot


@kernel
def _uniform_or_not(out: array_f32, x: array_f32, a: f32, b: f32, n: i32):
    i = global_id()
    s = a * b + 1.0  # scalars in, a scalar out: 0-d at run time
    t = s * 2.0
    if t > 3.0:  # uniform: np.ndim(cond) == 0 picks the unmasked path
        t = t - 1.0
    v = x[i] * t
    if v > s:  # divergent
        v = v - s
    out[i] = v + t


def test_a_value_that_is_zero_d_at_run_time_never_gets_a_slot():
    source, _, _, info = _source(_uniform_or_not)
    binds = [line.strip() for line in source.splitlines() if "rt.UNSET" not in line]
    scalar = [line for line in binds if line.startswith(("v_s = ", "v_t = "))]
    assert len(scalar) >= 3 and not any("out=" in line for line in scalar)
    assert "np.ndim(" in source  # the dual path is still there
    assert all("out=_w" in line for line in binds if line.startswith("v_v = "))
    n = 256
    grid = Grid.for_elements(n)
    x = np.random.default_rng(2).random(n, dtype=np.float32) * 4
    for a, b in ((1.0, 0.5), (2.0, 3.0), (0.0, 0.0), (-1.0, 2.0)):
        args = [np.zeros(n, np.float32), x, a, b, n]
        want = _outcome(_uniform_or_not, grid, args, INTERP)
        assert not isinstance(want, str)
        assert compare(want, _dirty_launch(_uniform_or_not, grid, args)) is None, (a, b)


def test_slot_use_does_not_depend_on_the_kernel_name_or_on_being_exact():
    fn = resolve_kernel(zoo.mean3x3)
    tagged, module = _tagged(zoo.mean3x3)
    tagged.name = "renamed_and_tagged"
    plain, _, _, plain_info = lower_kernel(fn, module)
    other, _, _, other_info = lower_kernel(tagged, module)
    assert plain.replace(fn.name, "K") == other.replace(tagged.name, "K")
    assert plain_info == other_info and plain_info["slots"] > 0
    assert plain.count("def _kernel_") == 1  # one kernel function per kernel


def test_the_detail_string_says_what_the_workspace_did():
    compiled = get_compiled(
        resolve_kernel(zoo.mean3x3), resolve_module(zoo.mean3x3), Grid.for_image(32, 24)
    )
    assert "slots=" in compiled.detail and "merges_elided=10" in compiled.detail
    app, served = served_variant("gaussian")
    source, _, _, info = lower_kernel(served.module[served.kernel], served.module)
    if "center" in served.name:
        # k3*c and k4*c are computed once each: nine products become three.
        assert info["reused_exprs"] == 6 and source.count(", v__cse1, out=") == 3


@kernel
def _repeats(out: array_f32, x: array_f32, n: i32):
    i = global_id()
    c = x[i]
    t = 2.0 * c  # bound to a local, and computed again below
    u = 2.0 * c + 1.0
    v = (2.0 * c) * (2.0 * c)  # twice in one expression
    c = c + 1.0  # c moves on: the next 2.0 * c is another value
    w = 2.0 * c
    out[i] = t + u + v + w + x[i] * 3.0 + x[i] * 3.0  # a load is never numbered


def test_a_repeated_pure_expression_is_computed_once_per_value():
    source, _, _, info = _source(_repeats)
    assert info["reused_exprs"] == 3  # four uses of the first 2.0*c, one of the second
    assert source.count("np.multiply(_k0, v_c") == 2
    assert source.count("rt.load_global(v_x") == 3  # c, and twice in the store
    n = 512
    grid = Grid.for_elements(n)
    for k in range(4):
        args = [np.zeros(n, np.float32), np.random.default_rng(k).random(n, dtype=np.float32), n]
        want = _outcome(_repeats, grid, args, INTERP)
        assert not isinstance(want, str)
        assert compare(want, _dirty_launch(_repeats, grid, args)) is None, k


# ------------------------------------------- merge elision: an arm inside a loop


@kernel
def _arm_reads_an_earlier_iterations_bind(out: array_f32, x: array_f32, n: i32):
    i = global_id()
    b = 0.0
    for j in range(0, 3):
        a = f32(j) * x[i]
        if a > 0.5:  # another mask each time round
            out[i] = b  # a lane entering at j=2 must still see 0
            b = x[i] + 1.0


@kernel
def _arm_local_accumulator(out: array_f32, x: array_f32, n: i32):
    i = global_id()
    acc = 0.0
    for j in range(0, 4):
        if f32(j) * x[i] > 0.5:
            acc = acc + x[i]  # read only in the arm, but from last time round
            out[i] = acc


@kernel
def _arm_local_bound_each_iteration(out: array_f32, x: array_f32, n: i32):
    i = global_id()
    for j in range(0, 4):
        if f32(j) * x[i] > 0.5:
            t = x[i] * f32(j)  # bound before it is read, every time round
            out[i] = out[i] + t


@pytest.mark.parametrize(
    "kern, elided",
    [
        (_arm_reads_an_earlier_iterations_bind, 0),
        (_arm_local_accumulator, 0),
        (_arm_local_bound_each_iteration, 1),
    ],
)
def test_a_value_carried_into_an_arm_with_a_moving_mask_keeps_its_merge(kern, elided):
    assert _source(kern)[3]["merges_elided"] == elided
    n = 512
    grid = Grid.for_elements(n)
    for k in range(4):
        x = np.random.default_rng(k).random(n, dtype=np.float32) * 2
        args = [np.full(n, -7.0, np.float32), x, n]
        want = _outcome(kern, grid, args, INTERP)
        assert not isinstance(want, str)
        assert compare(want, _dirty_launch(kern, grid, args)) is None, k


# ------------------------------------------------- merge elision, by hypothesis
#
# Random nests of divergent if/else and loops over three f32 locals that
# are bound before, inside and after arms, read inside, after and in the
# sibling arm, and carried round loops (into arms whose condition reads the
# loop variable: another mask each iteration) -- with early kernel returns, and
# calls of a device function generated the same way (early returns of its
# own, sometimes of a parameter itself).  Built as IR directly.


def _leaf(draw, scope):
    kinds = ["const", "local", "local"]
    kinds += ["p", "q"] if scope.get("device") else ["x", "y"]
    if scope.get("loop"):
        kinds.append("j")
    if scope.get("calls"):
        kinds.append("call")
    kind = draw(st.sampled_from(kinds))
    if kind in ("x", "y"):
        return ir.Load(_X if kind == "x" else _Y, _I)
    if kind in ("p", "q"):
        return ir.Var(kind, F32)
    if kind == "const":
        return ir.Const(draw(st.sampled_from([0.0, 0.5, 1.0, 2.0, -1.5])), F32)
    if kind == "j":
        return ir.Cast(ir.Var(scope["loop"], I32), F32)
    if kind == "call":
        inner = dict(scope, calls=False)
        return ir.Call("dev", [_expr(draw, inner, 1), _expr(draw, inner, 1)], F32)
    return ir.Var(draw(st.sampled_from(_LOCALS)), F32)


def _expr(draw, scope, size=2):
    if size == 0 or draw(st.integers(0, 2)) == 0:
        return _leaf(draw, scope)
    op = draw(st.sampled_from(["add", "sub", "mul"]))
    return ir.binop(op, _expr(draw, scope, size - 1), _expr(draw, scope, size - 1))


def _cond(draw, scope, kind=None):
    kinds = ["local"] + (["p", "q"] if scope.get("device") else ["x", "y", "lane"])
    if scope.get("loop"):
        kinds += ["j", "j"]  # an arm whose mask is another one each iteration
    kind = kind or draw(st.sampled_from(kinds))
    if kind == "lane" or (kind == "j" and not scope.get("device") and draw(st.booleans())):
        lane = _I if kind == "lane" else ir.binop("add", _I, ir.Var(scope["loop"], I32))
        left = ir.binop("mod", lane, ir.Const(draw(st.integers(2, 5)), I32))
        return ir.binop("eq", left, ir.Const(draw(st.integers(0, 1)), I32))
    if kind in ("x", "y"):
        left = ir.Load(_X if kind == "x" else _Y, _I)
    elif kind in ("p", "q"):
        left = ir.Var(kind, F32)
    elif kind == "j":
        lane = ir.Var("p", F32) if scope.get("device") else ir.Load(_X, _I)
        left = ir.binop("mul", ir.Cast(ir.Var(scope["loop"], I32), F32), lane)
    else:
        left = ir.Var(draw(st.sampled_from(_LOCALS)), F32)
    op = draw(st.sampled_from(["lt", "gt"]))
    return ir.binop(op, left, ir.Const(draw(st.sampled_from([0.25, 0.5, 0.75, 1.5])), F32))


def _body(draw, scope, level):
    kinds = ["assign", "assign", "assign", "if", "for"]
    kinds.append("return" if scope.get("device") or scope.get("returns") else "assign")
    if not scope.get("device"):
        kinds.append("store")
        if scope.get("loop"):
            kinds.append("carry")
    stmts = []
    for _ in range(draw(st.integers(1, 4))):
        kind = draw(st.sampled_from(kinds))
        if kind == "return" and level > 0:
            value = _expr(draw, scope) if scope.get("device") else None
            stmts.append(ir.Return(value))
            break  # nothing runs after it in this arm
        if kind == "carry":
            # An arm-local value: shown, then bound for the next iteration's
            # arm (a carry into another mask) -- or bound, then shown.
            arm = [
                ir.Store(_OUT, _I, ir.Var(_ARM_LOCAL, F32)),
                ir.Assign(_ARM_LOCAL, _expr(draw, scope)),
            ]
            if draw(st.booleans()):
                arm.reverse()
            stmts.append(ir.If(_cond(draw, scope, "j"), arm))
        elif kind == "store":
            stmts.append(ir.Store(_OUT, _I, _expr(draw, scope)))
        elif kind == "if" and level < 3:
            then = _body(draw, scope, level + 1)
            other = _body(draw, scope, level + 1) if draw(st.booleans()) else []
            stmts.append(ir.If(_cond(draw, scope), then, other))
        elif kind == "for" and level < 3:
            var = f"j{level}"
            stmts.append(
                ir.For(
                    var,
                    ir.Const(0, I32),
                    ir.Const(draw(st.integers(0, 3)), I32),
                    ir.Const(1, I32),
                    _body(draw, dict(scope, loop=var), level + 1),
                )
            )
        else:
            stmts.append(ir.Assign(draw(st.sampled_from(_LOCALS)), _expr(draw, scope)))
    return stmts


@st.composite
def _nested_kernels(draw):
    """``(kernel, module)``."""
    module = ir.Module()
    scope = {"returns": draw(st.booleans())}
    if draw(st.booleans()):
        inside = {"device": True}
        body = _body(draw, inside, 0)
        body.append(ir.Return(_expr(draw, inside)))
        body += [ir.Assign(name, ir.Const(0.0, F32)) for name in _LOCALS]
        params = [ir.Param("p", ScalarType(F32)), ir.Param("q", ScalarType(F32))]
        module.add(ir.Function("dev", params, body, "device", ScalarType(F32)))
        scope["calls"] = True
    body = [
        ir.Assign("i", ir.Call("global_id", [], I32)),
        ir.Assign(_ARM_LOCAL, ir.Load(_Y, _I)),
    ]
    for name in _LOCALS:  # some locals are bound up front, some first inside an arm
        if draw(st.booleans()):
            body.append(ir.Assign(name, _expr(draw, scope, 1)))
    inner = _body(draw, scope, 0)
    if draw(st.booleans()):  # the whole body under `if i < n`: a base mask
        inner = [ir.If(ir.binop("lt", _I, ir.Var("n", I32)), inner)]
    body += inner
    for name in _LOCALS:  # and some are read again after everything
        if draw(st.booleans()):
            body.append(ir.Store(_OUT, _I, ir.Var(name, F32)))
    for name in _LOCALS:  # (a name no statement assigns is not a local at all)
        body.append(ir.Assign(name, ir.Const(0.0, F32)))
    params = [
        ir.Param("out", ArrayType(F32)),
        ir.Param("x", ArrayType(F32)),
        ir.Param("y", ArrayType(F32)),
        ir.Param("n", ScalarType(I32)),
    ]
    fn = ir.Function("nest", params, body)
    module.add(fn)
    return fn, module


def _paths(body, path, events):
    """``(what, local, arm path)`` of every read and assignment of a local,
    in program order -- an independent walk, for the oracle."""
    from repro.kernel.visitors import walk

    names = _LOCALS + (_ARM_LOCAL,)

    def read(expr):
        for node in walk(expr):
            if isinstance(node, ir.Var) and node.name in names:
                events.append(("read", node.name, path))

    for stmt in body:
        if isinstance(stmt, ir.Assign):
            read(stmt.value)
            if stmt.target in names:
                events.append(("def", stmt.target, path))
        elif isinstance(stmt, ir.Store):
            read(stmt.value)
        elif isinstance(stmt, ir.If):
            read(stmt.cond)
            _paths(stmt.then_body, path + ((id(stmt), 0),), events)
            _paths(stmt.else_body, path + ((id(stmt), 1),), events)
        elif isinstance(stmt, ir.For):
            _paths(stmt.body, path, events)


def _remasked(body, path, into):
    """``(local, arm)`` of the assignments in an arm a loop opens again each
    iteration, of a local the loop body reads before it first assigns it:
    the value goes round the back edge into an arm with another mask."""
    for stmt in body:
        if isinstance(stmt, ir.If):
            _remasked(stmt.then_body, path + ((id(stmt), 0),), into)
            _remasked(stmt.else_body, path + ((id(stmt), 1),), into)
        elif isinstance(stmt, ir.For):
            _remasked(stmt.body, path, into)
            events = []
            _paths(stmt.body, path, events)
            bound, early = set(), set()
            for what, name, _arm in events:
                if what == "def":
                    bound.add(name)
                elif name not in bound:
                    early.add(name)
            into.update(
                (name, arm)
                for what, name, arm in events
                if what == "def" and name in early and len(arm) > len(path)
            )


@settings(max_examples=150, deadline=None)
@given(_nested_kernels(), st.integers(0, 3))
def test_merge_elision_is_invisible_and_never_crosses_an_escaping_read(case, seed):
    fn, module = case
    clear_cache()
    n = 96
    grid = Grid.for_elements(n + 32)
    rng = np.random.default_rng(seed)
    x = rng.random(n + 32, dtype=np.float32) * 2
    y = rng.random(n + 32, dtype=np.float32)
    for launch_no in range(3):
        args = [np.full(n + 32, -7.0, np.float32), x, y, n]
        want = _outcome(fn, grid, args, INTERP, module=module)
        got = _dirty_launch(fn, grid, args, module=module)
        if isinstance(want, str):  # a local read before it is bound: same complaint
            assert got == want
        else:
            assert compare(want, got) is None, launch_no
    # An assignment inside an arm keeps its merge whenever some read of its
    # target happens outside that arm, or round a loop that opens the arm
    # again.  (A kernel that can `return` masks its top-level assignments
    # too; those have no arm to escape from.)
    events, remasked = [], set()
    _paths(fn.body, (), events)
    _remasked(fn.body, (), remasked)
    may_elide = sum(
        (target, arm) not in remasked
        and all(
            path[: len(arm)] == arm
            for what, name, path in events
            if what == "read" and name == target
        )
        for what, target, arm in events
        if what == "def" and arm
    )
    if not any(isinstance(s, ir.Return) for s in walk_statements(fn.body)):
        only_kernel = ir.Module()
        only_kernel.add(fn)
        if "dev" not in module:
            info = lower_kernel(fn, only_kernel)[3]
            assert info["merges_elided"] <= may_elide
