"""Helper-level differential for ``repro.codegen.runtime``'s memory access
and integer division.

The six memory helpers resolve their index through one routine whose common
case skips the live-lane check and the clamp.  The reference here is a frozen
copy of the implementation that routine replaced (asarray -> check_bounds ->
clip, written out per helper): same buffer bytes, same returned bytes, same
``ExecutionError`` text.  ``c_divide_int`` / ``c_mod_int`` are held to the
interpreter's ``_c_divide`` / ``_c_mod``, which this repo treats as the
reference semantics.
"""

import numpy as np
import pytest

from repro.codegen import runtime as rt
from repro.engine.interpreter import _c_divide, _c_mod
from repro.errors import ExecutionError
from repro.kernel.types import I32

# ----------------------------------------------------- the frozen reference


def _old_check_bounds(idx_arr, size, live, fname, aname):
    checked = idx_arr
    if live is not None and np.ndim(idx_arr) != 0:
        checked = idx_arr[live]
    if np.ndim(checked) != 0 and checked.size == 0:
        return
    lo, hi = checked.min(), checked.max()
    if lo < 0 or hi >= size:
        raise ExecutionError(
            f"{fname}: index into {aname!r} out of range "
            f"[{int(lo)}, {int(hi)}] vs size {size}"
        )


def _old_global_index(buf, idx, live, bc, fname, aname):
    idx_arr = np.asarray(idx)
    if bc:
        _old_check_bounds(idx_arr, buf.size, live, fname, aname)
    return np.clip(idx_arr, 0, max(buf.size - 1, 0))


def _old_shared_index(size, idx, bids, live, bc, fname, aname):
    idx_arr = np.asarray(idx)
    if bc:
        _old_check_bounds(idx_arr, size, live, fname, aname)
    return bids * np.int64(size) + np.clip(idx_arr, 0, size - 1)


def _old_load_global(buf, idx, live, bc, fname, aname):
    return buf[_old_global_index(buf, idx, live, bc, fname, aname)]


def _old_load_shared(buf, size, idx, bids, live, bc, fname, aname):
    return buf[_old_shared_index(size, idx, bids, live, bc, fname, aname)]


def _old_store_global(buf, idx, value, live, T, bc, fname, aname):
    flat = _old_global_index(buf, idx, live, bc, fname, aname)
    rt._masked_store(buf, flat, value, live, T)


def _old_store_shared(buf, size, idx, value, bids, live, T, bc, fname, aname):
    flat = _old_shared_index(size, idx, bids, live, bc, fname, aname)
    rt._masked_store(buf, flat, value, live, T)


def _old_atomic_global(buf, idx, value, live, T, op, bc, fname, aname):
    flat = _old_global_index(buf, idx, live, bc, fname, aname)
    rt._masked_atomic(buf, flat, value, live, T, op)


def _old_atomic_shared(buf, size, idx, value, bids, live, T, op, bc, fname, aname):
    flat = _old_shared_index(size, idx, bids, live, bc, fname, aname)
    rt._masked_atomic(buf, flat, value, live, T, op)


# ------------------------------------------------------------ index recipes

T = 96  # lanes: 3 blocks of 32
BLOCK = 32
BIDS = (np.arange(T, dtype=np.int32) // BLOCK).astype(np.int32)
NAMES = ("kern", "arr")


def _outlier(dtype, side):
    """An out-of-range value: below 0 where the dtype has one, else huge."""
    if side == "low" and np.dtype(dtype).kind == "i":
        return -1
    return np.iinfo(dtype).max


def _index_cases(size, dtype, seed):
    """(label, idx, live) triples over one logical array of ``size``."""
    rng = np.random.default_rng(seed)
    inside = rng.integers(0, max(size, 1), T).astype(dtype)
    live = rng.random(T) < 0.6
    live[:2] = (True, False)  # both kinds of lane always present
    dead = np.flatnonzero(~live)
    alive = np.flatnonzero(live)
    yield "in-range/all-live", inside, None
    yield "in-range/predicated", inside, live
    border = inside.copy()
    border[dead[0]] = _outlier(dtype, "low")
    border[dead[-1]] = size  # one past the end
    yield "dead-lanes-outside", border, live
    for side in ("low", "high"):
        bad = inside.copy()
        bad[alive[len(alive) // 2]] = _outlier(dtype, side)
        yield f"live-lane-{side}", bad, live
        yield f"live-lane-{side}/all-live", bad, None
    garbage = np.full(T, _outlier(dtype, "low"), dtype)
    yield "empty-live-set", garbage, np.zeros(T, dtype=bool)
    yield "0d-in-range", dtype(max(size - 1, 0)), live
    yield "0d-python-int", max(size - 1, 0), None
    yield "0d-too-high", dtype(size), live
    yield "empty-index", np.zeros(0, dtype), None
    # a shard's view of its parent's ids: a non-owning slice
    yield "slice-of-parent", np.concatenate([inside, inside])[T // 2 : T // 2 + T], live


def _outcome(fn, *args):
    """What a helper did: its returned bytes, or the error it raised.
    Errors other than ``ExecutionError`` (an empty buffer indexed after the
    clamp) compare by type — their text is NumPy's, not this repo's."""
    try:
        out = fn(*args)
    except ExecutionError as exc:
        return ("ExecutionError", str(exc))
    except (IndexError, ValueError) as exc:
        return (type(exc).__name__,)
    if out is None:
        return ("ok",)
    out = np.asarray(out)
    return ("ok", out.dtype, out.shape, out.tobytes())


def _check(label, new_fn, old_fn, source, *args):
    """Run the helper and its frozen copy, each on its own copy of
    ``source``: same outcome, same buffer bytes afterwards."""
    new_buf, old_buf = source.copy(), source.copy()
    new, old = _outcome(new_fn, new_buf, *args), _outcome(old_fn, old_buf, *args)
    assert new == old, f"{label}: outcome diverges from the frozen copy"
    assert new_buf.tobytes() == old_buf.tobytes(), f"{label}: buffer bytes diverge"


INDEX_DTYPES = (np.int32, np.int64, np.uint32)
SIZES = (0, 1, 7, 1000)


@pytest.mark.parametrize("bc", [True, False])
@pytest.mark.parametrize("size", SIZES)
@pytest.mark.parametrize("dtype", INDEX_DTYPES)
def test_global_helpers_match_frozen_copy(dtype, size, bc):
    rng = np.random.default_rng(size)
    source = rng.random(size).astype(np.float32)
    value = rng.random(T).astype(np.float32)
    for seed in range(3):
        for label, idx, live in _index_cases(size, dtype, seed):
            label = f"{label} size={size} {np.dtype(dtype)} bc={bc}"
            tail = (bc, *NAMES)
            _check(f"load_global {label}", rt.load_global, _old_load_global,
                   source, idx, live, *tail)
            if np.ndim(idx) and np.shape(idx) != (T,):
                continue  # stores broadcast to T lanes
            for val in (value, np.float32(2.5)):
                _check(f"store_global {label}", rt.store_global, _old_store_global,
                       source, idx, val, live, T, *tail)
            for op in ("add", "min", "max", "inc"):
                _check(f"atomic_global[{op}] {label}", rt.atomic_global,
                       _old_atomic_global, source, idx, value, live, T, op, *tail)


@pytest.mark.parametrize("bc", [True, False])
@pytest.mark.parametrize("size", [1, 7, 64])
@pytest.mark.parametrize("dtype", INDEX_DTYPES)
def test_shared_helpers_match_frozen_copy(dtype, size, bc):
    rng = np.random.default_rng(size)
    source = rng.integers(0, 1 << 20, (T // BLOCK) * size).astype(np.int32)
    value = rng.integers(0, 1 << 20, T).astype(np.int32)
    for seed in range(3):
        for label, idx, live in _index_cases(size, dtype, seed):
            if np.ndim(idx) and np.shape(idx) != (T,):
                continue  # b*size + i needs one index per lane
            label = f"{label} size={size} {np.dtype(dtype)} bc={bc}"
            tail = (bc, *NAMES)
            _check(f"load_shared {label}", rt.load_shared, _old_load_shared,
                   source, size, idx, BIDS, live, *tail)
            _check(f"store_shared {label}", rt.store_shared, _old_store_shared,
                   source, size, idx, value, BIDS, live, T, *tail)
            for op in ("add", "and", "or", "xor", "inc"):
                _check(f"atomic_shared[{op}] {label}", rt.atomic_shared,
                       _old_atomic_shared, source, size, idx, value, BIDS, live, T, op,
                       *tail)


def test_non_integer_index_resolves_on_the_existing_path():
    """bool / float indices are nothing the one-reduction test can decide.
    (The IR validator rejects them, so only the resolution is compared: what
    a gather would do with one is NumPy's business.)"""
    buf = np.arange(4, dtype=np.float32)
    for idx in (np.array([0.0, 1.0, 7.0]), np.array([True, False, True, True])):
        for bc in (True, False):
            new = _outcome(rt.resolve_index, idx, buf.size, None, bc, *NAMES)
            assert new == _outcome(_old_global_index, buf, idx, None, bc, *NAMES)


# ----------------------------------------------------------- integer divide

INT32_MIN = np.iinfo(np.int32).min
INT32_MAX = np.iinfo(np.int32).max


def _dividends(rng):
    mixed = rng.integers(-1000, 1000, 257).astype(np.int32)
    yield "mixed-sign", mixed
    yield "non-negative", np.abs(mixed)
    yield "non-positive", -np.abs(mixed)
    yield "extremes", np.array([INT32_MIN, INT32_MIN + 1, -1, 0, 1, INT32_MAX], np.int32)
    yield "one-negative-lane", np.array([5, 0, 9, -1, 14], np.int32)
    yield "thread-ids", np.arange(1024, dtype=np.int32)[100:900]  # a shard's slice
    yield "int64", rng.integers(-(1 << 40), 1 << 40, 64)
    yield "empty", np.zeros(0, np.int32)
    for scalar in (np.int32(17), np.int32(-17), np.int32(-1), np.int32(0), np.int32(INT32_MIN), 23):
        yield f"scalar {scalar}", scalar


def _divisors(rng, n):
    for scalar in (np.int32(1), np.int32(7), np.int32(-7), np.int32(16), 3, -3,
                   np.int32(INT32_MIN), np.int32(INT32_MAX), np.int32(0), 0):
        yield f"scalar {scalar}", scalar
    if n:
        signs = rng.choice(np.array([-1, 1], np.int32), n)
        yield "array", (rng.integers(1, 50, n).astype(np.int32) * signs)
        yield "array-positive", rng.integers(1, 50, n).astype(np.int32)
        with_zero = rng.integers(1, 50, n).astype(np.int32)
        with_zero[0] = 0
        yield "array-with-zero", with_zero


@pytest.mark.parametrize("seed", range(3))
def test_integer_divide_and_mod_match_the_interpreter(seed):
    rng = np.random.default_rng(seed)
    for a_label, a in _dividends(rng):
        for b_label, b in _divisors(rng, np.size(a) if np.ndim(a) else 0):
            with np.errstate(divide="ignore"):  # x / 0: same garbage either way
                pairs = (
                    (rt.c_divide_int(a, b), _c_divide(a, b, I32)),
                    (rt.c_mod_int(a, b), _c_mod(a, b, I32)),
                )
            for got, want in pairs:
                label = f"{a_label} by {b_label}"
                assert type(got) is type(want), label
                assert np.asarray(got).dtype == np.int64, label
                assert np.shape(got) == np.shape(want), label
                assert np.asarray(got).tobytes() == np.asarray(want).tobytes(), label


# ------------------------------------------------- what one launch performs


def _count_calls(monkeypatch, owner, name):
    calls = []
    original = getattr(owner, name)

    def shim(*args, **kwargs):
        calls.append(name)
        return original(*args, **kwargs)

    monkeypatch.setattr(owner, name, shim)
    return calls


def _access_counts(monkeypatch, case, launches):
    """(clamps, check_bounds calls) of each of the first ``launches`` codegen
    launches of a zoo access case over its grid."""
    import kernel_zoo as zoo
    from repro import LaunchOptions
    from repro.codegen import clear_cache, get_compiled
    from repro.engine import launch
    from repro.engine.launch import resolve_kernel, resolve_module

    kernel, grid, args = zoo.ACCESS_CASES[case](1024)
    clear_cache()  # and with it every address plan
    get_compiled(resolve_kernel(kernel), resolve_module(kernel), grid)  # outside the count
    opts = LaunchOptions(backend="codegen")
    clamps = _count_calls(monkeypatch, np, "clip")
    checks = _count_calls(monkeypatch, rt, "check_bounds")
    counts = []
    for _ in range(launches):
        clamps.clear()
        checks.clear()
        launch(kernel, grid, args, options=opts)
        counts.append((len(clamps), len(checks)))
    return counts


def test_in_range_kernel_launch_never_checks_or_clamps(monkeypatch):
    """Every access of the tiled matmul (4 tile steps x 36 shared/global
    accesses, plus the final store) has all lanes in range.  A count, not a
    timing: it repeats exactly, and a returning check-then-clamp shows as
    145 of each."""
    assert _access_counts(monkeypatch, "tiled_matmul", 3) == [(0, 0)] * 3


def test_border_kernel_checks_only_the_accesses_that_leave_the_array(monkeypatch):
    """``border_stencil`` on 1024 lanes makes six accesses; only ``x[i - 1]``
    (dead lane 0 at -1) and ``x[i + 1]`` (dead lane 1023 at 1024) hold a lane
    outside the array.  That is what the launch that does not plan performs,
    and the second launch, which resolves the kernel's address plan; from the
    third on the verdicts and the clamped indices are read from the plan."""
    assert _access_counts(monkeypatch, "border_stencil", 4) == [(2, 2), (2, 2), (0, 0), (0, 0)]
