"""Process-wide state: the stores behind "build once, then switch" hold up
under concurrent misses, and ``repro.reset()`` returns the process to its
cold state."""

import ast
import glob
import multiprocessing
import os
import sys
import threading
from pathlib import Path

import numpy as np
import pytest

import kernel_zoo as zoo
import repro
from repro import LaunchOptions, _state
from repro.analysis import index
from repro.codegen import cache, fingerprint, stats_snapshot
from repro.engine import launch
from repro.engine.launch import resolve_kernel, resolve_module
from repro.kernel.frontend import KernelFn
from repro.parallel import analysis

SRC = Path(__file__).resolve().parent.parent / "src" / "repro"


@pytest.fixture(autouse=True)
def _cold():
    """Leave no entry, pool or worker behind for the rest of the suite."""
    yield
    repro.reset()


def _zoo_kernels():
    return [
        (resolve_kernel(k), resolve_module(k))
        for k in vars(zoo).values()
        if isinstance(k, KernelFn) and resolve_kernel(k).kind == "kernel"
    ]


#: What a launch asks of the stores a miss fills: one function each.
_LOOKUPS = (
    fingerprint.fingerprint_kernel,
    cache.classify_lowering,
    index.index_fact,
    analysis.analyze_shardability,
)


@pytest.mark.parametrize("lookup", _LOOKUPS, ids=lambda f: f.__name__)
def test_threads_missing_a_full_store_at_once_agree_with_the_serial_results(
    lookup, monkeypatch
):
    """Eight threads, more than the cores, with a short switch interval and
    every store two entries wide: each call misses, inserts and evicts
    while the other threads do the same on the same store."""
    kernels = _zoo_kernels()
    assert len(kernels) == 26
    want = [lookup(fn, module) for fn, module in kernels]
    stores = (fingerprint._MEMO, cache._CLASSIFY_MEMO, index._FACTS, analysis._ANALYSIS_CACHE)
    for store in stores:
        monkeypatch.setattr(store, "cap", 2)
        store.clear()
    callers, rounds, errors, got = 8, 4, [], []
    barrier = threading.Barrier(callers)

    def caller(number):
        try:
            barrier.wait(timeout=30)
            for turn in range(rounds * len(kernels)):
                at = (number * 3 + turn) % len(kernels)
                got.append((at, lookup(*kernels[at])))
        except Exception as exc:  # noqa: BLE001 - every failure is the finding
            errors.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=caller, args=(n,)) for n in range(callers)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
            assert not t.is_alive()
    finally:
        sys.setswitchinterval(interval)
    assert errors == []
    assert len(got) == callers * rounds * len(kernels)
    assert all(result == want[at] for at, result in got)
    assert all(len(store) <= 2 for store in stores)


def _square(executor):
    n = 1 << 12
    x = np.random.default_rng(5).random(n, dtype=np.float32)
    out = np.zeros(n, np.float32)
    opts = LaunchOptions(
        backend="codegen", parallel=2, executor=executor, min_shard_threads=1
    )
    for _ in range(3):  # warm: compiled, planned, hit
        launch(zoo.square_map, repro.Grid.for_elements(n, 256), [out, x, np.int32(n)],
               options=opts)
    return out


def test_reset_leaves_no_entry_no_pool_and_no_segment():
    before = {lane: _square(lane) for lane in ("thread", "process")}
    assert any(len(store) for store in _state.stores().values())
    repro.reset()
    assert {name: len(store) for name, store in _state.stores().items()} == {
        name: 0 for name in _state.stores()
    }
    assert [t.name for t in threading.enumerate() if t.name.startswith("repro-")] == []
    assert [p.name for p in multiprocessing.active_children()
            if p.name.startswith("repro-proc-")] == []
    assert glob.glob(f"/dev/shm/repro-{os.getpid()}-*") == []
    compiles = stats_snapshot()["compiles"]
    for lane in ("thread", "process"):  # the process lane's caller reuses it
        assert _square(lane).tobytes() == before[lane].tobytes()
    assert stats_snapshot()["compiles"] - compiles == 1
    repro.reset()


def test_the_store_evicts_oldest_first_and_pins_what_its_keys_name():
    store = _state.Store(cap=2)
    pinned = object()
    store.put("a", 1, pins=pinned)
    store.put("b", 2)
    assert store.put("a", 9) == 1  # a key keeps its first value
    store.touch("a")
    store.put("c", 3)  # "b" is now the oldest
    assert list(store) == ["a", "c"] and store._pins == {"a": pinned}
    store.put("d", 4)
    assert list(store) == ["c", "d"] and store._pins == {}
    store.make_room()  # what the next insert would evict, evicted now
    assert list(store) == ["d"]


# ------------------------------------------------------------ static guard

#: (file, function) pairs that keep an eviction of their own: the
#: per-thread workspace arenas, which drop their views when full, and the
#: address-plan key table, which forgets a key that holds no plan before
#: one that holds a plan — a preference the store's oldest-out rule cannot
#: express.
_OWN_EVICTION = {("codegen/runtime.py", "_carve"), ("codegen/runtime.py", "_plan_miss")}


def _hand_rolled_evictions(tree):
    """``pop(next(iter(...)))`` anywhere, and ``.clear()``, ``.popitem(...)``
    or ``next(iter(...))`` under an ``if``/``while`` that tests a
    ``len(...)`` against a bound, with the name of the enclosing function."""
    found = set()

    def visit(node, function):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            function = node.name
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
            arg = node.args[0] if node.args else None
            if (node.func.attr == "pop" and isinstance(arg, ast.Call)
                    and getattr(arg.func, "id", None) == "next"):
                found.add((function, node.lineno))
        if isinstance(node, (ast.If, ast.While)) and _tests_a_length(node.test):
            for stmt in node.body:
                for call in ast.walk(stmt):
                    if _drops_an_entry(call):
                        found.add((function, call.lineno))
        for child in ast.iter_child_nodes(node):
            visit(child, function)

    visit(tree, None)
    return sorted(found, key=lambda hit: hit[1])


def _drops_an_entry(node):
    """``x.clear()``, ``x.popitem(...)``, or ``next(iter(...))``: the oldest
    key of an insertion-ordered map."""
    if not isinstance(node, ast.Call):
        return False
    if isinstance(node.func, ast.Attribute):
        return node.func.attr in ("clear", "popitem")
    first = node.args[0] if node.args else None
    return (
        getattr(node.func, "id", None) == "next"
        and isinstance(first, ast.Call)
        and getattr(first.func, "id", None) == "iter"
    )


def _tests_a_length(test):
    if isinstance(test, ast.BoolOp):  # ``k not in d and len(d) >= cap``
        return any(_tests_a_length(value) for value in test.values)
    return isinstance(test, ast.Compare) and any(
        isinstance(side, ast.Call) and getattr(side.func, "id", None) == "len"
        for side in (test.left, *test.comparators)
    ) and any(isinstance(op, (ast.Gt, ast.GtE, ast.Lt, ast.LtE)) for op in test.ops)


def test_no_store_outside_state_evicts_by_hand():
    offenders = []
    for path in sorted(SRC.rglob("*.py")):
        rel = path.relative_to(SRC).as_posix()
        if rel == "_state.py":
            continue
        for function, line in _hand_rolled_evictions(ast.parse(path.read_text())):
            if (rel, function) not in _OWN_EVICTION:
                offenders.append(f"{rel}:{line} ({function})")
    assert offenders == [], "use repro._state.Store: " + ", ".join(offenders)


def test_the_guard_finds_the_evictions_it_forbids():
    source = (
        "def f(d, cap):\n"
        "    if len(d) >= cap:\n"
        "        d.clear()\n"
        "    d.pop(next(iter(d)))\n"
        "    while len(d) > cap:\n"
        "        d.popitem(last=False)\n"
        "    if 'k' not in d and len(d) >= cap:\n"
        "        if d:\n"
        "            del d[next(iter(d))]\n"
        "    if len(d) == 1:\n"
        "        only = next(iter(d))\n"
    )
    assert _hand_rolled_evictions(ast.parse(source)) == [
        ("f", 3), ("f", 4), ("f", 6), ("f", 9)
    ]
