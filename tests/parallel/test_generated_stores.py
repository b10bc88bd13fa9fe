"""Generated store-index kernels against the shardability analysis.

Raw IR kernels (grown from the merge-elision strategy in
``tests/codegen/test_workspace.py``) store to one array through one to
three sites.  Indices combine ``block_id``, ``thread_id``, ``global_id``,
``block_dim``, scalar params (sometimes overwritten, sometimes with a
per-block value) and constant offsets; a site may sit under an ``if``, in
a constant-trip loop whose variable it may read, or in a loop bounded by
a param.  Each kernel runs on grids of two and more blocks, flat and
two rows tall, and is held to two promises:

* **soundness** — when the analysis says the stores are private, no
  element is stored by two blocks.  An independent NumPy walk of the
  kernel computes who stores where; no shards race for it;
* **exactness** — a launch sharded over two threads, and over two worker
  processes, answers as the serial launch does: the same bytes, or the
  same error.

Stored values never equal the output's initial bytes, which keeps out the
one case the overlay assembly documents it cannot see (a later block
storing the original byte pattern back).
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro
from repro import LaunchOptions
from repro.engine import Grid, launch
from repro.errors import ExecutionError
from repro.kernel import ir
from repro.kernel.types import F32, I32, ArrayType, ScalarType
from repro.kernel.visitors import walk
from repro.parallel.analysis import analyze_shardability

_OUT = ir.ArrayRef("out", ArrayType(F32))
_INTRINSICS = {"i": "global_id", "b": "block_id", "t": "thread_id", "s": "block_dim"}
GRIDS = (Grid(2, 8), Grid(5, 4), Grid(3, 4, 1, 2))
P, Q = 3, 2  # the scalar params' launch values


def _var(name):
    return ir.Var(name, I32)


def _const(value):
    return ir.Const(value, I32)


def _term(draw, loop):
    kinds = ["i", "gid", "b", "t", "row", "rev", "p"] + (["j"] if loop else [])
    kind = draw(st.sampled_from(kinds))
    if kind == "gid":
        term = ir.Call("global_id", [], I32)
    elif kind == "row":
        term = ir.binop("mul", _var("b"), _var("s"))
    elif kind == "rev":  # threads in reverse: block_dim * block_dim_y - 1 - thread_id
        threads = ir.binop("mul", _var("s"), ir.Call("block_dim_y", [], I32))
        term = ir.binop("sub", ir.binop("sub", threads, _const(1)), _var("t"))
    else:
        term = _var(kind)
    scale = draw(st.sampled_from([1, 1, 2, 3]))
    return term if scale == 1 else ir.binop("mul", _const(scale), term)


def _index(draw, loop, earlier=()):
    """An index and its part before the constant offset; half the time
    that part is an earlier site's, so sites often differ by a constant."""
    if earlier and draw(st.booleans()):
        base = draw(st.sampled_from(earlier))
    else:
        base = _term(draw, loop)
        for _ in range(draw(st.sampled_from([0, 0, 1, 2]))):
            base = ir.binop("add", base, _term(draw, loop))
    offset = draw(st.integers(0, 3))
    return (ir.binop("add", base, _const(offset)) if offset else base), base


def _site(draw, number, earlier, loop=None):
    index, base = _index(draw, loop, earlier)
    if loop is None:  # (a base that reads `j` means nothing outside its loop)
        earlier.append(base)
    # >= 1: with the output filled with -1 no store, plain or read-modify-
    # write, puts the initial bytes back
    value = ir.binop("add", ir.binop("mul", _var("i"), _const(4)), _const(number + 1))
    value = ir.Cast(value, F32)
    if draw(st.integers(0, 3)) == 0:  # read-modify-write, through this or another index
        read = index if draw(st.booleans()) else _index(draw, loop, [base])[0]
        value = ir.binop("add", ir.Load(_OUT, read), value)
    stmt = ir.Store(_OUT, index, value)
    guard = draw(st.sampled_from([None, None, "lane", "parity", "block"]))
    if guard == "lane":
        stmt = ir.If(ir.binop("lt", _var("t"), _const(3)), [stmt])
    elif guard == "parity":
        stmt = ir.If(ir.binop("eq", ir.binop("mod", _var("i"), _const(2)), _const(0)), [stmt])
    elif guard == "block":
        stmt = ir.If(ir.binop("lt", _var("b"), _var("p")), [stmt])
    return stmt


@st.composite
def _kernels(draw):
    body = [ir.Assign(name, ir.Call(func, [], I32)) for name, func in _INTRINSICS.items()]
    overwrite = draw(st.sampled_from([None, None, "p", "p_block", "q_block"]))
    if overwrite == "p":  # still one value per launch, but not the launch's
        body.append(ir.Assign("p", ir.binop("add", _var("p"), _const(1))))
    elif overwrite == "p_block":
        body.append(ir.Assign("p", ir.binop("add", _var("b"), _const(1))))
    elif overwrite == "q_block":
        body.append(ir.Assign("q", ir.binop("add", ir.binop("mod", _var("b"), _const(2)), _const(1))))
    earlier = []  # index bases of the sites so far
    for number in range(draw(st.integers(1, 3))):
        loop = draw(st.sampled_from([None, None, "const", "param"]))
        if loop is None:
            body.append(_site(draw, number, earlier))
            continue
        stop = _const(draw(st.integers(1, 3))) if loop == "const" else _var("q")
        inner = [_site(draw, number, earlier, "j")]
        body.append(ir.For("j", _const(0), stop, _const(1), inner))
    params = [
        ir.Param("out", ArrayType(F32)),
        ir.Param("p", ScalarType(I32)),
        ir.Param("q", ScalarType(I32)),
    ]
    fn = ir.Function("stores", params, body)
    module = ir.Module()
    module.add(fn)
    return fn, module


# ------------------------------------------------------------- the oracle


def _eval(expr, env):
    if isinstance(expr, ir.Const):
        return np.int64(expr.value)
    if isinstance(expr, ir.Var):
        return env[expr.name]
    if isinstance(expr, ir.Call):
        return env["%" + expr.func]
    left, right = _eval(expr.left, env), _eval(expr.right, env)
    ops = {"add": np.add, "sub": np.subtract, "mul": np.multiply, "mod": np.mod,
           "lt": np.less, "eq": np.equal}
    return ops[expr.op](left, right)


def _who_stores(fn, grid):
    """``(element, block)`` of every store a live lane makes, and an output
    size every index any lane computes fits (live or not)."""
    lanes = np.arange(grid.threads, dtype=np.int64)
    env = {
        "%global_id": lanes,
        "%thread_id": lanes % grid.block_threads,
        "%block_id": lanes // grid.block_threads,
        "%block_dim": np.int64(grid.threads_per_block),
        "%block_dim_y": np.int64(grid.threads_per_block_y),
        "p": np.int64(P),
        "q": np.int64(Q),
    }
    stores, reached = [], [0]

    def lanewise(expr):
        return np.broadcast_to(_eval(expr, env), lanes.shape)

    def run(body, live):
        for stmt in body:
            if isinstance(stmt, ir.Assign):
                env[stmt.target] = lanewise(stmt.value)
            elif isinstance(stmt, ir.Store):
                loads = [n.index for n in walk(stmt.value) if isinstance(n, ir.Load)]
                reached.extend(int(lanewise(i).max()) for i in [stmt.index] + loads)
                where = lanewise(stmt.index)
                stores.extend(zip(where[live].tolist(), env["%block_id"][live].tolist()))
            elif isinstance(stmt, ir.If):
                run(stmt.then_body, live & lanewise(stmt.cond))
            elif isinstance(stmt, ir.For):
                stop = lanewise(stmt.stop)
                for j in range(int(stop.max())):
                    env[stmt.var] = np.int64(j)
                    run(stmt.body, live & (j < stop))

    run(fn.body, np.ones(grid.threads, bool))
    return stores, max(reached) + 1


def _outcome(fn, module, grid, size, **lane):
    """The output's bytes, or the error (every lane raises what serial
    does: a loop stop that varies)."""
    out = np.full(size, -1.0, np.float32)
    try:
        launch(fn, grid, [out, P, Q], module=module, options=LaunchOptions(backend="codegen", **lane))
    except ExecutionError as exc:
        return f"{type(exc).__name__}: {exc}"
    return out.tobytes()


@pytest.fixture(scope="module", autouse=True)
def _process_pool():
    repro.reset()
    yield
    repro.reset()


@settings(max_examples=150, deadline=None, derandomize=True)
@given(_kernels())
def test_generated_stores_are_judged_soundly_and_shard_exactly(case):
    fn, module = case
    for grid in GRIDS:
        verdict = analyze_shardability(fn, module, flat=grid.threads_per_block_y == 1)
        stores, size = _who_stores(fn, grid)
        if verdict.shardable and verdict.disjoint_writes:
            writers = {}
            for element, block in stores:
                writers.setdefault(element, set()).add(block)
            shared = {e: sorted(b) for e, b in writers.items() if len(b) > 1}
            assert not shared, f"{verdict.describe()} on {grid}, yet blocks share {shared}"
        serial = _outcome(fn, module, grid, size)
        for executor in ("thread", "process"):
            sharded = _outcome(
                fn, module, grid, size, parallel=2, min_shard_threads=1, executor=executor
            )
            assert sharded == serial, f"{verdict.describe()} on {grid}, {executor} lane"
