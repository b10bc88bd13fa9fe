"""A zoo of kernels shared across the test suite.

Kernels must live in a real source file (the frontend reads them with
``inspect.getsource``), so the common ones are collected here instead of
being defined inline in tests.
"""

import numpy as np

from repro.engine import Grid
from repro.kernel import kernel, device
from repro.kernel.dsl import *  # noqa: F401,F403


# -- map / memoization candidates -------------------------------------------


@device
def cnd(d: f32) -> f32:
    """Cumulative normal distribution (polynomial approximation)."""
    k = 1.0 / (1.0 + 0.2316419 * fabs(d))
    w = k * (
        0.31938153
        + k * (-0.356563782 + k * (1.781477937 + k * (-1.821255978 + k * 1.330274429)))
    )
    ret = 1.0 - 0.3989422804 * exp(-0.5 * d * d) * w
    return ret if d > 0.0 else 1.0 - ret


@device
def bs_body(s: f32, x: f32, t: f32, r: f32, v: f32) -> f32:
    """Black-Scholes call price (the paper's BlackScholesBody)."""
    srt = v * sqrt(t)
    d1 = (log(s / x) + (r + 0.5 * v * v) * t) / srt
    d2 = d1 - srt
    return s * cnd(d1) - x * exp(-r * t) * cnd(d2)


@kernel
def black_scholes(
    call: array_f32, sp: array_f32, xp: array_f32, tp: array_f32, r: f32, v: f32, n: i32
):
    i = global_id()
    if i < n:
        call[i] = bs_body(sp[i], xp[i], tp[i], r, v)


@device
def cheap_square(x: f32) -> f32:
    """Too cheap to be worth memoizing (fails the Eq.-1 test)."""
    return x * x


@kernel
def square_map(out: array_f32, x: array_f32, n: i32):
    i = global_id()
    if i < n:
        out[i] = cheap_square(x[i])


@kernel
def gather_expensive(out: array_f32, x: array_f32, idx: array_i32, n: i32):
    i = global_id()
    if i < n:
        out[i] = bs_body(x[idx[i]], 100.0, 1.0, 0.02, 0.3)


@device
def impure_fn(x: f32) -> f32:
    printf(x)
    return x


@kernel
def impure_map(out: array_f32, x: array_f32, n: i32):
    i = global_id()
    if i < n:
        out[i] = impure_fn(x[i])


# -- stencil -----------------------------------------------------------------


@kernel
def mean3x3(out: array_f32, img: array_f32, w: i32, h: i32):
    gid = global_id()
    y = gid / w
    x = gid % w
    if (y > 0) and (y < h - 1) and (x > 0) and (x < w - 1):
        acc = 0.0
        acc += img[(y - 1) * w + (x - 1)]
        acc += img[(y - 1) * w + x]
        acc += img[(y - 1) * w + (x + 1)]
        acc += img[y * w + (x - 1)]
        acc += img[y * w + x]
        acc += img[y * w + (x + 1)]
        acc += img[(y + 1) * w + (x - 1)]
        acc += img[(y + 1) * w + x]
        acc += img[(y + 1) * w + (x + 1)]
        out[gid] = acc / 9.0
    else:
        if (y >= 0) and (y < h) and (x >= 0):
            out[gid] = img[gid]


@kernel
def row_stencil(out: array_f32, x: array_f32, n: i32):
    i = global_id()
    if (i >= 3) and (i < n - 3):
        acc = 0.0
        for j in range(-3, 4):
            acc += x[i + j]
        out[i] = acc / 7.0


# -- reduction ---------------------------------------------------------------


@kernel
def sum_chunks(out: array_f32, x: array_f32, n: i32, chunk: i32):
    """Phase-I style reduction: each thread sums a contiguous chunk."""
    i = global_id()
    acc = 0.0
    for k in range(0, 4096):
        idx = i * chunk + k
        if (k < chunk) and (idx < n):
            acc += x[idx]
    if i * chunk < n:
        out[i] = acc


@kernel
def atomic_histogram(hist: array_i32, x: array_i32, n: i32, chunk: i32):
    i = global_id()
    for k in range(0, 64):
        idx = i * chunk + k
        if (k < chunk) and (idx < n):
            atomic_add(hist, x[idx], 1)


@kernel
def min_reduce(out: array_f32, x: array_f32, n: i32, chunk: i32):
    i = global_id()
    best = 3.4e38
    for k in range(0, 4096):
        idx = i * chunk + k
        if (k < chunk) and (idx < n):
            best = fmin(best, x[idx])
    if i * chunk < n:
        out[i] = best


# -- scan (three-phase, paper Fig 9) ----------------------------------------

SCAN_BLOCK = 64


@kernel
def scan_phase1(partial: array_f32, sums: array_f32, x: array_f32):
    """In-block Hillis-Steele inclusive scan; also emits per-block sums."""
    sh = shared(SCAN_BLOCK, f32)
    t = thread_id()
    g = global_id()
    sh[t] = x[g]
    barrier()
    for d in range(0, 6):
        off = 1 << d
        prev = sh[t - off] if t >= off else 0.0
        barrier()
        sh[t] = sh[t] + prev
        barrier()
    partial[g] = sh[t]
    if t == SCAN_BLOCK - 1:
        sums[block_id()] = sh[t]


@kernel
def noop(out: array_f32, x: array_f32, n: i32):
    i = global_id()
    if i < n:
        out[i] = x[i]


def make_image(w=64, h=64, seed=0):
    rng = np.random.default_rng(seed)
    return rng.random((h, w)).astype(np.float32)


# -- codegen differential coverage ------------------------------------------


@device
def clamp01(x: f32) -> f32:
    """Multiple divergent returns inside a device function."""
    if x < 0.0:
        return 0.0
    if x > 1.0:
        return 1.0
    return x


@kernel
def clamp_map(out: array_f32, x: array_f32, n: i32):
    i = global_id()
    if i < n:
        out[i] = clamp01(x[i] * 1.5 - 0.25)


@kernel
def divergent_return(out: array_f32, x: array_f32, n: i32):
    """Lanes deactivate at different program points (guard + data return)."""
    i = global_id()
    if i >= n:
        return
    v = x[i]
    if v < 0.25:
        out[i] = 0.0
        return
    out[i] = sqrt(v)


@kernel
def tile_scale2d(out: array_f32, img: array_f32, w: i32, h: i32, gain: f32):
    """True 2-D launch addressing through the x/y intrinsic pairs."""
    x = global_id_x()
    y = global_id_y()
    if (x < w) and (y < h):
        out[y * w + x] = img[y * w + x] * gain


# -- memory-access resolution (repro.codegen.runtime.resolve_index) ---------

MM_TILE = 16


@kernel
def tiled_matmul(c: array_f32, a: array_f32, b: array_f32, n: i32, k: i32):
    """SDK-style shared-memory tiled GEMM, ``C[m,n] = A[m,k] @ B[k,n]`` with
    one 16x16 block per output tile: every lane of every access is in
    range, so no access should ever need the check or the clamp."""
    sh_a = shared(256, f32)
    sh_b = shared(256, f32)
    t = thread_id()
    ty = t / MM_TILE
    tx = t % MM_TILE
    row = (block_id() / (n / MM_TILE)) * MM_TILE + ty
    col = (block_id() % (n / MM_TILE)) * MM_TILE + tx
    acc = 0.0
    for tk in range(0, k / MM_TILE):
        sh_a[ty * MM_TILE + tx] = a[row * k + (tk * MM_TILE + tx)]
        sh_b[ty * MM_TILE + tx] = b[(tk * MM_TILE + ty) * n + col]
        barrier()
        for kk in range(0, MM_TILE):
            acc += sh_a[ty * MM_TILE + kk] * sh_b[kk * MM_TILE + tx]
        barrier()
    c[row * n + col] = acc


@kernel
def border_stencil(out: array_f32, x: array_f32, n: i32):
    """3-point stencil whose edge lanes index ``-1`` and ``n`` — under a
    predicate that keeps them dead, so the access must clamp, not raise."""
    i = global_id()
    if (i > 0) and (i < n - 1):
        out[i] = (x[i - 1] + x[i] + x[i + 1]) / 3.0
    else:
        if i < n:
            out[i] = x[i]


@kernel
def border_stencil_unguarded(out: array_f32, x: array_f32, n: i32):
    """:func:`border_stencil` without its predicate: lane 0 reads ``x[-1]``
    live, which must raise the same error on every backend."""
    i = global_id()
    out[i] = (x[i - 1] + x[i] + x[i + 1]) / 3.0


@kernel
def transpose_i64(out: array_f32, x: array_f32, w: i64, h: i64):
    """Indexes with int64 values straight out of integer ``/`` and ``%``
    (an ``i64`` extent keeps the quotient 64-bit through the result cast)."""
    gid = global_id()
    y = gid / w
    col = gid % w
    if y < h:
        out[col * h + y] = x[y * w + col]


@kernel
def saxpy_inplace(y: array_f32, x: array_f32, a: f32, n: i32):
    """Loads the array it stores, through one thread-private index: blocks
    stay independent, but the analysis proves no load private, so it runs
    serial."""
    i = global_id()
    if i < n:
        y[i] = a * x[i] + y[i]


@kernel
def rescale_inplace(y: array_f32, a: f32, n: i32):
    """Loads and stores ``y`` through two spellings of one private index."""
    i = global_id()
    if i < n:
        y[i] = a * y[global_id()]


# -- shardability corners: each store site is private, the array is not ------


@kernel
def overlapping_thread_stores(out: array_f32, n: i32):
    """Thread ``i``'s second store lands on thread ``i + 1``'s first, across
    the edge of a block too; serially the second site wins everywhere."""
    i = global_id()
    if i < n:
        out[i] = 1.0
        out[i + 1] = 2.0


@kernel
def overlapping_block_stores(out: array_f32, n: i32):
    """The block-private twin: block ``b``'s second store is block
    ``b + 1``'s first."""
    b = block_id()
    if b < n:
        out[b] = 1.0
        out[b + 1] = 2.0


@kernel
def block_varying_bound(out: array_f32, n: i32):
    """Overwrites its scalar param with a per-block value and loops up to
    it: the loop stop differs across threads, which every backend must
    refuse, sharded or not."""
    n = block_id() + 1
    acc = 0.0
    for k in range(0, n):
        acc += 1.0
    if thread_id() == 0:
        out[block_id()] = acc


@kernel
def block_guarded_bound(out: array_f32):
    """Every value assigned to ``k`` is a constant, but blocks past the
    first assign the second one: the loop stop differs across blocks, so
    it is not grid-uniform."""
    k = 2
    if block_id() > 0:
        k = 3
    acc = 0.0
    for j in range(0, k):
        acc += 1.0
    if thread_id() == 0:
        out[block_id()] = acc


@kernel
def uniform_store(out: array_f32, x: array_f32, n: i32):
    """Every lane stores its own value into the one element ``out[n]``:
    the last lane's value wins, as it does when the store sits under a
    mask."""
    out[n] = x[global_id()]


@kernel
def masked_uniform_store(out: array_f32, x: array_f32, n: i32, m: i32):
    """``uniform_store`` under ``if i < m``: the last active lane wins."""
    i = global_id()
    if i < m:
        out[n] = x[i]


def _rand(n, seed):
    return np.random.default_rng(seed).random(n, dtype=np.float32)


def saxpy_case(n):
    return saxpy_inplace, Grid.for_elements(n), [_rand(n, 13), _rand(n, 14), 2.5, n]


def matmul_case(m, n, k):
    tiles = (m // MM_TILE) * (n // MM_TILE)
    return (
        tiled_matmul,
        Grid(tiles, MM_TILE * MM_TILE),
        [np.zeros(m * n, np.float32), _rand(m * k, 9), _rand(k * n, 10), n, k],
    )


def border_case(kernel, n):
    """``border_stencil`` or its unguarded twin over ``n`` elements."""
    return kernel, Grid.for_elements(n), [np.zeros(n, np.float32), _rand(n, 11), n]


#: Launch recipes ``n -> (kernel, grid, args)`` for the kernels above, shared
#: by the codegen differential, the shard differential and the access-count
#: guard.
ACCESS_CASES = {
    # shared-memory tiles, every index in range: no check, no clamp
    "tiled_matmul": lambda n: matmul_case(32, 48, 64),
    # dead edge lanes index -1 and n: check the live lanes, clamp the rest
    "border_stencil": lambda n: border_case(border_stencil, n),
    # int64 indices straight out of c_divide_int / c_mod_int
    "transpose_i64": lambda n: (
        transpose_i64,
        Grid.for_elements(n),
        [np.zeros(n, np.float32), _rand(n, 12), 40, n // 40],
    ),
}
