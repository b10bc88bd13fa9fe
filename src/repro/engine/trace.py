"""Dynamic execution traces.

The interpreter records what a kernel launch *did* — how many times each
class of instruction issued, and the shape of every memory access stream —
and the device cost model (:mod:`repro.device.costmodel`) turns that record
into cycles for a GPU-like or CPU-like machine.  This replaces the paper's
wall-clock measurements on a GTX 560 / Core i7: speedups are ratios of
modelled cycles between the exact and approximate traces of the *same*
workload.

Coalescing statistics are gathered the way the hardware does it: the
addresses issued by each 32-thread warp are mapped to 128-byte segments and
the number of distinct segments is the number of memory transactions that
warp costs (this is what makes large lookup tables slow in paper Fig 17).
To bound overhead the trace samples at most ``COALESCE_SAMPLE`` threads per
access site; the per-warp transaction average is unbiased under the
grid-stride layouts our kernels use.

A loop body issues the same sampled addresses again and again (a tile
loop re-reads its shared tile in every tile, a reduction re-reads its
query row for every point).  Each stream remembers what the first
``PRICED_PATTERNS`` distinct patterns it priced cost, so a repeat adds
the stored counts instead of sorting the warps again; the trace it
records is the same either way (docs/COSTMODEL.md).
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import Dict, Optional, Tuple

import numpy as np

WARP_SIZE = 32
SEGMENT_BYTES = 128
COALESCE_SAMPLE = 4096


def _max_run_length(sorted_rows: np.ndarray) -> int:
    """Longest run of equal values in each (sorted) row, summed over rows.

    For a warp's atomic addresses this is the serialization chain length:
    ``k`` lanes updating one address retire in ``k`` serial steps.
    """
    rows = np.asarray(sorted_rows)
    if rows.shape[1] < 2:
        return rows.shape[0]
    # A lane's run began at the last lane (its own included) that differs
    # from its left neighbour, or at lane 0; its run is that many lanes long.
    lane = np.arange(1, rows.shape[1])
    run_start = np.maximum.accumulate(
        np.where(rows[:, 1:] == rows[:, :-1], 0, lane), axis=1
    )
    return rows.shape[0] + int((lane - run_start).max(axis=1).sum())


def _distinct(values: np.ndarray) -> np.ndarray:
    """Sorted distinct values of a 1-d array (``np.unique`` without its
    dispatch cost, which dominates at the sizes the recorder sees)."""
    ordered = np.sort(values)
    keep = np.ones(ordered.size, dtype=bool)
    np.not_equal(ordered[1:], ordered[:-1], out=keep[1:])
    return ordered[keep]


def _bank_conflict_depth(warp_rows: np.ndarray) -> int:
    """Deepest same-bank pile-up of each warp (one row of word addresses
    per warp, 32 word-interleaved banks), summed over warps."""
    warps = warp_rows.shape[0]
    # WARP_SIZE is a power of two, so the mask is the (floor) modulus.
    slots = (warp_rows & (WARP_SIZE - 1)) + (np.arange(warps) * WARP_SIZE)[:, None]
    per_bank = np.bincount(slots.ravel(), minlength=warps * WARP_SIZE)
    return int(per_bank.reshape(warps, WARP_SIZE).max(axis=1).sum())


#: Cap on the per-stream distinct-segment set used for the working-set
#: estimate; beyond this the estimate saturates (the cache model only needs
#: "bigger than any cache").
MAX_TRACKED_SEGMENTS = 1 << 16

#: Distinct address patterns one stream remembers the price of.  A key
#: holds at most ``COALESCE_SAMPLE`` addresses of at most 8 bytes, so one
#: stream's memo holds at most 64 x 32 KiB = 2 MiB of keys.
PRICED_PATTERNS = 64


@dataclass
class MemStats:
    """Aggregate statistics for one (space, op-kind) memory stream."""

    accesses: int = 0  # thread-level load/store executions
    bytes: int = 0
    warps: int = 0  # sampled warps inspected for coalescing
    transactions: int = 0  # 128B segment transactions those warps issued
    #: sum over sampled warps of the largest same-address multiplicity —
    #: the serialization chain length of atomic RMWs (1 = conflict-free)
    atomic_chain: int = 0
    #: distinct 128-byte segments touched (capped working-set estimate)
    segments: set = field(default_factory=set)
    segments_saturated: bool = False
    #: (element size, dtype, sampled address bytes) -> (warps, transactions,
    #: atomic chain) that pattern added, for at most ``PRICED_PATTERNS``
    #: patterns.  A recording cache, not trace data: no ``==``, ``repr``,
    #: ``merge`` or pickle sees it.
    priced: dict = field(
        default_factory=dict, init=False, repr=False, compare=False
    )

    @property
    def transactions_per_warp(self) -> float:
        """Mean 128-byte transactions per fully-populated warp (1 = perfectly
        coalesced, 32 = fully serialized)."""
        if self.warps == 0:
            return 1.0
        return self.transactions / self.warps

    @property
    def atomic_chain_per_warp(self) -> float:
        """Mean serialization chain length of atomics per sampled warp."""
        if self.warps == 0:
            return 1.0
        return max(1.0, self.atomic_chain / self.warps)

    @property
    def working_set_bytes(self) -> int:
        """Estimated footprint of this stream (saturating)."""
        if self.segments_saturated:
            return MAX_TRACKED_SEGMENTS * SEGMENT_BYTES * 4
        return len(self.segments) * SEGMENT_BYTES

    def note_segments(self, segs) -> None:
        """Fold segment ids (repeats allowed) into the working-set
        estimate.  The set holds Python ints; callers pre-reduce large
        streams (see :meth:`Trace.record_access`) so this stays cheap."""
        if self.segments_saturated:
            return
        self.segments.update(np.asarray(segs).ravel().tolist())
        if len(self.segments) > MAX_TRACKED_SEGMENTS:
            self.segments_saturated = True
            self.segments = set()

    def __getstate__(self) -> dict:
        state = dict(self.__dict__)
        del state["priced"]
        return state

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state, priced={})

    def merge(self, other: "MemStats") -> None:
        self.accesses += other.accesses
        self.bytes += other.bytes
        self.warps += other.warps
        self.transactions += other.transactions
        self.atomic_chain += other.atomic_chain
        if other.segments_saturated:
            self.segments_saturated = True
            self.segments = set()
        elif not self.segments_saturated:
            self.segments.update(other.segments)
            if len(self.segments) > MAX_TRACKED_SEGMENTS:
                self.segments_saturated = True
                self.segments = set()


def _price(
    stats: MemStats, space: str, kind: str, element_size: int, sample: np.ndarray
) -> Tuple[int, int, int]:
    """Note a 1-d address sample's segments in ``stats`` and return the
    (warps, transactions, atomic chain) it costs."""
    segs = sample * element_size // SEGMENT_BYTES
    full_warps = sample.size // WARP_SIZE
    if full_warps == 0:
        # Fewer than one warp of threads: a single partial warp, priced
        # by distinct segments in every space.
        distinct = _distinct(segs)
        stats.note_segments(distinct)
        chain = (
            _max_run_length(np.sort(sample)[None, :]) if kind == "atomic" else 0
        )
        return 1, int(distinct.size), chain
    lanes = full_warps * WARP_SIZE
    warp_view = sample[:lanes].reshape(full_warps, WARP_SIZE)
    # Each warp's segment ids, sorted: the first of every run is a
    # distinct segment of that warp.  Those (plus the ragged tail) are
    # all the working-set estimate needs — usually a few dozen ids
    # instead of the whole sample — and for global streams their count
    # is the transaction count.
    warp_segs = np.sort(segs[:lanes].reshape(full_warps, WARP_SIZE), axis=1)
    new_seg = warp_segs[:, 1:] != warp_segs[:, :-1]
    stats.note_segments(
        _distinct(
            np.concatenate((warp_segs[:, 0], warp_segs[:, 1:][new_seg], segs[lanes:]))
        )
    )
    if space == "shared":
        # Shared memory serializes on *bank* conflicts: a warp costs as
        # many cycles as the deepest same-bank pile-up (32 banks, word
        # interleaved).
        transactions = _bank_conflict_depth(warp_view)
    elif space == "constant":
        # The constant cache broadcasts one *word* per cycle: a warp
        # costs one step per distinct address it requests.
        words = np.sort(warp_view, axis=1)
        transactions = full_warps + int(np.count_nonzero(words[:, 1:] != words[:, :-1]))
    else:
        transactions = full_warps + int(np.count_nonzero(new_seg))
    chain = (
        _max_run_length(np.sort(warp_view, axis=1)) if kind == "atomic" else 0
    )
    return full_warps, transactions, chain


@dataclass
class Trace:
    """Everything the cost model needs to price a (sequence of) launches."""

    #: (latency_class, dtype_name) -> number of thread-level executions.
    op_counts: Counter = field(default_factory=Counter)
    #: (space, kind, array) -> MemStats, kind in "load" | "store" | "atomic".
    #: Keeping streams separate per array lets the cache model see each
    #: buffer's own working set (a 4 KiB lookup table must not inherit the
    #: footprint of the input it is read alongside).
    mem: Dict[Tuple[str, str, str], MemStats] = field(default_factory=dict)
    launches: int = 0
    threads_launched: int = 0

    # -- recording (called by the interpreter) ------------------------------

    def count_op(self, latency_class: str, dtype_name: str, times: int) -> None:
        if times:
            self.op_counts[(latency_class, dtype_name)] += int(times)

    def record_access(
        self,
        space: str,
        kind: str,
        element_size: int,
        count: int,
        addresses: Optional[np.ndarray],
        array: str = "",
    ) -> None:
        """Record ``count`` thread-level accesses; ``addresses`` (element
        indices, possibly a sample) drives the coalescing statistics for
        global-memory streams.

        A 0-d ``addresses`` is a *uniform* access — every lane reads the
        same element — and is priced in O(1) as the single partial warp
        the general path would make of a one-element sample: one warp, one
        transaction, chain 1, whatever the space or the lane count.

        A sample this stream has priced before adds the counts stored for
        it and notes no segments: the first pricing put them in the set,
        which only grows until it saturates and then ignores them.
        """
        key = (space, kind, array)
        stats = self.mem.get(key)
        if stats is None:
            stats = self.mem[key] = MemStats()
        stats.accesses += int(count)
        stats.bytes += int(count) * element_size
        if addresses is None:
            return
        if np.ndim(addresses) == 0:
            stats.note_segments(int(addresses) * element_size // SEGMENT_BYTES)
            stats.warps += 1
            stats.transactions += 1
            if kind == "atomic":
                stats.atomic_chain += 1
            return
        sample = np.asarray(addresses).ravel()[:COALESCE_SAMPLE]
        pattern = (element_size, sample.dtype.str, sample.tobytes())
        price = stats.priced.get(pattern)
        if price is None:
            price = _price(stats, space, kind, element_size, sample)
            if len(stats.priced) < PRICED_PATTERNS:
                stats.priced[pattern] = price
        warps, transactions, chain = price
        stats.warps += warps
        stats.transactions += transactions
        stats.atomic_chain += chain

    def count_launch(self, threads: int) -> None:
        self.launches += 1
        self.threads_launched += int(threads)

    # -- queries -------------------------------------------------------------

    def total_ops(self) -> int:
        return sum(self.op_counts.values())

    def ops_in_class(self, latency_class: str) -> int:
        return sum(
            n for (cls, _dt), n in self.op_counts.items() if cls == latency_class
        )

    def accesses(self, space: str, kind: str = None, array: str = None) -> int:
        return sum(
            s.accesses
            for (sp, k, arr), s in self.mem.items()
            if sp == space
            and (kind is None or k == kind)
            and (array is None or arr == array)
        )

    def merge(self, other: "Trace") -> None:
        """Fold another trace into this one (multi-kernel programs)."""
        self.op_counts.update(other.op_counts)
        for key, stats in other.mem.items():
            self.mem.setdefault(key, MemStats()).merge(stats)
        self.launches += other.launches
        self.threads_launched += other.threads_launched

    def copy(self) -> "Trace":
        fresh = Trace()
        fresh.merge(self)
        return fresh
