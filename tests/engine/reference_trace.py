"""The naive trace recorder, kept as the differential reference.

``ReferenceTrace`` is :class:`repro.engine.trace.Trace` with
``record_access``, ``_max_run_length`` and ``MemStats.note_segments`` as
they stood before the one-pass recorder (PR 17), kept verbatim: a Python
loop over the 31 lane pairs of a warp, the segment ids computed twice,
``np.unique`` + ``tolist`` on every access, no uniform-address case.  It is
slow and obviously right; ``test_trace_differential.py`` requires the
production recorder to agree with it field for field, on random address
streams and on whole kernel launches.  Do not optimise this file.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.engine.trace import (
    COALESCE_SAMPLE,
    MAX_TRACKED_SEGMENTS,
    SEGMENT_BYTES,
    WARP_SIZE,
    MemStats,
    Trace,
)


def reference_max_run_length(sorted_rows: np.ndarray) -> int:
    """Longest run of equal values in each (sorted) row, summed over rows."""
    rows = np.asarray(sorted_rows)
    if rows.shape[1] < 2:
        return rows.shape[0]
    eq = rows[:, 1:] == rows[:, :-1]
    run = np.zeros(rows.shape[0], dtype=np.int64)
    best = np.ones(rows.shape[0], dtype=np.int64)
    for j in range(eq.shape[1]):  # at most WARP_SIZE - 1 vector steps
        run = (run + 1) * eq[:, j]
        best = np.maximum(best, run + 1)
    return int(best.sum())


def reference_note_segments(stats: MemStats, segs: np.ndarray) -> None:
    if stats.segments_saturated:
        return
    stats.segments.update(np.unique(segs).tolist())
    if len(stats.segments) > MAX_TRACKED_SEGMENTS:
        stats.segments_saturated = True
        stats.segments = set()


@dataclass
class ReferenceTrace(Trace):
    def record_access(
        self,
        space: str,
        kind: str,
        element_size: int,
        count: int,
        addresses: Optional[np.ndarray],
        array: str = "",
    ) -> None:
        stats = self.mem.setdefault((space, kind, array), MemStats())
        stats.accesses += int(count)
        stats.bytes += int(count) * element_size
        if addresses is None:
            return
        sample = np.asarray(addresses).ravel()
        if sample.size > COALESCE_SAMPLE:
            sample = sample[:COALESCE_SAMPLE]
        all_segs = sample * element_size // SEGMENT_BYTES
        reference_note_segments(stats, all_segs)
        full_warps = sample.size // WARP_SIZE
        if full_warps == 0:
            # Fewer than one warp of threads: a single partial warp.
            stats.warps += 1
            stats.transactions += int(np.unique(all_segs).size)
            if kind == "atomic":
                addr_sorted = np.sort(sample)
                stats.atomic_chain += int(
                    reference_max_run_length(addr_sorted[None, :])
                )
            return
        warp_view = sample[: full_warps * WARP_SIZE].reshape(full_warps, WARP_SIZE)
        stats.warps += full_warps
        if space == "shared":
            banks = np.sort(warp_view % WARP_SIZE, axis=1)
            stats.transactions += reference_max_run_length(banks)
        elif space == "constant":
            words_sorted = np.sort(warp_view, axis=1)
            distinct = 1 + (words_sorted[:, 1:] != words_sorted[:, :-1]).sum(axis=1)
            stats.transactions += int(distinct.sum())
        else:
            segs_sorted = np.sort(
                warp_view * element_size // SEGMENT_BYTES, axis=1
            )
            distinct = 1 + (segs_sorted[:, 1:] != segs_sorted[:, :-1]).sum(axis=1)
            stats.transactions += int(distinct.sum())
        if kind == "atomic":
            stats.atomic_chain += reference_max_run_length(
                np.sort(warp_view, axis=1)
            )


def trace_fields(trace: Trace) -> dict:
    """Every field of a trace in comparable form (dict order included: the
    cost model sums floats in insertion order)."""
    return {
        "launches": trace.launches,
        "threads_launched": trace.threads_launched,
        "op_counts": list(trace.op_counts.items()),
        "mem": [
            (
                key, s.accesses, s.bytes, s.warps, s.transactions,
                s.atomic_chain, s.segments, s.segments_saturated,
            )
            for key, s in trace.mem.items()
        ],
    }
