"""How fast this machine runs right now, so that timings can be reported at
one reference speed.

The sandbox this benchmark is sized for shares its two cores with other
tenants: the same Python code runs anywhere between 1.0x and 2x its quiet
time, in episodes that last from a fraction of a second to minutes, so that
ten runs of an unchanged tree spread by 20-60 % on any absolute timing (see
``bench/README.md``, "Noise").  No statistic inside a ten-second run removes
an episode that outlasts the run.  What removes most of it is to time
a fixed loop, which belongs to the benchmark and never changes, between the
requests being measured: the ratio of its time now to its time on a quiet
machine is the *speed factor*, and every timing is divided by the factor
measured beside it.  Reported times therefore read "at reference speed"; the
wall-clock readings and the factor are kept in each run's ``detail``.

The loop runs in the measured process, on the thread that sends the
requests, or, in the open loop, generates them (``serving.run_segment``).
(In a process of its own it tracks a one-caller loop as well, but on the
sharded workloads it competes with the shard workers and tracks nothing.)
The factor therefore also sees what the program does to a Python thread
beside it — helper threads that take the interpreter lock, worker processes
tidying up on the same CPU — so a change that alters those moves the factor
as well as the timings: compare ``speed_factor`` across two commits before
trusting a difference in a normalised time.

This module imports nothing outside the standard library, so that a worker
can take its first sample before it has imported NumPy.
"""

from __future__ import annotations

import statistics
import time
from typing import List

clock = time.perf_counter

#: Seconds one :func:`reference_loop` takes on the quiet 2-core sandbox.
NOMINAL_S = 0.00080

#: Between requests the loop is timed at most this often.
INTERVAL_S = 0.04


class _Cell:
    __slots__ = ("a", "b", "c")

    def __init__(self, a, b, c) -> None:
        self.a, self.b, self.c = a, b, c


def _touch(cell: _Cell, table: dict, key: int) -> int:
    table[key] = cell.a + cell.b
    return table.get(key - 1, 0) + len(table)


def _work() -> None:
    table: dict = {}
    cells: List[_Cell] = []
    for i in range(1500):
        cell = _Cell(i, i + 1, (i, str(i)))
        cells.append(cell)
        _touch(cell, table, i)
        if i % 50 == 0:
            cells = sorted(cells, key=lambda c: -c.a)[:40]


def reference_loop() -> float:
    """Seconds taken by a fixed piece of interpreter work shaped like the
    stack under test: calls, attribute and dict traffic, small allocations."""
    _work()  # untimed: the first pass after a request finds the caches cold
    started = clock()
    _work()
    return clock() - started


class SpeedGauge:
    """Collects reference-loop timings; :meth:`factor` turns those gathered
    since the last call into one speed factor (1.0 = quiet machine, 1.3 =
    everything takes 1.3x as long)."""

    def __init__(self) -> None:
        self._samples: List[float] = []
        self._last = float("-inf")
        #: every factor handed out, for the run's report
        self.factors: List[float] = []

    def tick(self) -> None:
        """Call between requests: times the loop if one is due."""
        if self.idle_s() >= INTERVAL_S:
            self._samples.append(reference_loop())
            self._last = clock()

    def idle_s(self) -> float:
        """Seconds since the loop was last timed."""
        return clock() - self._last

    def sample(self, count: int) -> None:
        """Time the loop ``count`` times now — for phases that decide for
        themselves when (an open-loop segment, a cold start)."""
        for _ in range(count):
            self._samples.append(reference_loop())
        self._last = clock()

    def factor(self) -> float:
        """Speed factor of the samples since the previous call."""
        if not self._samples:
            self.sample(5)
        value = statistics.median(self._samples) / NOMINAL_S
        self._samples = []
        self.factors.append(value)
        return value

