"""Bit tuning: dividing quantization bits between inputs (paper §3.1.3).

Given a lookup-table budget of ``Q`` address bits and ``k`` variable
inputs, bit tuning searches for the per-input split ``(q_1..q_k)`` with
``sum(q_i) = Q`` that maximises output quality on the training data.  As
in paper Fig 4:

* the root of the search tree divides the bits equally,
* each child moves one bit between *adjacent* inputs,
* steepest-ascent hill climbing follows the best child until no child
  improves on its parent.

Quality of a node is computed without materialising a table: the inputs
are snapped to their quantization levels, the *exact* function is
evaluated on the snapped values, and the result is compared against the
exact outputs ("bit tuning does not need to use an actual lookup table").

A node of ``Q`` bits has at most ``2**Q`` distinct snapped points, often
far fewer than the training samples.  When ``2**Q`` does not exceed the
sample count, the function is evaluated once per table address the
samples reach and the outputs are scattered back to the samples.  This is
exact: the address is the concatenated level indices, so unpacking a
distinct address and dequantizing it gives the very float64 inputs the
samples at that address snap to, and the function is evaluated
elementwise, so each sample gets the output it would have got on its own.
Beyond ``2**Q`` samples the snapped samples are evaluated directly, which
keeps memory linear in the sample count.

The table-size search wraps bit tuning: starting from the default
2048-entry table it doubles while quality misses the TOQ and shrinks while
quality exceeds it, returning the frontier of explored sizes so the
runtime can keep several tables warm (the paper found three suffice).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from .quantize import (
    InputRange,
    dequantize,
    pack_address,
    quantize_index,
    unpack_address,
)

#: Default table size the search starts from: 2048 entries = 11 bits.
DEFAULT_TABLE_BITS = 11

#: Hard cap on table address bits (2**22 x f32 = 16 MiB).
MAX_TABLE_BITS = 22

MIN_TABLE_BITS = 3


@dataclass
class BitConfig:
    """One node of the bit-tuning tree."""

    bits: Tuple[int, ...]
    quality: float

    @property
    def total(self) -> int:
        return sum(self.bits)


def equal_split(total: int, k: int) -> Tuple[int, ...]:
    """The root node: divide ``total`` bits as evenly as possible."""
    if k <= 0:
        raise ValueError("need at least one variable input")
    base, rem = divmod(total, k)
    return tuple(base + (1 if i < rem else 0) for i in range(k))


def neighbours(bits: Tuple[int, ...]) -> List[Tuple[int, ...]]:
    """Children of a node: one bit moved between adjacent inputs."""
    out = []
    for i in range(len(bits) - 1):
        for src, dst in ((i, i + 1), (i + 1, i)):
            if bits[src] > 0:
                child = list(bits)
                child[src] -= 1
                child[dst] += 1
                out.append(tuple(child))
    return out


class BitTuner:
    """Steepest-ascent hill climbing over bit assignments.

    Args:
        evaluate: elementwise function taking quantized input arrays (one
            per variable input, of equal length) and returning one output
            per element.
        training_inputs: one array per variable input.
        exact_outputs: exact function outputs for the training inputs.
        quality_fn: (approx_outputs, exact_outputs) -> quality in [0, 1].
        ranges: training ranges (computed from the inputs if omitted).
    """

    def __init__(
        self,
        evaluate: Callable[..., np.ndarray],
        training_inputs: Sequence[np.ndarray],
        exact_outputs: np.ndarray,
        quality_fn: Callable[[np.ndarray, np.ndarray], float],
        ranges: Optional[Sequence[InputRange]] = None,
    ) -> None:
        self.evaluate = evaluate
        self.inputs = [np.asarray(a, dtype=np.float64) for a in training_inputs]
        self.exact = np.asarray(exact_outputs)
        self.quality_fn = quality_fn
        self.ranges = (
            list(ranges) if ranges is not None else [InputRange.of(a) for a in self.inputs]
        )
        self._cache: Dict[Tuple[int, ...], float] = {}
        self.nodes_evaluated = 0
        #: hill-climb trail of the most recent tune(): one entry per step,
        #: (current node, quality, [(child, quality), ...]) — the data of
        #: paper Fig 4.
        self.path: List[Tuple[Tuple[int, ...], float, List[Tuple[Tuple[int, ...], float]]]] = []

    def node_quality(self, bits: Tuple[int, ...]) -> float:
        """Quality of one bit split, memoized across the search."""
        if bits in self._cache:
            return self._cache[bits]
        levels = [
            quantize_index(x, rng, q)
            for x, rng, q in zip(self.inputs, self.ranges, bits)
        ]
        rank = None
        if (1 << sum(bits)) <= self.inputs[0].size:
            # One evaluation per table address reached, scattered back by
            # each sample's rank among those addresses.
            addr = pack_address(levels, bits)
            present = np.zeros(1 << sum(bits), dtype=bool)
            present[addr] = True
            rank = (np.cumsum(present) - 1)[addr]
            levels = unpack_address(np.flatnonzero(present), bits)
        approx = self.evaluate(
            *(dequantize(i, rng, q) for i, rng, q in zip(levels, self.ranges, bits))
        )
        if rank is not None:
            approx = np.asarray(approx)[rank]
        quality = float(self.quality_fn(approx, self.exact))
        self._cache[bits] = quality
        self.nodes_evaluated += 1
        return quality

    def tune(self, total_bits: int) -> BitConfig:
        """Run the hill climb for a table of ``2**total_bits`` entries."""
        self.path = []
        current = equal_split(total_bits, len(self.inputs))
        current_q = self.node_quality(current)
        while True:
            children = [(c, self.node_quality(c)) for c in neighbours(current)]
            self.path.append((current, current_q, children))
            best_child, best_q = None, current_q
            for child, q in children:
                if q > best_q:
                    best_child, best_q = child, q
            if best_child is None:
                return BitConfig(current, current_q)
            current, current_q = best_child, best_q


@dataclass
class TableSearchResult:
    """Outcome of the TOQ-driven table-size search."""

    #: the smallest explored configuration that satisfies the TOQ (None if
    #: even the largest table missed it)
    chosen: Optional[BitConfig]
    #: every configuration explored, by total bits (the runtime keeps a few
    #: of these warm for fast switching)
    explored: Dict[int, BitConfig]

    def best_available(self) -> BitConfig:
        """Chosen config, or the highest-quality one when TOQ was missed."""
        if self.chosen is not None:
            return self.chosen
        return max(self.explored.values(), key=lambda c: (c.quality, -c.total))


def search_table_size(
    tuner: BitTuner,
    toq: float,
    start_bits: int = DEFAULT_TABLE_BITS,
    min_bits: int = MIN_TABLE_BITS,
    max_bits: int = MAX_TABLE_BITS,
) -> TableSearchResult:
    """Find the smallest table whose tuned quality meets the TOQ (§3.1.3).

    Starting from ``start_bits``: if quality beats the TOQ the size halves
    (smaller tables are faster) until it would drop below the TOQ; if it
    misses, the size doubles until it is met or ``max_bits`` is reached.
    """
    lo = max(min_bits, 1)
    explored: Dict[int, BitConfig] = {}

    def tuned(bits: int) -> BitConfig:
        if bits not in explored:
            explored[bits] = tuner.tune(bits)
        return explored[bits]

    bits = int(np.clip(start_bits, lo, max_bits))
    config = tuned(bits)
    if config.quality >= toq:
        chosen = config
        while bits > lo:
            smaller = tuned(bits - 1)
            if smaller.quality < toq:
                break
            bits -= 1
            chosen = smaller
        return TableSearchResult(chosen=chosen, explored=explored)
    while bits < max_bits:
        bits += 1
        config = tuned(bits)
        if config.quality >= toq:
            return TableSearchResult(chosen=config, explored=explored)
    return TableSearchResult(chosen=None, explored=explored)
