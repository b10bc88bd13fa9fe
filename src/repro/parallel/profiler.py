"""Memoization support for concurrent variant profiling.

``GreedyTuner.profile`` evaluates every variant against every training
input set.  A serving session repeats that work on every recalibration,
even though most variants (and the input sets they are measured on) have
not changed.  :class:`ProfileCache` memoizes the per-(variant, input-set)
measurement — quality and modelled cycles — keyed on *content*: the app,
the device, the variant's kernel IR fingerprint (falling back to its
name + knobs), and the input set's array-byte fingerprint.  A session
owns one cache and passes it to every tuner it builds, so recalibration
after drift only re-measures variants whose IR or inputs actually
changed.

The cache is thread-safe: with ``workers > 1`` the tuner evaluates
variants concurrently on the ``"profile"`` pool and all workers share
one cache.
"""

from __future__ import annotations

import threading
from typing import Dict, Optional, Tuple

from .._state import Store

#: (quality, modelled cycles) for one (variant, input set) measurement.
Measurement = Tuple[float, float]


def variant_identity(variant) -> str:
    """A content key for one variant.

    Prefers the fingerprint of the variant's kernel IR (robust against
    two differently-configured variants sharing a name); falls back to
    ``name + knobs`` for variants without a module (e.g. scan pipeline
    variants, whose knobs fully determine behaviour).
    """
    module = getattr(variant, "module", None)
    kernel_name = getattr(variant, "kernel", None)
    if module is not None and kernel_name is not None:
        try:
            from ..codegen.fingerprint import fingerprint_kernel

            return fingerprint_kernel(module[kernel_name], module)
        except Exception:
            pass
    knobs = getattr(variant, "knobs", {}) or {}
    return f"{variant.name}|{sorted(knobs.items())!r}"


def profile_key(app_name: str, device: str, variant, fingerprint: Tuple) -> Tuple:
    """The full memoization key for one (variant, input set) evaluation;
    ``fingerprint`` is the input set's :func:`_input_fingerprint`, taken
    once per input set by the caller rather than once per variant."""
    return (app_name, device, variant_identity(variant), fingerprint)


class ProfileCache:
    """Thread-safe LRU memo of (variant, input-set) -> (quality, cycles).

    An unregistered :class:`repro._state.Store` of ``max_entries`` holds the
    measurements (each session owns its cache, so :func:`repro.reset` does
    not reach it); a hit touches its entry, so on overflow the
    least-recently-*used* entry is evicted — recalibration re-touches the
    live variants' measurements, and churn from one-off inputs cannot push
    the working set out.  A key keeps its first measurement: a put for a
    key already held (two workers that measured it at once) is a no-op.
    """

    def __init__(self, max_entries: int = 4096) -> None:
        if max_entries < 1:
            from ..errors import ConfigError

            raise ConfigError(
                f"max_entries must be >= 1, got {max_entries!r}"
            )
        self.max_entries = max_entries
        self._store = Store(cap=max_entries, on_evict=self._evicted)
        #: guards the three counters only; the store has its own lock
        self._lock = threading.Lock()
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    def get(self, key: Tuple) -> Optional[Measurement]:
        value = self._store.get(key)
        with self._lock:
            if value is None:
                self.misses += 1
            else:
                self.hits += 1
        if value is not None:
            self._store.touch(key)
        return value

    def put(self, key: Tuple, value: Measurement) -> None:
        self._store.put(key, value)

    def _evicted(self, _value: Measurement) -> None:
        with self._lock:
            self.evictions += 1

    def __len__(self) -> int:
        return len(self._store)

    def snapshot(self) -> Dict[str, int]:
        with self._lock:
            return {
                "entries": len(self._store),
                "hits": self.hits,
                "misses": self.misses,
                "evictions": self.evictions,
                "max_entries": self.max_entries,
            }

    def clear(self) -> None:
        self._store.clear()
        with self._lock:
            self.hits = 0
            self.misses = 0
            self.evictions = 0
