"""Compiled-variant caching for approximation sessions.

``Paraprox.compile`` re-detects patterns and regenerates every variant on
each call; a serving runtime cannot afford that on restart or per request.
The cache keys a compiled :class:`~repro.approx.base.VariantSet` (plus the
serialized tuning result, once available) by a **stable fingerprint** of
everything that determines the artifact:

* the kernel IR, rendered to canonical text (same printer the golden
  tests use) — any source change invalidates,
* the :class:`~repro.approx.compiler.ParaproxConfig` knob ranges,
* the device spec, and
* the TOQ.

Entries live in-process (a dict — repeat ``compile()`` calls are a hash
lookup) and optionally on disk as pickles, so a fresh process starts warm.
"""

from __future__ import annotations

import hashlib
import json
import pickle
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Optional

from ..approx.base import VariantSet
from ..device import DeviceSpec
from ..kernel.printer import print_module
from ..resilience.faults import SITE_CACHE_LOAD, maybe_inject

#: Bump when the pickle layout changes; mismatched entries are misses.
CACHE_FORMAT = 3  # 3: VariantSet lost the `backend`/`parallel` fields


def app_fingerprint(app) -> str:
    """A stable text fingerprint of the program an app serves.

    Single-kernel apps hash their kernel module's printed IR — the
    canonical form, insensitive to object identity but sensitive to any
    code change.  Multi-kernel apps (custom ``build_variants`` pipelines)
    fall back to their class name and constructor-visible attributes.
    """
    kernel = getattr(app, "kernel", None)
    module = getattr(kernel, "module", None)
    if module is not None:
        return f"ir:{print_module(module)}"
    shape = {
        k: repr(v)
        for k, v in sorted(vars(app).items())
        if isinstance(v, (int, float, str, bool, tuple)) or v is None
    }
    return f"app:{type(app).__name__}:{json.dumps(shape, sort_keys=True)}"


def cache_key(app, config, spec: DeviceSpec, toq: float) -> str:
    """SHA-256 over everything that determines the compiled artifact."""
    payload = json.dumps(
        {
            "format": CACHE_FORMAT,
            "app": app_fingerprint(app),
            "config": config.to_dict(),
            "device": {"kind": spec.kind.value, "name": spec.name},
            "toq": round(float(toq), 12),
        },
        sort_keys=True,
    )
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


@dataclass
class CacheEntry:
    """One cached compilation (and, once tuned, its tuning result)."""

    key: str
    variants: VariantSet
    tuning: Optional[dict] = None  # TuningResult.to_dict() form
    meta: Dict[str, object] = field(default_factory=dict)


class VariantCache:
    """Two-level (memory, disk) cache of compiled variant sets.

    Args:
        cache_dir: directory for the disk level; ``None`` disables it and
            the cache is purely in-process.
    """

    def __init__(self, cache_dir: Optional[object] = None) -> None:
        self._memory: Dict[str, CacheEntry] = {}
        self.cache_dir = Path(cache_dir) if cache_dir is not None else None
        if self.cache_dir is not None:
            self.cache_dir.mkdir(parents=True, exist_ok=True)

    def _path(self, key: str) -> Optional[Path]:
        if self.cache_dir is None:
            return None
        return self.cache_dir / f"{key}.pkl"

    # -- lookup ----------------------------------------------------------------

    def get(self, key: str) -> Optional[CacheEntry]:
        """The entry for ``key``, or None.  Disk hits are promoted to the
        memory level; corrupt or format-mismatched files count as misses."""
        entry = self._memory.get(key)
        if entry is not None:
            return entry
        path = self._path(key)
        if path is None or not path.exists():
            return None
        try:
            # Fault-injection seam: an injected load failure exercises the
            # same containment as a truly corrupt file — a miss, recompile.
            maybe_inject(SITE_CACHE_LOAD, key)
            with path.open("rb") as fh:
                payload = pickle.load(fh)
            if payload.get("format") != CACHE_FORMAT or payload.get("key") != key:
                return None
            entry = CacheEntry(
                key=key,
                variants=payload["variants"],
                tuning=payload.get("tuning"),
                meta=payload.get("meta", {}),
            )
        except Exception:
            # A bad cache file must never break serving; recompile instead.
            return None
        self._memory[key] = entry
        return entry

    def tier(self, key: str) -> str:
        """Which level would serve ``key``: "memory", "disk" or "miss"."""
        if key in self._memory:
            return "memory"
        path = self._path(key)
        if path is not None and path.exists():
            return "disk"
        return "miss"

    # -- store -----------------------------------------------------------------

    def put(self, entry: CacheEntry) -> None:
        """Store at both levels (atomic rename on disk).

        The disk copy drops ``VariantSet.exact``: the exact program is a
        live ``KernelFn`` closure over the app's decorated function (not
        picklable, and not needed — the session reattaches ``app.kernel``
        after a disk hit).
        """
        self._memory[entry.key] = entry
        path = self._path(entry.key)
        if path is None:
            return
        variants = entry.variants
        if isinstance(variants, VariantSet) and variants.exact is not None:
            import dataclasses

            variants = dataclasses.replace(variants, exact=None)
        payload = {
            "format": CACHE_FORMAT,
            "key": entry.key,
            "variants": variants,
            "tuning": entry.tuning,
            "meta": entry.meta,
        }
        tmp = path.with_suffix(".tmp")
        try:
            with tmp.open("wb") as fh:
                pickle.dump(payload, fh, protocol=pickle.HIGHEST_PROTOCOL)
            tmp.replace(path)
        except Exception:
            # Disk persistence is best-effort; the memory level still holds
            # the entry and serving proceeds.
            tmp.unlink(missing_ok=True)

    def invalidate(self, key: str) -> None:
        self._memory.pop(key, None)
        path = self._path(key)
        if path is not None:
            path.unlink(missing_ok=True)

    def clear(self) -> None:
        self._memory.clear()
        if self.cache_dir is not None:
            for path in self.cache_dir.glob("*.pkl"):
                path.unlink(missing_ok=True)

    def __len__(self) -> int:
        return len(self._memory)
