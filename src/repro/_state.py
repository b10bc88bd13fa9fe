"""Process-wide state: one bounded store type, the registry of stores and
teardowns, and :func:`reset`.  docs/API.md, "Process-wide state", lists
every store with its cap."""

from __future__ import annotations

import os
import threading
import weakref
from collections import OrderedDict
from typing import Callable, Dict, List, Optional


class Store:
    """A map of at most ``cap`` entries (None: unbounded) that evicts the
    oldest-inserted entry first.

    ``get`` is the dict's own, so a read takes no lock; inserts, evictions
    and :meth:`clear` take the store's lock.  An entry keyed by ``id()``
    passes the keyed objects as ``pins``: the store holds them as long as
    the entry, so no other object can take their ids meanwhile.
    ``on_evict`` gets each evicted value, outside the lock.  A ``name``
    registers the store for :func:`reset`.  Values are never None (``get``
    answers None for a miss).
    """

    __slots__ = ("cap", "get", "_data", "_pins", "_lock", "_on_evict", "__weakref__")

    def __init__(
        self,
        name: Optional[str] = None,
        cap: Optional[int] = None,
        on_evict: Optional[Callable[[object], None]] = None,
    ) -> None:
        self.cap, self._on_evict = cap, on_evict
        self._data: OrderedDict = OrderedDict()
        self._pins: dict = {}
        self.get = self._data.get
        self._lock = threading.Lock()
        _ALL.add(self)
        if name is not None:
            _STORES[name] = self

    def put(self, key, value, pins: object = None):
        """Insert ``value`` unless ``key`` has one already; returns the
        value the store holds for ``key``."""
        with self._lock:
            held = self._data.get(key)
            if held is not None:
                return held
            evicted = self._evict()
            if pins is not None:
                self._pins[key] = pins
            self._data[key] = value
        self._evicted(evicted)
        return value

    def make_room(self) -> None:
        """Evict now what the next insert would: a caller about to build a
        large value need not hold it beside a full store."""
        with self._lock:
            evicted = self._evict()
        self._evicted(evicted)

    def _evict(self) -> list:
        """Drop the oldest entries until one more fits (lock held)."""
        evicted = []
        while self.cap is not None and len(self._data) >= self.cap:
            oldest, gone = self._data.popitem(last=False)
            evicted.append(gone)
            self._pins.pop(oldest, None)
        return evicted

    def _evicted(self, values: list) -> None:
        if self._on_evict is not None:
            for gone in values:
                self._on_evict(gone)

    def touch(self, key) -> None:
        """Make ``key`` the newest entry: a store that touches on a hit
        evicts the least recently used entry first.  A reorder takes no
        lock (it is one atomic step, as an eviction is), and a key evicted
        since the hit is no error."""
        try:
            self._data.move_to_end(key)
        except KeyError:
            pass

    def clear(self) -> None:
        """Drop every entry (``on_evict`` is not called)."""
        with self._lock:
            self._data.clear()
            self._pins.clear()

    def __len__(self) -> int:
        return len(self._data)

    def __iter__(self):
        return iter(list(self._data))

    def values(self) -> list:
        return list(self._data.values())


_STORES: Dict[str, Store] = {}
_TEARDOWNS: List[Callable[[], None]] = []
#: Every store, registered or not, for the fork handler.
_ALL: "weakref.WeakSet[Store]" = weakref.WeakSet()


def on_reset(teardown: Callable[[], None]) -> Callable[[], None]:
    """Register ``teardown`` for :func:`reset`; returns it."""
    _TEARDOWNS.append(teardown)
    return teardown


def stores() -> Dict[str, Store]:
    """The registered stores by name."""
    return dict(_STORES)


def reset() -> None:
    """Return the process to its cold state: run every registered teardown
    (shard pools and worker processes stopped, address plans and idle
    staging released), then empty every registered store."""
    for teardown in list(_TEARDOWNS):
        teardown()
    for store in list(_STORES.values()):
        store.clear()


def _after_fork_in_child() -> None:
    # A child forked while another thread held a store's lock would wait
    # on it for ever.
    for store in list(_ALL):
        store._lock = threading.Lock()


os.register_at_fork(after_in_child=_after_fork_in_child)
