"""Launch observation: hooks and per-thread launch tallies.

The serving runtime needs to see every kernel launch that flows through
the engine — which kernel ran, over what geometry, and the trace it
produced — without the interpreter knowing anything about sessions or
monitors.  Registered hooks are process-global (the scoped
:func:`launch_hook` form narrows delivery to its own thread) and
deliberately cheap: when none are registered (the common case) a launch
pays one truthiness check.

A caller that only needs to *count* its launches — a session tallying
what one request ran, per backend — uses :class:`tally_launches`
instead: a per-thread dict the engine increments, with no hook to add
or remove and no :class:`LaunchEvent` to build.
"""

from __future__ import annotations

import contextlib
import threading
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional

from .launch import Grid


@dataclass(frozen=True)
class LaunchEvent:
    """What one kernel launch looked like from the outside."""

    kernel: str
    grid: Grid
    trace: object  # repro.engine.trace.Trace
    backend: str = "interp"  # which backend executed it ("interp"/"codegen")
    fn: object = None  # the kernel's ir.Function
    module: object = None  # the ir.Module it was launched from


_HOOKS: List[Callable[[LaunchEvent], None]] = []


class _Tally(threading.local):
    counts: Optional[Dict[str, int]] = None


_TALLY = _Tally()


class tally_launches:
    """Count the kernel launches this thread makes inside a ``with``
    block into ``counts`` (backend -> launches).  Launches on other
    threads are not counted; in nested blocks the innermost counts."""

    __slots__ = ("counts", "_outer")

    def __init__(self, counts: Dict[str, int]) -> None:
        self.counts = counts

    def __enter__(self) -> Dict[str, int]:
        self._outer = _TALLY.counts
        _TALLY.counts = self.counts
        return self.counts

    def __exit__(self, *_exc) -> None:
        _TALLY.counts = self._outer


def add_launch_hook(hook: Callable[[LaunchEvent], None]) -> Callable:
    """Register ``hook`` to be called after every kernel launch; returns the
    hook so callers can hold it for :func:`remove_launch_hook`."""
    _HOOKS.append(hook)
    return hook


def remove_launch_hook(hook: Callable[[LaunchEvent], None]) -> None:
    """Deregister ``hook``; unknown hooks are ignored."""
    with contextlib.suppress(ValueError):
        _HOOKS.remove(hook)


@contextlib.contextmanager
def launch_hook(hook: Callable[[LaunchEvent], None]):
    """Scope a hook to a ``with`` block.

    Only launches made on the thread that entered the block reach
    ``hook``: two callers observing on two threads each see their own.
    """
    owner = threading.get_ident()

    def on_this_thread(event: LaunchEvent) -> None:
        if threading.get_ident() == owner:
            hook(event)

    add_launch_hook(on_this_thread)
    try:
        yield hook
    finally:
        remove_launch_hook(on_this_thread)


def notify_launch(fn, module, grid: Grid, trace, backend: str = "interp") -> None:
    """Called by the engine after each launch of kernel ``fn`` completes."""
    counts = _TALLY.counts
    if counts is not None:
        counts[backend] = counts.get(backend, 0) + 1
    if not _HOOKS:
        return
    event = LaunchEvent(fn.name, grid, trace, backend, fn, module)
    # Iterate over a copy so a hook may deregister itself while running.
    for hook in list(_HOOKS):
        hook(event)
