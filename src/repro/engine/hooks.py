"""Launch observation hooks.

The serving runtime needs to see every kernel launch that flows through
the engine — which kernel ran, over what geometry, and the trace it
produced — without the interpreter knowing anything about sessions or
monitors.  Registered hooks are process-global (the scoped
:func:`launch_hook` form narrows delivery to its own thread) and
deliberately cheap: when none are registered (the common case) a launch
pays one truthiness check.
"""

from __future__ import annotations

import contextlib
import threading
from dataclasses import dataclass
from typing import Callable, List

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
    """Scope a hook to a ``with`` block (what sessions use per launch).

    Only launches made on the thread that entered the block reach
    ``hook``: two sessions serving on two threads each count their own.
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
    if not _HOOKS:
        return
    event = LaunchEvent(fn.name, grid, trace, backend, fn, module)
    # Iterate over a copy so a hook may deregister itself while running.
    for hook in list(_HOOKS):
        hook(event)
