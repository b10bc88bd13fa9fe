"""Execution engine: launch geometry, vectorized interpreter, traces."""

from .._options import LaunchOptions, current_options, options
from .hooks import LaunchEvent, add_launch_hook, launch_hook, remove_launch_hook
from .interpreter import call_device_function, launch
from .launch import (
    BACKENDS,
    Grid,
    Program,
    bind_arguments,
    validate_backend,
)
from .trace import MemStats, Trace

__all__ = [
    "launch",
    "call_device_function",
    "Grid",
    "Program",
    "bind_arguments",
    "Trace",
    "MemStats",
    "LaunchEvent",
    "add_launch_hook",
    "remove_launch_hook",
    "launch_hook",
    "BACKENDS",
    "LaunchOptions",
    "current_options",
    "options",
    "validate_backend",
]
