"""The launch-options surface: one record, one scope, one precedence chain.

How a kernel launch executes — backend, sharding, executor, guard — is
decided by :class:`LaunchOptions` records and nothing else.
There is exactly one ambient stack of them and one way to scope it::

    import repro

    with repro.options(backend="codegen", parallel=4):
        launch(kernel, grid, args)            # sharded codegen launch

    launch(kernel, grid, args,
           options=repro.LaunchOptions(backend="interp"))  # per call

Precedence, strongest first:

1. **explicit per-call options** — ``launch(..., options=...)``;
2. **the active scope** — the innermost :func:`options` block on this
   thread (fields merge across nesting; inner set fields win);
3. **session defaults** — the ``options=`` an
   :class:`~repro.serve.ApproxSession` was constructed with
   (``backend="auto"``, serial, ``executor="thread"`` where it says
   nothing).

:class:`~repro.approx.compiler.ParaproxConfig` is not a layer: it holds
what the compiler explores, and nothing about how a launch runs.

Unset fields are ``None`` (or :data:`UNSET` for ``guard``, where
``None`` is a meaningful value: "explicitly unguarded"), so every layer
only overrides what it actually sets.

The stack is **per thread** and worker threads start from the empty
defaults rather than inheriting the spawning thread's scope: pool
workers must not observe whatever scope happened to be active at
submission time.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, fields, replace
from typing import List, Optional

from ._state import Store
from .errors import ConfigError

#: Valid values for the ``backend`` launch option.
#:
#: ``"interp"``   — walk the IR tree (supports traces and call observers).
#: ``"codegen"``  — run the kernel compiled by :mod:`repro.codegen`.
#: ``"auto"``     — codegen when no trace/observer is requested, else interp.
BACKENDS = ("interp", "codegen", "auto")

#: Valid values for the ``executor`` launch option.
#:
#: ``"thread"``  — shards run on the in-process thread pool (NumPy-bound
#:                 kernels; ufuncs release the GIL).
#: ``"process"`` — shards run on the :mod:`repro.parallel.procpool`
#:                 worker processes with shared-memory array handoff
#:                 (GIL-bound kernels; true multicore).
EXECUTORS = ("thread", "process")


class _Unset:
    """Sentinel distinguishing "not set" from an explicit ``None``."""

    _instance = None

    def __new__(cls) -> "_Unset":
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return "UNSET"

    def __bool__(self) -> bool:
        return False


UNSET = _Unset()


def validate_backend(name: str) -> str:
    """Return ``name`` if it is a known backend, else raise ConfigError."""
    if name not in BACKENDS:
        raise ConfigError(
            f"unknown backend {name!r}; valid choices are "
            + ", ".join(repr(b) for b in BACKENDS)
        )
    return name


def validate_executor(name: str) -> str:
    """Return ``name`` if it is a known shard executor, else raise."""
    if name not in EXECUTORS:
        raise ConfigError(
            f"unknown executor {name!r}; valid choices are "
            + ", ".join(repr(e) for e in EXECUTORS)
        )
    return name


@dataclass(frozen=True)
class LaunchOptions:
    """Everything one launch is allowed to decide about its execution.

    Every field defaults to "unset"; unset fields inherit from the next
    layer of the precedence chain (active scope, then session
    defaults).  Instances are immutable and reusable.

    Attributes:
        backend: ``"interp"``, ``"codegen"`` or ``"auto"``.
        parallel: shard workers — a positive int or ``"auto"`` (usable
            host cores).
        min_shard_threads: grids smaller than this never shard.
        executor: ``"thread"`` or ``"process"`` — which pool runs shards.
        guard: a :class:`~repro.resilience.GuardPolicy`, or ``None`` for
            an explicitly unguarded launch.  Left :data:`UNSET`, the
            ambient/inherited guard applies.
    """

    backend: Optional[str] = None
    parallel: Optional[object] = None
    min_shard_threads: Optional[int] = None
    executor: Optional[str] = None
    guard: object = UNSET

    def __post_init__(self) -> None:
        if self.backend is not None:
            validate_backend(self.backend)
        if self.executor is not None:
            validate_executor(self.executor)
        if self.min_shard_threads is not None and (
            isinstance(self.min_shard_threads, bool)
            or not isinstance(self.min_shard_threads, int)
            or self.min_shard_threads < 1
        ):
            raise ConfigError(
                f"min_shard_threads must be a positive integer, "
                f"got {self.min_shard_threads!r}"
            )
        if self.parallel is not None:
            # Defer to the parallel runtime's validator without importing
            # it at module load (repro.parallel imports this module).
            # "auto" is checked as a literal: the host is probed where a
            # launch plan resolves it, not on every record.
            from .parallel.pool import validate_workers

            try:
                validate_workers(self.parallel)
            except ConfigError as exc:
                raise ConfigError(
                    f"parallel= takes a worker count or 'auto' ({exc}); the "
                    "shard threshold and the pool are the min_shard_threads= "
                    "and executor= options"
                ) from None

    def merged_over(self, base: "LaunchOptions") -> "LaunchOptions":
        """The record where this record's set fields override ``base``.

        Merges are memoized by the identity of the two records, so
        merging the same two objects again returns the same object and a
        warm launch neither rebuilds nor re-validates one.  An entry pins
        both records, so their ids cannot be reused while it stands.
        """
        key = (id(self), id(base))
        merged = _MERGED.get(key)
        if merged is None:
            merged = _MERGED.put(key, self._merge(base), pins=(self, base))
        return merged

    def _merge(self, base: "LaunchOptions") -> "LaunchOptions":
        updates = {}
        for f in fields(self):
            value = getattr(self, f.name)
            if f.name == "guard":
                if value is not UNSET:
                    updates[f.name] = value
            elif value is not None:
                updates[f.name] = value
        return replace(base, **updates) if updates else base

    def describe(self) -> dict:
        """JSON-friendly view of the *set* fields (for logs and metrics)."""
        out = {}
        for f in fields(self):
            value = getattr(self, f.name)
            if f.name == "guard":
                if value is not UNSET:
                    out[f.name] = "off" if value is None else "on"
            elif value is not None:
                out[f.name] = value if isinstance(value, (str, int)) else repr(value)
        return out


#: The empty record every thread's stack starts from.
DEFAULT_OPTIONS = LaunchOptions()

#: (id(over), id(base)) -> merged.
_MERGED = Store("options.merged", cap=256)


class _OptionsStack(threading.local):
    """Per-thread stack of *merged* LaunchOptions records.

    Each entry is the full merge of every scope enclosing it, so reading
    the effective options is one list index, not a walk.
    """

    def __init__(self) -> None:
        self.stack: List[LaunchOptions] = [DEFAULT_OPTIONS]


_STACK = _OptionsStack()


def current_options() -> LaunchOptions:
    """The merged options of every :func:`options` scope on this thread.

    Fields no scope has set are ``None`` (``guard``: :data:`UNSET`);
    callers apply their own next-layer defaults.
    """
    return _STACK.stack[-1]


class options:
    """Scope launch options to a ``with`` block (per thread, nestable).

    Accepts either a ready :class:`LaunchOptions` or the same fields as
    keywords::

        with repro.options(backend="codegen", parallel=4, executor="process"):
            ...

    Inner scopes override only the fields they set.  The scope is
    thread-local: tasks submitted to worker pools run under the
    *defaults*, not the submitting thread's scope.
    """

    def __init__(self, opts: Optional[LaunchOptions] = None, **kwargs) -> None:
        if opts is not None and kwargs:
            raise ConfigError(
                "options() takes a LaunchOptions or field keywords, not both"
            )
        if opts is None:
            opts = LaunchOptions(**kwargs)
        elif not isinstance(opts, LaunchOptions):
            raise ConfigError(
                f"options() expects a LaunchOptions, got {type(opts).__name__}"
            )
        self.opts = opts

    def __enter__(self) -> LaunchOptions:
        merged = self.opts.merged_over(_STACK.stack[-1])
        _STACK.stack.append(merged)
        return merged

    def __exit__(self, *_exc) -> None:
        _STACK.stack.pop()
