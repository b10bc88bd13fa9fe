"""Exception hierarchy for the repro package.

Every error raised by the library derives from :class:`ReproError` so that
callers can catch library failures with a single ``except`` clause while
still distinguishing the subsystem that failed.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the repro package."""


class FrontendError(ReproError):
    """The Python-embedded kernel DSL could not be lowered to IR."""


class ValidationError(ReproError):
    """An IR module violates a structural or typing rule."""


class ExecutionError(ReproError):
    """A kernel launch failed while being interpreted."""


class PatternError(ReproError):
    """Pattern detection was asked something it cannot answer."""


class TransformError(ReproError):
    """An approximation transform could not be applied to a kernel."""


class TuningError(ReproError):
    """The runtime tuner could not satisfy its constraints."""


class DeviceError(ReproError):
    """The device cost model was configured or queried incorrectly."""


class CodegenError(ReproError):
    """A kernel could not be lowered to a specialized NumPy callable.

    Raised by :mod:`repro.codegen` when lowering or compilation fails;
    the ``auto`` backend catches it and falls back to the interpreter,
    while an explicit ``backend="codegen"`` request propagates it.
    """


class ConfigError(ReproError, ValueError):
    """A configuration object carries invalid knob values or a serialized
    form that cannot be deserialized.

    Also a :class:`ValueError` so callers validating user input can keep a
    generic ``except ValueError`` clause.
    """


class SerializationError(ReproError):
    """A to_dict/from_dict round trip was given malformed data."""


class ServeError(ReproError):
    """The serving runtime (sessions, caches, monitors) was misused."""


class AdmissionError(ServeError):
    """The serving front-end refused a request at admission time: the
    tenant is unknown, or the request violates the tenant's TOQ floor."""


class BackpressureError(ServeError):
    """The serving front-end's queue (global or per-tenant) is full; the
    caller should retry after draining outstanding futures."""


class ResilienceError(ReproError):
    """The resilience runtime (guards, breakers, fault plans) failed or
    was misconfigured."""


class InjectedFault(ResilienceError):
    """A failure deliberately raised by the fault-injection harness.

    Sites that naturally raise a specific subsystem error get a dynamic
    subclass combining :class:`InjectedFault` with that type (e.g. an
    injected compile failure is both an ``InjectedFault`` and a
    :class:`CodegenError`), so production containment paths treat the
    injection exactly like the real thing while tests can still tell
    injected failures apart.
    """


class WorkerDeath(InjectedFault):
    """An injected shard-worker death: a transport fault, so the launch
    re-executes serially (a process worker sent one really exits)."""


class ShardTimeout(ResilienceError):
    """A sharded launch overran its wall-clock deadline; the pool is
    abandoned and the launch re-executes serially."""
