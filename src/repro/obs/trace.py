"""Structured tracing: lightweight spans with a thread-propagated context.

A *span* is one timed operation — a served launch, a ladder rung, a
codegen compile, one shard of a sharded launch — with an id, a parent id
and a trace id tying every span of one root operation together.  The
ambient span is tracked per thread; :func:`carry` captures it so work
submitted to the shard pool parents to the launching span even
though it runs on a different thread (and even after a dead worker was
replaced, because the context rides with the *task*, not the thread).

Tracing is off by default and the disabled fast path is a single module
attribute check returning a shared no-op span — cheap enough to leave the
instrumentation permanently in the production seams.  Enable it with
``REPRO_OBS=1`` in the environment (optionally ``REPRO_OBS_TRACE=<path>``
for a JSONL trace file) or programmatically with :func:`enable`.

Records are JSON objects, one per line:

* ``{"type": "span", "name": ..., "trace_id": ..., "span_id": ...,
  "parent_id": ..., "start": ..., "duration": ..., "thread": ...,
  "status": "ok"|"error", "attrs": {...}, "events": [...]}``
* ``{"type": "event", "kind": ..., ...}`` — quality-timeline entries
  (:mod:`repro.obs.timeline`) share the stream so one file holds the
  whole story of a serving process.
"""

from __future__ import annotations

import itertools
import json
import os
import threading
import time
from collections import deque
from typing import Callable, Deque, Dict, List, Optional

_TRUTHY = ("1", "true", "yes", "on")

#: Fast-path flag; read by :func:`span` before anything else happens.
_ENABLED = False

_IDS = itertools.count()
_TRACE_IDS = itertools.count()
_SEQ = itertools.count()
_FLUSH_EVERY = 64


class _Context(threading.local):
    def __init__(self) -> None:
        self.stack: List["Span"] = []


_CONTEXT = _Context()


class _Sink:
    """Fan-in for finished spans and events: memory ring + optional JSONL."""

    def __init__(self, capacity: int = 65536) -> None:
        self._lock = threading.Lock()
        self.records: Deque[dict] = deque(maxlen=capacity)
        self._fh = None
        self._path: Optional[str] = None
        self._unflushed = 0
        self._bytes = 0
        self._max_bytes: Optional[int] = None

    def open(self, path, max_bytes: Optional[int] = None) -> None:
        with self._lock:
            if self._fh is not None:
                self._fh.close()
            self._path = str(path)
            self._fh = open(self._path, "a", encoding="utf-8")
            self._max_bytes = max_bytes
            try:
                self._bytes = os.path.getsize(self._path)
            except OSError:
                self._bytes = 0

    def _rotate_locked(self) -> None:
        """Roll the live file to ``<path>.1`` (single rollover: at most
        ``2 * max_bytes`` ever on disk for a long-lived serving process)."""
        self._fh.flush()
        self._fh.close()
        try:
            os.replace(self._path, self._path + ".1")
        except OSError:
            pass  # keep appending to the oversized file rather than lose data
        self._fh = open(self._path, "a", encoding="utf-8")
        self._bytes = 0
        self._unflushed = 0

    def emit(self, record: dict) -> None:
        with self._lock:
            self.records.append(record)
            if self._fh is not None:
                line = json.dumps(record, default=str) + "\n"
                if (
                    self._max_bytes is not None
                    and self._bytes + len(line) > self._max_bytes
                    and self._bytes > 0
                ):
                    self._rotate_locked()
                self._fh.write(line)
                self._bytes += len(line)
                self._unflushed += 1
                if self._unflushed >= _FLUSH_EVERY:
                    self._fh.flush()
                    self._unflushed = 0

    def flush(self) -> None:
        with self._lock:
            if self._fh is not None:
                self._fh.flush()
                self._unflushed = 0

    def close(self) -> None:
        with self._lock:
            if self._fh is not None:
                self._fh.flush()
                self._fh.close()
                self._fh = None
            self._path = None

    def drain(self) -> List[dict]:
        with self._lock:
            records = list(self.records)
            self.records.clear()
            return records


_SINK = _Sink()


class _NoopSpan:
    """The disabled-path span: every operation is a no-op."""

    __slots__ = ()
    trace_id: Optional[str] = None
    span_id: Optional[str] = None

    def __enter__(self) -> "_NoopSpan":
        return self

    def __exit__(self, *_exc) -> bool:
        return False

    def set(self, **_attrs) -> "_NoopSpan":
        return self

    def event(self, _name: str, **_attrs) -> None:
        return None


NOOP_SPAN = _NoopSpan()


class Span:
    """One timed, attributed operation in a trace tree."""

    __slots__ = (
        "name", "trace_id", "span_id", "parent_id", "attrs", "events_",
        "start", "end", "status", "error", "thread", "seq",
    )

    def __init__(self, name: str, attrs: Dict[str, object]) -> None:
        parent = _CONTEXT.stack[-1] if _CONTEXT.stack else None
        self.name = name
        self.span_id = f"s{next(_IDS)}"
        if parent is not None:
            self.trace_id = parent.trace_id
            self.parent_id = parent.span_id
        else:
            self.trace_id = f"t{next(_TRACE_IDS)}"
            self.parent_id = None
        self.attrs = attrs
        self.events_: List[dict] = []
        self.status = "ok"
        self.error = ""
        self.thread = threading.current_thread().name
        self.seq = next(_SEQ)
        self.start = 0.0
        self.end = 0.0

    def set(self, **attrs) -> "Span":
        self.attrs.update(attrs)
        return self

    def event(self, name: str, **attrs) -> None:
        self.events_.append(
            {"name": name, "t": time.perf_counter(), **attrs}
        )

    def __enter__(self) -> "Span":
        _CONTEXT.stack.append(self)
        self.start = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, _tb) -> bool:
        self.end = time.perf_counter()
        if exc is not None:
            self.status = "error"
            self.error = f"{exc_type.__name__}: {exc}"
        stack = _CONTEXT.stack
        if stack and stack[-1] is self:
            stack.pop()
        else:  # unbalanced exit (a bug upstream); drop self wherever it is
            try:
                stack.remove(self)
            except ValueError:
                pass
        _SINK.emit(self.to_record())
        return False

    def to_record(self) -> dict:
        return {
            "type": "span",
            "name": self.name,
            "trace_id": self.trace_id,
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "start": self.start,
            "duration": self.end - self.start,
            "thread": self.thread,
            "seq": self.seq,
            "status": self.status,
            "error": self.error,
            "attrs": self.attrs,
            "events": self.events_,
        }


# ------------------------------------------------------------- public API


def span(name: str, **attrs):
    """Start a span (use as a context manager).

    With tracing disabled this returns a shared no-op object: the cost is
    one global read plus the call itself, which is what lets the
    instrumentation live permanently on hot serving paths.
    """
    if not _ENABLED:
        return NOOP_SPAN
    return Span(name, attrs)


def current_span() -> Optional[Span]:
    """The innermost live span on this thread (None outside any span)."""
    stack = _CONTEXT.stack
    return stack[-1] if stack else None


def carry(fn: Callable) -> Callable:
    """Bind the caller's span context into ``fn`` for another thread.

    Pool runners wrap task functions with this before submission: the
    wrapped function installs the captured span as the worker thread's
    ambient parent for the duration of the call, so spans started inside
    the task parent to the launching span.  With tracing disabled (or no
    ambient span) ``fn`` is returned unchanged.
    """
    if not _ENABLED:
        return fn
    parent = current_span()
    if parent is None:
        return fn

    def carried(*args, **kwargs):
        stack = _CONTEXT.stack
        stack.append(parent)
        try:
            return fn(*args, **kwargs)
        finally:
            if stack and stack[-1] is parent:
                stack.pop()
            else:
                try:
                    stack.remove(parent)
                except ValueError:
                    pass

    return carried


def emit_span(
    name: str,
    start: float,
    end: float,
    status: str = "ok",
    error: str = "",
    **attrs,
) -> None:
    """Record a span whose timing happened elsewhere (a worker process).

    Shard workers run in separate processes and cannot reach this sink;
    they report ``perf_counter`` timestamps back with their results
    (``CLOCK_MONOTONIC`` is shared across processes on Linux) and the
    parent emits the span here.  It parents to the caller's ambient span
    like a locally-timed one.  No-op while tracing is disabled.
    """
    if not _ENABLED:
        return
    parent = current_span()
    _SINK.emit(
        {
            "type": "span",
            "name": name,
            "trace_id": parent.trace_id if parent else f"t{next(_TRACE_IDS)}",
            "span_id": f"s{next(_IDS)}",
            "parent_id": parent.span_id if parent else None,
            "start": start,
            "duration": end - start,
            "thread": threading.current_thread().name,
            "seq": next(_SEQ),
            "status": status,
            "error": error,
            "attrs": attrs,
            "events": [],
        }
    )


def emit_event(record: dict) -> None:
    """Append one non-span record (timeline entry) to the trace stream."""
    if _ENABLED:
        _SINK.emit(record)


def enabled() -> bool:
    return _ENABLED


def enable(trace_path=None, max_mb: Optional[float] = None) -> None:
    """Turn tracing on (optionally writing a JSONL trace to ``trace_path``).

    ``max_mb`` caps the trace file: when an emit would push it past the
    cap it is rolled to ``<path>.1`` (replacing any previous rollover)
    and a fresh file is started, so long-lived serving sessions hold at
    most ~2x the cap on disk.  Also settable via ``REPRO_OBS_TRACE_MAX_MB``.
    """
    global _ENABLED
    if trace_path is not None:
        max_bytes = int(max_mb * 1024 * 1024) if max_mb else None
        _SINK.open(trace_path, max_bytes=max_bytes)
    _ENABLED = True


def disable() -> None:
    """Turn tracing off and flush/close any open trace file."""
    global _ENABLED
    _ENABLED = False
    _SINK.close()


def flush() -> None:
    """Flush the trace file (sessions call this on close)."""
    _SINK.flush()


def drain_records() -> List[dict]:
    """Remove and return the buffered records (tests and in-process views)."""
    return _SINK.drain()


def records() -> List[dict]:
    """The buffered records without draining them."""
    with _SINK._lock:
        return list(_SINK.records)


def trace_path() -> Optional[str]:
    return _SINK._path


def _init_from_env() -> None:
    if os.environ.get("REPRO_OBS", "").lower() in _TRUTHY:
        path = os.environ.get("REPRO_OBS_TRACE")
        max_mb: Optional[float] = None
        raw = os.environ.get("REPRO_OBS_TRACE_MAX_MB", "")
        if raw:
            try:
                max_mb = float(raw)
            except ValueError:
                max_mb = None
        enable(path if path else None, max_mb=max_mb)


_init_from_env()

import atexit  # noqa: E402  (registration belongs with the sink it guards)

atexit.register(_SINK.close)
