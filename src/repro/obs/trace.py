"""Structured tracing spans with near-zero disabled-mode overhead.

Every phase of the JIT pipeline opens a span::

    from repro.obs.trace import span

    with span("jit.translate", key=digest) as sp:
        ...
        sp.set(n_specializations=12)

Spans carry a name, attributes, parent/child links (via a thread-local
span stack — each OS thread has its own stack, so MPI rank threads and
background build workers each form their own span trees), wall-clock
start (epoch seconds) and a monotonic timeline (``perf_counter``), and a
duration filled in at exit.  Finished spans land in a bounded in-process
ring buffer and, when a trace file is configured, are also streamed as
one JSON line each.

Tracing is **off by default**: ``span()`` then returns a shared no-op
context manager — no allocation, no clock reads — so instrumentation can
stay on hot paths permanently (the warm cache-hit path budget is <2%
overhead).  Enable with:

* ``REPRO_TRACE=1``          — record into the ring buffer;
* ``REPRO_TRACE_FILE=PATH``  — also stream JSONL to ``PATH`` (implies
  ``REPRO_TRACE=1``);

or programmatically via :func:`enable` / :func:`disable`.
"""

from __future__ import annotations

import itertools
import json
import os
import sys
import threading
import time
from collections import deque
from dataclasses import dataclass, field
from typing import Optional

__all__ = [
    "Span",
    "clear",
    "current_span",
    "disable",
    "enable",
    "enabled",
    "phases",
    "set_attr",
    "span",
    "spans",
]

#: ring-buffer capacity in spans; ``enable(capacity=...)`` resizes it
RING_CAPACITY = 65536

#: process-wide monotonically increasing span ids (CPython-atomic)
_IDS = itertools.count(1)

_TLS = threading.local()

_ENABLED = False
_RING: deque = deque(maxlen=RING_CAPACITY)
_FILE = None  # open JSONL stream when REPRO_TRACE_FILE / enable(file=...)
_FILE_LOCK = threading.Lock()


@dataclass
class Span:
    """One traced phase: identity, links, timing, attributes."""

    name: str
    span_id: int
    parent_id: Optional[int]
    thread: str                  # OS thread name at entry
    tid: int                     # OS thread ident (Chrome-trace tid)
    ts: float                    # epoch seconds at entry
    t_start: float               # perf_counter at entry (shared timeline)
    dur_s: float = 0.0           # filled at exit
    attrs: dict = field(default_factory=dict)

    def as_dict(self) -> dict:
        """JSON-ready record — exactly the JSONL line format."""
        return {
            "name": self.name,
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "thread": self.thread,
            "tid": self.tid,
            "ts": self.ts,
            "t_start": self.t_start,
            "dur_s": self.dur_s,
            "attrs": self.attrs,
        }


def _stack() -> list:
    st = getattr(_TLS, "stack", None)
    if st is None:
        st = _TLS.stack = []
    return st


class _LiveSpan:
    """Context manager backing one enabled span (internal)."""

    __slots__ = ("_name", "_attrs", "record")

    def __init__(self, name: str, attrs: dict):
        self._name = name
        self._attrs = attrs
        self.record: Optional[Span] = None

    def set(self, **attrs) -> "_LiveSpan":
        """Attach attributes (before, during, or at the end of the span)."""
        if self.record is not None:
            self.record.attrs.update(attrs)
        else:
            self._attrs.update(attrs)
        return self

    def __enter__(self) -> "_LiveSpan":
        stack = _stack()
        t = threading.current_thread()
        self.record = Span(
            name=self._name,
            span_id=next(_IDS),
            parent_id=stack[-1].span_id if stack else None,
            thread=t.name,
            tid=t.ident or 0,
            ts=time.time(),
            t_start=time.perf_counter(),
            attrs=self._attrs,
        )
        stack.append(self.record)
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        rec = self.record
        rec.dur_s = time.perf_counter() - rec.t_start
        if exc_type is not None:
            rec.attrs.setdefault("error", exc_type.__name__)
        stack = _stack()
        # defensive pop: enable()/disable() mid-span can skew the stack
        if stack and stack[-1] is rec:
            stack.pop()
        elif rec in stack:
            stack.remove(rec)
        _RING.append(rec)
        f = _FILE
        if f is not None:
            line = json.dumps(rec.as_dict(), default=repr)
            with _FILE_LOCK:
                if _FILE is f:  # disable() may have closed it meanwhile
                    f.write(line + "\n")
                    f.flush()
        return False


class _NoopSpan:
    """The shared disabled-mode span: enter/exit/set all do nothing."""

    __slots__ = ()

    def set(self, **attrs) -> "_NoopSpan":
        return self

    def __enter__(self) -> "_NoopSpan":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        return False


_NOOP = _NoopSpan()


def span(name: str, **attrs):
    """Open a traced phase; use as ``with span("jit.translate") as sp:``.

    When tracing is disabled this returns a shared no-op context manager —
    the call costs one branch, so it is safe on the warmest paths."""
    if not _ENABLED:
        return _NOOP
    return _LiveSpan(name, attrs)


class phases:
    """Spans for a path too warm for ``with`` blocks: it checks
    :func:`enabled` once and carries ``None`` when tracing is off.  One
    phase at a time is open; ``next`` closes it and opens its sibling::

        ph = phases("invoke.marshal") if enabled() else None
        try:
            ...
            if ph:
                ph.next("invoke.native")
            ...
        finally:
            if ph:
                ph.end()
    """

    __slots__ = ("_live",)

    def __init__(self, name: str, **attrs):
        self._live = _LiveSpan(name, attrs).__enter__()

    def next(self, name: str, **attrs) -> None:
        """Close the open phase and open the one that follows it."""
        self.end()
        self._live = _LiveSpan(name, attrs).__enter__()

    def end(self) -> None:
        """Close the open phase; called while an exception propagates (from
        a ``finally``), the span records it like a ``with`` block would."""
        self._live.__exit__(*sys.exc_info())


def current_span() -> Optional[Span]:
    """The innermost live span on this thread (None when none is open)."""
    st = getattr(_TLS, "stack", None)
    return st[-1] if st else None


def set_attr(**attrs) -> None:
    """Attach attributes to the innermost live span; no-op otherwise."""
    sp = current_span()
    if sp is not None:
        sp.attrs.update(attrs)


def enabled() -> bool:
    """Whether spans are currently being recorded."""
    return _ENABLED


def enable(file: Optional[str] = None, capacity: Optional[int] = None) -> None:
    """Turn tracing on; optionally stream JSONL to ``file`` (append mode)
    and resize the ring buffer to ``capacity``."""
    global _ENABLED, _FILE, _RING
    cap = capacity or RING_CAPACITY
    if cap != _RING.maxlen:
        _RING = deque(_RING, maxlen=cap)
    if file:
        with _FILE_LOCK:
            if _FILE is not None:
                _FILE.close()
            _FILE = open(file, "a", encoding="utf-8")
    _ENABLED = True


def disable() -> None:
    """Turn tracing off and close the trace file (ring buffer survives)."""
    global _ENABLED, _FILE
    _ENABLED = False
    with _FILE_LOCK:
        if _FILE is not None:
            _FILE.close()
            _FILE = None


def spans() -> list:
    """Snapshot of the finished-span ring buffer (oldest first)."""
    return list(_RING)


def clear() -> None:
    """Drop all recorded spans (the enabled/disabled state is unchanged)."""
    _RING.clear()


def _env_truthy(name: str) -> bool:
    from repro.env import env_flag

    return env_flag(name, default=False)


if _env_truthy("REPRO_TRACE") or os.environ.get("REPRO_TRACE_FILE"):
    enable(file=os.environ.get("REPRO_TRACE_FILE") or None)
