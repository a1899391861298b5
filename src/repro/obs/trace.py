"""Structured tracing spans with near-zero disabled-mode overhead.

Every phase of the JIT pipeline opens a span::

    from repro.obs.trace import span

    with span("jit.translate", key=digest) as sp:
        ...
        sp.set(n_specializations=12)

Spans carry a name, attributes, parent/child links (via a thread-local
span stack — each OS thread has its own stack, so MPI rank threads each
form their own span trees), wall-clock
start (epoch seconds) and a monotonic timeline (``perf_counter``), and a
duration filled in at exit.  Finished spans land in a bounded in-process
ring buffer and, when a trace file is configured, are also streamed as
one JSON line each.

Tracing is **off by default**: ``span()`` then returns a shared no-op
context manager — no allocation, no clock reads — so instrumentation can
stay on hot paths permanently (the warm cache-hit path budget is <2%
overhead).  The compile path times its phases with :class:`phases`,
whose clock is the spans' clock.  Enable with:

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

_now = time.perf_counter


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


def _open(name: str, attrs: dict, t: float) -> Span:
    stack = _stack()
    th = threading.current_thread()
    rec = Span(name=name, span_id=next(_IDS),
               parent_id=stack[-1].span_id if stack else None,
               thread=th.name, tid=th.ident or 0, ts=time.time(), t_start=t,
               attrs=attrs)
    stack.append(rec)
    return rec


def _close(rec: Span, dur_s: float, exc_type) -> None:
    rec.dur_s = dur_s
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


def span(name: str, **attrs):
    """Open a traced phase; use as ``with span("jit.translate") as sp:``.

    With tracing on this is a one-phase :class:`phases` clock.  When tracing
    is disabled it returns a shared no-op context manager — the call costs
    one branch, so it is safe on the warmest paths."""
    if not _ENABLED:
        return _NOOP
    return phases(name, **attrs)


class phases:
    """One clock for a run of sibling phases; with tracing on, each phase
    is also a span.  ``next`` closes the open phase and opens the next one,
    ``end`` (or leaving a ``with`` block) closes the last one::

        with phases("cache.key") as clock:
            ...
            clock.next("cache.probe")
        clock.laps  # [("cache.key", seconds), ("cache.probe", seconds)]

    Each boundary is one ``perf_counter`` read, shared by the phase it
    closes and the one it opens, and a span's ``t_start``/``dur_s`` are
    those reads: a sum over ``laps`` taken in order is exactly that sum
    over the spans.  ``next`` returns the closed phase's seconds, ``end``
    the sum of all laps.  The invoke, too warm even for this, builds one
    only when :func:`enabled`.
    """

    __slots__ = ("laps", "t0", "_total", "_name", "_t", "_live")

    def __init__(self, name: str, **attrs):
        self.laps: list = []
        self._total = 0.0
        self._name = name
        # the record is built first: its bookkeeping is not the span's time
        self._live = rec = _open(name, attrs, 0.0) if _ENABLED else None
        #: the clock's first read
        self.t0 = self._t = t = _now()
        if rec is not None:
            rec.t_start = t

    def next(self, name: str, **attrs) -> float:
        """Close the open phase, open the one that follows it, and return
        the closed phase's seconds."""
        t = _now()
        dt = t - self._t
        self.laps.append((self._name, dt))
        self._total += dt
        if self._live is not None:
            _close(self._live, dt, None)
        self._t, self._name = t, name
        self._live = _open(name, attrs, t) if _ENABLED else None
        return dt

    def set(self, **attrs) -> None:
        """Attach attributes to the open phase's span."""
        if self._live is not None:
            self._live.attrs.update(attrs)

    def end(self) -> float:
        """Close the open phase, once, and return the sum of the laps; from
        a ``finally`` the span records the exception passing through."""
        if self._name is not None:
            t = _now()
            dt = t - self._t
            self.laps.append((self._name, dt))
            self._total += dt
            if self._live is not None:
                _close(self._live, dt, sys.exc_info()[0])
            self._t, self._name = t, None
        return self._total

    def end_as(self, t_start: float, dur_s: float) -> float:
        """Close the open phase, once, as the stretch that starts at the
        read ``t_start`` and lasts ``dur_s``, not at a read of its own: a
        root then spans exactly what the clock under it timed (the
        request's ``jit.compile`` root, :mod:`repro.jit.service`)."""
        if self._name is not None:
            self.laps.append((self._name, dur_s))
            self._total += dur_s
            if self._live is not None:
                self._live.t_start = t_start
                _close(self._live, dur_s, None)
            self._t, self._name = t_start + dur_s, None
        return self._total

    def __enter__(self) -> "phases":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.end()  # sys.exc_info() is the exception leaving the block


#: the shared disabled-mode span: a clock built untraced and already ended,
#: so entering, leaving and ``set`` do nothing
_NOOP = phases("noop")
_NOOP.end()


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
