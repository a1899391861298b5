"""In-memory spans recorded from the benchmark's own files.

Every timing of the traced pass is a span around one call into a layer's
public function: name, start, end, the span that caused it and a request
id shared by the spans of one replayed ``jit()`` or ``invoke()``.  Spans
stay in memory and are written out when the run ends.  Nothing inside
``repro`` is instrumented; spans inside the program are a later change.
"""

from __future__ import annotations

import itertools
import threading
import time
from contextlib import contextmanager

from benchmarks.ledger.stats import steady


class Tracer:
    def __init__(self):
        #: finished spans: [id, name, parent, request, start, end]
        self.spans: list[list] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._request = 0

    def new_request(self) -> int:
        self._request += 1
        return self._request

    @contextmanager
    def span(self, name: str, parent: "int | None" = None):
        """Open a span; its parent is the innermost open span of this thread
        or, on a thread with none (a rank thread), ``parent``."""
        stack = self._local.__dict__.setdefault("stack", [])
        sid = next(self._ids)
        rec = [sid, name, stack[-1] if stack else parent, self._request,
               time.perf_counter(), None]
        stack.append(sid)
        try:
            yield sid
        finally:
            rec[5] = time.perf_counter()
            stack.pop()
            self.spans.append(rec)  # list.append is atomic under the GIL

    def call(self, name: str, fn, *args, **kwargs):
        with self.span(name):
            return fn(*args, **kwargs)

    # -- reading ----------------------------------------------------------

    def durations(self, name: str) -> list:
        return [s[5] - s[4] for s in self.spans if s[1] == name]

    def steady(self, name: str) -> float:
        return steady(self.durations(name))

    def request_sums(self, name: str) -> list:
        """Per request: the summed duration of its ``name`` spans (a layer
        entered once per function adds up to one number per request)."""
        out: dict = {}
        for s in self.spans:
            if s[1] == name:
                out[s[3]] = out.get(s[3], 0.0) + (s[5] - s[4])
        return list(out.values())

    def _children_time(self) -> dict:
        """Span id -> summed duration of its direct children."""
        out: dict = {}
        for s in self.spans:
            out[s[2]] = out.get(s[2], 0.0) + (s[5] - s[4])
        return out

    def child_sums(self, root_name: str) -> list:
        """Per ``root_name`` span: the summed duration of its direct
        children (the root's duration minus this is its self time)."""
        kids = self._children_time()
        return [kids.get(s[0], 0.0) for s in self.spans if s[1] == root_name]

    def slowest_branch_sums(self, root_name: str, branch_name: str) -> list:
        """Per ``root_name`` span whose direct children are parallel
        ``branch_name`` spans (rank threads): the largest of the branches'
        child sums — the slowest part sets the time of the whole."""
        kids = self._children_time()
        worst: dict = {}
        for s in self.spans:
            if s[1] == branch_name:
                worst[s[2]] = max(worst.get(s[2], 0.0), kids.get(s[0], 0.0))
        return [worst.get(s[0], 0.0) for s in self.spans if s[1] == root_name]

    def records(self) -> list:
        keys = ("id", "name", "parent", "request", "start", "end")
        return [dict(zip(keys, s)) for s in self.spans]
