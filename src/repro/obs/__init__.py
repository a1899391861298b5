"""Observability subsystem: structured tracing spans and their exports.

The paper's central claims are *timing* claims — per-phase JIT cost
(Table 3), amortization across invocations (Figs 13–16), abstraction-
penalty elimination (Figs 3–18).  This package is the substrate those
measurements report through:

* :mod:`repro.obs.trace` — near-zero-overhead structured spans
  (``with span("jit.translate"): ...``) with thread-local stacks,
  parent/child links, attributes, and a bounded in-process ring buffer.
  Off by default; ``REPRO_TRACE=1`` / ``REPRO_TRACE_FILE=...`` turn it on.
* :mod:`repro.obs.export` — JSONL span export, Chrome trace-event-format
  export (load in ``chrome://tracing`` / Perfetto), and the per-phase
  summary aggregator behind ``python -m repro trace summarize``.

Spans are the only per-phase timing source.  Counts live where they are
made: ``repro.jit.service.stats()``, ``repro.jit.cache.stats()`` and each
compile's ``JitReport``.  See docs/OBSERVABILITY.md for the span taxonomy
and environment knobs.
"""

from repro.obs.trace import span

__all__ = ["span"]
