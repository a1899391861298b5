"""Thread-safe metrics registry: counters, gauges, latency histograms.

The JIT service's per-phase counters (``repro.jit.service.stats()``) are
built on this registry; any subsystem can register its own metrics and
they all surface through one :func:`registry` snapshot.

Three metric kinds, all safe under concurrent update:

* :class:`Counter`   — monotonically increasing (int or float increments);
* :class:`Gauge`     — settable level with inc/dec and a high-water mark
  (e.g. disk-tier bytes);
* :class:`Histogram` — fixed-bucket latency distribution with count, sum,
  min, max (the paper's per-phase cost tables are exactly these).

Metrics are identified by dotted names (``jit.requests``,
``jit.phase.translate_s``); :meth:`MetricsRegistry.counter` and friends
are get-or-create, so instrumentation sites can be written declaratively
without a registration step.
"""

from __future__ import annotations

import bisect
import threading
from typing import Optional

__all__ = [
    "Counter",
    "DEFAULT_LATENCY_BUCKETS",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "registry",
]

#: log-spaced seconds buckets covering 100 µs .. 10 s (JIT phases span
#: sub-ms cache probes to multi-second gcc runs)
DEFAULT_LATENCY_BUCKETS = (
    0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05,
    0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0,
)


class Counter:
    """A monotonically increasing counter (float increments allowed)."""

    __slots__ = ("name", "_lock", "_value")

    def __init__(self, name: str):
        self.name = name
        self._lock = threading.Lock()
        self._value = 0

    def inc(self, by=1):
        """Add ``by`` (default 1); returns the new value."""
        with self._lock:
            self._value += by
            return self._value

    @property
    def value(self):
        """Current count."""
        return self._value

    def reset(self) -> None:
        """Zero the counter (test isolation)."""
        with self._lock:
            self._value = 0

    def as_dict(self) -> dict:
        """Snapshot: ``{"type": "counter", "value": ...}``."""
        return {"type": "counter", "value": self._value}


class Gauge:
    """A settable level with inc/dec and a high-water mark."""

    __slots__ = ("name", "_lock", "_value", "_max")

    def __init__(self, name: str):
        self.name = name
        self._lock = threading.Lock()
        self._value = 0
        self._max = 0

    def set(self, value) -> None:
        """Set the level (updates the high-water mark)."""
        with self._lock:
            self._value = value
            if value > self._max:
                self._max = value

    def inc(self, by=1):
        """Raise the level by ``by``; returns the new value."""
        with self._lock:
            self._value += by
            if self._value > self._max:
                self._max = self._value
            return self._value

    def dec(self, by=1):
        """Lower the level by ``by``; returns the new value."""
        with self._lock:
            self._value -= by
            return self._value

    @property
    def value(self):
        """Current level."""
        return self._value

    @property
    def max(self):
        """High-water mark since creation/reset."""
        return self._max

    def reset(self) -> None:
        """Zero the level and the high-water mark."""
        with self._lock:
            self._value = 0
            self._max = 0

    def as_dict(self) -> dict:
        """Snapshot: ``{"type": "gauge", "value": ..., "max": ...}``."""
        return {"type": "gauge", "value": self._value, "max": self._max}


class Histogram:
    """A fixed-bucket distribution (bucket edges are upper bounds)."""

    __slots__ = ("name", "buckets", "_lock", "_counts", "_sum", "_count",
                 "_min", "_max")

    def __init__(self, name: str, buckets=DEFAULT_LATENCY_BUCKETS):
        self.name = name
        self.buckets = tuple(sorted(buckets))
        self._lock = threading.Lock()
        self._counts = [0] * (len(self.buckets) + 1)  # last = +inf overflow
        self._sum = 0.0
        self._count = 0
        self._min: Optional[float] = None
        self._max: Optional[float] = None

    def observe(self, value: float) -> None:
        """Record one sample."""
        i = bisect.bisect_left(self.buckets, value)
        with self._lock:
            self._counts[i] += 1
            self._sum += value
            self._count += 1
            if self._min is None or value < self._min:
                self._min = value
            if self._max is None or value > self._max:
                self._max = value

    @property
    def count(self) -> int:
        """Number of recorded samples."""
        return self._count

    @property
    def sum(self) -> float:
        """Sum of recorded samples."""
        return self._sum

    @property
    def mean(self) -> float:
        """Mean of recorded samples (0.0 when empty)."""
        return self._sum / self._count if self._count else 0.0

    def reset(self) -> None:
        """Drop all samples."""
        with self._lock:
            self._counts = [0] * (len(self.buckets) + 1)
            self._sum = 0.0
            self._count = 0
            self._min = None
            self._max = None

    def as_dict(self) -> dict:
        """Snapshot with per-bucket counts keyed by upper bound."""
        with self._lock:
            buckets = {str(b): c for b, c in zip(self.buckets, self._counts)}
            buckets["+inf"] = self._counts[-1]
            return {
                "type": "histogram",
                "count": self._count,
                "sum": self._sum,
                "min": self._min,
                "max": self._max,
                "buckets": buckets,
            }


class MetricsRegistry:
    """Get-or-create home for named metrics; snapshots are consistent
    per-metric (each metric locks itself)."""

    def __init__(self) -> None:
        self._lock = threading.RLock()
        self._metrics: dict[str, object] = {}

    def _get(self, name: str, cls, *args):
        with self._lock:
            m = self._metrics.get(name)
            if m is None:
                m = self._metrics[name] = cls(name, *args)
            elif not isinstance(m, cls):
                raise TypeError(
                    f"metric {name!r} already registered as "
                    f"{type(m).__name__}, not {cls.__name__}"
                )
            return m

    def counter(self, name: str) -> Counter:
        """The counter named ``name`` (created on first use)."""
        return self._get(name, Counter)

    def gauge(self, name: str) -> Gauge:
        """The gauge named ``name`` (created on first use)."""
        return self._get(name, Gauge)

    def histogram(self, name: str, buckets=None) -> Histogram:
        """The histogram named ``name`` (created on first use; ``buckets``
        only applies at creation)."""
        if buckets is None:
            return self._get(name, Histogram)
        return self._get(name, Histogram, tuple(buckets))

    def snapshot(self, prefix: str = "") -> dict:
        """``{name: metric.as_dict()}`` for every metric under ``prefix``."""
        with self._lock:
            items = sorted(self._metrics.items())
        return {n: m.as_dict() for n, m in items if n.startswith(prefix)}

    def reset(self, prefix: str = "") -> None:
        """Zero every metric under ``prefix`` in place (instances and
        registrations survive, so held references stay valid)."""
        with self._lock:
            targets = [m for n, m in self._metrics.items()
                       if n.startswith(prefix)]
        for m in targets:
            m.reset()


_REGISTRY = MetricsRegistry()


def registry() -> MetricsRegistry:
    """The process-wide default registry."""
    return _REGISTRY
