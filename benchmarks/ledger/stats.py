"""Sample summaries, time-boxed loops and the failure tally."""

from __future__ import annotations

import statistics
import time

#: candidate tail percentiles, highest first
_TAILS = (99.99, 99.9, 99.0, 90.0)


def steady(samples) -> float:
    """The fifth percentile (the minimum below twenty samples): the location
    estimate every gated timing uses.

    On a shared box the noise is one-sided and intermittent — contention
    slows stretches of a fraction of a millisecond to a second by up to
    half, for minutes on end, and nothing ever speeds a sample up — so the
    median of a run follows how busy the neighbours were, while a low
    percentile stays at the uncontended speed as long as a twentieth of the
    samples ran undisturbed (``README.md`` has the measured spreads of each
    candidate).  The minimum itself is no steadier and follows a single
    lucky schedule where rank threads are involved.  A real regression moves
    the whole distribution, its low percentiles included."""
    xs = sorted(samples)
    return xs[len(xs) // 20]


def summarize(samples) -> dict:
    """``value`` (:func:`steady`), ``median``, ``tail`` (the highest
    percentile with at least ten samples beyond it; the maximum when there
    are too few), ``tail_pct`` and ``n`` of one list of seconds."""
    xs = sorted(samples)
    n = len(xs)
    tail, tail_pct = xs[-1], None
    for pct in _TAILS:
        if n * (1.0 - pct / 100.0) >= 10:
            tail, tail_pct = xs[int(n * pct / 100.0)], pct
            break
    return {"value": steady(xs), "median": statistics.median(xs),
            "tail": tail, "tail_pct": tail_pct, "n": n}


def total(rows) -> dict:
    """Sum of per-program rows (locations add; ``n`` is the smallest)."""
    rows = list(rows)
    out = {k: sum(r[k] for r in rows) for k in ("value", "median", "tail")}
    out["tail_pct"] = None if len(rows) > 1 else rows[0]["tail_pct"]
    out["n"] = min(r["n"] for r in rows)
    return out


#: the run length ``BENCHMARK.json`` declares.  A shorter run (``--quick``)
#: shrinks every minimum sample count in proportion, down to one.
FULL_RUN_SECONDS = 15.0


def floor_count(base: int, seconds: float) -> int:
    """The minimum sample count of a phase for a run of ``seconds``."""
    return max(1, int(base * min(1.0, seconds / FULL_RUN_SECONDS)))


class Budget:
    """A time-boxed loop: ``while b.more(): ...`` runs at least ``min_n``
    times, then until ``seconds`` have passed since the first check, and
    never more than ``max_n`` times."""

    def __init__(self, seconds: float, min_n: int, max_n: "int | None" = None):
        self.seconds = seconds
        self.min_n = min_n
        self.max_n = max_n
        self.n = 0
        self._deadline = None

    def more(self) -> bool:
        now = time.perf_counter()
        if self._deadline is None:
            self._deadline = now + self.seconds
        go = self.n < self.min_n or now < self._deadline
        if self.max_n is not None and self.n >= self.max_n:
            go = False
        self.n += go
        return go


class Tally:
    """Operations attempted and failed; every correctness check lands here
    and the two totals are the result line's ``attempted``/``failed``."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.notes: list[str] = []

    def check(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.notes) < 20:
                self.notes.append(what)
        return ok
