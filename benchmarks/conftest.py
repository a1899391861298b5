"""Shared helpers for the benchmark suite.

Every bench regenerates one table/figure of the paper's §4 via
``repro.bench.figures``, saves the rendered series under
``benchmarks/results/``, prints it (visible with ``pytest -s``), and asserts
the *shape* the paper reports (who wins, roughly by how much).  Absolute
numbers are machine-dependent; the shape assertions use generous margins so
they hold on slow/noisy CI hosts.

Set ``REPRO_PAPER_SIZES=1`` for the paper's problem sizes (slow).  Every
point is the minimum of three repetitions (``repro.bench.figures``).
"""

from __future__ import annotations

import pytest

from repro.backends.cbackend import compiler_available
from repro.bench.harness import save_series


def run_series(benchmark, figure_fn):
    """Run one figure driver under pytest-benchmark (single round: the
    drivers already repeat internally) and persist/print the series."""
    series = benchmark.pedantic(figure_fn, rounds=1, iterations=1)
    path = save_series(series)
    print()
    print(series.render())
    print(f"[saved to {path}]")
    return series


@pytest.fixture(autouse=True)
def _require_cc():
    if not compiler_available():
        pytest.skip("benchmarks need a C compiler (the paper's comparators "
                    "are compiled programs)")
