"""Series/table plumbing shared by all benchmark drivers, plus the
subprocess compile-time probe used by the warm-start cache benchmarks.

Benchmark drivers wrap each measured repeat in :func:`iteration_span`, so
running experiments under ``REPRO_TRACE=1`` yields per-iteration spans
(and, through the instrumented pipeline underneath, per-phase spans)
alongside the rendered tables."""

from __future__ import annotations

import json
import os
import subprocess
import sys
from dataclasses import dataclass, field
from pathlib import Path

from repro.obs.trace import span as _span

__all__ = [
    "Series",
    "compile_probe",
    "iteration_span",
    "render_table",
    "results_dir",
    "save_series",
]


def iteration_span(exp_id: str, variant: str, repeat: int = 0, **attrs):
    """A ``bench.iteration`` tracing span for one measured repeat of one
    experiment variant (no-op unless tracing is enabled)."""
    return _span("bench.iteration", exp=exp_id, variant=variant,
                 repeat=repeat, **attrs)


def render_table(headers: list[str], rows: list[list]) -> str:
    """Monospace table with aligned columns and compact float formatting."""
    def fmt(v):
        if isinstance(v, float):
            if v == 0:
                return "0"
            if abs(v) >= 1e4 or abs(v) < 1e-3:
                return f"{v:.3e}"
            return f"{v:.4f}"
        return str(v)

    cells = [[fmt(v) for v in row] for row in rows]
    widths = [
        max(len(h), *(len(r[i]) for r in cells)) if cells else len(h)
        for i, h in enumerate(headers)
    ]
    out = ["  ".join(h.ljust(w) for h, w in zip(headers, widths))]
    out.append("  ".join("-" * w for w in widths))
    for row in cells:
        out.append("  ".join(c.ljust(w) for c, w in zip(row, widths)))
    return "\n".join(out)


@dataclass
class Series:
    """One experiment's regenerated data."""

    exp_id: str          # e.g. "fig04"
    title: str           # the paper's caption, paraphrased
    headers: list
    rows: list = field(default_factory=list)
    notes: str = ""

    def render(self) -> str:
        body = render_table(self.headers, self.rows)
        head = f"== {self.exp_id}: {self.title} =="
        tail = f"\n{self.notes}" if self.notes else ""
        return f"{head}\n{body}{tail}\n"

    def column(self, name: str) -> list:
        i = self.headers.index(name)
        return [row[i] for row in self.rows]


def results_dir() -> Path:
    """Directory for rendered series ($REPRO_RESULTS_DIR, created)."""
    root = os.environ.get("REPRO_RESULTS_DIR", "benchmarks/results")
    path = Path(root)
    path.mkdir(parents=True, exist_ok=True)
    return path


def save_series(series: Series) -> Path:
    """Write one experiment's rendered table to the results directory."""
    path = results_dir() / f"{series.exp_id}.txt"
    path.write_text(series.render())
    return path


# ---------------------------------------------------------------------------
# subprocess compile-time probe (warm-start benchmarking)
# ---------------------------------------------------------------------------

#: worker executed in a fresh interpreter: JIT the sample stencil program
#: once on the backend named by its first argument (default ``c``) and report
#: the JitReport timings, and how many processes the ``jit()`` and the first
#: ``invoke()`` started (``spawns``, from the audit events every spawn
#: raises), as JSON on stdout
_PROBE_WORKER = r"""
import json
import sys

spawns = []
sys.addaudithook(lambda event, args: event in (
    "subprocess.Popen", "os.posix_spawn", "os.fork", "os.exec", "os.system")
    and spawns.append(event))
from repro import jit
from repro.jit import service
from repro.library.stencil import (
    EmptyContext, SineGen, StencilCPU3D, ThreeDIndexer,
)
from repro.library.stencil.config import make_dif3d_solver, make_grid3d

app = StencilCPU3D(
    make_dif3d_solver(), make_grid3d(8, 8, 6), ThreeDIndexer(8, 8, 6),
    SineGen(8, 8, 4, 1), EmptyContext(),
)
spawns.clear()
code = jit(app, "run", 2, backend=sys.argv[1] if len(sys.argv) > 1 else "c")
first_value = float(code.invoke().value)
n_spawns = len(spawns)
r = code.report
print(json.dumps({
    "cache_hit": r.cache_hit,
    "cache_tier": r.cache_tier,
    "key_digest": r.key_digest,
    "translate_s": r.translate_s,
    "backend_compile_s": r.backend_compile_s,
    "cached_lookup_s": r.cached_lookup_s,
    "total_s": r.total_s,
    "build_stats": r.build_stats,
    "service": service.stats(),
    "value": first_value,
    "spawns": n_spawns,
}))
"""


def compile_probe(cache_dir: str, *, backend: str = "c") -> dict:
    """JIT-compile the sample stencil program on ``backend`` in a *fresh
    subprocess* with the disk cache rooted at ``cache_dir``; returns the
    child's JitReport timings (and its cache key's ``key_digest``) as a
    dict.  Run twice against the same directory to measure a cold miss then
    a warm disk hit — the warm run must report ``backend_compile_s == 0``
    and ``spawns == 0`` (it starts no process, not even ``cc --version``,
    and on py never compiles)."""
    env = dict(os.environ)
    env["REPRO_CACHE_DIR"] = cache_dir
    src_root = Path(__file__).resolve().parents[2]
    env["PYTHONPATH"] = f"{src_root}{os.pathsep}{env.get('PYTHONPATH', '')}"
    proc = subprocess.run(
        [sys.executable, "-c", _PROBE_WORKER, backend],
        capture_output=True, text=True, env=env, timeout=300,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"compile probe failed:\n{proc.stderr[-4000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])
