"""The mid-end pass pipeline: configuration, driving, verification.

The pipeline runs between lowering and backend emission, per
specialization, and only at ``OptLevel.FULL`` — the VIRTUAL / DEVIRT /
NOVIRT comparator modes exist to *measure* abstraction cost, so the
mid-end must not touch them.

``REPRO_OPT_PASSES`` selects the passes:

* unset / ``1`` / ``true`` / ``all`` — the full canonical pipeline;
* ``0`` / ``false`` / ``none`` / ``off`` — disabled;
* a comma list (e.g. ``fold,dce``) — exactly those passes, always run
  in canonical order.

The active configuration's :func:`pipeline_token` is part of the JIT
cache key (see ``repro.jit.cache.program_key``), so toggling the
variable can never reuse a stale artifact.

After every pass the function is re-verified
(:func:`repro.frontend.verify.verify_func`); a pass that breaks a
type/shape/def-before-use invariant raises :class:`OptPassError` naming
the pass and the function instead of miscompiling silently.
"""

from __future__ import annotations

import time

# the REPRO_OPT_PASSES readers key the cache, so they live where a cache
# hit can reach them without importing a pass (repro.env); this module,
# which acts on them, re-exports them
from repro.env import PASS_ORDER, config_from_env, pipeline_token
from repro.errors import BackendError
from repro.frontend.verify import verify_func
from repro.obs import metrics as _metrics
from repro.obs.trace import span as _span
from repro.opt import passes as _p
from repro.opt.cfg import inline as _cfg_inline
from repro.opt.cfg import ranges as _cfg_ranges

__all__ = [
    "PASS_ORDER",
    "OptPassError",
    "Pipeline",
    "config_from_env",
    "pipeline_for",
    "pipeline_token",
]

_PASS_FNS = {
    "inline": _cfg_inline.inline_func,
    "fold": _p.fold_func,
    "licm": _p.licm_func,
    "cse": _p.cse_func,
    "dce": _p.dce_func,
    "bce": _cfg_ranges.bce_func,
}

_M = _metrics.registry()


class OptPassError(BackendError):
    """An optimizer pass produced IR that fails verification."""


class Pipeline:
    """Runs the configured passes over one function at a time, verifying
    after each, and accumulating per-pass statistics."""

    def __init__(self, passes: tuple):
        self.passes = tuple(passes)
        self.stats = {
            name: {"runs": 0, "rewrites": 0, "seconds": 0.0}
            for name in self.passes
        }
        #: per-function rewrite counts: {pass: {symbol: n}} — surfaced in
        #: JitReport.opt_stats["bce"] / ["inline"]
        self.func_stats: dict[str, dict[str, int]] = {}

    def run_func(self, func_ir) -> None:
        """Apply every configured pass to ``func_ir`` in place."""
        for name in self.passes:
            fn = _PASS_FNS[name]
            t0 = time.perf_counter()
            with _span(f"opt.{name}", symbol=func_ir.symbol) as sp:
                n = fn(func_ir, self)
                try:
                    verify_func(func_ir)
                except BackendError as exc:
                    raise OptPassError(
                        f"optimizer pass {name!r} produced invalid IR for "
                        f"{func_ir.symbol}: {exc}"
                    ) from exc
                sp.set(rewrites=n)
            dt = time.perf_counter() - t0
            st = self.stats[name]
            st["runs"] += 1
            st["rewrites"] += n
            st["seconds"] += dt
            if n:
                per = self.func_stats.setdefault(name, {})
                per[func_ir.symbol] = per.get(func_ir.symbol, 0) + n
            _M.counter(f"opt.{name}.rewrites").inc(n)
            _M.histogram(f"opt.{name}.seconds").observe(dt)

    def stats_dict(self) -> dict:
        """Per-pass totals, JSON-serializable (lands in
        ``JitReport.opt_stats['pipeline']``)."""
        return {
            name: dict(st) for name, st in self.stats.items()
        }


def pipeline_for(opt) -> Pipeline | None:
    """The pipeline to run at optimization level ``opt`` (None when the
    mid-end is disabled or the level is a comparator mode)."""
    if getattr(opt, "value", opt) != "full":
        return None
    passes = config_from_env()
    return Pipeline(passes) if passes else None
