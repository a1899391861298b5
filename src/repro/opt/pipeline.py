"""The mid-end pass pipeline: configuration, driving, verification.

The pipeline runs between lowering and backend emission, per
specialization, and only at ``OptLevel.FULL`` — the VIRTUAL / DEVIRT /
NOVIRT comparator modes exist to *measure* abstraction cost, so the
mid-end must not touch them.

``REPRO_OPT_PASSES`` selects the passes (:func:`passes_for`):

* unset / empty / ``default`` — the backend's own set: ``cse`` on C
  (every pass under ``REPRO_BOUNDS=1`` or ``REPRO_OMP=1``), every pass on
  py;
* ``1`` / ``true`` / ``all`` — the full canonical pipeline on every
  backend;
* ``0`` / ``false`` / ``none`` / ``off`` — disabled;
* a comma list (e.g. ``fold,dce``) — exactly those passes, always run
  in canonical order.

The passes a build runs (:func:`pipeline_passes`) are part of the JIT
cache key (see ``repro.jit.cache.program_key``), so toggling the
variable can never reuse a stale artifact.

After every pass the function is re-verified
(:func:`repro.frontend.verify.verify_func`); a pass that breaks a
type/shape/def-before-use invariant raises :class:`OptPassError` naming
the pass and the function instead of miscompiling silently.
"""

from __future__ import annotations

# the REPRO_OPT_PASSES readers key the cache, so they live where a cache
# hit can reach them without importing a pass (repro.env); this module,
# which acts on them, re-exports them
from repro.env import PASS_ORDER, passes_for, pipeline_passes
from repro.errors import BackendError
from repro.frontend.verify import verify_func
from repro.obs.trace import phases as _phases
from repro.opt import passes as _p
from repro.opt.cfg import inline as _cfg_inline
from repro.opt.cfg import ranges as _cfg_ranges

__all__ = [
    "PASS_ORDER",
    "OptPassError",
    "Pipeline",
    "passes_for",
    "pipeline_passes",
]

_PASS_FNS = {
    "inline": _cfg_inline.inline_func,
    "fold": _p.fold_func,
    "licm": _p.licm_func,
    "cse": _p.cse_func,
    "dce": _p.dce_func,
    "bce": _cfg_ranges.bce_func,
}


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
            with _phases(f"opt.{name}", symbol=func_ir.symbol) as clock:
                n = fn(func_ir, self)
                try:
                    verify_func(func_ir)
                except BackendError as exc:
                    raise OptPassError(
                        f"optimizer pass {name!r} produced invalid IR for "
                        f"{func_ir.symbol}: {exc}"
                    ) from exc
                clock.set(rewrites=n)
            st = self.stats[name]
            st["runs"] += 1
            st["rewrites"] += n
            st["seconds"] += clock.end()
            if n:
                per = self.func_stats.setdefault(name, {})
                per[func_ir.symbol] = per.get(func_ir.symbol, 0) + n

    def stats_dict(self) -> dict:
        """Per-pass totals, JSON-serializable (lands in
        ``JitReport.opt_stats['pipeline']``); a pass's ``seconds`` are its
        ``opt.<pass>`` phases (:class:`repro.obs.trace.phases`)."""
        return {
            name: dict(st) for name, st in self.stats.items()
        }
