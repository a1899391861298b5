"""Mid-end IR optimizer.

A pass pipeline over :class:`~repro.frontend.ir.FuncIR` that runs
between lowering and backend emission — cross-method inlining, dead-code
elimination, common-subexpression elimination (array index/address
math), loop invariant code motion, algebraic simplification, and
CFG-based bounds-check elimination — with the IR verifier re-run after
every pass.  See ``docs/OPTIMIZER.md`` and ``docs/CFG.md``.
"""

from repro.opt.cfg import bce_func, inline_func
from repro.opt.passes import cse_func, dce_func, fold_func, licm_func
from repro.opt.pipeline import (
    PASS_ORDER,
    OptPassError,
    Pipeline,
    passes_for,
    pipeline_passes,
)

__all__ = [
    "PASS_ORDER",
    "OptPassError",
    "Pipeline",
    "bce_func",
    "cse_func",
    "dce_func",
    "fold_func",
    "inline_func",
    "licm_func",
    "passes_for",
    "pipeline_passes",
]
