"""CFG mid-end: basic blocks, dataflow, range-based bounds-check
elimination, and the cross-method guest inliner.

The pass pipeline in :mod:`repro.opt.pipeline` historically worked on the
statement *tree* (``FuncIR.body``), which keeps fold/licm/cse block-local
and conservative.  This package lowers the statement tree into a proper
control-flow graph (:mod:`repro.opt.cfg.builder`), provides a generic
forward dataflow solver (:mod:`repro.opt.cfg.dataflow`), and
builds the two optimizations the ROADMAP calls the biggest speed wins left
on the table:

* :mod:`repro.opt.cfg.ranges` — the mid-end's integer domain (an affine
  form plus an interval, shared with the loop parallelizer) and the
  interval analysis over the CFG that proves array accesses in-bounds
  (array lengths are specialization constants — see
  ``ArrayShape.length``) and marks them so both backends elide the
  ``REPRO_BOUNDS`` guard;
* :mod:`repro.opt.cfg.inline` — a size-budgeted cross-method inliner that
  splices devirtualized callee bodies into their callers, so helper chains
  (the stencil indexer, nbody's force laws) disappear before fold/licm/cse
  run.

Design notes, knobs, and report fields: docs/CFG.md.
"""

from repro.opt.cfg.inline import inline_func
from repro.opt.cfg.ranges import Interval, bce_func

__all__ = ["Interval", "bce_func", "inline_func"]
