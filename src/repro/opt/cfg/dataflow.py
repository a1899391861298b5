"""Generic dataflow over the CFG: a worklist solver.

A forward iterative fixpoint in reverse postorder, with a widening hook
for infinite-height lattices such as intervals.  Its client is the range
analysis in :mod:`repro.opt.cfg.ranges`.
"""

from __future__ import annotations

from repro.opt.cfg.builder import CFG

__all__ = ["DataflowAnalysis", "solve"]


class DataflowAnalysis:
    """Base class for forward dataflow analyses run by :func:`solve`.

    Subclasses provide the ``boundary`` state at the entry, a ``join`` for
    merge points, and a ``transfer`` function over one basic block.
    ``None`` is the implicit bottom ("unreached") state: the solver never
    passes it to ``join`` or ``transfer``, so lattices need no explicit
    bottom element.
    """

    def boundary(self):
        """State at the function entry."""
        raise NotImplementedError

    def join(self, a, b):
        """Combine two states at a control-flow merge point."""
        raise NotImplementedError

    def transfer(self, block, state):
        """Push ``state`` through ``block``; must not mutate ``state``."""
        raise NotImplementedError

    def widen(self, old, new, visits: int):
        """Accelerate convergence after ``visits`` passes over a block.

        The default is no widening (finite lattices converge on their
        own); interval-style analyses override this."""
        return new


def solve(cfg: CFG, analysis: DataflowAnalysis) -> dict:
    """Run ``analysis`` to fixpoint; returns ``{bid: (in, out)}``.

    Unreachable blocks keep ``None`` ("unreached") on both sides.
    """
    in_states: dict[int, object] = {b.bid: None for b in cfg.blocks}
    out_states: dict[int, object] = {b.bid: None for b in cfg.blocks}
    visits: dict[int, int] = {b.bid: 0 for b in cfg.blocks}
    work = cfg.rpo()
    in_work = set(work)
    while work:
        bid = work.pop(0)
        in_work.discard(bid)
        merged = analysis.boundary() if bid == cfg.entry else None
        for src in cfg.blocks[bid].preds:
            s = out_states[src]
            if s is None:
                continue
            merged = s if merged is None else analysis.join(merged, s)
        if merged is None:
            continue  # unreachable from the entry
        in_states[bid] = merged
        new_out = analysis.transfer(cfg.blocks[bid], merged)
        visits[bid] += 1
        old_out = out_states[bid]
        if old_out is not None:
            new_out = analysis.widen(old_out, new_out, visits[bid])
        if old_out is None or old_out != new_out:
            out_states[bid] = new_out
            for e in cfg.blocks[bid].succs:
                if e.dst not in in_work:
                    work.append(e.dst)
                    in_work.add(e.dst)
    return {bid: (in_states[bid], out_states[bid]) for bid in in_states}
