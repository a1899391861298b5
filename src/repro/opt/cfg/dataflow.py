"""Generic dataflow over the CFG: a worklist solver.

The solver is direction-agnostic (classic iterative fixpoint with an
optional widening hook for infinite-height lattices such as intervals).
Its client is the range analysis in :mod:`repro.opt.cfg.ranges`.
"""

from __future__ import annotations

from repro.opt.cfg.builder import CFG

__all__ = ["DataflowAnalysis", "solve"]


class DataflowAnalysis:
    """Base class for dataflow analyses run by :func:`solve`.

    Subclasses pick a ``direction`` (``"forward"`` or ``"backward"``),
    provide the ``boundary`` state (at the entry for forward analyses, at
    the exit for backward ones), a ``join`` for merge points, and a
    ``transfer`` function over one basic block.  ``None`` is the implicit
    bottom ("unreached") state: the solver never passes it to ``join`` or
    ``transfer``, so lattices need no explicit bottom element.
    """

    direction = "forward"

    def boundary(self):
        """State on the boundary (entry/exit) of the function."""
        raise NotImplementedError

    def join(self, a, b):
        """Combine two states at a control-flow merge point."""
        raise NotImplementedError

    def transfer(self, block, state):
        """Push ``state`` through ``block``; must not mutate ``state``."""
        raise NotImplementedError

    def equal(self, a, b) -> bool:
        """Fixpoint test; override when states lack cheap ``==``."""
        return a == b

    def widen(self, old, new, visits: int):
        """Accelerate convergence after ``visits`` passes over a block.

        The default is no widening (finite lattices converge on their
        own); interval-style analyses override this."""
        return new


def solve(cfg: CFG, analysis: DataflowAnalysis) -> dict:
    """Run ``analysis`` to fixpoint; returns ``{bid: (in, out)}``.

    Unreachable blocks keep ``None`` ("unreached") on both sides.  For
    backward analyses the roles of ``in`` and ``out`` are swapped in the
    usual way: ``out`` is joined over successors and ``in`` is the result
    of the transfer.
    """
    forward = analysis.direction == "forward"
    order = cfg.rpo()
    if not forward:
        order = list(reversed(order))
    in_states: dict[int, object] = {b.bid: None for b in cfg.blocks}
    out_states: dict[int, object] = {b.bid: None for b in cfg.blocks}
    visits: dict[int, int] = {b.bid: 0 for b in cfg.blocks}

    def sources(bid: int) -> list[int]:
        if forward:
            return cfg.blocks[bid].preds
        return [e.dst for e in cfg.blocks[bid].succs]

    boundary_bid = cfg.entry if forward else cfg.exit
    work = list(order)
    in_work = set(work)
    while work:
        bid = work.pop(0)
        in_work.discard(bid)
        merged = analysis.boundary() if bid == boundary_bid else None
        for src in sources(bid):
            s = out_states[src]
            if s is None:
                continue
            merged = s if merged is None else analysis.join(merged, s)
        if merged is None:
            continue  # unreachable from the boundary
        in_states[bid] = merged
        new_out = analysis.transfer(cfg.blocks[bid], merged)
        visits[bid] += 1
        old_out = out_states[bid]
        if old_out is not None:
            new_out = analysis.widen(old_out, new_out, visits[bid])
        if old_out is None or not analysis.equal(old_out, new_out):
            out_states[bid] = new_out
            targets = ([e.dst for e in cfg.blocks[bid].succs] if forward
                       else cfg.blocks[bid].preds)
            for t in targets:
                if t not in in_work:
                    work.append(t)
                    in_work.add(t)
    if forward:
        return {bid: (in_states[bid], out_states[bid]) for bid in in_states}
    # backward: present results as (in, out) in program order
    return {bid: (out_states[bid], in_states[bid]) for bid in in_states}
