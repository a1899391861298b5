"""Lower statement-tree ``FuncIR`` into a control-flow graph.

Each :class:`BasicBlock` holds a straight-line list of *items*: plain
simple IR statements (``LocalDecl``/``Assign``/``FieldStore``/
``ArrayStore``/``ExprStmt``/``Return``) interleaved with three pseudo-ops
that make control-flow evaluation points explicit:

* :class:`CondEval` — an ``If``/``While`` condition evaluated at the end
  of its block (the block then has a ``true`` and a ``false`` edge);
* :class:`RangeEval` — a ``ForRange``'s start/stop/step expressions,
  evaluated exactly once in the loop preheader (Python ``range``
  semantics);
* :class:`LoopBind` — the binding of the loop variable at the loop-body
  entry.  Placing the bind at body entry (not in the header) keeps the
  post-loop value of the variable conservative for dataflow clients.

The statement objects are shared with ``FuncIR.body`` — the CFG is an
overlay view, so analyses that annotate IR nodes in place (the
bounds-check eliminator sets ``ArrayLoad.bounds_ok``) need no lowering
back to the tree.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.frontend import ir

__all__ = [
    "BasicBlock", "CFG", "CondEval", "Edge", "LoopBind", "RangeEval",
    "build_cfg", "item_exprs",
]


@dataclass
class CondEval:
    """Pseudo-op: evaluate a branch condition at the end of a block."""

    cond: ir.Expr
    origin: ir.Stmt  # the If/While statement this condition came from


@dataclass
class RangeEval:
    """Pseudo-op: evaluate a ``ForRange``'s range expressions (preheader)."""

    loop: ir.ForRange


@dataclass
class LoopBind:
    """Pseudo-op: bind the loop variable on entry to a loop body."""

    loop: ir.ForRange


@dataclass
class Edge:
    """A control-flow edge to block ``dst`` with a descriptive ``kind``
    (one of ``""``, ``true``, ``false``, ``loop``, ``exit``, ``back``,
    ``break``, ``continue``, ``return``)."""

    dst: int
    kind: str = ""


@dataclass
class BasicBlock:
    """One straight-line run of items plus its outgoing edges."""

    bid: int
    stmts: list = field(default_factory=list)
    succs: list = field(default_factory=list)  # of Edge
    preds: list = field(default_factory=list)  # of int, filled by CFG


class CFG:
    """The control-flow graph of one function: blocks, entry, and a
    single synthetic exit block every ``Return`` (and the fall-off end)
    flows into."""

    def __init__(self, func_ir: ir.FuncIR):
        self.func_ir = func_ir
        self.blocks: list[BasicBlock] = []
        self.entry = 0
        self.exit = 0

    def new_block(self) -> BasicBlock:
        """Append and return a fresh empty block."""
        b = BasicBlock(len(self.blocks))
        self.blocks.append(b)
        return b

    def block(self, bid: int) -> BasicBlock:
        """The block with id ``bid``."""
        return self.blocks[bid]

    def seal(self) -> None:
        """Recompute predecessor lists from the edge lists."""
        for b in self.blocks:
            b.preds = []
        for b in self.blocks:
            for e in b.succs:
                self.blocks[e.dst].preds.append(b.bid)

    def rpo(self) -> list[int]:
        """Reverse postorder over blocks reachable from the entry."""
        seen: set[int] = set()
        order: list[int] = []

        def visit(bid: int) -> None:
            stack = [(bid, iter([e.dst for e in self.blocks[bid].succs]))]
            seen.add(bid)
            while stack:
                nid, it = stack[-1]
                advanced = False
                for nxt in it:
                    if nxt not in seen:
                        seen.add(nxt)
                        stack.append(
                            (nxt, iter([e.dst for e in self.blocks[nxt].succs])))
                        advanced = True
                        break
                if not advanced:
                    order.append(nid)
                    stack.pop()

        visit(self.entry)
        return list(reversed(order))


def item_exprs(item) -> list:
    """The top-level expressions an item evaluates, in evaluation order."""
    if isinstance(item, CondEval):
        return [item.cond]
    if isinstance(item, RangeEval):
        loop = item.loop
        out = [loop.start, loop.stop]
        if loop.step is not None:
            out.append(loop.step)
        return out
    if isinstance(item, LoopBind):
        return []  # range expressions were evaluated in the preheader
    return ir.stmt_exprs(item)


class _Builder:
    """Recursive statement-tree walker producing a :class:`CFG`."""

    def __init__(self, func_ir: ir.FuncIR):
        self.cfg = CFG(func_ir)
        self.return_blocks: list[int] = []

    def _edge(self, src: BasicBlock, dst: BasicBlock, kind: str = "") -> None:
        src.succs.append(Edge(dst.bid, kind))

    def build(self) -> CFG:
        cur = self.cfg.new_block()
        self.cfg.entry = cur.bid
        last = self._lower(self.cfg.func_ir.body, cur, None, None)
        exit_b = self.cfg.new_block()
        self.cfg.exit = exit_b.bid
        self._edge(last, exit_b, "")
        for bid in self.return_blocks:
            self._edge(self.cfg.blocks[bid], exit_b, "return")
        self.cfg.seal()
        return self.cfg

    def _lower(self, stmts, cur: BasicBlock, brk, cont) -> BasicBlock:
        """Lower ``stmts`` into blocks starting at ``cur``; returns the
        block control falls out of.  ``brk``/``cont`` are the innermost
        loop's break/continue target blocks."""
        for s in stmts:
            if isinstance(s, ir.If):
                cur.stmts.append(CondEval(s.cond, s))
                then_b = self.cfg.new_block()
                else_b = self.cfg.new_block()
                self._edge(cur, then_b, "true")
                self._edge(cur, else_b, "false")
                then_exit = self._lower(s.then, then_b, brk, cont)
                else_exit = self._lower(s.orelse, else_b, brk, cont)
                join = self.cfg.new_block()
                self._edge(then_exit, join, "")
                self._edge(else_exit, join, "")
                cur = join
            elif isinstance(s, ir.ForRange):
                cur.stmts.append(RangeEval(s))
                header = self.cfg.new_block()
                self._edge(cur, header, "")
                body_b = self.cfg.new_block()
                after = self.cfg.new_block()
                self._edge(header, body_b, "loop")
                self._edge(header, after, "exit")
                body_b.stmts.append(LoopBind(s))
                body_exit = self._lower(s.body, body_b, after, header)
                self._edge(body_exit, header, "back")
                cur = after
            elif isinstance(s, ir.While):
                header = self.cfg.new_block()
                self._edge(cur, header, "")
                header.stmts.append(CondEval(s.cond, s))
                body_b = self.cfg.new_block()
                after = self.cfg.new_block()
                self._edge(header, body_b, "true")
                self._edge(header, after, "false")
                body_exit = self._lower(s.body, body_b, after, header)
                self._edge(body_exit, header, "back")
                cur = after
            elif isinstance(s, ir.Break):
                self._edge(cur, brk, "break")
                cur = self.cfg.new_block()  # unreachable continuation
            elif isinstance(s, ir.Continue):
                self._edge(cur, cont, "continue")
                cur = self.cfg.new_block()
            elif isinstance(s, ir.Return):
                cur.stmts.append(s)
                self.return_blocks.append(cur.bid)
                cur = self.cfg.new_block()
            else:
                cur.stmts.append(s)
        return cur


def build_cfg(func_ir: ir.FuncIR) -> CFG:
    """Build the control-flow graph of ``func_ir`` (see module doc)."""
    return _Builder(func_ir).build()
