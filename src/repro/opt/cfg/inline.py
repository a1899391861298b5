"""Cross-method guest inliner: splice devirtualized callee bodies into
their callers.

Lowering already devirtualizes every call (``ir.Call.target`` is a fully
specialized, already-optimized callee — specialization is post-order, so
callees are finished before their callers), which makes inlining a pure
IR-to-IR splice:

1. pick a call site whose *prefix* (everything the statement evaluates
   before the call) is pure and fault-free, so hoisting the callee body
   in front of the statement can neither reorder observable effects nor
   change which fault fires first;
2. bind the receiver and every argument to fresh ``__inl`` temps (in the
   original evaluation order) — except snapshot-object receivers/
   arguments and constants, which are substituted directly (snapshot
   object *identity* is immutable, so duplication is sound, and it keeps
   the emitted code free of object-typed temps);
3. splice an alpha-renamed clone of the callee body before the
   statement, bind the callee's return expression to a temp, and replace
   the ``Call`` node with a reference to it.

Eligible callees are single-exit (a ``Return`` may appear only as the
final top-level statement), same device-ness as the caller, launch no
kernels, and fit the size budget.  Recursion is banned by the coding
rules, so termination needs no call-graph bookkeeping; repeated
application collapses whole helper chains (the post-order pipeline means
a callee's body arrives already inlined itself).

The size budget is three module constants (``_MAX_STMTS``, ``_MAX_TOTAL``,
``_MAX_CALLS``): they change the emitted code and are not part of the cache
key, so they are not settable from outside.
"""

from __future__ import annotations

import copy

from repro.frontend import ir
from repro.frontend.shapes import ArrayShape, ObjShape
from repro.obs import metrics as _metrics
from repro.opt.passes import _Namer, _Summary

__all__ = ["inline_func"]

_M = _metrics.registry()


_MAX_STMTS = 24    # largest callee body spliced
_MAX_TOTAL = 768   # caller size at which splicing stops
_MAX_CALLS = 64    # splices per caller


def _stmt_count(stmts) -> int:
    n = 0
    stack = list(stmts)
    while stack:
        s = stack.pop()
        n += 1
        for block in ir.stmt_blocks(s):
            stack.extend(block)
    return n


def _returns_final_only(body) -> bool:
    """True when the only ``Return`` (if any) is the last top-level
    statement — the single-exit shape the splice requires."""
    for i, s in enumerate(body):
        if isinstance(s, ir.Return) and i != len(body) - 1:
            return False
        for block in ir.stmt_blocks(s):
            stack = list(block)
            while stack:
                sub = stack.pop()
                if isinstance(sub, ir.Return):
                    return False
                for b in ir.stmt_blocks(sub):
                    stack.extend(b)
    return True


def _launches_kernel(body) -> bool:
    for e in ir.walk_exprs(list(body)):
        if isinstance(e, ir.KernelLaunch):
            return True
    return False


# ---------------------------------------------------------------------------
# prefix safety
# ---------------------------------------------------------------------------

def _prefix_safe(e: ir.Expr, deps: set) -> bool:
    """Whether evaluating the node ``e`` — its operands already accepted —
    before the spliced callee body is safe: no side effects, no possible
    fault, and any value it reads that the callee *could* invalidate is
    recorded in ``deps`` (snapshot array fields, checked against the
    callee's field effects at selection)."""
    if isinstance(e, (ir.Const, ir.LocalRef, ir.ArrayLen, ir.Compare,
                      ir.BoolOp)):
        return True  # lengths are immutable; comparisons cannot fault
    if isinstance(e, ir.FieldLoad):
        # array-typed fields are the one mutable thing: record the
        # dependency so callees that store it are rejected (dynamic objects
        # are immutable, non-array fields semi-immutable)
        shape = e.obj.shape
        if (isinstance(e.shape, ArrayShape) and isinstance(shape, ObjShape)
                and shape.from_snapshot):
            deps.add((shape.root_path, e.fname))
        return True
    if isinstance(e, ir.UnaryOp):
        return e.op in ("-", "not")
    if isinstance(e, ir.BinOp):
        if e.op in ("+", "-", "*"):
            return True
        if e.op in ("/", "//", "%"):
            d = e.right
            return (isinstance(d, ir.Const) and not isinstance(d.value, bool)
                    and d.value != 0)
        return False  # ** may raise OverflowError under CPython semantics
    return False  # loads, casts, calls, intrinsics: don't reorder around


def _pure_chain(e: ir.Expr) -> bool:
    """A whole expression tree of prefix-safe nodes."""
    return _prefix_safe(e, set()) and all(
        _pure_chain(c) for c in ir.expr_children(e))


# ---------------------------------------------------------------------------
# callee eligibility
# ---------------------------------------------------------------------------

def _spliceable(fir: ir.FuncIR) -> bool:
    """Single exit, within the size budget, launches no kernel."""
    return (_returns_final_only(fir.body)
            and _stmt_count(fir.body) <= _MAX_STMTS
            and not _launches_kernel(fir.body))


class _Inliner:
    """One ``inline_func`` run: the caller, its fresh names, its running
    size, and what has been learnt about its callees so far."""

    def __init__(self, caller: ir.FuncIR):
        self.caller = caller
        self.namer = _Namer(caller, "__inl")
        self.summary = _Summary()
        self.spliceable: dict = {}  # id(callee FuncIR) -> bool
        self.size = _stmt_count(caller.body)
        self.spliced = 0

    def _eligible(self, call: ir.Call, deps: set) -> bool:
        fir = getattr(call.target, "func_ir", None)
        if fir is None or fir is self.caller:
            return False
        if fir.is_kernel or fir.is_device != self.caller.is_device:
            return False
        ok = self.spliceable.get(id(fir))
        if ok is None:
            ok = self.spliceable[id(fir)] = _spliceable(fir)
        if not ok:
            return False
        if deps:
            stored = self.summary.callee(call.target).stored
            if stored is None or (stored & deps):
                return False
        return True

    def _find_call(self, roots) -> ir.Call | None:
        """First inlinable call across ``roots`` (statement expressions in
        evaluation order), honoring the pure-prefix rule.  One walk: a node
        "executes" after its operands, so the prefix stays pure exactly as
        long as every node met so far is prefix-safe on its own."""
        deps: set = set()
        # (node, selectable, operands done?) — a call in a short-circuit arm
        # beyond the first evaluates conditionally and cannot be hoisted
        stack = [(root, True, False) for root in reversed(roots)]
        while stack:
            e, selectable, done = stack.pop()
            if done:
                if not _prefix_safe(e, deps):
                    return None  # nothing after an unsafe node is selectable
                continue
            if selectable and isinstance(e, ir.Call) and self._eligible(e, deps):
                return e
            stack.append((e, selectable, True))
            later = isinstance(e, ir.BoolOp)
            children = ir.expr_children(e)
            for idx in range(len(children) - 1, -1, -1):
                stack.append(
                    (children[idx], selectable and not (later and idx), False))
        return None

    def run(self, stmts: list) -> None:
        """Splice every inlinable call under ``stmts``, resuming at the
        splice (its statements may hold further calls) rather than
        rescanning what was already found to have none."""
        i = 0
        while i < len(stmts):
            s = stmts[i]
            # ``While`` conditions re-evaluate every iteration, so nothing
            # may be hoisted out of them; all other top-level expression
            # slots evaluate exactly once before (or as) the statement runs
            roots = [] if isinstance(s, ir.While) else ir.stmt_exprs(s)
            call = None
            if self.spliced < _MAX_CALLS and self.size < _MAX_TOTAL:
                call = self._find_call(roots)
            if call is None:
                for block in ir.stmt_blocks(s):
                    self.run(block)
                i += 1
                continue
            pre, ret_ref = _expand(call, self.namer)
            if ret_ref is None:
                # void callee: legal only in statement position
                assert isinstance(s, ir.ExprStmt) and s.value is call, \
                    "void call selected outside statement position"
                stmts[i:i + 1] = pre
                self.size -= 1
            else:
                ir.rewrite_stmt_exprs(
                    s, lambda e: ret_ref if e is call else e)
                stmts[i:i] = pre
            self.size += _stmt_count(pre)
            self.spliced += 1


# ---------------------------------------------------------------------------
# alpha-renaming clone
# ---------------------------------------------------------------------------

def _clone_expr(e: ir.Expr, rn: dict) -> ir.Expr:
    """Deep-copy ``e`` node by node while renaming/substituting locals via
    ``rn`` (name -> fresh name, or name -> actual-argument expression).
    Shapes, types and call targets are shared, never copied; each node's own
    type and shape are recomputed from its cloned operands, as its
    constructor would (a substituted receiver changes what a FieldLoad of
    it yields).  ``bounds_ok`` marks carry over: callee proofs are
    context-free."""
    if type(e) is ir.LocalRef:
        r = rn.get(e.name)
        if isinstance(r, ir.Expr):
            return _clone_expr(r, {})  # substituted actual (fresh copy)
        return ir.LocalRef(r if r is not None else e.name,
                           e.ref_ty, e.ref_shape)
    new = copy.copy(e)
    for attr in e.kids:
        child = getattr(e, attr)
        if child is not None:
            setattr(new, attr, _clone_expr(child, rn))
    if e.kid_seq is not None:
        seq = getattr(e, e.kid_seq)
        if type(seq) is dict:
            seq = {k: _clone_expr(v, rn) for k, v in seq.items()}
        else:
            seq = [_clone_expr(v, rn) for v in seq]
        setattr(new, e.kid_seq, seq)
    new.__post_init__()
    return new


def _clone_stmt(s: ir.Stmt, rn: dict) -> ir.Stmt:
    new = copy.copy(s)
    if s.assigns is not None:
        name = getattr(s, s.assigns)
        setattr(new, s.assigns, rn.get(name, name))
    for attr in ir.stmt_slots(s):
        setattr(new, attr, _clone_expr(getattr(s, attr), rn))
    for attr in s.blocks:
        setattr(new, attr, [_clone_stmt(x, rn) for x in getattr(s, attr)])
    return new


def _substitutable(e: ir.Expr) -> bool:
    """Actuals that may be substituted for the formal instead of bound to
    a temp: constants, and pure chains denoting snapshot objects (their
    identity is immutable, so duplication cannot change meaning)."""
    if isinstance(e, ir.Const):
        return True
    shape = getattr(e, "shape", None)
    if isinstance(shape, ObjShape) and shape.from_snapshot:
        return _pure_chain(e)
    return False


def _expand(call: ir.Call, namer: _Namer):
    """Build the splice for one call: ``(pre_stmts, ret_ref_or_None)``."""
    callee: ir.FuncIR = call.target.func_ir
    pre: list[ir.Stmt] = []
    rn: dict = {}

    reassigned = ir.assigned_names(callee.body)
    bindings = []
    if call.recv is not None:
        bindings.append(("self", call.recv))
    for pname, actual in zip(callee.param_names, call.args):
        bindings.append((pname, actual))
    for formal, actual in bindings:
        if formal not in reassigned and _substitutable(actual):
            rn[formal] = actual
        else:
            fresh = namer.fresh()
            pre.append(ir.LocalDecl(fresh, actual.ty, actual))
            rn[formal] = fresh

    body = list(callee.body)
    ret_expr = None
    if body and isinstance(body[-1], ir.Return):
        ret_expr = body[-1].value
        body = body[:-1]

    # alpha-rename every callee-defined local (sorted: fresh-name numbering
    # must not depend on set iteration order, or emitted C would vary
    # between processes and break the golden/cache-key determinism)
    for name in sorted(reassigned):
        if name not in rn:
            rn[name] = namer.fresh()

    for s in body:
        pre.append(_clone_stmt(s, rn))

    if ret_expr is None:
        return pre, None
    value = _clone_expr(ret_expr, rn)
    fresh = namer.fresh()
    pre.append(ir.LocalDecl(fresh, callee.ret_type, value))
    return pre, ir.LocalRef(fresh, callee.ret_type, value.shape)


# ---------------------------------------------------------------------------
# the pass
# ---------------------------------------------------------------------------

def inline_func(f: ir.FuncIR, ctx=None) -> int:
    """Inline devirtualized callees into ``f`` (see module doc).

    Returns the number of call sites spliced; feeds the
    ``inline.calls_inlined`` counter."""
    inliner = _Inliner(f)
    inliner.run(f.body)
    if inliner.spliced:
        _M.counter("inline.calls_inlined").inc(inliner.spliced)
    return inliner.spliced
