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

from repro.frontend import ir
from repro.frontend.shapes import ArrayShape, ObjShape
from repro.obs import metrics as _metrics
from repro.opt.passes import _callee_effects

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
    """Whether evaluating ``e`` before the spliced callee body is safe:
    no side effects, no possible fault, and any value it reads that the
    callee *could* invalidate is recorded in ``deps`` (snapshot array
    fields, checked against the callee's field effects at selection)."""
    if isinstance(e, (ir.Const, ir.LocalRef)):
        return True
    if isinstance(e, ir.ArrayLen):
        # lengths are immutable; safe as long as producing the array is
        return _prefix_safe(e.arr, deps)
    if isinstance(e, ir.FieldLoad):
        if not _prefix_safe(e.obj, deps):
            return False
        shape = e.obj.shape
        if isinstance(e.shape, ArrayShape):
            # array-typed fields are the one mutable thing: record the
            # dependency so callees that store it are rejected
            if isinstance(shape, ObjShape) and shape.from_snapshot:
                deps.add((shape.root_path, e.fname))
                return True
            return True  # dynamic objects are immutable
        return True  # non-array fields are semi-immutable
    if isinstance(e, ir.UnaryOp):
        return e.op in ("-", "not") and _prefix_safe(e.operand, deps)
    if isinstance(e, ir.Compare):
        return _prefix_safe(e.left, deps) and _prefix_safe(e.right, deps)
    if isinstance(e, ir.BoolOp):
        return all(_prefix_safe(v, deps) for v in e.values)
    if isinstance(e, ir.BinOp):
        if not (_prefix_safe(e.left, deps) and _prefix_safe(e.right, deps)):
            return False
        if e.op in ("+", "-", "*"):
            return True
        if e.op in ("/", "//", "%"):
            d = e.right
            return (isinstance(d, ir.Const) and not isinstance(d.value, bool)
                    and d.value != 0)
        return False  # ** may raise OverflowError under CPython semantics
    return False  # loads, casts, calls, intrinsics: don't reorder around


# ---------------------------------------------------------------------------
# callee eligibility
# ---------------------------------------------------------------------------

def _eligible(call: ir.Call, caller: ir.FuncIR, deps: set, memo: dict) -> bool:
    fir = getattr(call.target, "func_ir", None)
    if fir is None or fir is caller:
        return False
    if fir.is_kernel or fir.is_device != caller.is_device:
        return False
    if not _returns_final_only(fir.body):
        return False
    if _stmt_count(fir.body) > _MAX_STMTS:
        return False
    if _launches_kernel(fir.body):
        return False
    if deps:
        effects = _callee_effects(call.target, memo)
        if effects is None or (effects & deps):
            return False
    return True


# ---------------------------------------------------------------------------
# site search
# ---------------------------------------------------------------------------

def _find_call(roots, caller, memo) -> ir.Call | None:
    """First inlinable call across ``roots`` (statement expressions in
    evaluation order), honoring the pure-prefix rule."""
    state = {"pure": True, "deps": set(), "found": None}

    def walk(e: ir.Expr, selectable: bool) -> None:
        if state["found"] is not None:
            return
        if (selectable and state["pure"] and isinstance(e, ir.Call)
                and _eligible(e, caller, state["deps"], memo)):
            state["found"] = e
            return
        children = ir.expr_children(e)
        for idx, child in enumerate(children):
            # short-circuit arms beyond the first evaluate conditionally:
            # a call there cannot be hoisted unconditionally
            conditional = isinstance(e, ir.BoolOp) and idx > 0
            walk(child, selectable and not conditional)
            if state["found"] is not None:
                return
        # e itself "executes" after its children; update prefix purity
        if isinstance(e, (ir.Const, ir.LocalRef, ir.ArrayLen, ir.FieldLoad,
                          ir.UnaryOp, ir.Compare, ir.BoolOp, ir.BinOp)):
            if not _prefix_safe(e, state["deps"]):
                state["pure"] = False
        else:
            state["pure"] = False

    for root in roots:
        walk(root, True)
        if state["found"] is not None:
            return state["found"]
    return None


# ---------------------------------------------------------------------------
# alpha-renaming clone
# ---------------------------------------------------------------------------

def _clone_expr(e: ir.Expr, rn: dict) -> ir.Expr:
    """Deep-copy ``e`` rebuilding every node (shapes/types/targets are
    shared, never copied) while renaming/substituting locals via ``rn``
    (name -> fresh name, or name -> actual-argument expression)."""
    if isinstance(e, ir.Const):
        return ir.Const(e.value, e.prim)
    if isinstance(e, ir.LocalRef):
        r = rn.get(e.name)
        if isinstance(r, ir.Expr):
            return _clone_expr(r, {})  # substituted actual (fresh copy)
        return ir.LocalRef(r if r is not None else e.name,
                           e.ref_ty, e.ref_shape)
    if isinstance(e, ir.FieldLoad):
        return ir.FieldLoad(_clone_expr(e.obj, rn), e.fname)
    if isinstance(e, ir.ArrayLoad):
        out = ir.ArrayLoad(_clone_expr(e.arr, rn), _clone_expr(e.index, rn))
        out.bounds_ok = e.bounds_ok  # callee proofs are context-free
        return out
    if isinstance(e, ir.ArrayLen):
        return ir.ArrayLen(_clone_expr(e.arr, rn))
    if isinstance(e, ir.BinOp):
        return ir.BinOp(e.op, _clone_expr(e.left, rn),
                        _clone_expr(e.right, rn), e.res)
    if isinstance(e, ir.UnaryOp):
        return ir.UnaryOp(e.op, _clone_expr(e.operand, rn), e.res)
    if isinstance(e, ir.Compare):
        return ir.Compare(e.op, _clone_expr(e.left, rn),
                          _clone_expr(e.right, rn))
    if isinstance(e, ir.BoolOp):
        return ir.BoolOp(e.op, [_clone_expr(v, rn) for v in e.values])
    if isinstance(e, ir.Cast):
        return ir.Cast(_clone_expr(e.value, rn), e.to)
    if isinstance(e, ir.Call):
        recv = _clone_expr(e.recv, rn) if e.recv is not None else None
        return ir.Call(e.target, recv, [_clone_expr(a, rn) for a in e.args],
                       e.site_id, e.static_cls, e.method_name)
    if isinstance(e, ir.IntrinsicCall):
        return ir.IntrinsicCall(e.key, [_clone_expr(a, rn) for a in e.args],
                                e.res_ty, e.const_args)
    if isinstance(e, ir.NewObj):
        inits = {k: _clone_expr(v, rn) for k, v in e.field_inits.items()}
        return ir.NewObj(e.cls, inits, e.obj_shape)
    raise AssertionError(f"uninlinable expression {type(e).__name__}")


def _clone_stmt(s: ir.Stmt, rn: dict) -> ir.Stmt:
    if isinstance(s, ir.LocalDecl):
        return ir.LocalDecl(rn.get(s.name, s.name), s.decl_ty,
                            _clone_expr(s.value, rn))
    if isinstance(s, ir.Assign):
        return ir.Assign(rn.get(s.name, s.name), s.decl_ty,
                         _clone_expr(s.value, rn))
    if isinstance(s, ir.FieldStore):
        return ir.FieldStore(_clone_expr(s.obj, rn), s.fname,
                             _clone_expr(s.value, rn))
    if isinstance(s, ir.ArrayStore):
        out = ir.ArrayStore(_clone_expr(s.arr, rn), _clone_expr(s.index, rn),
                            _clone_expr(s.value, rn))
        out.bounds_ok = s.bounds_ok
        return out
    if isinstance(s, ir.If):
        return ir.If(_clone_expr(s.cond, rn),
                     [_clone_stmt(x, rn) for x in s.then],
                     [_clone_stmt(x, rn) for x in s.orelse])
    if isinstance(s, ir.ForRange):
        step = _clone_expr(s.step, rn) if s.step is not None else None
        return ir.ForRange(rn.get(s.var, s.var), _clone_expr(s.start, rn),
                           _clone_expr(s.stop, rn), step,
                           [_clone_stmt(x, rn) for x in s.body])
    if isinstance(s, ir.While):
        return ir.While(_clone_expr(s.cond, rn),
                        [_clone_stmt(x, rn) for x in s.body])
    if isinstance(s, ir.ExprStmt):
        return ir.ExprStmt(_clone_expr(s.value, rn))
    if isinstance(s, ir.Break):
        return ir.Break()
    if isinstance(s, ir.Continue):
        return ir.Continue()
    raise AssertionError(f"uninlinable statement {type(s).__name__}")


class _Namer:
    """Fresh ``__inl`` temp names that never collide with caller locals."""

    def __init__(self, f: ir.FuncIR):
        self.taken = set(f.param_names) | ir.assigned_names(f.body) | {"self"}
        self.n = 0

    def fresh(self) -> str:
        while True:
            name = f"__inl{self.n}"
            self.n += 1
            if name not in self.taken:
                self.taken.add(name)
                return name


def _substitutable(e: ir.Expr) -> bool:
    """Actuals that may be substituted for the formal instead of bound to
    a temp: constants, and pure chains denoting snapshot objects (their
    identity is immutable, so duplication cannot change meaning)."""
    if isinstance(e, ir.Const):
        return True
    shape = getattr(e, "shape", None)
    if isinstance(shape, ObjShape) and shape.from_snapshot:
        return _prefix_safe(e, set())
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

def _stmt_roots(s: ir.Stmt):
    """Expression roots of ``s`` from which a call may be hoisted.

    ``While`` conditions re-evaluate every iteration, so nothing may be
    hoisted out of them; all other top-level expression slots evaluate
    exactly once before (or as) the statement executes."""
    if isinstance(s, ir.While):
        return []
    return ir.stmt_exprs(s)


def _inline_in_list(stmts: list, caller: ir.FuncIR, namer: _Namer,
                    memo: dict) -> bool:
    for i, s in enumerate(stmts):
        call = _find_call(_stmt_roots(s), caller, memo)
        if call is not None:
            pre, ret_ref = _expand(call, namer)
            if ret_ref is None:
                # void callee: legal only in statement position
                assert isinstance(s, ir.ExprStmt) and s.value is call, \
                    "void call selected outside statement position"
                stmts[i:i + 1] = pre
            else:
                ir.rewrite_stmt_exprs(
                    s, lambda e: ret_ref if e is call else e)
                stmts[i:i + 1] = pre + [s]
            return True
        for block in ir.stmt_blocks(s):
            if _inline_in_list(block, caller, namer, memo):
                return True
    return False


def inline_func(f: ir.FuncIR, ctx=None) -> int:
    """Inline devirtualized callees into ``f`` (see module doc).

    Returns the number of call sites spliced; feeds the
    ``inline.calls_inlined`` counter."""
    namer = _Namer(f)
    memo: dict = {}
    n = 0
    while n < _MAX_CALLS and _stmt_count(f.body) < _MAX_TOTAL:
        if not _inline_in_list(f.body, f, namer, memo):
            break
        n += 1
    if n:
        _M.counter("inline.calls_inlined").inc(n)
    return n
