"""The mid-end optimizer passes.

Each pass is a function ``(func_ir, ctx) -> int`` that rewrites one
:class:`~repro.frontend.ir.FuncIR` *in place* and returns how many
rewrites it performed (statements removed, expressions replaced, values
hoisted).  ``ctx`` is the :class:`~repro.opt.pipeline.Pipeline` driving
the run; passes use it only for fresh temp names.

All passes are **bit-exactness preserving**: the 56-program random
differential harness compares optimized output against the interpreter
down to the last IEEE-754 bit, so no transformation here may change a
float result even in the last ulp, reorder a fault past a side effect it
used to follow, or introduce a fault on a path that did not fault before.
The concrete consequences:

* no float algebraic identities that are not bit-exact (``x + 0.0`` is
  *not* an identity — it loses ``-0.0``; ``x * 1.0`` and ``x - 0.0``
  are exact and allowed);
* ``/``, ``//`` and ``%`` participate in CSE/LICM only with a non-zero
  constant divisor (they cannot fault then); ``**`` never does;
* math intrinsics are hoisted out of a loop only when the loop provably
  runs at least one iteration (``math.sqrt``/``math.log`` can raise on
  the py backend, and a zero-trip loop must not start raising);
* field loads are hoisted only for snapshot *array* fields that no
  statement in the loop — including transitively through calls — stores
  to (double-buffer ``swap`` methods do exactly such stores).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.backends.base import is_pure
from repro.frontend import ir
from repro.frontend.shapes import ArrayShape, ObjShape, PrimShape
from repro.lang import types as _t

__all__ = ["fold_func", "dce_func", "cse_func", "licm_func"]


# ---------------------------------------------------------------------------
# shared machinery
# ---------------------------------------------------------------------------

#: intrinsics that are deterministic, effect-free functions of their
#: arguments (what the loop-independence analysis asks, repro.opt.parallel)
_PURE_INTRINSIC_PREFIXES = ("math.",)
_PURE_INTRINSIC_KEYS = frozenset(
    {"builtin.abs", "builtin.min", "builtin.max", "wj.lcg64", "wj.u01"}
)


def _pure_intrinsic(key: str) -> bool:
    return key in _PURE_INTRINSIC_KEYS or key.startswith(
        _PURE_INTRINSIC_PREFIXES
    )


def _const_val(e: ir.Expr):
    """The value of a Const node (None for anything else)."""
    return e.value if isinstance(e, ir.Const) else None


def _nonzero_const(e: ir.Expr) -> bool:
    v = _const_val(e)
    return v is not None and v != 0


def _snapshot_array_load(e: ir.FieldLoad) -> bool:
    """A FieldLoad of an *array* field of a snapshot object with a known
    root path (the only FieldLoads the optimizer may move)."""
    return (
        isinstance(e.shape, ArrayShape)
        and isinstance(e.obj.shape, ObjShape)
        and e.obj.shape.from_snapshot
        and e.obj.shape.root_path is not None
        and is_pure(e.obj)
    )


_NONE: frozenset = frozenset()

#: the classes whose nodes are *worth* naming as a temp — a real
#: computation, not a bare leaf or cheap wrapper (a FieldLoad only when it
#: is a snapshot array load, which is exactly when it has a key)
_CANDIDATE_ROOTS = frozenset({ir.BinOp, ir.Compare, ir.BoolOp, ir.ArrayLen,
                              ir.IntrinsicCall, ir.FieldLoad})


class _Summary:
    """What one pass run asks about the expressions, statements and callees
    of one function, each gathered once.

    ``expr(e)`` is ``(e, key, used, loaded, intrinsic, calls)`` for the
    subtree at ``e``, combined bottom-up from its children's records in one
    walk: the value-numbering key (None outside the closed set CSE/LICM may
    duplicate or move), the locals it reads, the ``(root_path, fname)`` of
    every FieldLoad, whether it holds an IntrinsicCall, and its
    Call/KernelLaunch nodes.  ``stmt(s)`` is ``(s, assigned, stored)`` — the
    locals a statement assigns and the snapshot fields it stores to, nested
    blocks and callees included; ``stored`` None means "unknown" (a store
    target or callee could not be resolved, so assume everything).

    ``callee(target)`` is the :class:`Callee` record of a call target.

    Records are keyed by ``id`` and hold their node, so an id cannot be
    recycled while the summary lives; the summary dies with the pass.
    """

    def __init__(self):
        self._exprs: dict = {}
        self._stmts: dict = {}
        self._callees: dict = {}

    # -- expressions --------------------------------------------------------

    def expr(self, e: ir.Expr) -> tuple:
        rec = self._exprs.get(id(e))
        if rec is None:
            rec = self._exprs[id(e)] = self._gather(e)
        return rec

    def refresh(self, e: ir.Expr) -> None:
        """Recombine ``e``'s record after a child slot was replaced."""
        self._exprs[id(e)] = self._gather(e)

    def movable(self, e: ir.Expr):
        """Key of a CSE/LICM candidate root, or None."""
        if type(e) not in _CANDIDATE_ROOTS:
            return None
        s = e.shape
        if isinstance(s, PrimShape) and s.const is not None:
            return None  # backends fold this to a literal; naming it regresses
        _, key, *_ = self.expr(e)
        return key

    def _gather(self, e: ir.Expr) -> tuple:
        cls = type(e)
        if cls is ir.LocalRef:
            return (e, ("local", e.name), frozenset((e.name,)), _NONE, False, ())
        if cls is ir.Const:
            # ``repr`` so 0.0 and -0.0 (which compare equal) get distinct
            # keys — substituting one for the other would change result bits
            return (e, ("const", id(e.prim), repr(e.value)), _NONE, _NONE,
                    False, ())
        keys = []
        used = loaded = _NONE
        intrinsic = False
        calls = ()
        for child in ir.expr_children(e):
            _, k, u, f, i, c = self.expr(child)
            keys.append(k)
            if u:
                used = used | u if used else u
            if f:
                loaded = loaded | f if loaded else f
            intrinsic = intrinsic or i
            calls += c
        key = None
        if cls is ir.BinOp:
            # py-backend ** may raise OverflowError, so it never moves; a
            # moving divisor must be provably non-zero
            if e.op != "**" and None not in keys and (
                    e.op not in ("/", "//", "%") or _nonzero_const(e.right)):
                key = ("bin", e.op, id(e.res), keys[0], keys[1])
        elif cls is ir.FieldLoad:
            loaded = loaded | {(e.obj.shape.root_path, e.fname)}
            if _snapshot_array_load(e):
                k = keys[0]
                if k is None and type(e.obj) is ir.FieldLoad:
                    k = ("obj", e.obj.shape.root_path)
                if k is not None:
                    key = ("field", k, e.fname)
        elif cls is ir.IntrinsicCall:
            intrinsic = True
            # the RNG steps are pure, but value-numbering them would change
            # what is emitted today, so they stay outside the closed set
            if (_pure_intrinsic(e.key) and not e.key.startswith("wj.")
                    and None not in keys):
                key = ("intr", e.key, tuple(map(repr, e.const_args)),
                       tuple(keys))
        elif cls is ir.Call or cls is ir.KernelLaunch:
            calls += (e,)
        elif None in keys:
            pass
        elif cls is ir.UnaryOp:
            key = ("un", e.op, id(e.res), keys[0])
        elif cls is ir.Compare:
            key = ("cmp", e.op, keys[0], keys[1])
        elif cls is ir.BoolOp:
            key = ("bool", e.op, tuple(keys))
        elif cls is ir.Cast:
            key = ("cast", id(e.to), keys[0])
        elif cls is ir.ArrayLen:
            key = ("len", keys[0])
        return (e, key, used, loaded, intrinsic, calls)

    # -- statements and callees ---------------------------------------------

    def stmt(self, s: ir.Stmt) -> tuple:
        rec = self._stmts.get(id(s))
        if rec is None:
            rec = self._stmts[id(s)] = self._summarize(s)
        return rec

    def _summarize(self, s: ir.Stmt) -> tuple:
        assigned = {getattr(s, s.assigns)} if s.assigns else set()
        stored: set | None = set()
        if type(s) is ir.FieldStore:
            root = getattr(s.obj.shape, "root_path", None)
            stored = None if root is None else {(root, s.fname)}
        for e in ir.stmt_exprs(s):
            *_, calls = self.expr(e)
            for call in calls:
                stored = _join_stored(stored, self.callee(call.target).stored)
        for block in ir.stmt_blocks(s):
            inner_assigned, inner_stored = self.block(block)
            assigned |= inner_assigned
            stored = _join_stored(stored, inner_stored)
        return (s, assigned, stored)

    def block(self, stmts) -> tuple:
        """``(assigned, stored)`` over a statement list."""
        assigned: set = set()
        stored: set | None = set()
        for s in stmts:
            _, a, f = self.stmt(s)
            assigned |= a
            stored = _join_stored(stored, f)
        return assigned, stored

    def callee(self, target) -> "Callee":
        """What a call to ``target`` does, gathered once per callee."""
        func = getattr(target, "func_ir", None)
        if func is None:
            return _UNKNOWN_CALLEE
        rec = self._callees.get(id(func))
        if rec is None:
            # recursion is outlawed, but stay safe: a cycle sees "no effect"
            # on stores and "not analyzable" on accesses
            self._callees[id(func)] = Callee(set())
            rec = self._callees[id(func)] = self._callee(func)
        return rec

    def _callee(self, func: ir.FuncIR) -> "Callee":
        return Callee(self.block(func.body)[1])


@dataclass
class Callee:
    """What one call to a specialization does: ``stored`` is the snapshot
    fields it may store to (None: unknown).

    The loop-independence analysis (:mod:`repro.opt.parallel`) fills in the
    rest, over the callee's parameters: ``accesses`` — one ``(root, index,
    write)`` per array access, ``index`` a value of the integer domain
    (:mod:`repro.opt.cfg.ranges`) or None; the whole field None when the
    callee cannot be summarized — whether it reads an array it cannot name,
    the snapshot slot of each member root it names, and the value and array
    root it returns."""

    stored: set | None
    accesses: tuple | None = None
    unknown_read: bool = False
    slots: dict | None = None
    ret: tuple | None = None
    ret_root: tuple | None = None


_UNKNOWN_CALLEE = Callee(None)


def _join_stored(a, b):
    return None if a is None or b is None else a | b if b else a


def _make_ref(name: str, proto: ir.Expr) -> ir.LocalRef:
    """A reference to the temp holding ``proto``'s value (array shapes are
    shared so the backend keeps seeing the snapshot slot)."""
    if isinstance(proto.shape, ArrayShape):
        return ir.LocalRef(name, proto.ty, proto.shape)
    return ir.LocalRef(name, proto.ty, PrimShape(proto.ty))


def _child_slots(e: ir.Expr) -> list:
    """``(owner, slot, child)`` for every direct sub-expression of ``e``;
    ``_put(owner, slot, new)`` replaces it."""
    out = [(e, a, getattr(e, a)) for a in e.kids if getattr(e, a) is not None]
    if e.kid_seq is not None:
        seq = getattr(e, e.kid_seq)
        items = seq.items() if type(seq) is dict else enumerate(seq)
        out.extend((seq, k, child) for k, child in items)
    return out


def _put(owner, slot, new: ir.Expr) -> None:
    if type(owner) is list or type(owner) is dict:
        owner[slot] = new
    else:
        setattr(owner, slot, new)


class _Namer:
    """Deterministic fresh temp names (never colliding with guest locals)."""

    def __init__(self, f: ir.FuncIR, prefix: str):
        self.taken = set(f.param_names) | ir.assigned_names(f.body) | {"self"}
        self.prefix = prefix
        self.n = 0

    def fresh(self) -> str:
        while True:
            name = f"{self.prefix}{self.n}"
            self.n += 1
            if name not in self.taken:
                self.taken.add(name)
                return name


# ---------------------------------------------------------------------------
# pass: fold — algebraic simplification / constant materialization
# ---------------------------------------------------------------------------

def _neg_zero(v) -> bool:
    return isinstance(v, float) and v == 0.0 and math.copysign(1.0, v) < 0


def _fold_node(e: ir.Expr, count) -> ir.Expr:
    # materialize lowering's constant shapes as literal Const nodes so the
    # later passes (and DCE's dead-store scan) see through them
    s = e.shape
    if (
        not isinstance(e, ir.Const)
        and isinstance(s, PrimShape)
        and s.const is not None
        and is_pure(e)
    ):
        count()
        return ir.Const(s.const, s.ty)

    if isinstance(e, ir.BinOp):
        lv, rv = _const_val(e.left), _const_val(e.right)
        res = e.res
        if e.op == "+" and not res.is_float:
            if rv == 0 and e.left.ty is res:
                count()
                return e.left
            if lv == 0 and e.right.ty is res:
                count()
                return e.right
        elif e.op == "-" and rv == 0 and e.left.ty is res:
            # float x - 0.0 is exact for every x (including -0.0); x - (-0.0)
            # is x + 0.0, which is *not* (it maps -0.0 to +0.0)
            if not (res.is_float and _neg_zero(rv)):
                count()
                return e.left
        elif e.op == "*":
            if rv == 1 and e.left.ty is res:
                count()
                return e.left
            if lv == 1 and e.right.ty is res:
                count()
                return e.right
            if not res.is_float:
                if rv == 0 and is_pure(e.left):
                    count()
                    return ir.Const(res(0), res)
                if lv == 0 and is_pure(e.right):
                    count()
                    return ir.Const(res(0), res)
        elif e.op == "/" and rv == 1 and e.left.ty is res:
            count()
            return e.left
        elif e.op == "//" and rv == 1 and not res.is_float and e.left.ty is res:
            count()
            return e.left
        elif e.op == "%" and rv == 1 and not res.is_float and is_pure(e.left):
            count()
            return ir.Const(res(0), res)
        return e

    if isinstance(e, ir.UnaryOp) and e.op == "not":
        v = _const_val(e.operand)
        if v is not None:
            count()
            return ir.Const(not v, _t.BOOL)
        return e

    if isinstance(e, ir.Compare):
        lv, rv = _const_val(e.left), _const_val(e.right)
        if (
            lv is not None
            and rv is not None
            and e.left.ty.is_float == e.right.ty.is_float
        ):
            count()
            op = e.op
            v = (lv < rv if op == "<" else lv <= rv if op == "<="
                 else lv > rv if op == ">" else lv >= rv if op == ">="
                 else lv == rv if op == "==" else lv != rv)
            return ir.Const(bool(v), _t.BOOL)
        return e

    if isinstance(e, ir.BoolOp):
        vals = [_const_val(v) for v in e.values]
        if all(v is not None for v in vals):
            count()
            out = all(vals) if e.op == "and" else any(vals)
            return ir.Const(bool(out), _t.BOOL)
        return e

    return e


def fold_func(f: ir.FuncIR, ctx) -> int:
    """Constant materialization + bit-exact algebraic simplification."""
    n = 0

    def count():
        nonlocal n
        n += 1

    def fn(e):
        return _fold_node(e, count)

    def block(stmts):
        for s in stmts:
            ir.rewrite_stmt_exprs(s, fn)
            for b in ir.stmt_blocks(s):
                block(b)

    block(f.body)
    return n


# ---------------------------------------------------------------------------
# pass: dce — dead code elimination
# ---------------------------------------------------------------------------

def _read_names(stmts) -> set:
    return {e.name for e in ir.walk_exprs(stmts) if isinstance(e, ir.LocalRef)}


def _const_trips(s: ir.ForRange):
    """Whether a counted loop with literal bounds runs its body at least
    once; None unless start, stop and a non-zero step are literals (a zero
    step raises at run time)."""
    start, stop = _const_val(s.start), _const_val(s.stop)
    step = 1 if s.step is None else _const_val(s.step)
    if start is None or stop is None or not step:
        return None
    return start < stop if step > 0 else start > stop


def _removable_loop(s: ir.ForRange, reads: set) -> bool:
    """An empty-bodied counted loop with no observable effects."""
    if s.body or s.var in reads:
        return False
    for e in (s.start, s.stop, *( [s.step] if s.step is not None else [] )):
        if not is_pure(e):
            return False
    # a constant 0 step raises ValueError on the py backend — keep it
    if s.step is not None and not _nonzero_const(s.step):
        return False
    return True


def _dce_block(stmts: list, reads: set) -> int:
    removed = 0
    out = []
    pending = list(stmts)
    for pos, s in enumerate(pending):
        for b in ir.stmt_blocks(s):
            removed += _dce_block(b, reads)

        if isinstance(s, ir.If):
            cv = _const_val(s.cond)
            if cv is not None:
                taken = s.then if cv else s.orelse
                out.extend(taken)
                removed += 1
                continue
            if not s.then and not s.orelse and is_pure(s.cond):
                removed += 1
                continue
        elif isinstance(s, ir.While):
            cv = _const_val(s.cond)
            if cv is not None and not cv:
                removed += 1
                continue
        elif isinstance(s, ir.ForRange):
            if _const_trips(s) is False or _removable_loop(s, reads):
                removed += 1
                continue
        elif isinstance(s, (ir.LocalDecl, ir.Assign)):
            if s.name not in reads:
                removed += 1
                if not is_pure(s.value):
                    out.append(ir.ExprStmt(s.value))
                continue
        elif isinstance(s, ir.ExprStmt):
            if is_pure(s.value):
                removed += 1
                continue

        out.append(s)
        if isinstance(s, (ir.Return, ir.Break, ir.Continue)):
            removed += len(pending) - pos - 1  # unreachable tail
            break
    stmts[:] = out
    return removed


def dce_func(f: ir.FuncIR, ctx) -> int:
    """Remove dead stores, unreachable statements, constant branches, and
    effect-free loops/statements (to a fixpoint)."""
    removed = 0
    for _ in range(10):
        reads = _read_names(f.body)
        n = _dce_block(f.body, reads)
        removed += n
        if n == 0:
            break
    return removed


# ---------------------------------------------------------------------------
# pass: cse — block-local common subexpression elimination
# ---------------------------------------------------------------------------

class _CseBlock:
    """Forward value-numbering over one straight-line statement list.

    The first sighting of a candidate registers a *pending* entry holding
    the expression and its site; the second sighting materializes
    ``__cseN = <expr>`` immediately before the first site's statement and
    rewrites both sites to the temp.  Only *maximal* candidate subtrees
    are registered, so no two live entries ever share tree nodes (which
    keeps def-before-use trivially correct).
    """

    def __init__(self, namer: _Namer):
        self.namer = namer
        self.rewrites = 0
        self.summary = _Summary()

    def run(self, stmts: list) -> None:
        avail: dict = {}
        out: list = []
        for s in stmts:
            # the slots evaluated exactly once per execution of the
            # statement: a While condition re-evaluates, so it is excluded
            # (LICM handles its subexpressions when it proves invariance)
            if type(s) is not ir.While:
                for attr in ir.stmt_slots(s):
                    self._rw(getattr(s, attr), s, attr, avail, out)
            for b in ir.stmt_blocks(s):
                self.run(b)
            out.append(s)
            self._invalidate(s, avail)
        stmts[:] = out

    def _invalidate(self, s: ir.Stmt, avail: dict) -> None:
        # a statement that stores fields — directly or through any call it
        # makes (double-buffer swaps!) — kills entries caching a FieldLoad
        _, assigned, stored = self.summary.stmt(s)
        for k in list(avail):
            ent = avail[k]
            if assigned and (ent["uses"] & assigned):
                del avail[k]
            elif ent["fields"] and (stored is None or (ent["fields"] & stored)):
                del avail[k]

    def _rw(self, e: ir.Expr, owner, slot, avail: dict, out: list) -> None:
        k = self.summary.movable(e)
        if k is not None:
            ent = avail.get(k)
            if ent is None:
                _, _, used, loaded, _, _ = self.summary.expr(e)
                avail[k] = {
                    "state": "pending", "idx": len(out), "expr": e,
                    "site": (owner, slot), "uses": used, "fields": loaded,
                }
                return
            _put(owner, slot, self._use(ent, avail, out))
            self.rewrites += 1
            return
        for child_owner, child_slot, child in _child_slots(e):
            self._rw(child, child_owner, child_slot, avail, out)

    def _use(self, ent: dict, avail: dict, out: list) -> ir.LocalRef:
        if ent["state"] == "pending":
            name = self.namer.fresh()
            first = ent["expr"]
            idx = ent["idx"]
            out.insert(idx, ir.LocalDecl(name, first.ty, first))
            for other in avail.values():
                if other["state"] == "pending" and other["idx"] >= idx:
                    other["idx"] += 1
            _put(*ent["site"], _make_ref(name, first))
            ent.update(state="temp", name=name)
        return _make_ref(ent["name"], ent["expr"])


def cse_func(f: ir.FuncIR, ctx) -> int:
    """Deduplicate repeated pure subexpressions within each basic block
    (array index/address arithmetic is the target)."""
    cse = _CseBlock(_Namer(f, "__cse"))
    cse.run(f.body)
    return cse.rewrites


# ---------------------------------------------------------------------------
# pass: licm — loop-invariant code motion
# ---------------------------------------------------------------------------

class _Licm:
    def __init__(self, f: ir.FuncIR):
        self.namer = _Namer(f, "__licm")
        self.summary = _Summary()
        self.hoisted = 0

    def run(self, stmts: list) -> None:
        for s in stmts:
            for b in ir.stmt_blocks(s):
                self.run(b)  # inner loops first: their temps hoist further
        i = 0
        while i < len(stmts):
            s = stmts[i]
            if isinstance(s, (ir.ForRange, ir.While)):
                decls = self._hoist(s)
                if decls:
                    stmts[i:i] = decls
                    i += len(decls)
            i += 1

    def _hoist(self, loop) -> list:
        summary = self.summary
        assigned, stored = summary.block(loop.body)
        if isinstance(loop, ir.ForRange):
            assigned.add(loop.var)
        trip = isinstance(loop, ir.ForRange) and _const_trips(loop) is True

        cands: dict = {}  # key -> first expr (insertion-ordered)

        def collect(e: ir.Expr) -> None:
            k = summary.movable(e)
            if k is not None:
                _, _, used, loaded, intrinsic, _ = summary.expr(e)
                if used & assigned:
                    k = None
                elif intrinsic and not trip:
                    k = None  # may raise; loop may run zero times
                elif loaded and (stored is None or (loaded & stored)):
                    k = None  # the field is (or may be) stored in-loop
                if k is not None:
                    cands.setdefault(k, e)
                    return
            for child in ir.expr_children(e):
                collect(child)

        if isinstance(loop, ir.While):
            collect(loop.cond)
        for s in loop.body:
            for e in ir.stmt_exprs(s):
                collect(e)
            if self._may_exit(s):
                break  # later statements are conditional on iteration 1

        if not cands:
            return []

        mapping = {}
        decls = []
        for k, e in cands.items():
            name = self.namer.fresh()
            decls.append(ir.LocalDecl(name, e.ty, e))
            mapping[k] = (name, e)
        self.hoisted += len(cands)

        def subst(s):
            for attr in ir.stmt_slots(s):
                setattr(s, attr, self._replace(getattr(s, attr), mapping))
            for b in ir.stmt_blocks(s):
                for inner in b:
                    subst(inner)

        for s in loop.body:
            subst(s)
        if isinstance(loop, ir.While):
            loop.cond = self._replace(loop.cond, mapping)
        return decls

    def _replace(self, e: ir.Expr, mapping: dict) -> ir.Expr:
        """Top-down maximal-munch substitution: any subtree whose key is in
        ``mapping`` becomes a reference to its temp.  (A bottom-up map would
        replace a candidate's children first and the rebuilt parent would no
        longer match its recorded key.)  Records above a replaced slot are
        recombined on the way back up, so the enclosing loop's hoist reads
        them without walking the tree again."""
        hit = mapping.get(self.summary.movable(e))
        if hit is not None:
            return _make_ref(hit[0], hit[1])
        changed = False
        for owner, slot, child in _child_slots(e):
            new = self._replace(child, mapping)
            if new is not child:
                _put(owner, slot, new)
                changed = True
        if changed:
            self.summary.refresh(e)
        return e

    @staticmethod
    def _may_exit(s: ir.Stmt) -> bool:
        """Whether ``s`` can transfer control out of the current iteration
        (anything after it is then *not* unconditionally executed)."""
        stack = [s]
        while stack:
            x = stack.pop()
            if isinstance(x, (ir.Break, ir.Continue, ir.Return)):
                return True
            if isinstance(x, ir.If):
                stack.extend(x.then)
                stack.extend(x.orelse)
            # a nested loop contains its own breaks; they do not exit *this*
            # iteration, so do not descend into ForRange/While bodies
        return False


def licm_func(f: ir.FuncIR, ctx) -> int:
    """Hoist loop-invariant pure computations (and un-stored snapshot array
    field loads) out of ``ForRange``/``While`` bodies."""
    licm = _Licm(f)
    licm.run(f.body)
    return licm.hoisted
