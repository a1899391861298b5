"""Loop-independence analysis for the multi-core C backend.

Decides, per host-side ``ForRange`` in a translated program, whether the
loop's iterations are provably independent so the C emitter can wrap it
in ``#pragma omp parallel for``.  A loop qualifies when:

* every iteration's array writes are provably disjoint — each store to a
  written array decomposes as ``c * loopvar + rem`` with the same
  non-zero literal coefficient ``c`` across all accesses to that array,
  where ``rem`` ranges (over inner loops with literal bounds plus
  loop-invariant terms that cancel pairwise) span strictly less than
  ``|c|``;
* distinct written/read arrays are either statically non-aliasing
  (different snapshot slots, neither ever re-rooted by a ``FieldStore``
  anywhere in the program — think double-buffer swaps) or separable at
  runtime by a base-pointer guard, in which case the emitter produces a
  *versioned* loop: parallel when the pointers differ, sequential
  otherwise;
* the only cross-iteration scalar carries are reductions over ``+``,
  ``*``, ``min`` or ``max`` (mapped to OpenMP ``reduction`` clauses —
  bit-exact for integers, reassociation-tolerant for floats);
* every other body-assigned scalar is written before it is read in each
  iteration (it becomes ``private``) and is not read after the loop;
* all calls in the body have analyzable summaries (straight-line or
  read-only callees, memoized per specialization) and all intrinsics are
  pure.

The analysis runs only when ``REPRO_OMP`` is enabled and the level is
``OptLevel.FULL``; with ``REPRO_OMP`` off the emitter's output is
byte-identical to the sequential backend.  The effective configuration
(:func:`omp_token`) is part of the JIT cache key, mirroring
``pipeline_token``, so toggling it can never reuse a stale artifact.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.backends.base import is_pure
# the REPRO_OMP* / REPRO_BLAS readers key the cache, so they live where a
# cache hit can reach them without importing this analysis (repro.env)
from repro.env import (
    ANALYSIS_VERSION,
    blas_enabled,
    blas_token,
    omp_enabled,
    omp_reductions_enabled,
    omp_threads,
    omp_token,
)
from repro.frontend import ir
from repro.frontend.shapes import ArrayShape, ObjShape, PrimShape
from repro.opt.passes import _pure_intrinsic

__all__ = [
    "ANALYSIS_VERSION",
    "LoopDecision",
    "ParallelPlan",
    "analyze_program",
    "blas_enabled",
    "blas_token",
    "omp_enabled",
    "omp_reductions_enabled",
    "omp_threads",
    "omp_token",
]

_REDUCTION_BINOPS = frozenset({"+", "*"})
_REDUCTION_INTRINSICS = {"builtin.min": "min", "builtin.max": "max"}


# --------------------------------------------------------------------------
# plan data model


@dataclass
class LoopDecision:
    """The analysis verdict for one ``ForRange`` node."""

    parallel: bool
    reason: str  # "" when parallel, else why not
    var: str = ""
    private: tuple = ()  # IR local names (no ``v_`` prefix)
    reductions: tuple = ()  # ((c_op, name, is_float), ...)
    guards: tuple = ()  # ((handle_a, handle_b), ...) runtime alias guards
    depth: int = 0


@dataclass
class ParallelPlan:
    """Per-loop decisions for a whole program, keyed by ``id(node)``.

    Holds a reference to the program so the ForRange nodes (and hence
    their ids) stay alive as long as the plan does."""

    program: object
    decisions: dict = field(default_factory=dict)
    by_symbol: dict = field(default_factory=dict)  # symbol -> [row dicts]
    threads: object = None
    stats: dict = field(default_factory=dict)

    def decision_for(self, node) -> LoopDecision:
        return self.decisions.get(id(node))

    @property
    def n_parallel(self) -> int:
        return sum(1 for d in self.decisions.values() if d.parallel)


# --------------------------------------------------------------------------
# affine forms: (const, {symbol: coeff}) over integer-valued names


def _aff_add(a, b, sign=1):
    c = a[0] + sign * b[0]
    terms = dict(a[1])
    for n, k in b[1].items():
        terms[n] = terms.get(n, 0) + sign * k
        if terms[n] == 0:
            del terms[n]
    return (c, terms)


def _aff_scale(a, k):
    if k == 0:
        return (0, {})
    return (a[0] * k, {n: c * k for n, c in a[1].items()})


def _is_int_prim(ty) -> bool:
    return getattr(ty, "is_float", None) is False and getattr(ty, "cname", "") in (
        "int32_t",
        "int64_t",
    )


def _const_int(e):
    """The known integer value of ``e``, via the literal or a constant
    shape on a side-effect-free expression (matches what fold/the emitter
    treat as literal), else None."""
    if isinstance(e, ir.Const):
        v = e.value
        return v if isinstance(v, int) and not isinstance(v, bool) else None
    sh = getattr(e, "shape", None)
    if (
        isinstance(sh, PrimShape)
        and isinstance(sh.const, int)
        and not isinstance(sh.const, bool)
        and _is_int_prim(e.ty)
        and is_pure(e)
    ):
        return sh.const
    return None


# --------------------------------------------------------------------------
# array root identity + callee summaries


@dataclass
class _Access:
    root: tuple  # ("var", name) | ("member", path, fname) | ("param", pname)
    index: object  # affine or None (unknown index)
    write: bool
    ranges: tuple = ()  # ((var, lo, hi_exclusive_or_None), ...) active inner loops


@dataclass
class _Summary:
    """What one straight-line / read-only callee does, over its params."""

    accesses: list = field(default_factory=list)
    unknown_read: bool = False
    ret_affine: object = None  # affine over param names, or None
    ret_root: object = None  # root tuple for array-returning callees
    handles: dict = field(default_factory=dict)  # member root -> emit handle


_IN_PROGRESS = object()


def _member_root(e):
    """("member", path, fname) root + emit handle for a snapshot-array
    FieldLoad, else (None, None)."""
    if not isinstance(e, ir.FieldLoad):
        return None, None
    rp = getattr(e.obj.shape, "root_path", None)
    if rp is None or not isinstance(e.shape, ArrayShape):
        return None, None
    key = ("member", rp, e.fname)
    return key, ("member", rp, e.fname, e.shape)


class _Scope:
    """Shared walker state for expression-level access collection.  Two
    modes: ``callee`` builds a parameter-relative summary; ``caller``
    analyzes one candidate loop body with loop-relative symbols."""

    def __init__(self, analyzer, mode, params=()):
        self.an = analyzer
        self.mode = mode
        self.params = frozenset(params)
        self.env = {}  # name -> affine | None (opaque)
        self.arrenv = {}  # name -> root tuple | None
        self.accesses = []
        self.handles = {}  # member/var root -> emit handle
        self.slots = {}  # root -> snapshot slot | None
        self.unknown_read = False
        self.fail = None  # str reason once unanalyzable
        # caller-mode extras
        self.body_assigned = frozenset()
        self.defined = set()
        self.range_stack = []  # [(var, lo, hi_exclusive|None)]
        self.red_excused = frozenset()  # names temporarily def'd (reductions)

    # -- symbols ----------------------------------------------------------

    def sym_affine(self, name):
        if self.mode == "callee":
            if name in self.env:
                return self.env[name]
            if name in self.params:
                return (0, {name: 1})
            return None
        # caller mode: body-assigned names must be defined (or excused)
        # at this point of the iteration; everything else is a
        # loop-invariant symbol
        if name in self.body_assigned:
            if name in self.defined or name in self.red_excused:
                return self.env.get(name)
            self.note_fail(f"use of '{name}' before assignment in iteration")
            return None
        if name in self.env:
            return self.env[name]
        return (0, {name: 1})

    def note_fail(self, reason):
        if self.fail is None:
            self.fail = reason

    def ranges_snapshot(self):
        return tuple(self.range_stack)

    # -- array roots ------------------------------------------------------

    def arr_root(self, e):
        """Root key for an array-valued expr (None when unresolvable)."""
        key, handle = _member_root(e)
        if key is not None:
            self.handles[key] = handle
            self.slots.setdefault(key, e.shape.slot)
            return key
        if isinstance(e, ir.LocalRef):
            if self.mode == "callee":
                if e.name in self.arrenv:
                    return self.arrenv[e.name]
                if e.name in self.params:
                    return ("param", e.name)
                return None
            if e.name in self.body_assigned:
                # rebound inside the loop: identity is unstable UNLESS the
                # binding already executed this iteration and resolved to a
                # stable root (LICM/inliner temps aliasing an outer array;
                # field stores are disqualifiers in this walk, so member
                # and outer-var roots cannot change mid-loop)
                if e.name in self.defined:
                    root = self.arrenv.get(e.name)
                    if root is not None:
                        return root
                return None
            key = ("var", e.name)
            self.handles[key] = ("var", e.name)
            slot = e.shape.slot if isinstance(e.shape, ArrayShape) else None
            self.slots.setdefault(key, slot)
            return key
        if isinstance(e, ir.Call):
            summ = self.an.summary_for(e.target)
            if summ is None or summ.ret_root is None:
                return None
            return self.map_callee_root(summ.ret_root, e, summ)
        return None

    def map_callee_root(self, root, call, summ):
        """Translate a callee-relative root to this scope at a call site."""
        if root[0] != "param":
            self.handles.setdefault(root, summ.handles.get(root))
            return root
        argmap = self.an.call_argmap(call)
        arg = argmap.get(root[1])
        if arg is None:
            return None
        return self.arr_root(arg)

    # -- call handling ----------------------------------------------------

    def call_affine(self, call):
        summ = self.an.summary_for(call.target)
        if summ is None or summ.ret_affine is None:
            return None
        argmap = self.an.call_argmap(call)
        out = (summ.ret_affine[0], {})
        for pname, coeff in summ.ret_affine[1].items():
            arg = argmap.get(pname)
            if arg is None:
                return None
            pa = _affine(arg, self)
            if pa is None:
                return None
            out = _aff_add(out, _aff_scale(pa, coeff))
        return out

    def splice_call(self, call):
        """Fold a callee's accesses into this scope at a call site."""
        summ = self.an.summary_for(call.target)
        if summ is None:
            self.note_fail(
                f"call to {getattr(call.target, 'symbol', '?')} has no summary"
            )
            return
        if summ.unknown_read:
            self.unknown_read = True
        if not summ.accesses:
            return
        argmap = self.an.call_argmap(call)
        for a in summ.accesses:
            root = self.map_callee_root(a.root, call, summ)
            if root is None:
                if a.write:
                    self.note_fail("write through unresolvable array in callee")
                else:
                    self.unknown_read = True
                continue
            if a.root[0] != "param" and a.root in summ.slots_view():
                self.slots.setdefault(a.root, summ.slots_view()[a.root])
            idx = None
            if a.index is not None:
                idx = (a.index[0], {})
                for pname, coeff in a.index[1].items():
                    arg = argmap.get(pname)
                    pa = _affine(arg, self) if arg is not None else None
                    if pa is None:
                        idx = None
                        break
                    idx = _aff_add(idx, _aff_scale(pa, coeff))
            if a.write and idx is None:
                self.note_fail("unresolvable store index in callee")
                continue
            self.accesses.append(
                _Access(root, idx, a.write, self.ranges_snapshot())
            )


def _affine(e, scope):
    """Affine form of an integer expr over the scope's symbols, or None."""
    c = _const_int(e)
    if c is not None:
        return (c, {})
    if not _is_int_prim(getattr(e, "ty", None)):
        return None
    if isinstance(e, ir.LocalRef):
        return scope.sym_affine(e.name)
    if isinstance(e, ir.Cast):
        if _is_int_prim(getattr(e.value, "ty", None)):
            return _affine(e.value, scope)
        return None
    if isinstance(e, ir.UnaryOp) and e.op != "not":
        inner = _affine(e.operand, scope)
        return None if inner is None else _aff_scale(inner, -1)
    if isinstance(e, ir.BinOp):
        if e.op in ("+", "-"):
            left = _affine(e.left, scope)
            right = _affine(e.right, scope)
            if left is None or right is None:
                return None
            return _aff_add(left, right, 1 if e.op == "+" else -1)
        if e.op == "*":
            left = _affine(e.left, scope)
            right = _affine(e.right, scope)
            if left is None or right is None:
                return None
            if not left[1]:
                return _aff_scale(right, left[0])
            if not right[1]:
                return _aff_scale(left, right[0])
            return None
        return None
    if isinstance(e, ir.Call):
        return scope.call_affine(e)
    return None


# --------------------------------------------------------------------------
# the analyzer


class _Analyzer:
    def __init__(self, program):
        self.program = program
        self.summaries = {}  # symbol -> _Summary | None | _IN_PROGRESS
        self.tainted = self._tainted_slots()  # set of slots, or None=all

    # -- program-wide FieldStore taint ------------------------------------

    def _tainted_slots(self):
        """Snapshot array slots whose member binding is ever rewritten by a
        FieldStore (double-buffer swaps): such members may alias each other
        at runtime even though their static slots differ.  None means an
        unanalyzable store was seen — treat every slot as tainted."""
        tainted = set()
        for spec in self.program.specializations:
            func = getattr(spec, "func_ir", None)
            if func is None:
                continue
            stack = list(func.body)
            while stack:
                s = stack.pop()
                if isinstance(s, ir.FieldStore):
                    osh = s.obj.shape
                    fields = getattr(osh, "fields", None) or {}
                    fsh = fields.get(s.fname)
                    vsh = s.value.shape
                    if isinstance(fsh, ArrayShape) or isinstance(vsh, ArrayShape):
                        for sh in (fsh, vsh):
                            if not isinstance(sh, ArrayShape) or sh.slot is None:
                                return None
                            tainted.add(sh.slot)
                    elif isinstance(fsh, ObjShape) or isinstance(vsh, ObjShape):
                        return None  # whole-object re-rooting: give up
                for b in ir.stmt_blocks(s):
                    stack.extend(b)
        return tainted

    def roots_distinct(self, ra, rb, slots):
        """True when two root keys provably never alias."""
        if ra == rb:
            return False  # same root — handled by the affine test instead
        sa, sb = slots.get(ra), slots.get(rb)
        if sa is None or sb is None or sa == sb:
            return False
        if self.tainted is None:
            return False
        return sa not in self.tainted and sb not in self.tainted

    # -- callee summaries --------------------------------------------------

    def call_argmap(self, call):
        func = getattr(call.target, "func_ir", None)
        if func is None:
            return {}
        argmap = dict(zip(func.param_names, call.args))
        if call.recv is not None:
            argmap["self"] = call.recv
        return argmap

    def summary_for(self, target):
        func = getattr(target, "func_ir", None)
        symbol = getattr(target, "symbol", None)
        if func is None or symbol is None:
            return None
        if symbol in self.summaries:
            cached = self.summaries[symbol]
            # recursion is outlawed upstream, but stay safe
            return None if cached is _IN_PROGRESS else cached
        self.summaries[symbol] = _IN_PROGRESS
        summ = self._summarize(func)
        self.summaries[symbol] = summ
        return summ

    def _summarize(self, func):
        scope = _Scope(self, "callee", params=list(func.param_names) + ["self"])
        returns = []

        def pure_reads_only(stmts):
            """Collect reads (unknown index) from a loop subtree; False if
            the subtree writes or has effects."""
            stack = list(stmts)
            while stack:
                s = stack.pop()
                if isinstance(s, (ir.ArrayStore, ir.FieldStore)):
                    return False
                for b in ir.stmt_blocks(s):
                    stack.extend(b)
                for e0 in ir.stmt_exprs(s):
                    for x in ir.walk_exprs(e0):
                        if isinstance(x, ir.KernelLaunch):
                            return False
                        if isinstance(x, ir.IntrinsicCall) and not _pure_intrinsic(
                            x.key
                        ):
                            return False
                        if isinstance(x, ir.Call):
                            sub = self.summary_for(x.target)
                            if sub is None or any(a.write for a in sub.accesses):
                                return False
                            if sub.unknown_read:
                                scope.unknown_read = True
                            for a in sub.accesses:
                                root = scope.map_callee_root(a.root, x, sub)
                                if root is None:
                                    scope.unknown_read = True
                                else:
                                    scope.accesses.append(
                                        _Access(root, None, False)
                                    )
                        if isinstance(x, ir.ArrayLoad):
                            root = scope.arr_root(x.arr)
                            if root is None:
                                scope.unknown_read = True
                            else:
                                scope.accesses.append(_Access(root, None, False))
            return True

        def collect_expr(e):
            for x in ir.walk_exprs(e):
                if isinstance(x, ir.KernelLaunch):
                    scope.note_fail("kernel launch")
                elif isinstance(x, ir.IntrinsicCall) and not _pure_intrinsic(x.key):
                    scope.note_fail(f"impure intrinsic {x.key}")
                elif isinstance(x, ir.Call):
                    scope.splice_call(x)
                elif isinstance(x, ir.ArrayLoad):
                    root = scope.arr_root(x.arr)
                    idx = _affine(x.index, scope)
                    if root is None:
                        scope.unknown_read = True
                    else:
                        scope.accesses.append(_Access(root, idx, False))

        def walk(stmts, in_branch):
            for s in stmts:
                if scope.fail:
                    return
                if isinstance(s, (ir.LocalDecl, ir.Assign)):
                    collect_expr(s.value)
                    if in_branch:
                        scope.env[s.name] = None
                        scope.arrenv[s.name] = None
                    else:
                        scope.env[s.name] = _affine(s.value, scope)
                        if isinstance(s.value.shape, ArrayShape):
                            scope.arrenv[s.name] = scope.arr_root(s.value)
                elif isinstance(s, ir.ArrayStore):
                    collect_expr(s.index)
                    collect_expr(s.value)
                    root = scope.arr_root(s.arr)
                    if root is None:
                        scope.note_fail("store through unresolvable array")
                        return
                    idx = _affine(s.index, scope)
                    if idx is None:
                        scope.note_fail("non-affine store index")
                        return
                    scope.accesses.append(_Access(root, idx, True))
                elif isinstance(s, ir.FieldStore):
                    scope.note_fail("field store in callee")
                    return
                elif isinstance(s, ir.ExprStmt):
                    collect_expr(s.value)
                elif isinstance(s, ir.Return):
                    if s.value is not None:
                        collect_expr(s.value)
                    returns.append((s.value, in_branch))
                elif isinstance(s, ir.If):
                    collect_expr(s.cond)
                    walk(s.then, True)
                    walk(s.orelse, True)
                elif isinstance(s, (ir.ForRange, ir.While)):
                    for e0 in ir.stmt_exprs(s):
                        collect_expr(e0)
                    if not pure_reads_only(s.body):
                        scope.note_fail("loop with effects in callee")
                        return
                    for name in ir.assigned_names(s.body):
                        scope.env[name] = None
                        scope.arrenv[name] = None
                    if isinstance(s, ir.ForRange):
                        scope.env[s.var] = None
                elif isinstance(s, (ir.Break, ir.Continue)):
                    pass
                else:
                    scope.note_fail(f"unhandled stmt {type(s).__name__}")
                    return

        walk(func.body, False)
        if scope.fail:
            return None
        summ = _Summary(
            accesses=scope.accesses,
            unknown_read=scope.unknown_read,
            handles=dict(scope.handles),
        )
        summ._slots = dict(scope.slots)
        if len(returns) == 1 and not returns[0][1] and returns[0][0] is not None:
            rv = returns[0][0]
            summ.ret_affine = _affine(rv, scope)
            if isinstance(rv.shape, ArrayShape):
                summ.ret_root = scope.arr_root(rv)
        return summ


# expose slot info captured during summary construction
def _summary_slots(self):
    return getattr(self, "_slots", {})


_Summary.slots_view = _summary_slots


# --------------------------------------------------------------------------
# per-loop analysis


def _shadow_reads(stmts, target, counts):
    """Count LocalRef reads outside ``target``'s subtree; reads of a name
    inside a later ForRange that redefines that same name as its own loop
    var are excused (they observe that loop's fresh values)."""

    def scan(block, shadow):
        for s in block:
            if s is target:
                continue
            if isinstance(s, ir.ForRange):
                for e0 in (s.start, s.stop, s.step):
                    if e0 is not None:
                        note_expr(e0, shadow)
                scan(s.body, shadow | {s.var})
                continue
            for e0 in ir.stmt_exprs(s):
                note_expr(e0, shadow)
            for b in ir.stmt_blocks(s):
                scan(b, shadow)

    def note_expr(e, shadow):
        for x in ir.walk_exprs(e):
            if isinstance(x, ir.LocalRef) and x.name not in shadow:
                counts[x.name] = counts.get(x.name, 0) + 1

    scan(stmts, frozenset())


def _count_reads(stmts):
    counts = {}
    stack = list(stmts)
    while stack:
        s = stack.pop()
        for b in ir.stmt_blocks(s):
            stack.extend(b)
        for e0 in ir.stmt_exprs(s):
            for x in ir.walk_exprs(e0):
                if isinstance(x, ir.LocalRef):
                    counts[x.name] = counts.get(x.name, 0) + 1
    return counts


def _expr_uses(e, name) -> bool:
    return any(
        isinstance(x, ir.LocalRef) and x.name == name for x in ir.walk_exprs(e)
    )


def _match_reduction(s, body_assigned):
    """``(op, name)`` when ``s`` is a reduction-shaped Assign, else None."""
    if not isinstance(s, ir.Assign):
        return None
    name = s.name
    if name not in body_assigned:
        return None
    v = s.value
    if isinstance(v, ir.BinOp) and v.op in _REDUCTION_BINOPS:
        for self_side, other in ((v.left, v.right), (v.right, v.left)):
            if isinstance(self_side, ir.LocalRef) and self_side.name == name:
                if not _expr_uses(other, name):
                    return (v.op, name)
        return None
    if isinstance(v, ir.IntrinsicCall) and v.key in _REDUCTION_INTRINSICS:
        refs = [
            a
            for a in v.args
            if isinstance(a, ir.LocalRef) and a.name == name
        ]
        others = [
            a
            for a in v.args
            if not (isinstance(a, ir.LocalRef) and a.name == name)
        ]
        if len(refs) == 1 and not any(_expr_uses(o, name) for o in others):
            return (_REDUCTION_INTRINSICS[v.key], name)
    return None


class _LoopCheck:
    """Analyzes one candidate ForRange inside one function."""

    def __init__(self, analyzer, func, local_shapes, loop):
        self.an = analyzer
        self.func = func
        self.local_shapes = local_shapes
        self.loop = loop

    def run(self):
        s = self.loop
        if s.step is not None:
            return LoopDecision(False, "explicit step (non-canonical form)", s.var)
        body_assigned = frozenset(ir.assigned_names(s.body))
        scope = _Scope(self.an, "caller")
        scope.body_assigned = body_assigned
        scope.env[s.var] = (0, {s.var: 1})
        scope.defined.add(s.var)

        # pass 1: reduction candidates (so their self-reads are excused)
        red = {}  # name -> op
        red_count = {}  # name -> number of matching stmts
        bad_red = set()
        stack = list(s.body)
        while stack:
            st = stack.pop()
            m = _match_reduction(st, body_assigned)
            if m is not None:
                op, name = m
                if name in red and red[name] != op:
                    bad_red.add(name)
                red[name] = op
                red_count[name] = red_count.get(name, 0) + 1
            for b in ir.stmt_blocks(st):
                stack.extend(b)
        body_reads = _count_reads(s.body)
        for name in list(red):
            # a true reduction var appears only as the self-read of its
            # own accumulation statements
            if body_reads.get(name, 0) != red_count.get(name, 0):
                bad_red.add(name)
            sh = self.local_shapes.get(name)
            if not isinstance(sh, PrimShape):
                bad_red.add(name)
        if bad_red:
            return LoopDecision(
                False,
                f"cross-iteration scalar carry ({', '.join(sorted(bad_red))})",
                s.var,
            )
        if not omp_reductions_enabled():
            reassoc = sorted(
                name for name, op in red.items()
                if op in ("+", "*")
                and getattr(self.local_shapes[name].ty, "is_float", False)
            )
            if reassoc:
                return LoopDecision(
                    False,
                    "float reduction reassociates "
                    f"({', '.join(reassoc)}; REPRO_OMP_REDUCTIONS=1 to allow)",
                    s.var,
                )
        scope.red_excused = frozenset(red)

        # pass 2: ordered walk — accesses, def-before-use, disqualifiers
        self._walk(scope, s.body, in_branch=False, depth=0)
        if scope.fail:
            return LoopDecision(False, scope.fail, s.var)
        if any(
            isinstance(x, ir.LocalRef) and x.name in body_assigned
            for x in ir.walk_exprs(s.start)
        ):
            return LoopDecision(False, "loop start reads a private", s.var)

        # pass 3: liveness of privates after the loop
        outside = {}
        _shadow_reads(self.func.body, s, outside)
        live = [
            n
            for n in sorted(body_assigned | {s.var})
            if n not in red and outside.get(n, 0) > 0 and self._is_private(n)
        ]
        if live:
            return LoopDecision(
                False, f"private value read after loop ({', '.join(live)})", s.var
            )

        # pass 4: disjointness of writes
        written = {a.root for a in scope.accesses if a.write}
        if not written and not red:
            return LoopDecision(False, "no writes or reductions (nothing to gain)", s.var)
        if scope.unknown_read and written:
            return LoopDecision(False, "unresolvable read may alias a written array", s.var)
        guards = set()
        for root in sorted(written, key=repr):
            ok, why = self._check_same_root(scope, root, s.var)
            if not ok:
                return LoopDecision(False, why, s.var)
        roots = sorted({a.root for a in scope.accesses}, key=repr)
        for i, ra in enumerate(roots):
            for rb in roots[i + 1 :]:
                if ra not in written and rb not in written:
                    continue
                if self.an.roots_distinct(ra, rb, scope.slots):
                    continue
                ha, hb = scope.handles.get(ra), scope.handles.get(rb)
                if ha is None or hb is None:
                    return LoopDecision(
                        False, f"may-alias arrays without runtime guard", s.var
                    )
                guards.add((ha, hb) if repr(ha) <= repr(hb) else (hb, ha))

        private = tuple(
            n for n in sorted(body_assigned) if n not in red and self._is_private(n)
        )
        reductions = tuple(
            (red[n], n, getattr(self.local_shapes.get(n).ty, "is_float", False))
            for n in sorted(red)
        )
        return LoopDecision(
            True,
            "",
            s.var,
            private=private,
            reductions=reductions,
            guards=tuple(sorted(guards, key=repr)),
        )

    def _is_private(self, name):
        """Whether the emitter declares a C local for this name (snapshot
        object aliases have no C variable and need no clause)."""
        sh = self.local_shapes.get(name)
        if isinstance(sh, ObjShape) and sh.root_path is not None:
            return False
        return True

    def _check_same_root(self, scope, root, loopvar):
        accs = [a for a in scope.accesses if a.root == root]
        c_l = None
        inv_terms = None
        lo = hi = None
        for a in accs:
            if a.index is None:
                return False, "unknown-index access to a written array"
            coeff = a.index[1].get(loopvar, 0)
            if c_l is None:
                c_l = coeff
            elif coeff != c_l:
                return False, "mixed loop-var strides on one array"
            bounds = {v: (l, h) for v, l, h in a.ranges}
            rem_lo = rem_hi = a.index[0]
            inv = {}
            for name, k in a.index[1].items():
                if name == loopvar:
                    continue
                if name in bounds:
                    blo, bhi = bounds[name]
                    if blo is None or bhi is None:
                        return False, f"inner loop '{name}' lacks literal bounds"
                    if bhi <= blo:
                        continue  # empty range: access never happens
                    ends = (k * blo, k * (bhi - 1))
                    rem_lo += min(ends)
                    rem_hi += max(ends)
                else:
                    inv[name] = k  # loop-invariant symbol: must cancel
            if inv_terms is None:
                inv_terms = inv
            elif inv_terms != inv:
                return False, "loop-invariant index terms differ across accesses"
            lo = rem_lo if lo is None else min(lo, rem_lo)
            hi = rem_hi if hi is None else max(hi, rem_hi)
        if c_l == 0:
            return False, "store index does not advance with the loop var"
        if lo is not None and hi - lo >= abs(c_l):
            return False, "iteration footprints overlap (remainder spans stride)"
        return True, ""

    # ordered body walk ---------------------------------------------------

    def _walk(self, scope, stmts, in_branch, depth):
        for s in stmts:
            if scope.fail:
                return
            if isinstance(s, (ir.LocalDecl, ir.Assign)):
                m = _match_reduction(s, scope.body_assigned)
                if m is not None and m[1] in scope.red_excused:
                    self._collect(scope, s.value)
                    scope.defined.add(s.name)
                    continue
                self._collect(scope, s.value)
                if in_branch:
                    scope.env[s.name] = None
                else:
                    scope.env[s.name] = _affine(s.value, scope)
                if isinstance(getattr(s.value, "shape", None), ArrayShape):
                    scope.arrenv[s.name] = (
                        None if in_branch else scope.arr_root(s.value))
                scope.defined.add(s.name)
            elif isinstance(s, ir.ArrayStore):
                self._collect(scope, s.index)
                self._collect(scope, s.value)
                root = scope.arr_root(s.arr)
                if root is None:
                    scope.note_fail("store through unresolvable array")
                    return
                idx = _affine(s.index, scope)
                scope.accesses.append(
                    _Access(root, idx, True, scope.ranges_snapshot())
                )
            elif isinstance(s, ir.ExprStmt):
                self._collect(scope, s.value)
            elif isinstance(s, ir.If):
                self._collect(scope, s.cond)
                saved = set(scope.defined)
                self._walk(scope, s.then, True, depth)
                then_def = set(scope.defined)
                scope.defined = saved
                self._walk(scope, s.orelse, True, depth)
                scope.defined &= then_def
                scope.defined |= saved
                for n in ir.assigned_names(s.then) | ir.assigned_names(s.orelse):
                    scope.env[n] = None
            elif isinstance(s, ir.ForRange):
                self._collect(scope, s.start)
                self._collect(scope, s.stop)
                if s.step is not None:
                    self._collect(scope, s.step)
                lo = _affine(s.start, scope)
                hi = _affine(s.stop, scope)
                lo_c = lo[0] if lo is not None and not lo[1] else None
                hi_c = hi[0] if hi is not None and not hi[1] else None
                if s.step is not None:
                    lo_c = hi_c = None  # stepped inner ranges stay opaque
                scope.env[s.var] = (0, {s.var: 1})
                scope.defined.add(s.var)
                scope.range_stack.append((s.var, lo_c, hi_c))
                saved_def = set(scope.defined)
                self._walk(scope, s.body, in_branch, depth + 1)
                scope.range_stack.pop()
                scope.env[s.var] = None
                if not (lo_c is not None and hi_c is not None and lo_c < hi_c):
                    # possibly zero-trip: names first assigned inside the
                    # inner loop may still be unset afterwards
                    scope.defined = saved_def
                for n in ir.assigned_names(s.body):
                    scope.env[n] = None
            elif isinstance(s, ir.While):
                scope.note_fail("while loop in body")
                return
            elif isinstance(s, ir.FieldStore):
                scope.note_fail("field store in body")
                return
            elif isinstance(s, ir.Return):
                scope.note_fail("return in body")
                return
            elif isinstance(s, ir.Break):
                if depth == 0:
                    scope.note_fail("break out of the loop")
                    return
            elif isinstance(s, ir.Continue):
                pass
            else:
                scope.note_fail(f"unhandled stmt {type(s).__name__}")
                return

    def _collect(self, scope, e):
        for x in ir.walk_exprs(e):
            if isinstance(x, ir.KernelLaunch):
                scope.note_fail("kernel launch in body")
            elif isinstance(x, ir.IntrinsicCall) and not _pure_intrinsic(x.key):
                scope.note_fail(f"impure intrinsic {x.key}")
            elif isinstance(x, ir.Call):
                scope.splice_call(x)
            elif isinstance(x, ir.ArrayLoad):
                root = scope.arr_root(x.arr)
                idx = _affine(x.index, scope)
                if root is None:
                    scope.unknown_read = True
                else:
                    scope.accesses.append(
                        _Access(root, idx, False, scope.ranges_snapshot())
                    )
            elif isinstance(x, ir.LocalRef):
                scope.sym_affine(x.name)  # triggers use-before-def checks


# --------------------------------------------------------------------------
# program driver


def analyze_program(program) -> ParallelPlan:
    """Analyze every host-side specialization's loops.  Pure analysis: no
    env gating here — callers decide when to run it (the C backend only
    does so under ``REPRO_OMP=1`` at FULL)."""
    from repro.backends.base import compute_local_shapes

    an = _Analyzer(program)
    plan = ParallelPlan(program=program, threads=omp_threads())
    stats = {
        "loops_seen": 0,
        "loops_parallel": 0,
        "loops_guarded": 0,
        "reductions": 0,
        "functions": {},
    }

    for spec in program.specializations:
        func = getattr(spec, "func_ir", None)
        if func is None or func.is_device or func.is_kernel:
            continue
        local_shapes = compute_local_shapes(func)
        rows = []

        def visit(stmts):
            for s in stmts:
                if isinstance(s, ir.ForRange):
                    stats["loops_seen"] += 1
                    d = _LoopCheck(an, func, local_shapes, s).run()
                    plan.decisions[id(s)] = d
                    rows.append(
                        {
                            "var": s.var,
                            "parallel": d.parallel,
                            "reason": d.reason,
                            "reductions": [r[:2] for r in d.reductions],
                            "guarded": bool(d.guards),
                        }
                    )
                    if d.parallel:
                        stats["loops_parallel"] += 1
                        stats["reductions"] += len(d.reductions)
                        if d.guards:
                            stats["loops_guarded"] += 1
                        continue  # outermost-parallel only: don't descend
                    visit(s.body)
                else:
                    for b in ir.stmt_blocks(s):
                        visit(b)

        visit(func.body)
        if rows:
            plan.by_symbol[spec.symbol] = rows
            stats["functions"][spec.symbol] = {
                "parallel": sum(1 for r in rows if r["parallel"]),
                "loops": len(rows),
            }

    plan.stats = stats
    return plan
