"""Loop-independence analysis for the multi-core C backend.

Decides, per host-side ``ForRange`` in a translated program, whether the
loop's iterations are provably independent so the C emitter can wrap it
in ``#pragma omp parallel for``.  A loop qualifies when:

* every iteration's array writes are provably disjoint — each access to
  a written array evaluates, in the integer domain of
  :mod:`repro.opt.cfg.ranges`, to ``c * loopvar + invariant terms + rest``
  with the same non-zero literal coefficient ``c`` and the same
  loop-invariant terms across all accesses to that array, where ``rest``
  is an interval (inner loop variables with literal bounds contribute
  their range) whose hull over the accesses spans strictly less than
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
* every call in the body has a callee record with its array accesses
  (:class:`repro.opt.passes.Callee`, the record licm, cse and the inliner
  read its stores from; a callee qualifies when it stores no field and
  writes arrays only outside loops at affine indices) and every intrinsic
  is pure.

One walker (:class:`_Walk`) reads both a candidate loop's body and a
callee's whole body; the callee's parameters are simply the names its body
never assigns, as a loop's invariants are.

The analysis runs only when ``REPRO_OMP`` is enabled and the level is
``OptLevel.FULL``; with ``REPRO_OMP`` off the emitter's output is
byte-identical to the sequential backend.  The effective configuration
(:func:`omp_token`) is part of the JIT cache key, mirroring
``pipeline_token``, so toggling it can never reuse a stale artifact.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

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
from repro.opt.cfg.ranges import OPAQUE, Interval, add, evaluate, scale
from repro.opt.passes import _pure_intrinsic, _Summary

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
# array roots: ("var", name) for a local the walked body never assigns (a
# parameter, or a loop-invariant local), ("member", path, fname) for a
# snapshot array field


def _member_root(e):
    """The root of a snapshot-array FieldLoad, else None."""
    if not isinstance(e, ir.FieldLoad) or not isinstance(e.shape, ArrayShape):
        return None
    path = getattr(e.obj.shape, "root_path", None)
    return None if path is None else ("member", path, e.fname)


def _symbol(name):
    return {name: 1}, Interval(0, 0)


def _args(call) -> dict:
    """The callee's parameter names bound to a call's argument expressions."""
    args = dict(zip(call.target.func_ir.param_names, call.args))
    if call.recv is not None:
        args["self"] = call.recv
    return args


def _literal(value):
    terms, rest = value
    return rest.lo if terms == {} and rest.lo == rest.hi else None


class _Walk:
    """One walk, in execution order, over a candidate loop's body or a
    callee's whole body.  Names the body never assigns are symbols (the
    loop's invariants, the callee's parameters); inner loop variables with
    literal bounds are their range.

    It records each array access as ``(root, index, write, looped)`` —
    ``index`` a domain value or None, ``looped`` when an inner loop repeats
    it — reads of arrays it cannot name, each return as ``(value, root,
    conditional)``, and the first reason the body is not one independent
    iteration (``fail``).  ``fatal`` marks a reason that also leaves a
    callee without a record (an effect, a store or call it cannot follow);
    a read before assignment, a while loop, a return or a break out of the
    walk only disqualify an iteration."""

    def __init__(self, an, assigned, excused=frozenset()):
        self.an = an
        self.assigned = assigned  # names the walked body stores to
        self.excused = excused  # reduction accumulators
        self.defined = set()
        self.env = {}  # name -> domain value | None (opaque)
        self.arrenv = {}  # name -> root | None
        self.slots = {}  # root -> snapshot slot | None
        self.accesses = []
        self.returns = []
        self.unknown_read = False
        self.fail = None
        self.fatal = False
        self.loops = 0

    def note(self, reason, fatal=True):
        if self.fail is None:
            self.fail = reason
        self.fatal = self.fatal or fatal

    # -- values and roots --------------------------------------------------

    def local(self, name):
        if name not in self.assigned:
            return self.env.get(name) or _symbol(name)
        if name in self.defined or name in self.excused:
            return self.env.get(name) or OPAQUE
        return OPAQUE

    def call(self, e):
        rec = self.an.callee(e.target)
        return OPAQUE if rec.ret is None else self.bind(rec.ret, e)

    def value(self, e):
        return evaluate(e, self.local, None, self.call)

    def index(self, e):
        value = self.value(e)
        return None if value[0] is None else value

    def bind(self, value, call):
        """A callee's value (over its parameters) at this call site."""
        terms, rest = value
        out = ({}, rest)
        args = _args(call)
        for pname, k in terms.items():
            arg = args.get(pname)
            if arg is None:
                return OPAQUE
            out = add(out, scale(self.value(arg), k))
        return out

    def root(self, e):
        """The root of an array-valued expression, or None."""
        key = _member_root(e)
        if key is not None:
            self.an.shapes.setdefault(key, e.shape)
            self.slots.setdefault(key, e.shape.slot)
            return key
        if isinstance(e, ir.LocalRef):
            if e.name in self.assigned:
                # rebound in the body: stable only once bound in this
                # iteration (LICM/inliner temps aliasing an outer array)
                if e.name not in self.defined:
                    return None
                return self.arrenv.get(e.name)
            key = ("var", e.name)
            self.slots.setdefault(key, getattr(e.shape, "slot", None))
            return key
        if isinstance(e, ir.Call):
            rec = self.an.callee(e.target)
            if rec.ret_root is None:
                return None
            return self.map_root(rec.ret_root, e, rec)
        return None

    def map_root(self, root, call, rec):
        """A callee's root at this call site."""
        if root[0] == "var":
            arg = _args(call).get(root[1])
            return None if arg is None else self.root(arg)
        if root in rec.slots:
            self.slots.setdefault(root, rec.slots[root])
        return root

    # -- expressions -------------------------------------------------------

    def splice(self, call):
        """Fold a callee's accesses in at a call site."""
        rec = self.an.callee(call.target)
        if rec.accesses is None:
            symbol = getattr(call.target, "symbol", "?")
            self.note(f"call to {symbol} has no summary")
            return
        self.unknown_read = self.unknown_read or rec.unknown_read
        for root, index, write in rec.accesses:
            root = self.map_root(root, call, rec)
            if root is None:
                if write:
                    self.note("write through unresolvable array in callee")
                else:
                    self.unknown_read = True
                continue
            if index is not None:
                index = self.bind(index, call)
                index = None if index[0] is None else index
            if write and index is None:
                self.note("unresolvable store index in callee")
                continue
            self.accesses.append((root, index, write, self.loops > 0))

    def collect(self, e):
        for x in ir.walk_exprs(e):
            if isinstance(x, ir.KernelLaunch):
                self.note("kernel launch in body")
            elif isinstance(x, ir.IntrinsicCall) and not _pure_intrinsic(x.key):
                self.note(f"impure intrinsic {x.key}")
            elif isinstance(x, ir.Call):
                self.splice(x)
            elif isinstance(x, ir.ArrayLoad):
                root = self.root(x.arr)
                if root is None:
                    self.unknown_read = True
                else:
                    self.accesses.append(
                        (root, self.index(x.index), False, self.loops > 0))
            elif (isinstance(x, ir.LocalRef) and x.name in self.assigned
                  and x.name not in self.defined
                  and x.name not in self.excused):
                self.note(f"use of '{x.name}' before assignment in iteration",
                          fatal=False)

    # -- statements --------------------------------------------------------

    def walk(self, stmts, in_branch=False):
        for s in stmts:
            if self.fatal:
                return
            if isinstance(s, (ir.LocalDecl, ir.Assign)):
                self.collect(s.value)
                # an accumulator keeps no value; a binding in a branch may
                # not happen
                if not (s.name in self.excused and _match_reduction(
                        s, self.assigned, self.an.used)):
                    self.env[s.name] = (
                        None if in_branch else self.value(s.value))
                    if isinstance(s.value.shape, ArrayShape):
                        self.arrenv[s.name] = (
                            None if in_branch else self.root(s.value))
                self.defined.add(s.name)
            elif isinstance(s, ir.ArrayStore):
                self.collect(s.index)
                self.collect(s.value)
                root = self.root(s.arr)
                if root is None:
                    self.note("store through unresolvable array")
                    return
                self.accesses.append(
                    (root, self.index(s.index), True, self.loops > 0))
            elif isinstance(s, ir.ExprStmt):
                self.collect(s.value)
            elif isinstance(s, ir.If):
                self.collect(s.cond)
                before = set(self.defined)
                self.walk(s.then, True)
                then_defined, self.defined = self.defined, before
                self.walk(s.orelse, True)
                self.defined &= then_defined
            elif isinstance(s, ir.ForRange):
                for e in ir.stmt_exprs(s):
                    self.collect(e)
                lo = _literal(self.value(s.start))
                hi = _literal(self.value(s.stop))
                if s.step is not None or lo is None or hi is None:
                    self.loop(s.body, in_branch, s.var, _symbol(s.var))
                else:
                    # an empty range never runs: its variable adds nothing
                    self.loop(s.body, in_branch, s.var,
                              ({}, Interval(lo, hi - 1) if lo < hi
                               else Interval(0, 0)), runs=lo < hi)
            elif isinstance(s, ir.While):
                self.note("while loop in body", fatal=False)
                self.loop(s.body, in_branch, cond=s.cond)
            elif isinstance(s, ir.Return):
                self.note("return in body", fatal=False)
                value = root = None
                if s.value is not None:
                    self.collect(s.value)
                    value = self.index(s.value)
                    if isinstance(s.value.shape, ArrayShape):
                        root = self.root(s.value)
                self.returns.append((value, root, in_branch or self.loops > 0))
            elif isinstance(s, ir.Break):
                if not self.loops:
                    self.note("break out of the loop", fatal=False)
            elif isinstance(s, ir.FieldStore):
                self.note("field store in body")
                return
            elif not isinstance(s, ir.Continue):
                self.note(f"unhandled stmt {type(s).__name__}")
                return

    def loop(self, body, in_branch, var=None, bind=None, runs=False, cond=None):
        if var is not None:
            self.env[var] = bind
            self.defined.add(var)
        before = set(self.defined)
        self.loops += 1
        if cond is not None:
            self.collect(cond)
        self.walk(body, in_branch)
        self.loops -= 1
        if not runs:
            # possibly zero-trip: names first bound inside may be unset
            self.defined = before
        for name in ir.assigned_names(body):
            self.env[name] = self.arrenv[name] = None
        if var is not None:
            self.env[var] = None


def _match_reduction(s, assigned, used):
    """``(op, name)`` when ``s`` is ``name = name op other`` (either order)
    with a reduction operator and ``other`` does not read ``name`` (``used``
    gives the names an expression reads), else None."""
    if not isinstance(s, ir.Assign) or s.name not in assigned:
        return None
    v, name = s.value, s.name
    if isinstance(v, ir.BinOp) and v.op in _REDUCTION_BINOPS:
        op, operands = v.op, (v.left, v.right)
    elif isinstance(v, ir.IntrinsicCall) and v.key in _REDUCTION_INTRINSICS:
        op, operands = _REDUCTION_INTRINSICS[v.key], v.args
    else:
        return None
    own = [a for a in operands if isinstance(a, ir.LocalRef) and a.name == name]
    if len(own) == 1 and all(name not in used(a) for a in operands
                             if a is not own[0]):
        return op, name
    return None


# --------------------------------------------------------------------------
# the program-wide state: the shared effect summary, extended


class _Analyzer(_Summary):
    """The effect summary licm, cse and the inliner use, whose callee
    records also carry the callees' array accesses, plus the program's
    FieldStore taint and the guard handle of every member root seen."""

    def __init__(self, program):
        super().__init__()
        self.program = program
        self.shapes = {}  # member root -> its ArrayShape (guard handles)

    def _callee(self, func):
        rec = super()._callee(func)
        if rec.stored != set():
            return rec  # it stores a field (or may): no access record
        walk = _Walk(self, ir.assigned_names(func.body))
        walk.walk(func.body)
        if walk.fatal or any(write and (looped or index is None)
                             for _, index, write, looped in walk.accesses):
            return rec
        # a loop re-runs its reads at indices no single form describes
        rec.accesses = tuple((root, None if looped else index, write)
                             for root, index, write, looped in walk.accesses)
        rec.unknown_read = walk.unknown_read
        rec.slots = walk.slots
        if len(walk.returns) == 1 and not walk.returns[0][2]:
            rec.ret, rec.ret_root, _ = walk.returns[0]
        return rec

    @cached_property
    def tainted(self):
        """Snapshot slots some FieldStore rebinds or hands to another field
        (double-buffer swaps): members there may alias each other at
        runtime although their static slots differ.  None: a store the
        analysis cannot place — every slot is tainted."""
        objects = dict(self.program.snapshot.objects)
        tainted = set()
        for spec in self.program.specializations:
            func = getattr(spec, "func_ir", None)
            for s in _nested(() if func is None else func.body):
                if not isinstance(s, ir.FieldStore):
                    continue
                # the stored set names the rebound field; the statement
                # names the array it now holds
                stored = self.stmt(s)[2]
                value = getattr(s.value.shape, "slot", None)
                if stored is None or value is None:
                    return None
                tainted.add(value)
                for path, fname in stored:
                    shape = getattr(objects.get(path), "fields", {}).get(fname)
                    if getattr(shape, "slot", None) is None:
                        return None
                    tainted.add(shape.slot)
        return tainted

    def used(self, e) -> frozenset:
        """The locals ``e`` reads."""
        return self.expr(e)[2]

    def distinct(self, ra, rb, slots):
        """True when two roots provably never alias."""
        sa, sb = slots.get(ra), slots.get(rb)
        return (ra != rb and sa is not None and sb is not None and sa != sb
                and self.tainted is not None
                and sa not in self.tainted and sb not in self.tainted)

    def handle(self, root):
        """What the emitter's runtime alias guard reads for ``root``."""
        return root if root[0] == "var" else (*root, self.shapes[root])


# --------------------------------------------------------------------------
# per-loop analysis


def _nested(stmts):
    for s in stmts:
        yield s
        for block in ir.stmt_blocks(s):
            yield from _nested(block)


def _read_after(an, stmts, target) -> set:
    """Names read outside ``target``'s subtree; a read inside a later
    ForRange that rebinds the name as its own loop variable is excused (it
    observes that loop's fresh values)."""
    reads = set()

    def scan(block, shadow):
        for s in block:
            if s is target:
                continue
            for e in ir.stmt_exprs(s):
                reads.update(an.used(e) - shadow)
            if isinstance(s, ir.ForRange):
                inner = shadow | {s.var}
            else:
                inner = shadow
            for b in ir.stmt_blocks(s):
                scan(b, inner)

    scan(stmts, frozenset())
    return reads


def _overlap(accesses, var, assigned) -> str:
    """Why iterations' footprints on one written array may meet, or ""."""
    stride = invariant = span = None
    for _, index, _, _ in accesses:
        if index is None:
            return "unknown-index access to a written array"
        terms, rest = index
        k = terms.get(var, 0)
        if stride is None:
            stride = k
        elif k != stride:
            return "mixed loop-var strides on one array"
        others = {n: c for n, c in terms.items() if n != var}
        for name in others:
            if name in assigned:  # an inner loop variable left a symbol
                return f"inner loop '{name}' lacks literal bounds"
        if invariant is None:
            invariant = others
        elif others != invariant:
            return "loop-invariant index terms differ across accesses"
        span = rest if span is None else span.hull(rest)
    if stride == 0:
        return "store index does not advance with the loop var"
    if span.lo is None or span.hi is None or span.hi - span.lo >= abs(stride):
        return "iteration footprints overlap (remainder spans stride)"
    return ""


def _decide(an, func, local_shapes, s) -> LoopDecision:
    """The verdict for one candidate ForRange inside ``func``."""
    if s.step is not None:
        return LoopDecision(False, "explicit step (non-canonical form)", s.var)
    assigned = frozenset(ir.assigned_names(s.body))

    # reduction candidates: an accumulator is read only by its own updates
    red, bad, matched = {}, set(), {}
    for st in _nested(s.body):
        m = _match_reduction(st, assigned, an.used)
        if m is not None:
            op, name = m
            if red.get(name, op) != op:
                bad.add(name)
            red[name] = op
            matched[id(st)] = name
    for st in _nested(s.body):
        for e in ir.stmt_exprs(st):
            for name in an.used(e) & red.keys():
                if matched.get(id(st)) != name:
                    bad.add(name)
    bad.update(n for n in red if not isinstance(local_shapes.get(n), PrimShape))
    if bad:
        return LoopDecision(
            False,
            f"cross-iteration scalar carry ({', '.join(sorted(bad))})",
            s.var,
        )
    if not omp_reductions_enabled():
        reassoc = sorted(
            name for name, op in red.items()
            if op in ("+", "*")
            and getattr(local_shapes[name].ty, "is_float", False)
        )
        if reassoc:
            return LoopDecision(
                False,
                "float reduction reassociates "
                f"({', '.join(reassoc)}; REPRO_OMP_REDUCTIONS=1 to allow)",
                s.var,
            )

    walk = _Walk(an, assigned, frozenset(red))
    walk.env[s.var] = _symbol(s.var)
    walk.defined.add(s.var)
    walk.walk(s.body)
    if walk.fail:
        return LoopDecision(False, walk.fail, s.var)
    if an.used(s.start) & assigned:
        return LoopDecision(False, "loop start reads a private", s.var)

    def private(name):
        # snapshot object aliases have no C variable and need no clause
        sh = local_shapes.get(name)
        return not (isinstance(sh, ObjShape) and sh.root_path is not None)

    after = _read_after(an, func.body, s)
    live = [n for n in sorted(assigned | {s.var})
            if n not in red and n in after and private(n)]
    if live:
        return LoopDecision(
            False, f"private value read after loop ({', '.join(live)})", s.var
        )

    written = {a[0] for a in walk.accesses if a[2]}
    if not written and not red:
        return LoopDecision(False, "no writes or reductions (nothing to gain)", s.var)
    if walk.unknown_read and written:
        return LoopDecision(False, "unresolvable read may alias a written array", s.var)
    for root in sorted(written, key=repr):
        accesses = [a for a in walk.accesses if a[0] == root]
        why = _overlap(accesses, s.var, assigned)
        if why:
            return LoopDecision(False, why, s.var)
    guards = set()
    roots = sorted({a[0] for a in walk.accesses}, key=repr)
    for i, ra in enumerate(roots):
        for rb in roots[i + 1:]:
            if (ra in written or rb in written) and not an.distinct(
                    ra, rb, walk.slots):
                ha, hb = an.handle(ra), an.handle(rb)
                guards.add((ha, hb) if repr(ha) <= repr(hb) else (hb, ha))
    return LoopDecision(
        True,
        "",
        s.var,
        private=tuple(n for n in sorted(assigned)
                      if n not in red and private(n)),
        reductions=tuple(
            (red[n], n, getattr(local_shapes.get(n).ty, "is_float", False))
            for n in sorted(red)
        ),
        guards=tuple(sorted(guards, key=repr)),
    )


# --------------------------------------------------------------------------
# program driver


def analyze_program(program) -> ParallelPlan:
    """Analyze every host-side specialization's loops.  Pure analysis: no
    env gating here — callers decide when to run it (the C backend only
    does so under ``REPRO_OMP=1`` at FULL)."""
    from repro.backends.base import compute_local_shapes

    an = _Analyzer(program)
    plan = ParallelPlan(program=program, threads=omp_threads())
    functions = {}
    for spec in program.specializations:
        func = getattr(spec, "func_ir", None)
        if func is None or func.is_device or func.is_kernel:
            continue
        local_shapes = compute_local_shapes(func)
        rows = []

        def visit(stmts):
            for s in stmts:
                if not isinstance(s, ir.ForRange):
                    for b in ir.stmt_blocks(s):
                        visit(b)
                    continue
                d = plan.decisions[id(s)] = _decide(an, func, local_shapes, s)
                rows.append({
                    "var": s.var,
                    "parallel": d.parallel,
                    "reason": d.reason,
                    "reductions": [r[:2] for r in d.reductions],
                    "guarded": bool(d.guards),
                })
                if not d.parallel:
                    visit(s.body)  # outermost-parallel only

        visit(func.body)
        if rows:
            plan.by_symbol[spec.symbol] = rows
            functions[spec.symbol] = {
                "parallel": sum(1 for r in rows if r["parallel"]),
                "loops": len(rows),
            }

    done = [d for d in plan.decisions.values() if d.parallel]
    plan.stats = {
        "loops_seen": len(plan.decisions),
        "loops_parallel": len(done),
        "loops_guarded": sum(1 for d in done if d.guards),
        "reductions": sum(len(d.reductions) for d in done),
        "functions": functions,
    }
    return plan
