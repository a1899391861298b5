"""IR verifier + optimization statistics.

``verify_program`` walks every specialized function after lowering and
checks the invariants the backends rely on:

* every expression carries a type, and (for non-void) a consistent shape;
* every ``LocalRef`` refers to a parameter or an assigned local;
* every ``Call``/``KernelLaunch`` passes exactly the callee's runtime
  parameters, with assignable shapes;
* array indices are integers; stores match element types (modulo the
  C-style conversions lowering inserted);
* device functions contain no MPI intrinsics, host functions no thread
  geometry.

It also gathers :class:`OptStats` — how much object orientation the
translation removed (the quantities the paper's optimization discussion in
§3 is about).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import BackendError
from repro.frontend import ir
from repro.frontend.shapes import ArrayShape, ObjShape, PrimShape
from repro.lang import types as _t
from repro.obs.trace import span as _span

__all__ = ["OptStats", "verify_func", "verify_program"]


@dataclass
class OptStats:
    """What devirtualization + object inlining removed."""

    devirtualized_calls: int = 0     # dynamic dispatches turned into direct calls
    kernel_launches: int = 0
    inlined_constructions: int = 0   # NewObj sites (constructor inlining)
    snapshot_field_loads: int = 0    # field loads resolved from the snapshot
    folded_constants: int = 0        # expressions with known constant values
    intrinsic_calls: int = 0

    def as_dict(self) -> dict:
        return dict(self.__dict__)


class _Verifier:
    def __init__(self, func_ir: ir.FuncIR, stats: OptStats):
        self.f = func_ir
        self.stats = stats
        self.locals: set[str] = {"self", *func_ir.param_names}

    def fail(self, msg: str) -> None:
        raise BackendError(f"IR verification failed in {self.f.symbol}: {msg}")

    # -- statements -------------------------------------------------------

    def block(self, stmts) -> None:
        for s in stmts:
            self.stmt(s)

    def stmt(self, s: ir.Stmt) -> None:
        cls = type(s)
        if cls not in _STMT_CHECKS:
            self.fail(f"unknown statement {cls.__name__}")
        for attr in s.slots:
            e = getattr(s, attr)
            if e is not None:
                self.expr(e)
        if s.assigns is not None:
            self.locals.add(getattr(s, s.assigns))
        check = _STMT_CHECKS[cls]
        if check is not None:
            check(self, s)
        for attr in s.blocks:
            self.block(getattr(s, attr))

    def _check_decl(self, s) -> None:
        if s.decl_ty is _t.VOID:
            self.fail(f"void-typed local {s.name!r}")

    def _check_field_store(self, s: ir.FieldStore) -> None:
        oshape = s.obj.shape
        if not (isinstance(oshape, ObjShape) and oshape.from_snapshot):
            self.fail("FieldStore on a non-snapshot object")
        if not isinstance(oshape.field(s.fname), ArrayShape):
            self.fail(f"FieldStore to non-array field {s.fname!r}")

    def _check_array_store(self, s: ir.ArrayStore) -> None:
        if not isinstance(s.arr.ty, _t.ArrayType):
            self.fail("ArrayStore on a non-array value")
        if not (isinstance(s.index.ty, _t.PrimType) and not s.index.ty.is_float):
            self.fail("non-integer array index")

    def _check_return(self, s: ir.Return) -> None:
        if s.value is not None:
            if self.f.ret_type is _t.VOID:
                self.fail("value returned from a void function")
        elif self.f.ret_type is not _t.VOID:
            self.fail("bare return in a non-void function")

    # -- expressions --------------------------------------------------------

    def expr(self, e: ir.Expr) -> None:
        if e.ty is None:
            self.fail(f"untyped expression {type(e).__name__}")
        s = e.shape
        if isinstance(s, PrimShape) and s.const is not None:
            self.stats.folded_constants += 1
        cls = type(e)
        if cls is ir.LocalRef:
            if e.name not in self.locals:
                self.fail(f"reference to unassigned local {e.name!r}")
        elif cls in _OPERANDS_ONLY:
            for attr in e.kids:
                self.expr(getattr(e, attr))
            if e.kid_seq is not None:
                for v in getattr(e, e.kid_seq):
                    self.expr(v)
        elif cls in _EXPR_CHECKS:
            _EXPR_CHECKS[cls](self, e)
        else:
            self.fail(f"unknown expression {cls.__name__}")

    def _check_field_load(self, e: ir.FieldLoad) -> None:
        self.expr(e.obj)
        oshape = e.obj.shape
        if not isinstance(oshape, ObjShape):
            self.fail("FieldLoad on a non-object value")
        if oshape.from_snapshot:
            self.stats.snapshot_field_loads += 1

    def _check_array_load(self, e: ir.ArrayLoad) -> None:
        self.expr(e.arr)
        self.expr(e.index)
        if not isinstance(e.arr.ty, _t.ArrayType):
            self.fail("ArrayLoad on a non-array value")

    def _check_intrinsic(self, e: ir.IntrinsicCall) -> None:
        self.stats.intrinsic_calls += 1
        if self.f.is_device and e.key.startswith("mpi."):
            self.fail(f"MPI intrinsic {e.key} inside device code")
        if not self.f.is_device and e.key.startswith("cuda.tid"):
            self.fail(f"thread intrinsic {e.key} in host code")
        for a in e.args:
            self.expr(a)

    def _check_new(self, e: ir.NewObj) -> None:
        self.stats.inlined_constructions += 1
        want = set(e.obj_shape.fields)
        got = set(e.field_inits)
        if want != got:
            self.fail(f"NewObj field mismatch: {want} vs {got}")
        for v in e.field_inits.values():
            self.expr(v)

    def _check_call(self, e: ir.Call) -> None:
        self.stats.devirtualized_calls += 1
        callee = e.target.func_ir
        if callee is None:
            self.fail("call to an unlowered specialization")
        if callee.is_device and not self.f.is_device:
            self.fail("host function calls a device function directly")
        if e.recv is not None:
            self.expr(e.recv)
        if len(e.args) != len(callee.param_shapes):
            self.fail(
                f"arity mismatch calling {e.target.symbol}: "
                f"{len(e.args)} vs {len(callee.param_shapes)}"
            )
        for a in e.args:
            self.expr(a)

    def _check_launch(self, e: ir.KernelLaunch) -> None:
        self.stats.kernel_launches += 1
        callee = e.target.func_ir
        if not callee.is_device:
            self.fail("kernel launch targets a host specialization")
        self.expr(e.config)
        if e.recv is not None:
            self.expr(e.recv)
        for a in e.args:
            self.expr(a)


#: dispatch by node class (one dict probe per node, no ladder): the check
#: a statement gets once its expressions are verified and its local is
#: bound, before its nested blocks (None: nothing beyond those); the
#: expression classes with nothing to check beyond their operands; and the
#: check for each of the other expression classes
_STMT_CHECKS = {
    ir.LocalDecl: _Verifier._check_decl, ir.Assign: _Verifier._check_decl,
    ir.FieldStore: _Verifier._check_field_store,
    ir.ArrayStore: _Verifier._check_array_store,
    ir.Return: _Verifier._check_return,
    ir.If: None, ir.ForRange: None, ir.While: None, ir.ExprStmt: None,
    ir.Break: None, ir.Continue: None,
}
_OPERANDS_ONLY = frozenset({ir.Const, ir.ArrayLen, ir.BinOp, ir.Compare,
                            ir.UnaryOp, ir.BoolOp, ir.Cast})
_EXPR_CHECKS = {
    ir.FieldLoad: _Verifier._check_field_load,
    ir.ArrayLoad: _Verifier._check_array_load,
    ir.Call: _Verifier._check_call,
    ir.KernelLaunch: _Verifier._check_launch,
    ir.IntrinsicCall: _Verifier._check_intrinsic,
    ir.NewObj: _Verifier._check_new,
}


def verify_func(func_ir, stats: OptStats | None = None) -> OptStats:
    """Verify one specialized function (types/shapes/def-before-use).

    This is the re-check the optimizer pipeline runs after every pass —
    a pass that breaks an invariant raises :class:`BackendError` here
    instead of miscompiling silently in a backend."""
    stats = stats if stats is not None else OptStats()
    _Verifier(func_ir, stats).block(func_ir.body)
    return stats


def verify_program(program) -> OptStats:
    """Verify every specialization; returns aggregated optimization stats."""
    stats = OptStats()
    with _span("frontend.verify") as sp:
        for spec in program.specializations:
            _Verifier(spec.func_ir, stats).block(spec.func_ir.body)
        sp.set(n_specializations=len(program.specializations),
               devirtualized_calls=stats.devirtualized_calls)
    return stats
