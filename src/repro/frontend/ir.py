"""Typed intermediate representation.

Lowering (``repro.frontend.lower``) turns guest Python ASTs into this IR with
every expression carrying both its guest :class:`~repro.lang.types.Type`
(``.ty``) and its :class:`~repro.frontend.shapes.Shape` (``.shape``).  By the
time IR exists, *devirtualization has already happened*: every method call is
a :class:`Call` with a resolved specialization target, and every object
reference has a statically-known concrete class — exactly the property the
paper's coding rules are designed to guarantee.

Representation conventions shared by the backends:

* **snapshot objects** (reachable from the entry receiver/arguments; the
  paper's semi-immutable composed object) are materialized as global
  singletons and referenced by pointer, so that their *array-typed* fields —
  the only mutable state the rules permit — behave with reference semantics
  (double buffering needs this);
* **dynamic objects** (constructed inside translated code) have value
  semantics: copies are stored and passed, which the paper notes is sound
  because such objects are immutable.  Array-field stores on dynamic objects
  are rejected by the rule checker.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import ClassVar, Optional

from repro.lang import types as _t
from repro.frontend.shapes import ArrayShape, ObjShape, PrimShape, Shape

__all__ = [
    "Expr", "Stmt", "FuncIR",
    "Const", "LocalRef", "FieldLoad", "ArrayLoad", "ArrayLen", "BinOp",
    "UnaryOp", "Compare", "BoolOp", "Cast", "Call", "IntrinsicCall",
    "NewObj", "KernelLaunch",
    "LocalDecl", "Assign", "FieldStore", "ArrayStore", "If", "ForRange",
    "While", "Return", "ExprStmt", "Break", "Continue",
    "expr_children", "map_expr", "rewrite_stmt_exprs", "stmt_blocks",
    "stmt_exprs", "stmt_slots", "assigned_names", "walk_exprs",
]


# ---------------------------------------------------------------------------
# Expressions
# ---------------------------------------------------------------------------

@dataclass
class Expr:
    ty: _t.Type = field(init=False, default=None)  # set by subclasses
    shape: Optional[Shape] = field(init=False, default=None)
    #: traversal layout, in evaluation order: the attributes that hold one
    #: sub-expression each (``None`` = absent receiver), then the attribute
    #: that holds a list — for ``NewObj`` a dict — of them
    kids: ClassVar[tuple] = ()
    kid_seq: ClassVar[Optional[str]] = None


@dataclass
class Const(Expr):
    value: object
    prim: _t.PrimType

    def __post_init__(self):
        self.ty = self.prim
        self.shape = PrimShape(self.prim, const=self.value)


@dataclass
class LocalRef(Expr):
    """Reference to a local variable or parameter."""

    name: str
    ref_ty: _t.Type
    ref_shape: Shape

    def __post_init__(self):
        self.ty = self.ref_ty
        self.shape = self.ref_shape


@dataclass
class FieldLoad(Expr):
    obj: Expr
    fname: str
    kids = ("obj",)

    def __post_init__(self):
        obj_shape = self.obj.shape
        assert isinstance(obj_shape, ObjShape), obj_shape
        self.shape = obj_shape.field(self.fname)
        self.ty = self.shape.ty


@dataclass
class ArrayLoad(Expr):
    arr: Expr
    index: Expr
    #: set by the bounds-check-elimination pass (repro.opt.cfg.ranges) when
    #: the index is provably within [0, len(arr)); emitters may then skip
    #: the REPRO_BOUNDS guard for this access
    bounds_ok: bool = field(init=False, default=False, compare=False)
    kids = ("arr", "index")

    def __post_init__(self):
        assert isinstance(self.arr.ty, _t.ArrayType)
        self.ty = self.arr.ty.elem
        self.shape = PrimShape(self.ty)


@dataclass
class ArrayLen(Expr):
    arr: Expr
    kids = ("arr",)

    def __post_init__(self):
        self.ty = _t.I64
        self.shape = PrimShape(_t.I64)


@dataclass
class BinOp(Expr):
    """Arithmetic. op in {+,-,*,/,//,%,**}; result type precomputed by
    lowering with C-style promotion (``/`` always yields f64, ``//`` and
    ``%`` follow Python floor semantics in both backends)."""

    op: str
    left: Expr
    right: Expr
    res: _t.PrimType
    kids = ("left", "right")

    def __post_init__(self):
        self.ty = self.res
        self.shape = PrimShape(self.res)


@dataclass
class UnaryOp(Expr):
    op: str  # '-' | 'not'
    operand: Expr
    res: _t.PrimType
    kids = ("operand",)

    def __post_init__(self):
        self.ty = self.res
        self.shape = PrimShape(self.res)


@dataclass
class Compare(Expr):
    op: str  # '<' '<=' '>' '>=' '==' '!='
    left: Expr
    right: Expr
    kids = ("left", "right")

    def __post_init__(self):
        self.ty = _t.BOOL
        self.shape = PrimShape(_t.BOOL)


@dataclass
class BoolOp(Expr):
    op: str  # 'and' | 'or'  (short-circuit)
    values: list
    kid_seq = "values"

    def __post_init__(self):
        self.ty = _t.BOOL
        self.shape = PrimShape(_t.BOOL)


@dataclass
class Cast(Expr):
    value: Expr
    to: _t.PrimType
    kids = ("value",)

    def __post_init__(self):
        self.ty = self.to
        const = None
        vs = self.value.shape
        if isinstance(vs, PrimShape) and vs.const is not None:
            const = self.to(vs.const)
        self.shape = PrimShape(self.to, const=const)


@dataclass
class Call(Expr):
    """A devirtualized (direct) call to a specialized guest method.

    ``target`` is a ``Specialization`` (see :mod:`repro.jit.specialize`)
    carrying the emitted symbol name and the callee's return shape.
    ``site_id`` identifies the call site for the VIRTUAL backend mode, which
    re-introduces dynamic dispatch through a runtime-initialized
    function-pointer table to model the paper's "C++ with virtual functions"
    comparator.  ``static_cls`` is the receiver's *declared* class — the
    dispatch interface.
    """

    target: object
    recv: Optional[Expr]
    args: list
    site_id: int
    static_cls: Optional[_t.ClassInfo]
    method_name: str
    kids = ("recv",)
    kid_seq = "args"

    def __post_init__(self):
        self.ty = self.target.ret_type
        self.shape = self.target.ret_shape


@dataclass
class IntrinsicCall(Expr):
    """MPI/CUDA/math/FFI/utility intrinsic (paper §3 'Multiplatform')."""

    key: str
    args: list
    res_ty: _t.Type
    const_args: tuple = ()  # leading compile-time-constant arguments
    kid_seq = "args"

    def __post_init__(self):
        self.ty = self.res_ty
        if isinstance(self.res_ty, _t.PrimType):
            self.shape = PrimShape(self.res_ty)
        elif isinstance(self.res_ty, _t.ArrayType):
            self.shape = ArrayShape(self.res_ty)
        else:
            self.shape = None


@dataclass
class NewObj(Expr):
    """Object construction with the constructor abstractly pre-executed.

    The coding rules make constructors straight-line field initializations,
    so lowering evaluates them symbolically: ``field_inits`` maps every field
    to the initializing expression.  Backends emit a struct value (or, in
    VIRTUAL mode, a boxed allocation) — this is the paper's constructor
    inlining (§3.3 "Constructors").
    """

    cls: _t.ClassInfo
    field_inits: dict
    obj_shape: ObjShape
    kid_seq = "field_inits"

    def __post_init__(self):
        self.ty = self.cls.type
        self.shape = self.obj_shape


@dataclass
class KernelLaunch(Expr):
    """A call to a ``@global_kernel`` method — a CUDA kernel launch.

    ``config`` evaluates to a CudaConfig object shape (grid/block extents);
    ``target`` is the kernel body's specialization compiled in device mode.
    The launch is an expression of type void (statement position only).
    """

    target: object
    recv: Optional[Expr]
    config: Expr
    args: list
    site_id: int
    method_name: str
    kids = ("recv", "config")
    kid_seq = "args"

    def __post_init__(self):
        self.ty = _t.VOID
        self.shape = None


# ---------------------------------------------------------------------------
# Statements
# ---------------------------------------------------------------------------

@dataclass
class Stmt:
    #: traversal layout: the attributes holding a top-level expression
    #: (evaluation order; ``None`` = absent), the attributes holding a
    #: nested statement list, and the attribute naming the local this
    #: statement stores to, if it stores to one
    slots: ClassVar[tuple] = ()
    blocks: ClassVar[tuple] = ()
    assigns: ClassVar[Optional[str]] = None


@dataclass
class LocalDecl(Stmt):
    """First assignment of a local: declares it with its strict-final type."""

    name: str
    decl_ty: _t.Type
    value: Expr
    slots = ("value",)
    assigns = "name"


@dataclass
class Assign(Stmt):
    name: str
    decl_ty: _t.Type
    value: Expr
    slots = ("value",)
    assigns = "name"


@dataclass
class FieldStore(Stmt):
    """Store to an *array-typed* field of a snapshot object (the only field
    mutation the rules allow — e.g. double-buffer swapping)."""

    obj: Expr
    fname: str
    value: Expr
    slots = ("obj", "value")


@dataclass
class ArrayStore(Stmt):
    arr: Expr
    index: Expr
    value: Expr
    #: see ArrayLoad.bounds_ok — proven-in-bounds stores skip the guard
    bounds_ok: bool = field(init=False, default=False, compare=False)
    slots = ("arr", "index", "value")


@dataclass
class If(Stmt):
    cond: Expr
    then: list
    orelse: list
    slots = ("cond",)
    blocks = ("then", "orelse")


@dataclass
class ForRange(Stmt):
    var: str
    start: Expr
    stop: Expr
    step: Optional[Expr]  # None means +1
    body: list
    slots = ("start", "stop", "step")
    blocks = ("body",)
    assigns = "var"


@dataclass
class While(Stmt):
    cond: Expr
    body: list
    slots = ("cond",)
    blocks = ("body",)


@dataclass
class Return(Stmt):
    value: Optional[Expr]
    slots = ("value",)


@dataclass
class ExprStmt(Stmt):
    value: Expr
    slots = ("value",)


@dataclass
class Break(Stmt):
    pass


@dataclass
class Continue(Stmt):
    pass


# ---------------------------------------------------------------------------
# Functions
# ---------------------------------------------------------------------------

@dataclass
class FuncIR:
    """One specialized guest method, lowered and devirtualized."""

    symbol: str                      # mangled emission name
    method: object                   # MethodInfo
    self_shape: Optional[ObjShape]   # None for kernels' implicit config recv? no: self of method
    param_names: list                # guest parameter names (excluding self)
    param_shapes: list               # Shape per parameter
    ret_type: _t.Type
    ret_shape: Optional[Shape]
    body: list                       # list[Stmt]
    is_device: bool = False          # compiled for GPU (__device__/__global__)
    is_kernel: bool = False          # the @global_kernel entry itself


# ---------------------------------------------------------------------------
# Traversal / rewrite helpers (used by the backends and the optimizer)
#
# Every helper dispatches on the node's class through the ``kids`` /
# ``kid_seq`` (expressions) and ``slots`` / ``blocks`` (statements) layout
# tuples declared on the classes above: one attribute lookup per node, no
# ``isinstance`` ladder, and no recursive generators.
# ---------------------------------------------------------------------------

def expr_children(node: Expr) -> list:
    """The direct sub-expressions of ``node``, in evaluation order."""
    out = []
    for attr in node.kids:
        child = getattr(node, attr)
        if child is not None:
            out.append(child)
    if node.kid_seq is not None:
        seq = getattr(node, node.kid_seq)
        out.extend(seq.values() if type(seq) is dict else seq)
    return out


def map_expr(node: Expr, fn) -> Expr:
    """Rewrite an expression tree bottom-up.

    ``fn`` is applied to every node *after* its children have been
    rewritten in place; whatever ``fn`` returns replaces the node.  The
    tree is mutated (children reattached), and the (possibly new) root is
    returned — callers must store the result back into the parent slot.
    """
    for attr in node.kids:
        child = getattr(node, attr)
        if child is not None:
            setattr(node, attr, map_expr(child, fn))
    if node.kid_seq is not None:
        seq = getattr(node, node.kid_seq)
        if type(seq) is dict:
            seq = {k: map_expr(v, fn) for k, v in seq.items()}
        else:
            seq = [map_expr(v, fn) for v in seq]
        setattr(node, node.kid_seq, seq)
    return fn(node)


def stmt_slots(s: Stmt) -> list:
    """The names of the attributes of ``s`` that hold a top-level
    expression right now (an absent ``step`` / bare ``return`` has none)."""
    return [a for a in s.slots if getattr(s, a) is not None]


def stmt_exprs(s: Stmt) -> list:
    """The top-level expressions of one statement (no recursion into
    nested statement blocks — see :func:`stmt_blocks` for those)."""
    out = []
    for attr in s.slots:
        e = getattr(s, attr)
        if e is not None:
            out.append(e)
    return out


def rewrite_stmt_exprs(s: Stmt, fn) -> None:
    """Apply ``map_expr(..., fn)`` to every top-level expression slot of
    one statement, storing the results back (nested blocks untouched)."""
    for attr in stmt_slots(s):
        setattr(s, attr, map_expr(getattr(s, attr), fn))


def stmt_blocks(s: Stmt) -> list:
    """The nested statement lists of one statement (mutable, in place)."""
    return [getattr(s, a) for a in s.blocks]


def assigned_names(stmts) -> set:
    """Every local name stored to anywhere in a statement list (including
    loop variables and stores inside nested blocks)."""
    names: set = set()
    stack = list(stmts)
    while stack:
        s = stack.pop()
        if s.assigns is not None:
            names.add(getattr(s, s.assigns))
        for attr in s.blocks:
            stack.extend(getattr(s, attr))
    return names


def walk_exprs(node):
    """Yield every Expr in a statement list / expression tree (pre-order)."""
    stack = [node]
    push = stack.append
    while stack:
        node = stack.pop()
        if isinstance(node, Expr):
            yield node
            if node.kid_seq is not None:
                seq = getattr(node, node.kid_seq)
                stack.extend(reversed(seq.values() if type(seq) is dict else seq))
            for attr in reversed(node.kids):
                child = getattr(node, attr)
                if child is not None:
                    push(child)
        elif isinstance(node, Stmt):
            for attr in reversed(node.blocks):
                push(getattr(node, attr))
            for attr in reversed(node.slots):
                child = getattr(node, attr)
                if child is not None:
                    push(child)
        elif isinstance(node, list):
            stack.extend(reversed(node))
