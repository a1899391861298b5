"""Coding-rule checker (paper §3.2).

Two layers of checking exist:

* the *syntactic* checks in this module — applied to every ``@wootin`` class
  and method AST before lowering (ternary, reference equality, exception
  handling, parameter reassignment, constructor restrictions, static-field
  constancy, and the rest of rules 3, 5, 7, 8);
* the *typed* checks embedded in lowering and specialization — strict-final
  locals/returns (rule 2), array-only field mutation (semi-immutability,
  definition 3c), recursion (rule 6, detected on the specialization stack),
  and concrete-type determinability (rule 1/4, which manifests as a
  :class:`~repro.errors.TypeFlowError` when violated).

Everything raises :class:`~repro.errors.CodingRuleViolation` subclasses with
the paper's rule number attached.
"""

from __future__ import annotations

import ast

from repro.errors import CodingRuleViolation, NotSemiImmutable, NotStrictFinal
from repro.frontend.shapes import ArrayShape, ObjShape, PrimShape, Shape
from repro.frontend.source import SourceInfo, method_ast
from repro.lang import types as _t

__all__ = [
    "check_class",
    "check_method_source",
    "check_ctor_source",
    "check_strict_final_shape",
    "check_strict_final_class",
]

_BANNED_NAMES = frozenset(
    {
        "isinstance",
        "issubclass",
        "getattr",
        "setattr",
        "hasattr",
        "delattr",
        "eval",
        "exec",
        "type",
        "id",
        "open",
        "print",
        "input",
        "super",  # outside constructors
        "vars",
        "globals",
        "locals",
    }
)

# Node types banned by rule 8 (exceptions, reflection, threading, IO, ...)
# and by the general "no dynamic features" stance of the subset.
_BANNED_NODES: tuple[tuple[type, str, int], ...] = (
    (ast.IfExp, "the conditional operator (x if c else y)", 7),
    (ast.Try, "exception handling", 8),
    (ast.Raise, "raising exceptions", 8),
    (ast.With, "context managers", 8),
    (ast.Lambda, "lambda expressions", 8),
    (ast.ListComp, "comprehensions", 8),
    (ast.SetComp, "comprehensions", 8),
    (ast.DictComp, "comprehensions", 8),
    (ast.GeneratorExp, "generator expressions", 8),
    (ast.Yield, "generators", 8),
    (ast.YieldFrom, "generators", 8),
    (ast.Await, "async constructs", 8),
    (ast.AsyncFunctionDef, "async constructs", 8),
    (ast.Global, "global statements", 5),
    (ast.Nonlocal, "nonlocal statements", 8),
    (ast.Import, "imports inside methods", 8),
    (ast.ImportFrom, "imports inside methods", 8),
    (ast.ClassDef, "nested classes", 8),
    (ast.Delete, "del statements", 8),
    (ast.Starred, "starred expressions", 8),
    (ast.List, "list literals (arrays come from wj.zeros or parameters)", 8),
    (ast.Dict, "dict literals", 8),
    (ast.Set, "set literals", 8),
    (ast.Slice, "array slicing", 8),
    (ast.NamedExpr, "walrus assignments", 8),
    (ast.Assert, "assert statements", 8),
)
_BANNED_TYPES = tuple(ty for ty, _, _ in _BANNED_NODES)


def _violation(msg: str, rule: int, src: SourceInfo, node: ast.AST) -> CodingRuleViolation:
    return CodingRuleViolation(msg, rule=rule, where=src.where(node))


def _annotation_nodes(tree: ast.AST) -> set[int]:
    """ids of every AST node inside a type annotation (annotations are
    metadata, exempt from expression rules — e.g. ``-> None``)."""
    out: set[int] = set()
    for node in ast.walk(tree):
        anns = []
        if isinstance(node, ast.FunctionDef):
            anns.append(node.returns)
            for a in node.args.args:
                anns.append(a.annotation)
        elif isinstance(node, ast.AnnAssign):
            anns.append(node.annotation)
        for ann in anns:
            if ann is not None:
                out.update(id(n) for n in ast.walk(ann))
    return out


def _check_banned_constructs(src: SourceInfo, tree: ast.AST, *, in_ctor: bool) -> None:
    exempt = _annotation_nodes(tree)
    for node in ast.walk(tree):
        if id(node) in exempt:
            continue
        if isinstance(node, _BANNED_TYPES):
            what, rule = next((w, r) for ty, w, r in _BANNED_NODES
                              if isinstance(node, ty))
            raise _violation(f"{what} not allowed in translated code", rule, src, node)
        if isinstance(node, ast.Compare):
            for op in node.ops:
                if isinstance(op, (ast.Is, ast.IsNot)):
                    raise _violation(
                        "reference equality (is / is not) not allowed", 7, src, node
                    )
                if isinstance(op, (ast.In, ast.NotIn)):
                    raise _violation("membership tests not allowed", 8, src, node)
        if isinstance(node, ast.Constant):
            if node.value is None:
                raise _violation("the None literal is not allowed", 8, src, node)
            if isinstance(node.value, (bytes, complex)):
                raise _violation(
                    f"{type(node.value).__name__} literals not allowed", 8, src, node
                )
            if isinstance(node.value, str) and not _is_allowed_string(node):
                # strings are only allowed as constant labels of intrinsic
                # calls (wj.output) and as docstrings; lowering enforces
                # usage, here we only ban obviously-dynamic uses.
                pass
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            if node.id in _BANNED_NAMES and not (in_ctor and node.id == "super"):
                raise _violation(
                    f"use of {node.id!r} not allowed (reflection/IO/dynamic "
                    f"features are outside the subset)",
                    8,
                    src,
                    node,
                )
        if isinstance(node, ast.FunctionDef) and node is not tree:
            raise _violation("nested function definitions not allowed", 8, src, node)


def _is_allowed_string(node: ast.Constant) -> bool:
    return True  # usage-checked during lowering


def _param_names(tree: ast.FunctionDef) -> list[str]:
    args = tree.args
    if args.vararg or args.kwarg or args.kwonlyargs or args.posonlyargs:
        raise CodingRuleViolation(
            "only plain positional parameters are supported", rule=8
        )
    if args.defaults:
        raise CodingRuleViolation("default parameter values are not supported", rule=8)
    return [a.arg for a in args.args]


def check_method_source(src: SourceInfo) -> None:
    """Syntactic rule check for a non-constructor guest method (a pass is
    remembered on the cached ``SourceInfo``; a violation raises each time)."""
    if src.rules_passed == "method":
        return
    tree = src.tree
    _check_banned_constructs(src, tree, in_ctor=False)
    params = set(_param_names(tree))
    for node in ast.walk(tree):
        targets: list[ast.expr] = []
        if isinstance(node, ast.Assign):
            targets = node.targets
        elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
            targets = [node.target]
        elif isinstance(node, ast.For):
            targets = [node.target]
        for tgt in targets:
            if isinstance(tgt, ast.Name) and tgt.id in params:
                raise _violation(
                    f"method parameter {tgt.id!r} reassigned; all parameters "
                    f"are constant",
                    3,
                    src,
                    node,
                )
            if isinstance(tgt, ast.Tuple):
                raise _violation("tuple unpacking not allowed", 8, src, node)
    src.rules_passed = "method"


def check_ctor_source(src: SourceInfo) -> None:
    """Constructor restrictions (semi-immutability, definition 3d).

    Constructors must be straight-line: no branches, loops, ternaries, or
    method calls — except a single ``super().__init__(...)`` — and ``self``
    may appear only as the target of field initializations.  A pass is
    remembered on the cached ``SourceInfo``; a violation raises each time.
    """
    if src.rules_passed == "ctor":
        return
    tree = src.tree
    _check_banned_constructs(src, tree, in_ctor=True)
    params = _param_names(tree)
    if not params or params[0] != "self":
        raise CodingRuleViolation(
            "constructor must take self first", rule=0, where=src.where(tree)
        )
    for node in ast.walk(tree):
        if isinstance(node, (ast.If, ast.For, ast.While)):
            raise _violation(
                "conditional branches and loops are not allowed in "
                "constructors",
                0,
                src,
                node,
            )
        if isinstance(node, ast.Call):
            if _is_super_init_call(node):
                continue
            func = node.func
            # Allowed calls: constructing nested objects (Name callee that is
            # not a banned builtin) and primitive casts; ordinary *method*
            # calls are banned.  Typed validation happens during abstract
            # interpretation in lowering.
            if isinstance(func, ast.Attribute):
                if isinstance(func.value, ast.Call) and _is_super_call(func.value):
                    continue  # the __init__ attribute of super()
                raise _violation(
                    "method calls are not allowed in constructors",
                    0,
                    src,
                    node,
                )
    # self only as "self.field = ..." target or super().__init__ implicit
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and node.id == "self":
            if not _self_use_ok(tree, node):
                raise _violation(
                    "self may only be used as 'self.field = ...' in "
                    "constructors",
                    0,
                    src,
                    node,
                )
    src.rules_passed = "ctor"


def _self_use_ok(tree: ast.FunctionDef, name_node: ast.Name) -> bool:
    """self is OK when it is the value of an Attribute in a Store context
    (``self.f = ...``)."""
    for node in ast.walk(tree):
        if (
            isinstance(node, ast.Attribute)
            and node.value is name_node
            and isinstance(node.ctx, ast.Store)
        ):
            return True
    return False


def _is_super_call(node: ast.Call) -> bool:
    return (
        isinstance(node.func, ast.Name)
        and node.func.id == "super"
        and not node.args
        and not node.keywords
    )


def _is_super_init_call(node: ast.Call) -> bool:
    return (
        isinstance(node.func, ast.Attribute)
        and node.func.attr == "__init__"
        and isinstance(node.func.value, ast.Call)
        and _is_super_call(node.func.value)
    )


# ---------------------------------------------------------------------------
# Class-level checks
# ---------------------------------------------------------------------------

_checked_classes: set[int] = set()


def check_class(info: _t.ClassInfo) -> None:
    """Rule 5 (constant scalar static fields) + constructor checks.  Only a
    class that passed is remembered: a violation must raise on every
    attempt, not just the first."""
    if id(info) in _checked_classes:
        return
    for base in info.bases:
        check_class(base)
    for name, value in vars(info.pycls).items():
        if name.startswith("__") or callable(value) or name == "_abc_impl":
            continue
        if isinstance(value, (staticmethod, classmethod, property)):
            continue
        if not isinstance(value, (int, float, bool)):
            raise CodingRuleViolation(
                f"static field {info.name}.{name} must be a constant scalar "
                f"(int/float/bool); arrays and objects are not allowed",
                rule=5,
                where=info.qualname,
            )
    ctor = info.methods.get("__init__")
    if ctor is not None:
        check_ctor_source(method_ast(ctor.func))
    _checked_classes.add(id(info))


def check_strict_final_class(info: _t.ClassInfo, _stack: tuple = ()) -> None:
    """Static strict-final check from declared field types (used by rule 2
    diagnostics; the authoritative check is shape-based)."""
    if info in _stack:
        raise NotSemiImmutable(
            f"class {info.name} is recursively typed", rule=0, where=info.qualname
        )
    if not info.final:
        raise NotStrictFinal(
            f"class {info.name} has subclasses "
            f"({[c.name for c in info.subclasses]}) and is not strict-final",
            rule=2,
            where=info.qualname,
        )
    for fname, fty in info.all_field_decls().items():
        _check_strict_final_type(fty, f"{info.name}.{fname}", _stack + (info,))


def _check_strict_final_type(ty: _t.Type, where: str, stack: tuple) -> None:
    if isinstance(ty, _t.PrimType):
        return
    if isinstance(ty, _t.ArrayType):
        _check_strict_final_type(ty.elem, where, stack)
        return
    if isinstance(ty, _t.ClassType):
        check_strict_final_class(ty.info, stack)
        return
    raise NotStrictFinal(f"type {ty!r} at {where} is not strict-final", rule=2)


def check_strict_final_shape(shape: Shape, where: str) -> None:
    """Shape-based strict-final check: every object reachable from the shape
    must be of a leaf class (the authoritative rule-2 check, applied to
    locals, returns, and casts during lowering)."""
    if isinstance(shape, PrimShape):
        return
    if isinstance(shape, ArrayShape):
        return
    if isinstance(shape, ObjShape):
        if not shape.cls.final:
            raise NotStrictFinal(
                f"value at {where} has non-leaf class {shape.cls.name} "
                f"(subclasses: {[c.name for c in shape.cls.subclasses]}); "
                f"locals, returns, and casts must be strict-final",
                rule=2,
                where=where,
            )
        for fname, fshape in shape.fields.items():
            check_strict_final_shape(fshape, f"{where}.{fname}")
        return
    raise NotStrictFinal(f"unsupported shape at {where}", rule=2)
