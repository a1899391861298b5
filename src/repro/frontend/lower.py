"""Lowering: guest Python AST → typed, devirtualized IR.

This pass fuses the paper's "simple program analysis" (§3.3 Method calls)
with translation.  Because the JIT knows the concrete shape of the entry
receiver and arguments (from :mod:`repro.frontend.objectgraph`), and the
coding rules guarantee strict-final locals and branch-free constructors,
every expression's concrete type — and for semi-immutable state, its value —
can be computed while walking the AST:

* method calls are resolved against the receiver's concrete class and
  trigger on-demand *specialization* of the callee for the concrete argument
  shapes (devirtualization + monomorphization);
* constructors are abstractly interpreted into :class:`NewObj` field
  initializations (constructor inlining);
* loops are analyzed to a shape fixpoint so that values merged around back
  edges soundly lose constant/snapshot knowledge;
* the typed coding-rule checks (strict-final locals/returns, array-only
  field mutation, device/host intrinsic contexts) run inline.
"""

from __future__ import annotations

import ast
from typing import Optional

from repro.errors import CodingRuleViolation, LoweringError, TypeFlowError
from repro.frontend import ir
from repro.frontend import rules
from repro.frontend.shapes import (
    ArrayShape,
    ObjShape,
    PrimShape,
    Shape,
    merge_shapes,
    shapes_equal,
)
from repro.frontend.source import SourceInfo, method_ast
from repro.lang import types as _t
from repro.lang.annotations import ForeignFunction, is_global_kernel
from repro.lang.intrinsics import intrinsic_registry

__all__ = ["lower_method", "SpecializeRequest"]


class SpecializeRequest:
    """What lowering hands back to the JIT engine when it meets a call."""

    def __init__(self, minfo, self_shape, arg_shapes, device):
        self.minfo = minfo
        self.self_shape = self_shape
        self.arg_shapes = arg_shapes
        self.device = device


class _Env:
    """Mapping of local/parameter names to their current shapes."""

    def __init__(self, data: Optional[dict] = None):
        self.vars: dict[str, Shape] = dict(data or {})
        self.decl: dict[str, _t.Type] = {}

    def copy(self) -> "_Env":
        env = _Env(self.vars)
        env.decl = dict(self.decl)
        return env

    def merge_with(self, other: "_Env", where: str) -> "_Env":
        out = _Env()
        for name, shape in self.vars.items():
            if name in other.vars:
                out.vars[name] = merge_shapes(shape, other.vars[name], where=where)
        out.decl = {k: v for k, v in self.decl.items() if k in out.vars or k in other.decl}
        for k, v in other.decl.items():
            out.decl.setdefault(k, v)
        return out

    def same_as(self, other: "_Env") -> bool:
        if set(self.vars) != set(other.vars):
            return False
        return all(shapes_equal(self.vars[k], other.vars[k]) for k in self.vars)


class _LoopCtx:
    def __init__(self):
        self.break_envs: list[_Env] = []
        self.continue_envs: list[_Env] = []


class Lowerer:
    """Lowers one guest method for one concrete specialization."""

    def __init__(self, engine, minfo, self_shape: ObjShape, arg_shapes, *, device: bool):
        self.engine = engine  # SpecializeCtx: .specialize(...), .new_site_id()
        self.minfo = minfo
        self.self_shape = self_shape
        self.arg_shapes = list(arg_shapes)
        self.device = device
        self.src: SourceInfo = method_ast(minfo.func)
        rules.check_method_source(self.src)
        rules.check_class(minfo.owner)
        self.tree = self.src.tree
        self.ret_annotation = self._resolve_ret_annotation()
        self.ret_shape: Optional[Shape] = None
        self.ret_type: Optional[_t.Type] = None
        self.param_names: list[str] = []
        #: the Call/KernelLaunch nodes of the lowering that is kept, in
        #: creation order; ``lower`` numbers them when the method is done, so
        #: a loop-fixpoint trial that is thrown away consumes no site id
        self._sites: list[ir.Expr] = []

    # ------------------------------------------------------------------
    # helpers
    # ------------------------------------------------------------------

    def _err(self, msg: str, node=None) -> LoweringError:
        return LoweringError(msg, where=self.src.where(node))

    def _resolve_ret_annotation(self) -> Optional[_t.Type]:
        ann = self.minfo.func.__annotations__.get("return", _MISSING)
        if ann is _MISSING:
            return None
        return self.src.resolve_annotation(ann)

    def _resolve_static(self, name: str):
        """Resolve a non-local name against the guest function's globals."""
        g = self.src.globals
        if name in g:
            return g[name]
        import builtins

        return getattr(builtins, name, _MISSING)

    # ------------------------------------------------------------------
    # entry point
    # ------------------------------------------------------------------

    def lower(self) -> ir.FuncIR:
        args = self.tree.args.args
        if not args or args[0].arg != "self":
            raise self._err("guest methods must take self first")
        names = [a.arg for a in args[1:]]
        if len(names) != len(self.arg_shapes):
            raise self._err(
                f"{self.minfo} expects {len(names)} arguments, "
                f"got {len(self.arg_shapes)}"
            )
        env = _Env()
        env.vars["self"] = self.self_shape
        env.decl["self"] = self.self_shape.ty
        shaped_args = []
        for arg_node, shape in zip(args[1:], self.arg_shapes):
            ann = self.minfo.func.__annotations__.get(arg_node.arg, _MISSING)
            if ann is not _MISSING:
                decl_ty = self.src.resolve_annotation(ann)
                shape = self._conform_param(shape, decl_ty, arg_node.arg)
            env.vars[arg_node.arg] = shape
            env.decl[arg_node.arg] = shape.ty
            shaped_args.append(shape)
        self.param_names = [a.arg for a in args[1:]]
        self.arg_shapes = shaped_args

        body, _, terminated = self._lower_block(self.tree.body, env, None)
        if self.ret_type is None:
            self.ret_type = _t.VOID
            self.ret_shape = None
        if self.ret_type is not _t.VOID and not terminated:
            raise self._err(
                "method returns a value on some paths but falls off the end "
                "on others"
            )
        for call in self._sites:
            call.site_id = self.engine.new_site_id()
        return ir.FuncIR(
            symbol="",  # assigned by the specializer
            method=self.minfo,
            self_shape=self.self_shape,
            param_names=self.param_names,
            param_shapes=self.arg_shapes,
            ret_type=self.ret_type,
            ret_shape=self.ret_shape,
            body=body,
            is_device=self.device,
            is_kernel=is_global_kernel(self.minfo.func),
        )

    def _conform_param(self, shape: Shape, decl_ty: _t.Type, pname: str) -> Shape:
        """Check/convert an argument shape against the declared parameter
        type (numeric conversion is the caller's job; here we validate)."""
        if isinstance(decl_ty, _t.PrimType):
            if not isinstance(shape, PrimShape):
                raise self._err(f"parameter {pname}: expected {decl_ty}, got {shape!r}")
            if shape.ty is not decl_ty:
                const = decl_ty(shape.const) if shape.const is not None else None
                return PrimShape(decl_ty, const=const)
            return shape
        if isinstance(decl_ty, _t.ArrayType):
            if not isinstance(shape, ArrayShape) or shape.ty is not decl_ty:
                raise self._err(
                    f"parameter {pname}: expected {decl_ty!r}, got {shape!r}"
                )
            return shape
        if isinstance(decl_ty, _t.ClassType):
            if not isinstance(shape, ObjShape) or not shape.cls.is_subclass_of(
                decl_ty.info
            ):
                raise self._err(
                    f"parameter {pname}: expected (a subclass of) "
                    f"{decl_ty.info.name}, got {shape!r}"
                )
            return shape
        raise self._err(f"parameter {pname}: unsupported declared type {decl_ty!r}")

    # ------------------------------------------------------------------
    # statements
    # ------------------------------------------------------------------

    def _lower_block(self, stmts, env: _Env, loop: Optional[_LoopCtx]):
        """Returns (ir_stmts, env, terminated)."""
        out: list[ir.Stmt] = []
        terminated = False
        for i, stmt in enumerate(stmts):
            if terminated:
                raise self._err("unreachable code after return/break/continue", stmt)
            if (
                i == 0
                and isinstance(stmt, ast.Expr)
                and isinstance(stmt.value, ast.Constant)
                and isinstance(stmt.value.value, str)
            ):
                continue  # docstring
            lowered, terminated = self._lower_stmt(stmt, env, loop)
            out.extend(lowered)
        return out, env, terminated

    def _lower_stmt(self, stmt, env: _Env, loop: Optional[_LoopCtx]):
        if isinstance(stmt, ast.Assign):
            if len(stmt.targets) != 1:
                raise self._err("chained assignment not supported", stmt)
            return self._lower_assign(stmt.targets[0], stmt.value, env, node=stmt), False
        if isinstance(stmt, ast.AnnAssign):
            if stmt.value is None:
                raise self._err("bare annotations not supported in methods", stmt)
            decl = self.src.resolve_annotation(
                ast.unparse(stmt.annotation)
                if isinstance(stmt.annotation, ast.AST)
                else stmt.annotation
            )
            return (
                self._lower_assign(stmt.target, stmt.value, env, node=stmt, decl=decl),
                False,
            )
        if isinstance(stmt, ast.AugAssign):
            op = _BINOPS.get(type(stmt.op))
            if op is None:
                raise self._err("unsupported augmented assignment operator", stmt)
            load_tgt = _as_load(stmt.target)
            bin_node = ast.BinOp(left=load_tgt, op=stmt.op, right=stmt.value)
            ast.copy_location(bin_node, stmt)
            ast.fix_missing_locations(bin_node)
            return self._lower_assign(stmt.target, bin_node, env, node=stmt), False
        if isinstance(stmt, ast.If):
            return self._lower_if(stmt, env, loop)
        if isinstance(stmt, ast.For):
            return self._lower_for(stmt, env)
        if isinstance(stmt, ast.While):
            return self._lower_while(stmt, env)
        if isinstance(stmt, ast.Return):
            return self._lower_return(stmt, env)
        if isinstance(stmt, ast.Expr):
            expr = self._lower_expr(stmt.value, env)
            return [ir.ExprStmt(expr)], False
        if isinstance(stmt, ast.Break):
            if loop is None:
                raise self._err("break outside loop", stmt)
            loop.break_envs.append(env.copy())
            return [ir.Break()], True
        if isinstance(stmt, ast.Continue):
            if loop is None:
                raise self._err("continue outside loop", stmt)
            loop.continue_envs.append(env.copy())
            return [ir.Continue()], True
        if isinstance(stmt, ast.Pass):
            return [], False
        raise self._err(
            f"unsupported statement {type(stmt).__name__}", stmt
        )

    def _lower_assign(self, target, value_node, env: _Env, *, node, decl=None):
        value = self._lower_expr(value_node, env)
        if isinstance(target, ast.Name):
            name = target.id
            if name in env.decl and name not in env.vars:
                # dropped at a merge: conditionally-assigned local being
                # re-established; treat as fresh declaration
                del env.decl[name]
            if name not in env.decl:
                decl_ty = decl if decl is not None else value.ty
                if decl_ty is _t.VOID:
                    raise self._err("cannot assign a void expression", node)
                value = self._convert(value, decl_ty, node)
                rules.check_strict_final_shape(value.shape, f"local {name!r}")
                env.decl[name] = decl_ty
                env.vars[name] = value.shape
                return [ir.LocalDecl(name, decl_ty, value)]
            decl_ty = env.decl[name]
            if decl is not None and decl is not decl_ty:
                raise self._err(
                    f"local {name!r} re-annotated with a different type", node
                )
            value = self._convert(value, decl_ty, node)
            rules.check_strict_final_shape(value.shape, f"local {name!r}")
            env.vars[name] = value.shape
            return [ir.Assign(name, decl_ty, value)]
        if isinstance(target, ast.Subscript):
            arr = self._lower_expr(target.value, env)
            if not isinstance(arr.ty, _t.ArrayType):
                raise self._err("subscript store on a non-array value", node)
            index = self._convert(self._lower_expr(target.slice, env), _t.I64, node)
            value = self._convert(value, arr.ty.elem, node)
            return [ir.ArrayStore(arr, index, value)]
        if isinstance(target, ast.Attribute):
            obj = self._lower_expr(target.value, env)
            if not isinstance(obj.shape, ObjShape):
                raise self._err("attribute store on a non-object value", node)
            fshape = obj.shape.field(target.attr)
            if not isinstance(fshape, ArrayShape):
                raise CodingRuleViolation(
                    f"store to non-array field {target.attr!r}: semi-immutable "
                    f"objects allow mutation of array-typed fields only",
                    rule=1,
                    where=self.src.where(node),
                )
            if not obj.shape.from_snapshot:
                raise CodingRuleViolation(
                    f"array-field store to {target.attr!r} on a locally-"
                    f"constructed object: copies are passed by value, so the "
                    f"store would be invisible to the caller; mutate fields "
                    f"reachable from the entry receiver instead",
                    rule=1,
                    where=self.src.where(node),
                )
            if value.ty is not fshape.ty:
                raise self._err(
                    f"type mismatch storing to field {target.attr!r}: "
                    f"{value.ty!r} into {fshape.ty!r}",
                    node,
                )
            return [ir.FieldStore(obj, target.attr, value)]
        raise self._err("unsupported assignment target", node)

    def _lower_if(self, stmt: ast.If, env: _Env, loop):
        cond = self._lower_expr(stmt.test, env)
        cond = self._to_bool(cond, stmt)
        then_env = env.copy()
        then_body, then_env, then_term = self._lower_block(stmt.body, then_env, loop)
        else_env = env.copy()
        else_body, else_env, else_term = self._lower_block(stmt.orelse, else_env, loop)
        if then_term and else_term:
            merged, terminated = env, True  # join unreachable; keep env as-is
        elif then_term:
            merged, terminated = else_env, False
        elif else_term:
            merged, terminated = then_env, False
        else:
            merged = then_env.merge_with(else_env, where=self.src.where(stmt))
            terminated = False
        env.vars = merged.vars
        env.decl = merged.decl
        return [ir.If(cond, then_body, else_body)], terminated

    def _loop_fixpoint(self, body_stmts, env: _Env, seed_fn):
        """Iterate lowering the loop body until shapes stabilize.

        ``seed_fn(env)`` installs loop-carried bindings (the for-loop
        variable).  Returns (stable entry env, body_ir, loop_ctx) — the
        body and loop context of the trial that proved ``entry`` stable:
        that trial *was* the lowering under the final environment.
        """
        entry = env.copy()
        seed_fn(entry)
        for _ in range(64):
            trial = entry.copy()
            loop = _LoopCtx()
            n_sites = len(self._sites)
            body_ir, _, _ = self._lower_block(body_stmts, trial, loop)
            merged = entry
            for cont_env in loop.continue_envs + [trial]:
                merged = merged.merge_with(cont_env, where="loop back-edge")
            seed_fn(merged)
            if merged.same_as(entry):
                return entry, body_ir, loop
            del self._sites[n_sites:]  # a discarded trial numbers no site
            entry = merged
        raise TypeFlowError(  # pragma: no cover - lattice depth is tiny
            "loop shape analysis did not converge")

    def _lower_for(self, stmt: ast.For, env: _Env):
        if stmt.orelse:
            raise self._err("for-else not supported", stmt)
        if not (
            isinstance(stmt.iter, ast.Call)
            and isinstance(stmt.iter.func, ast.Name)
            and stmt.iter.func.id == "range"
        ):
            raise self._err("for loops iterate over range(...) only", stmt)
        if not isinstance(stmt.target, ast.Name):
            raise self._err("for-loop target must be a simple name", stmt)
        var = stmt.target.id
        rargs = [self._convert(self._lower_expr(a, env), _t.I64, stmt) for a in stmt.iter.args]
        if len(rargs) == 1:
            start, stop, step = ir.Const(0, _t.I64), rargs[0], None
        elif len(rargs) == 2:
            start, stop, step = rargs[0], rargs[1], None
        elif len(rargs) == 3:
            start, stop, step = rargs
        else:
            raise self._err("range() takes 1-3 arguments", stmt)
        if var in env.decl and env.decl[var] is not _t.I64:
            raise self._err(f"loop variable {var!r} conflicts with a local", stmt)

        def seed(e: _Env):
            e.vars[var] = PrimShape(_t.I64)
            e.decl[var] = _t.I64

        entry, body_ir, loop = self._loop_fixpoint(stmt.body, env, seed)
        post = entry
        for benv in loop.break_envs:
            post = post.merge_with(benv, where="loop exit")
        env.vars = post.vars
        env.decl = post.decl
        return [ir.ForRange(var, start, stop, step, body_ir)], False

    def _lower_while(self, stmt: ast.While, env: _Env):
        if stmt.orelse:
            raise self._err("while-else not supported", stmt)
        entry, body_ir, loop = self._loop_fixpoint(stmt.body, env, lambda e: None)
        cond_env = entry.copy()
        cond = self._to_bool(self._lower_expr(stmt.test, cond_env), stmt)
        post = entry
        for benv in loop.break_envs:
            post = post.merge_with(benv, where="loop exit")
        env.vars = post.vars
        env.decl = post.decl
        return [ir.While(cond, body_ir)], False

    def _lower_return(self, stmt: ast.Return, env: _Env):
        if stmt.value is None:
            value = None
            ty: _t.Type = _t.VOID
            shape = None
        else:
            value = self._lower_expr(stmt.value, env)
            if self.ret_annotation is not None and isinstance(
                self.ret_annotation, _t.PrimType
            ):
                value = self._convert(value, self.ret_annotation, stmt)
            ty = value.ty
            shape = value.shape
            if shape is not None:
                rules.check_strict_final_shape(shape, "return value")
        if self.ret_type is None:
            self.ret_type = ty
            self.ret_shape = shape
        else:
            if (self.ret_type is _t.VOID) != (ty is _t.VOID):
                raise self._err("mixing value and bare returns", stmt)
            if ty is not _t.VOID:
                if isinstance(ty, _t.PrimType) and isinstance(self.ret_type, _t.PrimType):
                    if ty is not self.ret_type:
                        value = self._convert(value, self.ret_type, stmt)
                        ty, shape = value.ty, value.shape
                self.ret_shape = merge_shapes(self.ret_shape, shape, where="return")
                if self.ret_type is not ty:
                    raise self._err(
                        f"conflicting return types {self.ret_type!r} vs {ty!r}", stmt
                    )
        return [ir.Return(value)], True

    # ------------------------------------------------------------------
    # expressions
    # ------------------------------------------------------------------

    def _lower_expr(self, node, env: _Env) -> ir.Expr:
        if isinstance(node, ast.Constant):
            return self._lower_const(node)
        if isinstance(node, ast.Name):
            return self._lower_name(node, env)
        if isinstance(node, ast.Attribute):
            return self._lower_attribute(node, env)
        if isinstance(node, ast.BinOp):
            return self._lower_binop(node, env)
        if isinstance(node, ast.UnaryOp):
            return self._lower_unary(node, env)
        if isinstance(node, ast.Compare):
            return self._lower_compare(node, env)
        if isinstance(node, ast.BoolOp):
            values = [self._to_bool(self._lower_expr(v, env), node) for v in node.values]
            op = "and" if isinstance(node.op, ast.And) else "or"
            return ir.BoolOp(op, values)
        if isinstance(node, ast.Call):
            return self._lower_call(node, env)
        if isinstance(node, ast.Subscript):
            arr = self._lower_expr(node.value, env)
            if not isinstance(arr.ty, _t.ArrayType):
                raise self._err("subscript on a non-array value", node)
            index = self._convert(self._lower_expr(node.slice, env), _t.I64, node)
            return ir.ArrayLoad(arr, index)
        raise self._err(f"unsupported expression {type(node).__name__}", node)

    def _lower_const(self, node: ast.Constant) -> ir.Expr:
        v = node.value
        if isinstance(v, bool):
            return ir.Const(v, _t.BOOL)
        if isinstance(v, int):
            return ir.Const(v, _t.I64)
        if isinstance(v, float):
            return ir.Const(v, _t.F64)
        raise self._err(
            f"unsupported literal {v!r} (strings may appear only as intrinsic "
            f"labels)",
            node,
        )

    def _lower_name(self, node: ast.Name, env: _Env) -> ir.Expr:
        name = node.id
        if name in env.vars:
            shape = env.vars[name]
            return ir.LocalRef(name, shape.ty, shape)
        obj = self._resolve_static(name)
        if obj is _MISSING:
            raise self._err(f"unknown name {name!r}", node)
        if isinstance(obj, bool):
            return ir.Const(obj, _t.BOOL)
        if isinstance(obj, int):
            return ir.Const(obj, _t.I64)
        if isinstance(obj, float):
            return ir.Const(obj, _t.F64)
        raise self._err(
            f"name {name!r} resolves to {type(obj).__name__}, which cannot be "
            f"used as a value here",
            node,
        )

    def _lower_attribute(self, node: ast.Attribute, env: _Env) -> ir.Expr:
        # object field load / static class attribute
        base = node.value
        if isinstance(base, ast.Name) and base.id not in env.vars:
            static = self._resolve_static(base.id)
            if isinstance(static, type) and _t.wootin_info(static) is not None:
                value = getattr(static, node.attr, _MISSING)
                if value is _MISSING or not isinstance(value, (bool, int, float)):
                    raise self._err(
                        f"{base.id}.{node.attr} is not a constant static field",
                        node,
                    )
                return self._const_of(value)
        obj = self._lower_expr(base, env)
        if not isinstance(obj.shape, ObjShape):
            raise self._err(
                f"attribute access {node.attr!r} on non-object value", node
            )
        if node.attr in obj.shape.fields:
            return ir.FieldLoad(obj, node.attr)
        # fall back to a class-level constant (static field, rule 5)
        value = getattr(obj.shape.cls.pycls, node.attr, _MISSING)
        if isinstance(value, (bool, int, float)):
            return self._const_of(value)
        raise self._err(
            f"class {obj.shape.cls.name} has no field or constant "
            f"{node.attr!r}",
            node,
        )

    def _const_of(self, value) -> ir.Const:
        if isinstance(value, bool):
            return ir.Const(value, _t.BOOL)
        if isinstance(value, int):
            return ir.Const(value, _t.I64)
        return ir.Const(value, _t.F64)

    def _lower_binop(self, node: ast.BinOp, env: _Env) -> ir.Expr:
        op = _BINOPS.get(type(node.op))
        if op is None:
            raise self._err(
                f"unsupported operator {type(node.op).__name__}", node
            )
        left = self._lower_expr(node.left, env)
        right = self._lower_expr(node.right, env)
        for side in (left, right):
            if not (isinstance(side.ty, _t.PrimType) and side.ty is not _t.BOOL):
                raise self._err(
                    f"operator {op!r} needs numeric operands, got {side.ty!r}",
                    node,
                )
        if op == "/":
            res = _t.F64
        elif op == "**":
            res = _t.F64
        else:
            res = _t.promote(left.ty, right.ty)
        out = ir.BinOp(op, left, right, res)
        # constant folding (the paper folds immutable field values; folding
        # arithmetic on them lets grid strides become literals)
        ls, rs = left.shape, right.shape
        if (
            isinstance(ls, PrimShape)
            and isinstance(rs, PrimShape)
            and ls.const is not None
            and rs.const is not None
        ):
            try:
                folded = _fold_binop(op, ls.const, rs.const, res)
            except (ZeroDivisionError, OverflowError, ValueError):
                folded = None
            if folded is not None:
                out.shape = PrimShape(res, const=folded)
        return out

    def _lower_unary(self, node: ast.UnaryOp, env: _Env) -> ir.Expr:
        operand = self._lower_expr(node.operand, env)
        if isinstance(node.op, ast.USub):
            if not isinstance(operand.ty, _t.PrimType) or operand.ty is _t.BOOL:
                raise self._err("unary minus needs a numeric operand", node)
            out = ir.UnaryOp("-", operand, operand.ty)
            s = operand.shape
            if isinstance(s, PrimShape) and s.const is not None:
                out.shape = PrimShape(operand.ty, const=operand.ty(-s.const))
            return out
        if isinstance(node.op, ast.UAdd):
            return operand
        if isinstance(node.op, ast.Not):
            operand = self._to_bool(operand, node)
            return ir.UnaryOp("not", operand, _t.BOOL)
        raise self._err(f"unsupported unary operator", node)

    def _lower_compare(self, node: ast.Compare, env: _Env) -> ir.Expr:
        operands = [self._lower_expr(x, env) for x in [node.left] + node.comparators]
        parts = []
        for i, op_node in enumerate(node.ops):
            op = _CMPOPS.get(type(op_node))
            if op is None:
                raise self._err(
                    f"unsupported comparison {type(op_node).__name__}", node
                )
            l, r = operands[i], operands[i + 1]
            for side in (l, r):
                if not isinstance(side.ty, _t.PrimType):
                    raise self._err("comparisons need primitive operands", node)
            parts.append(ir.Compare(op, l, r))
        if len(parts) == 1:
            return parts[0]
        return ir.BoolOp("and", parts)

    def _to_bool(self, expr: ir.Expr, node) -> ir.Expr:
        if expr.ty is _t.BOOL:
            return expr
        if isinstance(expr.ty, _t.PrimType):
            zero = ir.Const(0, expr.ty) if not expr.ty.is_float else ir.Const(0.0, expr.ty)
            return ir.Compare("!=", expr, zero)
        raise self._err("condition must be a primitive value", node)

    def _convert(self, expr: ir.Expr, to_ty: _t.Type, node) -> ir.Expr:
        if expr.ty is to_ty:
            return expr
        if isinstance(to_ty, _t.PrimType) and isinstance(expr.ty, _t.PrimType):
            if to_ty is _t.BOOL or expr.ty is _t.BOOL:
                raise self._err(
                    f"no implicit conversion between {expr.ty!r} and {to_ty!r}",
                    node,
                )
            if isinstance(expr, ir.Const):
                return ir.Const(to_ty(expr.value), to_ty)
            return ir.Cast(expr, to_ty)
        if isinstance(to_ty, _t.ClassType) and isinstance(expr.ty, _t.ClassType):
            if expr.ty.info.is_subclass_of(to_ty.info):
                return expr  # upcast: representation is shape-driven
        raise self._err(f"cannot convert {expr.ty!r} to {to_ty!r}", node)

    # ------------------------------------------------------------------
    # calls
    # ------------------------------------------------------------------

    def _attr_chain(self, node) -> Optional[tuple[str, tuple[str, ...]]]:
        """Decompose Attribute chains rooted at a Name: a.b.c -> ('a', ('b','c'))."""
        path: list[str] = []
        cur = node
        while isinstance(cur, ast.Attribute):
            path.append(cur.attr)
            cur = cur.value
        if isinstance(cur, ast.Name):
            return cur.id, tuple(reversed(path))
        return None

    def _lower_call(self, node: ast.Call, env: _Env) -> ir.Expr:
        if node.keywords:
            raise self._err("keyword arguments not supported", node)
        func = node.func
        # --- plain-name calls: casts, constructors, builtins, FFI ---------
        if isinstance(func, ast.Name):
            return self._lower_name_call(node, func.id, env)
        if not isinstance(func, ast.Attribute):
            raise self._err("unsupported call form", node)
        # --- intrinsic roots (MPI.x, cuda.x, wjmath.x, math.x, wj.x) ------
        chain = self._attr_chain(func)
        if chain is not None:
            root_name, path = chain
            if root_name not in env.vars:
                root = self._resolve_static(root_name)
                if root is not _MISSING and intrinsic_registry.is_intrinsic_root(root):
                    spec = intrinsic_registry.lookup(root, path)
                    if spec is None:
                        raise self._err(
                            f"unknown intrinsic {root_name}.{'.'.join(path)}",
                            node,
                        )
                    return self._lower_intrinsic(spec, node, env)
                if isinstance(root, ForeignFunction) and not path:
                    pass  # handled as Name call; unreachable here
        # --- guest method call --------------------------------------------
        recv = self._lower_expr(func.value, env)
        if not isinstance(recv.shape, ObjShape):
            raise self._err(
                f"method call {func.attr!r} on non-object value of type "
                f"{recv.ty!r}",
                node,
            )
        return self._lower_method_call(recv, func.attr, node, env)

    def _lower_name_call(self, node: ast.Call, name: str, env: _Env) -> ir.Expr:
        args_nodes = node.args
        if name in env.vars:
            raise self._err(f"cannot call local value {name!r}", node)
        obj = self._resolve_static(name)
        if isinstance(obj, _t.PrimType):
            if len(args_nodes) != 1:
                raise self._err(f"{name}() takes one argument", node)
            value = self._lower_expr(args_nodes[0], env)
            if not isinstance(value.ty, _t.PrimType):
                raise self._err("cast of a non-primitive value", node)
            return ir.Cast(value, obj)
        if obj is float or obj is int:
            to = _t.F64 if obj is float else _t.I64
            if len(args_nodes) != 1:
                raise self._err(f"{name}() takes one argument", node)
            value = self._lower_expr(args_nodes[0], env)
            return ir.Cast(value, to)
        if obj is len:
            if len(args_nodes) != 1:
                raise self._err("len() takes one argument", node)
            arr = self._lower_expr(args_nodes[0], env)
            if not isinstance(arr.ty, _t.ArrayType):
                raise self._err("len() of a non-array value", node)
            return ir.ArrayLen(arr)
        if obj is abs or obj is min or obj is max:
            return self._lower_builtin_math(name, obj, args_nodes, node, env)
        if isinstance(obj, ForeignFunction):
            spec = intrinsic_registry.lookup(obj, ())
            return self._lower_ffi(spec, obj, node, env)
        if isinstance(obj, type):
            info = _t.wootin_info(obj)
            if info is not None:
                args = [self._lower_expr(a, env) for a in args_nodes]
                return self._lower_new(info, args, node)
        raise self._err(f"cannot call {name!r}", node)

    def _lower_builtin_math(self, name, obj, args_nodes, node, env) -> ir.Expr:
        args = [self._lower_expr(a, env) for a in args_nodes]
        for a in args:
            if not isinstance(a.ty, _t.PrimType) or a.ty is _t.BOOL:
                raise self._err(f"{name}() needs numeric arguments", node)
        if obj is abs:
            if len(args) != 1:
                raise self._err("abs() takes one argument", node)
            res = args[0].ty
            return ir.IntrinsicCall("builtin.abs", args, res)
        if len(args) != 2:
            raise self._err(f"{name}() takes exactly two arguments here", node)
        res = _t.promote(args[0].ty, args[1].ty)
        args = [self._convert(a, res, node) for a in args]
        return ir.IntrinsicCall(f"builtin.{name}", args, res)

    def _lower_ffi(self, spec, ff: ForeignFunction, node: ast.Call, env: _Env) -> ir.Expr:
        args = [self._lower_expr(a, env) for a in node.args]
        if len(args) != len(ff.param_types):
            raise self._err(
                f"foreign {ff.name} expects {len(ff.param_types)} args", node
            )
        conv = []
        for a, ty in zip(args, ff.param_types):
            if isinstance(ty, _t.PrimType):
                conv.append(self._convert(a, ty, node))
            else:
                if a.ty is not ty:
                    raise self._err(
                        f"foreign {ff.name}: expected {ty!r}, got {a.ty!r}", node
                    )
                conv.append(a)
        return ir.IntrinsicCall(spec.key, conv, ff.ret_type, const_args=(ff,))

    def _lower_intrinsic(self, spec, node: ast.Call, env: _Env) -> ir.Expr:
        # split compile-time-constant head arguments from runtime arguments
        const_args = []
        rt_nodes = list(node.args)
        for _ in range(spec.const_head):
            if not rt_nodes:
                raise self._err(f"{spec.key}: missing constant argument", node)
            cnode = rt_nodes.pop(0)
            const_args.append(self._lower_const_arg(cnode, spec, node))
        args = [self._lower_expr(a, env) for a in rt_nodes]
        if self.device and spec.key.startswith("mpi."):
            raise self._err("MPI calls are not allowed inside GPU kernels", node)
        if not self.device and spec.key.startswith("cuda.tid"):
            raise self._err(
                f"{spec.key} is only meaningful inside @global_kernel code",
                node,
            )
        ret_inputs = list(const_args) + [a.ty for a in args]
        ret = spec.ret_type(ret_inputs)
        # numeric conversion for math intrinsics: everything goes through f64
        if spec.key.startswith("math."):
            args = [self._convert(a, _t.F64, node) for a in args]
        return ir.IntrinsicCall(spec.key, args, ret, const_args=tuple(const_args))

    def _lower_const_arg(self, cnode, spec, node):
        if isinstance(cnode, ast.Constant) and isinstance(cnode.value, str):
            return cnode.value
        if isinstance(cnode, ast.Name):
            obj = self._resolve_static(cnode.id)
            if isinstance(obj, _t.PrimType):
                return obj
        raise self._err(
            f"{spec.key}: argument must be a compile-time constant (string "
            f"label or primitive type)",
            node,
        )

    def _lower_method_call(self, recv: ir.Expr, mname: str, node: ast.Call, env: _Env) -> ir.Expr:
        shape: ObjShape = recv.shape
        minfo = shape.cls.find_method(mname)
        if minfo is None:
            raise self._err(
                f"class {shape.cls.name} has no method {mname!r}", node
            )
        args = [self._lower_expr(a, env) for a in node.args]
        args = self._conform_args(minfo, args, node)
        arg_shapes = [a.shape for a in args]
        if is_global_kernel(minfo.func):
            if self.device:
                raise self._err(
                    "kernel launch inside device code is not supported", node
                )
            if not args:
                raise self._err(
                    "@global_kernel methods take a CudaConfig first", node
                )
            config = args[0]
            from repro.cuda.dim import CudaConfig  # local import: avoid cycle

            cfg_info = _t.wootin_info(CudaConfig)
            if not (
                isinstance(config.shape, ObjShape)
                and config.shape.cls.is_subclass_of(cfg_info)
            ):
                raise self._err(
                    "first argument of a kernel launch must be a CudaConfig",
                    node,
                )
            # the kernel is specialized with its full signature (including
            # the CudaConfig parameter, which the body may read but the
            # launch machinery interprets)
            target = self.engine.specialize(minfo, shape, arg_shapes, device=True)
            if target.ret_type is not _t.VOID:
                raise self._err("@global_kernel methods must return None", node)
            launch = ir.KernelLaunch(
                target=target, recv=recv, config=config, args=args,
                site_id=-1, method_name=mname,
            )
            self._sites.append(launch)
            return launch
        from repro.lang.annotations import is_device_fn

        if is_device_fn(minfo.func) and not self.device:
            raise self._err(
                f"{shape.cls.name}.{mname} is marked @device_fn and may only "
                f"be called from GPU kernel code",
                node,
            )
        target = self.engine.specialize(minfo, shape, arg_shapes, device=self.device)
        static_cls = _dispatch_interface(shape.cls, mname)
        call = ir.Call(
            target=target, recv=recv, args=args, site_id=-1,
            static_cls=static_cls, method_name=mname,
        )
        self._sites.append(call)
        return call

    def _conform_args(self, minfo, args, node):
        """Apply declared-parameter numeric conversions at the call site."""
        hints = getattr(minfo.func, "__annotations__", {})
        src = method_ast(minfo.func)
        pnames = [a.arg for a in src.tree.args.args][1:]
        if len(pnames) != len(args):
            raise self._err(
                f"{minfo} expects {len(pnames)} arguments, got {len(args)}",
                node,
            )
        out = []
        for pname, arg in zip(pnames, args):
            ann = hints.get(pname, _MISSING)
            if ann is not _MISSING:
                ty = src.resolve_annotation(ann)
                if isinstance(ty, _t.PrimType):
                    arg = self._convert(arg, ty, node)
            out.append(arg)
        return out

    # ------------------------------------------------------------------
    # constructor abstract interpretation (NewObj)
    # ------------------------------------------------------------------

    def _lower_new(self, info: _t.ClassInfo, args: list, node) -> ir.Expr:
        rules.check_class(info)
        field_inits: dict[str, ir.Expr] = {}
        self._interp_ctor(info, args, field_inits, node, depth=0)
        fields = {name: e.shape for name, e in field_inits.items()}
        obj_shape = ObjShape(info, fields, root_path=None)
        return ir.NewObj(info, field_inits, obj_shape)

    def _interp_ctor(self, info: _t.ClassInfo, args, field_inits, node, depth):
        if depth > 32:
            raise self._err("constructor chain too deep", node)
        ctor = info.find_method("__init__")
        if ctor is None:
            if args:
                raise self._err(
                    f"{info.name} has no constructor but got arguments", node
                )
            return
        src = method_ast(ctor.func)
        rules.check_ctor_source(src)
        pnames = [a.arg for a in src.tree.args.args][1:]
        if len(pnames) != len(args):
            raise self._err(
                f"{info.name}() expects {len(pnames)} arguments, got {len(args)}",
                node,
            )
        hints = getattr(ctor.func, "__annotations__", {})
        subst: dict[str, ir.Expr] = {}
        for pname, arg in zip(pnames, args):
            ann = hints.get(pname, _MISSING)
            if ann is not _MISSING:
                ty = src.resolve_annotation(ann)
                if isinstance(ty, _t.PrimType):
                    arg = self._convert(arg, ty, node)
                elif isinstance(ty, _t.ClassType):
                    if not (
                        isinstance(arg.shape, ObjShape)
                        and arg.shape.cls.is_subclass_of(ty.info)
                    ):
                        raise self._err(
                            f"{info.name}() parameter {pname!r}: expected "
                            f"{ty.info.name}, got {arg.ty!r}",
                            node,
                        )
            subst[pname] = arg
        for stmt in src.tree.body:
            self._interp_ctor_stmt(ctor, stmt, subst, field_inits, node, depth)

    def _interp_ctor_stmt(self, ctor, stmt, subst, field_inits, node, depth):
        if (
            isinstance(stmt, ast.Expr)
            and isinstance(stmt.value, ast.Constant)
            and isinstance(stmt.value.value, str)
        ):
            return  # docstring
        if isinstance(stmt, ast.Expr) and isinstance(stmt.value, ast.Call):
            call = stmt.value
            if (
                isinstance(call.func, ast.Attribute)
                and call.func.attr == "__init__"
                and isinstance(call.func.value, ast.Call)
                and isinstance(call.func.value.func, ast.Name)
                and call.func.value.func.id == "super"
            ):
                owner = ctor.owner
                if not owner.bases:
                    raise self._err(
                        f"super().__init__ in {owner.name} but no @wootin base",
                        node,
                    )
                base = owner.bases[0]
                sup_args = [self._interp_ctor_expr(a, subst, node) for a in call.args]
                self._interp_ctor(base, sup_args, field_inits, node, depth + 1)
                return
            raise self._err("calls in constructors are limited to super().__init__", node)
        if isinstance(stmt, (ast.Assign, ast.AnnAssign)):
            target = stmt.targets[0] if isinstance(stmt, ast.Assign) else stmt.target
            if isinstance(stmt, ast.Assign) and len(stmt.targets) != 1:
                raise self._err("chained assignment in constructor", node)
            value = self._interp_ctor_expr(stmt.value, subst, node)
            if isinstance(target, ast.Attribute) and isinstance(target.value, ast.Name) and target.value.id == "self":
                fname = target.attr
                decl = ctor.owner.all_field_decls().get(fname)
                if decl is not None and isinstance(decl, _t.PrimType):
                    value = self._convert(value, decl, node)
                field_inits[fname] = value
                return
            if isinstance(target, ast.Name):
                subst[target.id] = value
                return
            raise self._err("unsupported constructor assignment target", node)
        if isinstance(stmt, ast.Pass):
            return
        raise self._err(
            f"unsupported constructor statement {type(stmt).__name__}", node
        )

    def _interp_ctor_expr(self, expr_node, subst, node) -> ir.Expr:
        """Lower a constructor expression with parameters substituted by the
        caller's argument expressions (constructor inlining)."""
        env = _Env()
        # wrap substitution as a pseudo-env by pre-binding names to shapes and
        # replacing LocalRefs afterwards
        for name, e in subst.items():
            env.vars[name] = e.shape
            env.decl[name] = e.ty
        lowered = self._lower_expr(expr_node, env)
        return _substitute_locals(lowered, subst)


def _substitute_locals(expr: ir.Expr, subst: dict) -> ir.Expr:
    """Replace LocalRef leaves by the bound expressions (ctor inlining)."""
    return ir.map_expr(expr, lambda e: subst.get(e.name, e)
                       if isinstance(e, ir.LocalRef) else e)


def _dispatch_interface(cls: _t.ClassInfo, mname: str) -> _t.ClassInfo:
    """The topmost ancestor declaring ``mname`` — the paper's dispatch
    interface for the virtual-call comparator mode."""
    best = cls
    cur = cls
    stack = [cls]
    while stack:
        cur = stack.pop()
        if mname in cur.methods:
            best = cur
        stack.extend(cur.bases)
    return best


def _fold_binop(op: str, a, b, res: _t.PrimType):
    """Fold a constant binary op, or return None to decline.

    Guest semantics place arithmetic faults at *run* time, so a constant
    zero divisor must not raise here at translation time — the expression
    is left unfolded and the backends evaluate (and fault) when the
    program runs.  ``**`` declines whenever Python's result would not be
    exact under the result type: a negative constant exponent under an
    integer result would fold a float into an int slot, and huge exponents
    would eat memory folding numbers no kernel means to embed.
    """
    if op in ("/", "//", "%") and b == 0:
        return None  # runtime ZeroDivisionError, not a translation error
    if op == "**":
        if b < 0 and not res.is_float:
            return None  # int ** -n is a float; don't fold under int
        if abs(b) > 1024:
            return None
    if op == "+":
        v = a + b
    elif op == "-":
        v = a - b
    elif op == "*":
        v = a * b
    elif op == "/":
        v = a / b
    elif op == "//":
        v = a // b
    elif op == "%":
        v = a % b
    elif op == "**":
        v = a ** b
    else:  # pragma: no cover
        return None
    return res(v)


def lower_method(engine, minfo, self_shape, arg_shapes, *, device=False) -> ir.FuncIR:
    """Public entry: lower one method for one specialization."""
    return Lowerer(engine, minfo, self_shape, arg_shapes, device=device).lower()


_BINOPS = {
    ast.Add: "+",
    ast.Sub: "-",
    ast.Mult: "*",
    ast.Div: "/",
    ast.FloorDiv: "//",
    ast.Mod: "%",
    ast.Pow: "**",
}

_CMPOPS = {
    ast.Lt: "<",
    ast.LtE: "<=",
    ast.Gt: ">",
    ast.GtE: ">=",
    ast.Eq: "==",
    ast.NotEq: "!=",
}

_MISSING = object()


def _as_load(node):
    """Copy an assignment target as a Load-context expression."""
    new = ast.parse(ast.unparse(node), mode="eval").body
    ast.copy_location(new, node)
    ast.fix_missing_locations(new)
    return new
