"""C99 emitter — the translation the paper's §3.3 describes, at all four
optimization levels.

Shared representation decisions (see ``frontend/ir.py``):

* snapshot objects are never C values — their primitive fields either fold
  to literals (NOVIRT/FULL) or load from the per-rank ``WjSnap`` state
  (VIRTUAL/DEVIRT), their array fields are mutable ``WjSnap`` members, and
  object-typed links are resolved statically through shapes;
* dynamic objects are C struct values (constructed by compound literals —
  constructor inlining); at VIRTUAL they carry a runtime class id and every
  method call goes through a ``volatile`` function-pointer table in
  ``WjSnap`` (a vtable the C compiler cannot devirtualize);
* kernels become per-thread functions called from grid/block loop nests
  bracketed by ``kernel_begin``/``kernel_end`` host callbacks (GPU-time
  metering).

The generated TU is self-contained: the host passes in the callback table,
an opaque snapshot buffer, and the flattened array slots; the exported
``wj_entry`` materializes the snapshot and runs the translated entry method.
"""

from __future__ import annotations

import math
from typing import Optional

from repro.backends.base import (
    OptLevel,
    compute_local_shapes,
    is_pure,
    passed_params,
)
from repro.backends.cbackend.bridge import EmitResult
from repro.backends.cbackend.prelude import DGEMM_BLOCK, OMP_BLOCK, PRELUDE
from repro.errors import BackendError
from repro.frontend import ir
from repro.frontend.shapes import ArrayShape, ObjShape, PrimShape, Shape
from repro.jit.program import Program
from repro.lang import types as _t

__all__ = ["CProgramEmitter", "EmitResult"]

_ARR_SUFFIX = {id(_t.F32): "F32", id(_t.F64): "F64", id(_t.I32): "I32", id(_t.I64): "I64"}

_GEO_FIELD = {
    "tid_x": "tx", "tid_y": "ty", "tid_z": "tz",
    "bid_x": "bx", "bid_y": "by", "bid_z": "bz",
    "bdim_x": "bdx", "bdim_y": "bdy", "bdim_z": "bdz",
    "gdim_x": "gdx", "gdim_y": "gdy", "gdim_z": "gdz",
}

_MATH_C = {
    "sqrt": "sqrt", "exp": "exp", "log": "log", "sin": "sin", "cos": "cos",
    "tanh": "tanh", "fabs": "fabs", "floor": "floor", "ceil": "ceil",
    "fmod": "fmod", "pow": "pow",
}


def arr_suffix(elem: _t.PrimType) -> str:
    try:
        return _ARR_SUFFIX[id(elem)]
    except KeyError:
        raise BackendError(
            f"array element type {elem!r} is not supported by the C backend"
        ) from None


class _Writer:
    def __init__(self):
        self.lines: list[str] = []
        self.depth = 0

    def line(self, text: str = "") -> None:
        self.lines.append("    " * self.depth + text)

    def source(self) -> str:
        return "\n".join(self.lines) + "\n"


def c_str(text: str) -> str:
    out = text.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")
    return f'"{out}"'


class CProgramEmitter:
    """Emits one translated program as a self-contained C99 translation
    unit at the configured optimization level."""

    def __init__(self, program: Program, opt: OptLevel, *, bounds_checks: bool = False,
                 parallel_plan=None):
        self.program = program
        self.opt = opt
        self.bounds_checks = bounds_checks
        #: repro.opt.parallel.ParallelPlan or None — per-ForRange OpenMP
        #: decisions; None leaves the sequential emitter byte-identical
        self.parallel_plan = parallel_plan
        self._uses_dgemm = False
        # dynamic-object struct interning
        self.struct_defs: list[str] = []
        self._struct_by_key: dict = {}
        # WjSnap members
        self.snap_members: list[str] = []
        self._scalar_members: dict = {}   # (path, fname) -> member name
        self._arr_members: dict = {}      # (path, fname) -> (member, suffix)
        self._objcls_members: dict = {}   # path -> member (runtime class id of a snapshot object)
        self._clsid_members: dict = {}    # ClassInfo id -> member (class-id constant)
        self._clsids: dict = {}           # ClassInfo id -> numeric id
        self.ivals: list[int] = []
        self.dvals: list[float] = []
        self._init_lines: list[str] = []  # wj_entry snapshot-materialization
        self._bind_lines: list[str] = []  # VIRTUAL dispatch-table filling
        self._site_members: list[tuple[int, str]] = []  # (site_id, member decl)
        self.local_shapes: dict[str, dict[str, Shape]] = {}
        self._ffi: dict[str, object] = {}
        self._entry_arg_members: list[str] = []
        self._uses_sync = False

    # ------------------------------------------------------------------
    # type mapping
    # ------------------------------------------------------------------

    def ctype(self, shape: Shape) -> str:
        if isinstance(shape, PrimShape):
            return shape.ty.cname
        if isinstance(shape, ArrayShape):
            return f"WjArr{arr_suffix(shape.elem)}"
        if isinstance(shape, ObjShape):
            if shape.from_snapshot:
                return "int64_t"  # dummy: value resolved via shape
            return self.struct_of(shape)
        raise BackendError(f"untypeable shape {shape!r}")

    def ret_ctype(self, func_ir: ir.FuncIR) -> str:
        if func_ir.ret_type is _t.VOID:
            return "void"
        if func_ir.ret_shape is not None:
            return self.ctype(func_ir.ret_shape)
        if isinstance(func_ir.ret_type, _t.PrimType):
            return func_ir.ret_type.cname
        raise BackendError(f"untypeable return {func_ir.ret_type!r}")

    def struct_of(self, shape: ObjShape) -> str:
        key = self._struct_key(shape)
        name = self._struct_by_key.get(key)
        if name is not None:
            return name
        # intern nested structs first so definitions appear in order
        members = []
        if self.opt is OptLevel.VIRTUAL:
            members.append("int32_t cls;")
        for fname, fshape in shape.fields.items():
            if isinstance(fshape, ObjShape) and fshape.from_snapshot:
                continue  # statically-resolved link: no storage
            members.append(f"{self.ctype(fshape)} f_{fname};")
        name = f"S_{shape.cls.name}_{len(self._struct_by_key)}"
        self._struct_by_key[key] = name
        if not members:
            members = ["int _empty;"]
        body = "\n    ".join(members)
        self.struct_defs.append(f"typedef struct {{\n    {body}\n}} {name};")
        return name

    def _struct_key(self, shape: ObjShape):
        parts = [shape.cls.qualname]
        for fname, fshape in shape.fields.items():
            if isinstance(fshape, ObjShape):
                if fshape.from_snapshot:
                    parts.append((fname, "snap", fshape.cls.qualname))
                else:
                    parts.append((fname, "obj", self._struct_key(fshape)))
            elif isinstance(fshape, ArrayShape):
                parts.append((fname, "arr", arr_suffix(fshape.elem)))
            else:
                parts.append((fname, "prim", fshape.ty.name))
        return tuple(parts)

    # ------------------------------------------------------------------
    # snapshot state interning
    # ------------------------------------------------------------------

    def scalar_member(self, path: str, fname: str, fshape: PrimShape) -> str:
        key = (path, fname)
        member = self._scalar_members.get(key)
        if member is not None:
            return member
        member = f"s{len(self._scalar_members)}"
        self._scalar_members[key] = member
        cname = fshape.ty.cname
        self.snap_members.append(f"{cname} {member}; /* {path}.{fname} */")
        value = fshape.const
        if value is None:
            raise BackendError(f"snapshot scalar {path}.{fname} without a value")
        if fshape.ty.is_float:
            idx = len(self.dvals)
            self.dvals.append(float(value))
            self._init_lines.append(f"snap->{member} = ({cname})dv[{idx}];")
        else:
            idx = len(self.ivals)
            self.ivals.append(int(value))
            self._init_lines.append(f"snap->{member} = ({cname})iv[{idx}];")
        return member

    def arr_member(self, path: str, fname: str, fshape: ArrayShape) -> str:
        key = (path, fname)
        got = self._arr_members.get(key)
        if got is not None:
            return got[0]
        if fshape.slot is None:
            raise BackendError(f"snapshot array {path}.{fname} without a slot")
        suffix = arr_suffix(fshape.elem)
        member = f"a{len(self._arr_members)}"
        self._arr_members[key] = (member, suffix)
        self.snap_members.append(f"WjArr{suffix} {member}; /* {path}.{fname} */")
        elem_c = fshape.elem.cname
        self._init_lines.append(
            f"snap->{member} = (WjArr{suffix}){{ ({elem_c}*)sp[{fshape.slot}], "
            f"sl[{fshape.slot}] }};"
        )
        return member

    def clsid(self, info: _t.ClassInfo) -> int:
        got = self._clsids.get(id(info))
        if got is None:
            got = len(self._clsids)
            self._clsids[id(info)] = got
        return got

    def clsid_member(self, info: _t.ClassInfo) -> str:
        """WjSnap member holding the runtime numeric id of a class."""
        member = self._clsid_members.get(id(info))
        if member is None:
            member = f"k{len(self._clsid_members)}"
            self._clsid_members[id(info)] = member
            self.snap_members.append(f"int32_t {member}; /* classid {info.name} */")
            idx = len(self.ivals)
            self.ivals.append(self.clsid(info))
            self._init_lines.append(f"snap->{member} = (int32_t)iv[{idx}];")
        return member

    def objcls_member(self, shape: ObjShape) -> str:
        """WjSnap member holding a snapshot object's class id (VIRTUAL)."""
        member = self._objcls_members.get(shape.root_path)
        if member is None:
            member = f"c{len(self._objcls_members)}"
            self._objcls_members[shape.root_path] = member
            self.snap_members.append(
                f"int32_t {member}; /* class of {shape.root_path} */"
            )
            idx = len(self.ivals)
            self.ivals.append(self.clsid(shape.cls))
            self._init_lines.append(f"snap->{member} = (int32_t)iv[{idx}];")
        return member

    def site_member(self, site_id: int) -> str:
        for sid, _ in self._site_members:
            if sid == site_id:
                return f"t{site_id}"
        self._site_members.append((site_id, ""))
        return f"t{site_id}"

    # ------------------------------------------------------------------
    # signatures
    # ------------------------------------------------------------------

    def csig(self, spec) -> tuple[str, list[str], list[str]]:
        """(ret_ctype, param_decls, param_ctypes_for_cast)"""
        f = spec.func_ir
        decls = ["WjEnv* env", "WjSnap* snap"]
        ctys = ["WjEnv*", "WjSnap*"]
        if f.is_device:
            decls.append("WjGeo* geo")
            ctys.append("WjGeo*")
        if f.self_shape is not None and not f.self_shape.from_snapshot:
            cty = self.ctype(f.self_shape)
            decls.append(f"{cty} v_self")
            ctys.append(cty)
        for name, shape in zip(f.param_names, f.param_shapes):
            if isinstance(shape, ObjShape) and shape.from_snapshot:
                continue
            cty = self.ctype(shape)
            decls.append(f"{cty} v_{name}")
            ctys.append(cty)
        return self.ret_ctype(f), decls, ctys

    # ------------------------------------------------------------------
    # program assembly
    # ------------------------------------------------------------------

    def emit(self) -> EmitResult:
        protos: list[str] = []
        bodies = _Writer()
        for spec in self.program.specializations:
            self.local_shapes[spec.symbol] = compute_local_shapes(spec.func_ir)
        for spec in self.program.specializations:
            ret, decls, _ = self.csig(spec)
            # static: only the wj_* entry points below leave the unit, so
            # the C compiler may inline specializations and drop the bodies
            protos.append(f"static {ret} {spec.symbol}({', '.join(decls)});")
            _CFunc(self, spec).emit_function(bodies)

        entry = self.program.entry
        # emit the entry wrapper first: it interns entry-argument snapshot
        # members, which must exist before the WjSnap struct is printed
        entry_w = _Writer()
        self._emit_entry(entry_w, entry)

        out = _Writer()
        out.line("/* generated by repro.backends.cbackend — do not edit */")
        out.line(PRELUDE)
        if self.parallel_plan is not None and self.parallel_plan.n_parallel > 0:
            out.line(OMP_BLOCK)
        if self._uses_dgemm:
            out.line(DGEMM_BLOCK)
        for inc in sorted({i for ff in self._ffi.values() for i in ff.includes}):
            out.line(f"#include <{inc}>")
        for ff in self._ffi.values():
            if ff.csource:
                out.line(ff.csource)
        out.line()
        for sd in self.struct_defs:
            out.line(sd)
            out.line()
        # WjSnap: per-rank translated-memory-space state
        members = list(self.snap_members)
        for sid, _ in self._site_members:
            members.append(
                f"void* volatile t{sid}[{max(1, len(self._clsids))}]; /* vtable site {sid} */"
            )
        if not members:
            members = ["int _empty;"]
        out.line("typedef struct WjSnap {")
        for m in members:
            out.line(f"    {m}")
        out.line("} WjSnap;")
        out.line()
        for p in protos:
            out.line(p)
        out.line()
        out.lines.extend(bodies.lines)

        # dispatch-table binding + the entry wrapper
        out.line("static void wj_bind(WjSnap* snap) {")
        for line in self._bind_lines:
            out.line(f"    {line}")
        out.line("    (void)snap;")
        out.line("}")
        out.line()
        out.line("int64_t wj_snap_size(void) { return (int64_t)sizeof(WjSnap); }")
        out.line()
        out.lines.extend(entry_w.lines)

        return EmitResult(
            out.source(),
            list(self.ivals),
            list(self.dvals),
            entry.func_ir.ret_type,
            self.program.snapshot.array_slots,
            uses_omp=(
                self.parallel_plan is not None
                and self.parallel_plan.n_parallel > 0
            ),
            uses_dgemm=self._uses_dgemm,
        )

    def _emit_entry(self, out: _Writer, entry) -> None:
        f = entry.func_ir
        out.line(
            "void wj_entry(WjEnv* env, void* snapbuf, void** sp, int64_t* sl, "
            "int64_t* iv, double* dv, void* ret_out) {"
        )
        out.depth += 1
        out.line("WjSnap* snap = (WjSnap*)snapbuf;")
        out.line("memset(snap, 0, sizeof(WjSnap));")
        # entry arguments: folded at NOVIRT/FULL, runtime snap loads otherwise
        call_args = ["env", "snap"]
        helper = _CFunc(self, entry)
        for name, shape in zip(f.param_names, f.param_shapes):
            if isinstance(shape, ObjShape) and shape.from_snapshot:
                continue
            if isinstance(shape, PrimShape):
                if shape.const is None:
                    raise BackendError("entry scalar argument without a value")
                if self.opt.fold_constants:
                    call_args.append(helper.lit(shape.const, shape.ty))
                else:
                    member = self.scalar_member("entry", name, shape)
                    call_args.append(f"snap->{member}")
            elif isinstance(shape, ArrayShape):
                if shape.slot is None:
                    raise BackendError("entry array argument without a slot")
                suffix = arr_suffix(shape.elem)
                elem_c = shape.elem.cname
                call_args.append(
                    f"(WjArr{suffix}){{ ({elem_c}*)sp[{shape.slot}], "
                    f"sl[{shape.slot}] }}"
                )
            else:
                raise BackendError(f"unsupported entry argument shape {shape!r}")
        # snapshot materialization (interned during body emission + above)
        for line in self._init_lines:
            out.line(line)
        out.line("wj_bind(snap);")
        out.line("(void)iv; (void)dv; (void)sp; (void)sl;")
        call = f"{entry.symbol}({', '.join(call_args)})"
        if f.ret_type is _t.VOID:
            out.line(f"{call};")
            out.line("(void)ret_out;")
        else:
            ret_c = self.ret_ctype(f)
            out.line(f"*({ret_c}*)ret_out = {call};")
        out.depth -= 1
        out.line("}")


class _CFunc:
    """Emits one specialized function."""

    def __init__(self, p: CProgramEmitter, spec):
        self.p = p
        self.spec = spec
        self.f: ir.FuncIR = spec.func_ir
        self._tmp = 0

    # -- literals ---------------------------------------------------------

    def lit(self, value, prim: _t.PrimType) -> str:
        if prim is _t.BOOL:
            return "1" if value else "0"
        if prim.is_float:
            v = float(value)
            if math.isnan(v):
                return "NAN"
            if math.isinf(v):
                return "INFINITY" if v > 0 else "(-INFINITY)"
            text = repr(v)
            if "e" not in text and "." not in text:
                text += ".0"
            return f"{text}f" if prim is _t.F32 else text
        if prim is _t.I64:
            return f"INT64_C({int(value)})"
        return str(int(value))

    # -- expressions --------------------------------------------------------

    def e(self, expr: ir.Expr) -> str:
        s = expr.shape
        if isinstance(s, PrimShape) and s.const is not None and not isinstance(expr, ir.Const):
            if self.p.opt.fold_constants and is_pure(expr):
                return self.lit(s.const, s.ty)
        if isinstance(s, ObjShape) and s.from_snapshot:
            # snapshot objects have no C value; calls still execute
            if isinstance(expr, ir.Call):
                return self.emit_call(expr)
            return "INT64_C(0)"
        return self._raw(expr)

    def _raw(self, expr: ir.Expr) -> str:
        if isinstance(expr, ir.Const):
            return self.lit(expr.value, expr.prim)
        if isinstance(expr, ir.LocalRef):
            return f"v_{expr.name}"
        if isinstance(expr, ir.FieldLoad):
            return self.emit_field(expr)
        if isinstance(expr, ir.ArrayLoad):
            if self.p.bounds_checks and not expr.bounds_ok:
                suf = arr_suffix(expr.arr.ty.elem)
                return (f"wj_ld_{suf}({self.e(expr.arr)}, "
                        f"(int64_t)({self.e(expr.index)}))")
            return f"({self.e(expr.arr)}).p[{self.e(expr.index)}]"
        if isinstance(expr, ir.ArrayLen):
            return f"({self.e(expr.arr)}).n"
        if isinstance(expr, ir.BinOp):
            return self.emit_binop(expr)
        if isinstance(expr, ir.UnaryOp):
            if expr.op == "not":
                return f"(!({self.e(expr.operand)}))"
            return f"(-({self.e(expr.operand)}))"
        if isinstance(expr, ir.Compare):
            return f"(({self.e(expr.left)}) {expr.op} ({self.e(expr.right)}))"
        if isinstance(expr, ir.BoolOp):
            op = "&&" if expr.op == "and" else "||"
            return "(" + f" {op} ".join(f"({self.e(v)})" for v in expr.values) + ")"
        if isinstance(expr, ir.Cast):
            return f"(({expr.to.cname})({self.e(expr.value)}))"
        if isinstance(expr, ir.Call):
            return self.emit_call(expr)
        if isinstance(expr, ir.IntrinsicCall):
            return self.emit_intrinsic(expr)
        if isinstance(expr, ir.NewObj):
            return self.emit_new(expr)
        raise BackendError(f"unhandled IR expression {type(expr).__name__}")

    def emit_binop(self, expr: ir.BinOp) -> str:
        l, r = self.e(expr.left), self.e(expr.right)
        op = expr.op
        if op in ("+", "-", "*"):
            return f"(({l}) {op} ({r}))"
        if op == "/":
            return f"((double)({l}) / (double)({r}))"
        if op == "**":
            return f"pow((double)({l}), (double)({r}))"
        res = expr.res
        if op == "//":
            if res.is_float:
                return f"(({res.cname})wj_floordiv_f64((double)({l}), (double)({r})))"
            return f"(({res.cname})wj_floordiv_i64((int64_t)({l}), (int64_t)({r})))"
        if op == "%":
            if res.is_float:
                return f"(({res.cname})wj_mod_f64((double)({l}), (double)({r})))"
            return f"(({res.cname})wj_mod_i64((int64_t)({l}), (int64_t)({r})))"
        raise BackendError(f"unhandled operator {op!r}")

    def emit_field(self, expr: ir.FieldLoad) -> str:
        oshape = expr.obj.shape
        fshape = expr.shape
        assert isinstance(oshape, ObjShape)
        if oshape.from_snapshot:
            if isinstance(fshape, PrimShape):
                if self.p.opt.fold_constants:
                    return self.lit(fshape.const, fshape.ty)
                member = self.p.scalar_member(oshape.root_path, expr.fname, fshape)
                return f"snap->{member}"
            if isinstance(fshape, ArrayShape):
                member = self.p.arr_member(oshape.root_path, expr.fname, fshape)
                return f"snap->{member}"
            if isinstance(fshape, ObjShape) and fshape.from_snapshot:
                return "INT64_C(0)"  # resolved statically through the shape
            raise BackendError(
                f"snapshot field {expr.fname} with shape {fshape!r}"
            )
        if isinstance(fshape, ObjShape) and fshape.from_snapshot:
            return "INT64_C(0)"
        return f"({self.e(expr.obj)}).f_{expr.fname}"

    def emit_new(self, expr: ir.NewObj) -> str:
        sname = self.p.struct_of(expr.obj_shape)
        inits = []
        if self.p.opt is OptLevel.VIRTUAL:
            member = self.p.clsid_member(expr.cls)
            inits.append(f".cls = snap->{member}")
        for fname, init in expr.field_inits.items():
            fshape = expr.obj_shape.fields[fname]
            if isinstance(fshape, ObjShape) and fshape.from_snapshot:
                continue
            inits.append(f".f_{fname} = {self.value_of(init, fshape)}")
        if not inits:
            inits = [".f_0 = 0"] if False else ["._empty = 0"]
        return f"(({sname}){{ {', '.join(inits)} }})"

    def value_of(self, expr: ir.Expr, want: Optional[Shape]) -> str:
        if (
            isinstance(want, ObjShape)
            and not want.from_snapshot
            and isinstance(expr.shape, ObjShape)
            and expr.shape.from_snapshot
        ):
            return self.snap_to_value(expr.shape, want)
        return self.e(expr)

    def snap_to_value(self, s: ObjShape, want: ObjShape) -> str:
        sname = self.p.struct_of(want)
        inits = []
        if self.p.opt is OptLevel.VIRTUAL:
            inits.append(f".cls = snap->{self.p.clsid_member(s.cls)}")
        for fname, wshape in want.fields.items():
            fshape = s.field(fname)
            if isinstance(wshape, ObjShape) and wshape.from_snapshot:
                continue
            if isinstance(fshape, PrimShape):
                if self.p.opt.fold_constants:
                    inits.append(f".f_{fname} = {self.lit(fshape.const, fshape.ty)}")
                else:
                    member = self.p.scalar_member(s.root_path, fname, fshape)
                    inits.append(f".f_{fname} = snap->{member}")
            elif isinstance(fshape, ArrayShape):
                member = self.p.arr_member(s.root_path, fname, fshape)
                inits.append(f".f_{fname} = snap->{member}")
            elif isinstance(fshape, ObjShape):
                assert isinstance(wshape, ObjShape)
                inits.append(f".f_{fname} = {self.snap_to_value(fshape, wshape)}")
        if not inits:
            inits = ["._empty = 0"]
        return f"(({sname}){{ {', '.join(inits)} }})"

    # -- calls -----------------------------------------------------------

    def _call_args(self, callee_ir: ir.FuncIR, recv, args) -> list[str]:
        out = ["env", "snap"]
        if callee_ir.is_device:
            out.append("geo")
        if callee_ir.self_shape is not None and not callee_ir.self_shape.from_snapshot:
            out.append(self.value_of(recv, callee_ir.self_shape))
        for expr, shape in zip(args, callee_ir.param_shapes):
            if isinstance(shape, ObjShape) and shape.from_snapshot:
                continue
            out.append(self.value_of(expr, shape))
        return out

    def emit_call(self, expr: ir.Call) -> str:
        callee = expr.target
        callee_ir = callee.func_ir
        if self.p.opt.devirtualize:
            args = self._call_args(callee_ir, expr.recv, expr.args)
            return f"{callee.symbol}({', '.join(args)})"
        return self.emit_virtual_call(expr)

    def emit_virtual_call(self, expr: ir.Call) -> str:
        """VIRTUAL mode: dispatch through a runtime-filled, volatile
        function-pointer table — the paper's naive-C++ comparator."""
        callee = expr.target
        callee_ir = callee.func_ir
        site = self.p.site_member(expr.site_id)
        ret, _, ctys = self.p.csig(callee)
        cast = f"{ret} (*)({', '.join(ctys)})"
        recv_shape = expr.recv.shape
        concrete = recv_shape.cls
        self.p._bind_lines.append(
            f"snap->{site}[snap->{self.p.clsid_member(concrete)}] = "
            f"(void*)&{callee.symbol};"
        )
        recv_passed = (
            callee_ir.self_shape is not None
            and not callee_ir.self_shape.from_snapshot
        )
        if isinstance(recv_shape, ObjShape) and recv_shape.from_snapshot:
            cls_expr = f"snap->{self.p.objcls_member(recv_shape)}"
            args = ["env", "snap"]
            if callee_ir.is_device:
                args.append("geo")
            for e2, shape in zip(expr.args, callee_ir.param_shapes):
                if isinstance(shape, ObjShape) and shape.from_snapshot:
                    continue
                args.append(self.value_of(e2, shape))
            return (
                f"((({cast})(snap->{site}[{cls_expr}])))({', '.join(args)})"
            )
        # dynamic receiver: evaluate once into a temp (GNU statement expr)
        recv_cty = self.p.ctype(recv_shape)
        args = ["env", "snap"]
        if callee_ir.is_device:
            args.append("geo")
        if recv_passed:
            args.append("__r")
        for e2, shape in zip(expr.args, callee_ir.param_shapes):
            if isinstance(shape, ObjShape) and shape.from_snapshot:
                continue
            args.append(self.value_of(e2, shape))
        return (
            f"({{ {recv_cty} __r = {self.value_of(expr.recv, callee_ir.self_shape or recv_shape)}; "
            f"((({cast})(snap->{site}[__r.cls])))({', '.join(args)}); }})"
        )

    # -- intrinsics --------------------------------------------------------

    def _suf(self, expr: ir.Expr) -> str:
        assert isinstance(expr.ty, _t.ArrayType)
        return arr_suffix(expr.ty.elem)

    def emit_intrinsic(self, x: ir.IntrinsicCall) -> str:
        key = x.key
        a = [self.e(v) for v in x.args]
        if key == "mpi.rank":
            return "env->mpi_rank(env->h)"
        if key == "mpi.size":
            return "env->mpi_size(env->h)"
        if key == "mpi.send":
            return f"wj_mpi_send_{self._suf(x.args[0])}(env, {a[0]}, (int64_t)({a[1]}), (int64_t)({a[2]}))"
        if key == "mpi.recv":
            return f"wj_mpi_recv_{self._suf(x.args[0])}(env, {a[0]}, (int64_t)({a[1]}), (int64_t)({a[2]}))"
        if key == "mpi.sendrecv":
            return (
                f"wj_mpi_sendrecv_{self._suf(x.args[0])}(env, {a[0]}, "
                f"(int64_t)({a[1]}), {a[2]}, (int64_t)({a[3]}), (int64_t)({a[4]}))"
            )
        if key == "mpi.send_part":
            return (
                f"wj_mpi_send_part_{self._suf(x.args[0])}(env, {a[0]}, "
                f"(int64_t)({a[1]}), (int64_t)({a[2]}), (int64_t)({a[3]}), "
                f"(int64_t)({a[4]}))"
            )
        if key == "mpi.recv_part":
            return (
                f"wj_mpi_recv_part_{self._suf(x.args[0])}(env, {a[0]}, "
                f"(int64_t)({a[1]}), (int64_t)({a[2]}), (int64_t)({a[3]}), "
                f"(int64_t)({a[4]}))"
            )
        if key == "mpi.sendrecv_part":
            return (
                f"wj_mpi_sendrecv_part_{self._suf(x.args[0])}(env, {a[0]}, "
                f"(int64_t)({a[1]}), (int64_t)({a[2]}), (int64_t)({a[3]}), "
                f"{a[4]}, (int64_t)({a[5]}), (int64_t)({a[6]}), "
                f"(int64_t)({a[7]}))"
            )
        if key == "mpi.barrier":
            return "env->mpi_barrier(env->h)"
        if key == "mpi.allreduce_sum":
            return f"env->mpi_allreduce_sum(env->h, (double)({a[0]}))"
        if key == "mpi.allreduce_sum_arr":
            return f"wj_mpi_allreduce_{self._suf(x.args[0])}(env, {a[0]})"
        if key == "mpi.bcast":
            return f"wj_mpi_bcast_{self._suf(x.args[0])}(env, {a[0]}, (int64_t)({a[1]}))"
        if key == "mpi.gather":
            return f"wj_mpi_gather_{self._suf(x.args[0])}(env, {a[0]}, {a[1]}, (int64_t)({a[2]}))"
        if key == "mpi.wtime":
            return "env->mpi_wtime(env->h)"
        if key.startswith("cuda.tid."):
            sub = key.split(".")[-1]
            if sub == "sync":
                raise BackendError(
                    "cuda.sync_threads() is not supported by the C backend "
                    "(run barrier kernels through the Python simulated "
                    "device); restructure the kernel to be barrier-free"
                )
            return f"geo->{_GEO_FIELD[sub]}"
        if key in ("cuda.copy_to_gpu", "cuda.copy_from_gpu"):
            return f"wj_gpu_copy_{self._suf(x.args[0])}(env, {a[0]})"
        if key == "cuda.device_zeros" or key == "wj.zeros":
            elem = x.const_args[0]
            return f"wj_zeros_{arr_suffix(elem)}((int64_t)({a[0]}))"
        if key in ("cuda.free_gpu", "wj.free"):
            return f"wj_free_{self._suf(x.args[0])}({a[0]})"
        if key == "wj.output":
            label = x.const_args[0]
            return f"wj_output_{self._suf(x.args[0])}(env, {c_str(label)}, {a[0]})"
        if key == "wj.dgemm":
            self.p._uses_dgemm = True
            return (
                f"wj_dgemm({a[0]}, {a[1]}, {a[2]}, (int64_t)({a[3]}), "
                f"(int64_t)({a[4]}), (int64_t)({a[5]}))"
            )
        if key == "wj.lcg64":
            return f"wj_lcg64((int64_t)({a[0]}))"
        if key == "wj.u01":
            return f"wj_u01((int64_t)({a[0]}))"
        if key.startswith("math."):
            fn = _MATH_C[key.split(".")[1]]
            return f"{fn}({', '.join(f'(double)({v})' for v in a)})"
        if key == "builtin.abs":
            ty = x.res_ty
            if ty is _t.F64:
                return f"fabs({a[0]})"
            if ty is _t.F32:
                return f"fabsf({a[0]})"
            if ty is _t.I32:
                return f"wj_abs_i32({a[0]})"
            return f"wj_abs_i64({a[0]})"
        if key in ("builtin.min", "builtin.max"):
            which = key.split(".")[1]
            ty = x.res_ty
            suf = {id(_t.F64): "f64", id(_t.F32): "f32", id(_t.I32): "i32", id(_t.I64): "i64"}[id(ty)]
            return f"wj_{which}_{suf}({a[0]}, {a[1]})"
        if key.startswith("ffi."):
            ff = x.const_args[0]
            self.p._ffi[ff.cname] = ff
            return f"{ff.cname}({', '.join(a)})"
        raise BackendError(f"unknown intrinsic {key}")

    # -- statements ----------------------------------------------------------

    def stmt(self, w: _Writer, s: ir.Stmt) -> None:
        if isinstance(s, (ir.LocalDecl, ir.Assign)):
            want = self.p.local_shapes[self.spec.symbol].get(s.name)
            w.line(f"v_{s.name} = {self.value_of(s.value, want)};")
            return
        if isinstance(s, ir.FieldStore):
            oshape = s.obj.shape
            fshape = oshape.field(s.fname)
            member = self.p.arr_member(oshape.root_path, s.fname, fshape)
            w.line(f"snap->{member} = {self.e(s.value)};")
            return
        if isinstance(s, ir.ArrayStore):
            # bounds_ok accesses were proven in-range by the bce pass
            # (repro.opt.cfg.ranges) — the guard would be dead code
            if self.p.bounds_checks and not s.bounds_ok:
                suf = arr_suffix(s.arr.ty.elem)
                elem_c = s.arr.ty.elem.cname
                w.line(
                    f"wj_st_{suf}({self.e(s.arr)}, "
                    f"(int64_t)({self.e(s.index)}), "
                    f"({elem_c})({self.e(s.value)}));"
                )
                return
            w.line(
                f"({self.e(s.arr)}).p[{self.e(s.index)}] = {self.e(s.value)};"
            )
            return
        if isinstance(s, ir.If):
            w.line(f"if ({self.e(s.cond)}) {{")
            self.block(w, s.then)
            if s.orelse:
                w.line("} else {")
                self.block(w, s.orelse)
            w.line("}")
            return
        if isinstance(s, ir.ForRange):
            self.emit_for(w, s)
            return
        if isinstance(s, ir.While):
            w.line(f"while ({self.e(s.cond)}) {{")
            self.block(w, s.body)
            w.line("}")
            return
        if isinstance(s, ir.Return):
            if s.value is None:
                w.line("return;")
            else:
                w.line(f"return {self.value_of(s.value, self.f.ret_shape)};")
            return
        if isinstance(s, ir.ExprStmt):
            if isinstance(s.value, ir.KernelLaunch):
                self.emit_launch(w, s.value)
                return
            text = self.e(s.value)
            if s.value.ty is _t.VOID:
                w.line(f"{text};")
            else:
                w.line(f"(void)({text});")
            return
        if isinstance(s, ir.Break):
            w.line("break;")
            return
        if isinstance(s, ir.Continue):
            w.line("continue;")
            return
        raise BackendError(f"unhandled statement {type(s).__name__}")

    def block(self, w: _Writer, stmts) -> None:
        w.depth += 1
        for s in stmts:
            self.stmt(w, s)
        w.depth -= 1

    def emit_for(self, w: _Writer, s: ir.ForRange) -> None:
        plan = self.p.parallel_plan
        if plan is not None:
            d = plan.decision_for(s)
            if d is not None and d.parallel:
                self._emit_parallel_for(w, s, d)
                return
        self._tmp += 1
        n = self._tmp
        var = f"v_{s.var}"
        start = self.e(s.start)
        stop = self.e(s.stop)
        # range() bounds evaluate once (Python semantics): hoist unless literal
        if not _is_literal(stop):
            w.line(f"{{ int64_t __b{n} = {stop};")
            stop = f"__b{n}"
            closing = True
        else:
            closing = False
        if s.step is None:
            w.line(f"for ({var} = {start}; {var} < {stop}; {var}++) {{")
        else:
            step = self.e(s.step)
            w.line(f"{{ int64_t __c{n} = {step};")
            w.line(
                f"for ({var} = {start}; (__c{n} > 0) ? ({var} < {stop}) : "
                f"({var} > {stop}); {var} += __c{n}) {{"
            )
        self.block(w, s.body)
        w.line("}")
        if s.step is not None:
            w.line("}")
        if closing:
            w.line("}")

    def _guard_lvalue(self, handle) -> str:
        if handle[0] == "var":
            return f"v_{handle[1]}"
        _, path, fname, shape = handle
        return f"snap->{self.p.arr_member(path, fname, shape)}"

    def _emit_parallel_for(self, w: _Writer, s: ir.ForRange, d) -> None:
        """A loop the independence analysis proved parallel: emit it under
        `#pragma omp parallel for`; when runtime alias guards are needed,
        version it — parallel when every guarded base-pointer pair differs,
        the plain sequential loop otherwise."""
        self._tmp += 1
        n = self._tmp
        var = f"v_{s.var}"
        start = self.e(s.start)
        stop = self.e(s.stop)
        closing = False
        if not _is_literal(stop):
            w.line(f"{{ int64_t __b{n} = {stop};")
            stop = f"__b{n}"
            closing = True
        header = f"for ({var} = {start}; {var} < {stop}; {var}++) {{"
        pragma = "#pragma omp parallel for schedule(static)"
        if d.private:
            pragma += " private(" + ", ".join(f"v_{p}" for p in d.private) + ")"
        for op, name, _is_float in d.reductions:
            pragma += f" reduction({op}:v_{name})"
        threads = self.p.parallel_plan.threads
        if threads:
            pragma += f" num_threads({threads})"
        if d.guards:
            cond = " && ".join(
                f"(({self._guard_lvalue(a)}).p != ({self._guard_lvalue(b)}).p)"
                for a, b in d.guards
            )
            w.line(f"if ({cond}) {{")
        w.line(pragma)
        w.line(header)
        self.block(w, s.body)
        w.line("}")
        if d.guards:
            w.line("} else {")
            w.line(header)
            self.block(w, s.body)
            w.line("}")
            w.line("}")
        if closing:
            w.line("}")

    def emit_launch(self, w: _Writer, e: ir.KernelLaunch) -> None:
        callee = e.target
        callee_ir = callee.func_ir
        self._tmp += 1
        n = self._tmp
        dims = {}
        for which in ("grid", "block"):
            for comp in "xyz":
                dims[f"{which}_{comp}"] = self.dim_expr(e.config, which, comp)
        w.line("env->kernel_begin(env->h);")
        w.line("{")
        w.depth += 1
        w.line("WjGeo __g;")
        for name, expr_s in dims.items():
            w.line(f"int64_t __{name}{n} = {expr_s};")
        w.line(f"__g.gdx = __grid_x{n}; __g.gdy = __grid_y{n}; __g.gdz = __grid_z{n};")
        w.line(f"__g.bdx = __block_x{n}; __g.bdy = __block_y{n}; __g.bdz = __block_z{n};")
        # hoist kernel arguments: evaluated once per launch, like <<< >>>
        hoisted = []
        k = 0
        if callee_ir.self_shape is not None and not callee_ir.self_shape.from_snapshot:
            cty = self.p.ctype(callee_ir.self_shape)
            w.line(f"{cty} __ka{k} = {self.value_of(e.recv, callee_ir.self_shape)};")
            hoisted.append(f"__ka{k}")
            k += 1
        for expr, shape in zip(e.args, callee_ir.param_shapes):
            if isinstance(shape, ObjShape) and shape.from_snapshot:
                continue
            cty = self.p.ctype(shape)
            w.line(f"{cty} __ka{k} = {self.value_of(expr, shape)};")
            hoisted.append(f"__ka{k}")
            k += 1
        args = ["env", "snap", "&__g"] + hoisted
        w.line(f"for (__g.bz = 0; __g.bz < __grid_z{n}; __g.bz++)")
        w.line(f"for (__g.by = 0; __g.by < __grid_y{n}; __g.by++)")
        w.line(f"for (__g.bx = 0; __g.bx < __grid_x{n}; __g.bx++)")
        w.line(f"for (__g.tz = 0; __g.tz < __block_z{n}; __g.tz++)")
        w.line(f"for (__g.ty = 0; __g.ty < __block_y{n}; __g.ty++)")
        w.line(f"for (__g.tx = 0; __g.tx < __block_x{n}; __g.tx++)")
        w.line(f"    {callee.symbol}({', '.join(args)});")
        w.depth -= 1
        w.line("}")
        w.line("env->kernel_end(env->h);")

    def dim_expr(self, config: ir.Expr, which: str, comp: str) -> str:
        cshape = config.shape
        assert isinstance(cshape, ObjShape)
        dshape = cshape.field(which)
        assert isinstance(dshape, ObjShape)
        pshape = dshape.field(comp)
        assert isinstance(pshape, PrimShape)
        if pshape.const is not None and self.p.opt.fold_constants:
            return self.lit(pshape.const, pshape.ty)
        if cshape.from_snapshot:
            if pshape.const is None:
                raise BackendError("snapshot CudaConfig without constant dims")
            if self.p.opt.fold_constants:
                return self.lit(pshape.const, pshape.ty)
            member = self.p.scalar_member(
                dshape.root_path, comp, pshape
            )
            return f"snap->{member}"
        if pshape.const is not None and not self.p.opt.fold_constants:
            # dynamic config with known value but folding disabled: emit the
            # structural access so the comparator pays the load
            pass
        inner = self.e(config)
        if isinstance(dshape, ObjShape) and dshape.from_snapshot:
            raise BackendError("mixed snapshot/dynamic CudaConfig")
        return f"({inner}).f_{which}.f_{comp}"

    # -- function shell --------------------------------------------------------

    def emit_function(self, out: _Writer) -> None:
        ret, decls, _ = self.p.csig(self.spec)
        out.line(f"static {ret} {self.spec.symbol}({', '.join(decls)}) {{")
        out.depth += 1
        out.line("(void)env; (void)snap;")
        if self.f.is_device:
            out.line("(void)geo;")
        # hoisted local declarations (conditional first-assignments must
        # outlive their C block scope)
        param_names = {"self", *self.f.param_names}
        for name, shape in self.p.local_shapes[self.spec.symbol].items():
            if name in param_names:
                continue
            out.line(f"{self.p.ctype(shape)} v_{name};")
        for s in self.f.body:
            self.stmt(out, s)
        if ret != "void":
            pass  # lowering guarantees all paths return
        out.depth -= 1
        out.line("}")
        out.line("")


def _is_literal(text: str) -> bool:
    t = text.strip("()")
    if t.startswith("INT64_C(") and t.endswith(")"):
        t = t[len("INT64_C("):-1]
    return bool(t) and (t[0].isdigit() or (t[0] == "-" and t[1:2].isdigit()))
