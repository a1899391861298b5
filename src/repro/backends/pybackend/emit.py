"""Flat-Python emitter.

Emits one Python module per program: every specialization becomes a plain
function with all dynamic dispatch resolved, all objects either folded away
(snapshot objects: primitive fields are literals, array fields live in a
per-rank ``__snap`` namespace) or scalarized into tuples (dynamic objects) —
i.e. the paper's devirtualization + object inlining, expressed in Python.

This backend exists for portability (no C compiler needed) and as the
differential-testing oracle for the C backend; it always emits at full
optimization.

An ``f64``/``i64`` snapshot array slot that never reaches an
ndarray-consuming operation runs as a Python ``list`` (the call's deep
copy), so indexing and arithmetic stay on unboxed scalars;
the choice is static, per slot, and recorded in the emitted source — see
docs/OPTIMIZER.md, "py backend data representation".
"""

from __future__ import annotations

import math

from repro.backends.base import compute_local_shapes, is_pure, passed_params
# the driver and the loader live on the cache-hit path, apart from this
# module (DESIGN.md, "Import layers"); their names stay importable from here
from repro.backends.pybackend.backend import PyBackend
from repro.backends.pybackend.loader import (  # noqa: F401
    _ffi_table, _ld_checked, _PyCompiled, _st_checked, snap_attr,
)
from repro.errors import BackendError
from repro.frontend import ir
from repro.frontend.shapes import ArrayShape, ObjShape, PrimShape, Shape
from repro.jit.program import Program
from repro.lang import types as _t

__all__ = ["PyBackend"]


_GEO_INDEX = {
    "tid_x": "[0][0]", "tid_y": "[0][1]", "tid_z": "[0][2]",
    "bid_x": "[1][0]", "bid_y": "[1][1]", "bid_z": "[1][2]",
    "bdim_x": "[2][0]", "bdim_y": "[2][1]", "bdim_z": "[2][2]",
    "gdim_x": "[3][0]", "gdim_y": "[3][1]", "gdim_z": "[3][2]",
}


#: intrinsics that take an array without needing an ndarray: the output
#: channel converts (``emit_intrinsic``), the frees are no-ops here
_LIST_SAFE = ("wj.output", "wj.free", "cuda.free_gpu")


def _lit(value, prim: _t.PrimType) -> str:
    """Source text of one constant, safe in any operand position: negatives
    are parenthesized (``-2.0 ** k`` parses as ``-(2.0 ** k)``) and
    non-finite floats name the ``__inf``/``__nan`` globals."""
    if prim is _t.BOOL:
        return "True" if value else "False"
    if not prim.is_float:
        text = repr(int(value))
    elif math.isfinite(value):
        text = repr(float(value))
    else:
        text = "__nan" if value != value else ("-" * (value < 0)) + "__inf"
    return f"({text})" if text.startswith("-") else text


def _own_exprs(s: ir.Stmt) -> list:
    """Every expression of one statement, nested blocks excluded (order is
    not significant; ``ir.walk_exprs`` pays a generator frame per level)."""
    out, stack = [], ir.stmt_exprs(s)
    while stack:
        e = stack.pop()
        out.append(e)
        stack += ir.expr_children(e)
    return out


class _Writer:
    def __init__(self):
        self.lines: list[str] = []
        self.depth = 0

    def line(self, text: str) -> None:
        self.lines.append("    " * self.depth + text)

    def source(self) -> str:
        return "\n".join(self.lines) + "\n"


class _FuncEmitter:
    """Emits one specialized function."""

    def __init__(self, backend: "_ProgramEmitter", func_ir: ir.FuncIR):
        self.p = backend
        self.f = func_ir
        self.w = backend.w
        #: (root_path, field) -> the prologue local bound to that array field
        self.hoisted: dict[tuple, str] = {}
        #: copy-propagated local -> the local it reads from
        self.alias: dict[str, str] = {}
        # statements numbered in textual order (``_copy_propagated``):
        # id(stmt) -> (its number, the last number nested in it), and per
        # local the numbers of the statements reading / assigning it
        self._span: dict[int, tuple[int, int]] = {}
        self._reads: dict[str, list[int]] = {}
        self._writes: dict[str, list[int]] = {}
        self._number(func_ir.body)

    def _number(self, stmts) -> None:
        for s in stmts:
            at = len(self._span)
            self._span[id(s)] = (at, at)
            for e in _own_exprs(s):
                if isinstance(e, ir.LocalRef):
                    self._reads.setdefault(e.name, []).append(at)
            if isinstance(s, (ir.LocalDecl, ir.Assign, ir.ForRange)):
                name = s.var if isinstance(s, ir.ForRange) else s.name
                self._writes.setdefault(name, []).append(at)
            for block in ir.stmt_blocks(s):
                self._number(block)
            self._span[id(s)] = (at, len(self._span) - 1)

    # -- expression emission ------------------------------------------------

    def emit(self, e: ir.Expr) -> str:
        # constant folding: the payoff of semi-immutability
        s = e.shape
        if (
            isinstance(s, PrimShape)
            and s.const is not None
            and not isinstance(e, ir.Const)
            and is_pure(e)
        ):
            return _lit(s.const, s.ty)
        if isinstance(s, ObjShape) and s.from_snapshot:
            return f"__snap.{snap_attr(s.root_path)}"
        return self._emit_raw(e)

    def _emit_raw(self, e: ir.Expr) -> str:
        if isinstance(e, ir.Const):
            return _lit(e.value, e.prim)
        if isinstance(e, ir.LocalRef):
            return self.alias.get(e.name, e.name)
        if isinstance(e, ir.FieldLoad):
            return self.emit_field(e.obj, e.fname, e.shape)
        if isinstance(e, ir.ArrayLoad):
            if self.p.bounds_checks and not e.bounds_ok:
                return f"__wj_ld({self.emit(e.arr)}, {self.emit(e.index)})"
            return f"{self.emit(e.arr)}[{self.emit(e.index)}]"
        if isinstance(e, ir.ArrayLen):
            return f"len({self.emit(e.arr)})"
        if isinstance(e, ir.BinOp):
            return f"({self.emit(e.left)} {e.op} {self.emit(e.right)})"
        if isinstance(e, ir.UnaryOp):
            if e.op == "not":
                return f"(not {self.emit(e.operand)})"
            return f"(-{self.emit(e.operand)})"
        if isinstance(e, ir.Compare):
            return f"({self.emit(e.left)} {e.op} {self.emit(e.right)})"
        if isinstance(e, ir.BoolOp):
            joiner = f" {e.op} "
            return "(" + joiner.join(self.emit(v) for v in e.values) + ")"
        if isinstance(e, ir.Cast):
            return self.emit_cast(e)
        if isinstance(e, ir.Call):
            return self.emit_call(e)
        if isinstance(e, ir.IntrinsicCall):
            return self.emit_intrinsic(e)
        if isinstance(e, ir.NewObj):
            return self.emit_new(e)
        if isinstance(e, ir.KernelLaunch):
            raise BackendError("kernel launch in expression position")
        raise BackendError(f"unhandled IR node {type(e).__name__}")

    def snap_array(self, path: str, fname: str) -> str:
        """A snapshot array field: bound to a local in the function prologue,
        unless some ``FieldStore`` rebinds it (a double-buffer swap must be
        seen through the namespace)."""
        if (path, fname) in self.p.rebound:
            return f"__snap.{snap_attr(path)}.{fname}"
        return self.hoisted.setdefault(
            (path, fname), f"__a{len(self.hoisted)}_{fname}")

    def emit_field(self, obj: ir.Expr, fname: str, fshape: Shape) -> str:
        oshape = obj.shape
        assert isinstance(oshape, ObjShape)
        if oshape.from_snapshot:
            # array fields live in the snapshot namespace; scalars folded by
            # emit(); object fields resolve to child namespaces via shape
            if isinstance(fshape, ArrayShape):
                return self.snap_array(oshape.root_path, fname)
            if isinstance(fshape, ObjShape) and fshape.from_snapshot:
                return f"__snap.{snap_attr(fshape.root_path)}"
            if isinstance(fshape, PrimShape) and fshape.const is not None:
                return _lit(fshape.const, fshape.ty)
            raise BackendError(
                f"snapshot field {fname} has unexpected shape {fshape!r}"
            )
        idx = list(oshape.fields).index(fname)
        return f"{self.emit(obj)}[{idx}]"

    def emit_cast(self, e: ir.Cast) -> str:
        inner = self.emit(e.value)
        to = e.to
        if to is _t.F32:
            return f"__f32({inner})"
        if to is _t.F64:
            return f"float({inner})"
        if to is _t.I32:
            return f"__i32({inner})"
        if to is _t.I64:
            return f"int({inner})"
        if to is _t.BOOL:
            return f"bool({inner})"
        raise BackendError(f"unsupported cast target {to!r}")

    def value_of(self, e: ir.Expr, want: Shape) -> str:
        """Emit e, converting a snapshot-shaped object into a dynamic tuple
        value when the consumer's merged shape is dynamic."""
        if (
            isinstance(want, ObjShape)
            and not want.from_snapshot
            and isinstance(e.shape, ObjShape)
            and e.shape.from_snapshot
        ):
            return self.snap_to_value(e.shape, want)
        return self.emit(e)

    def snap_to_value(self, s: ObjShape, want: ObjShape) -> str:
        parts = []
        for fname, wshape in want.fields.items():
            fshape = s.field(fname)
            if isinstance(fshape, PrimShape):
                parts.append(_lit(fshape.const, fshape.ty))
            elif isinstance(fshape, ArrayShape):
                parts.append(self.snap_array(s.root_path, fname))
            elif isinstance(fshape, ObjShape):
                inner_want = wshape if isinstance(wshape, ObjShape) else fshape
                if isinstance(inner_want, ObjShape) and not inner_want.from_snapshot:
                    parts.append(self.snap_to_value(fshape, inner_want))
                else:
                    parts.append(f"__snap.{snap_attr(fshape.root_path)}")
            else:  # pragma: no cover
                raise BackendError(f"bad snapshot field shape {fshape!r}")
        return "(" + ", ".join(parts) + ("," if len(parts) == 1 else "") + ")"

    def emit_new(self, e: ir.NewObj) -> str:
        parts = [
            self.value_of(init, e.obj_shape.fields[name])
            for name, init in e.field_inits.items()
        ]
        if not parts:
            return "()"
        return "(" + ", ".join(parts) + ("," if len(parts) == 1 else "") + ")"

    def emit_call(self, e: ir.Call) -> str:
        args = ["__env", "__snap"]
        if e.target.device:
            args.append("__geo")
        args += self.passed_args(e)
        return f"{e.target.symbol}({', '.join(args)})"

    def passed_args(self, e) -> list[str]:
        """Caller expressions of a ``Call``/``KernelLaunch`` matching the
        callee's passed parameters, emitted in the callee's representation."""
        callee = e.target.func_ir
        exprs = []
        if callee.self_shape is not None and not callee.self_shape.from_snapshot:
            exprs.append(e.recv)
        exprs += [expr for expr, shape in zip(e.args, callee.param_shapes)
                  if not (isinstance(shape, ObjShape) and shape.from_snapshot)]
        return [self.value_of(expr, pshape)
                for (_, pshape), expr in zip(passed_params(callee), exprs)]

    def emit_intrinsic(self, e: ir.IntrinsicCall) -> str:
        key = e.key
        a = [self.emit(x) for x in e.args]
        if key.startswith("mpi."):
            name = {
                "mpi.rank": "mpi_rank",
                "mpi.size": "mpi_size",
                "mpi.send": "mpi_send",
                "mpi.recv": "mpi_recv",
                "mpi.sendrecv": "mpi_sendrecv",
                "mpi.send_part": "mpi_send_part",
                "mpi.recv_part": "mpi_recv_part",
                "mpi.sendrecv_part": "mpi_sendrecv_part",
                "mpi.barrier": "mpi_barrier",
                "mpi.allreduce_sum": "mpi_allreduce_sum",
                "mpi.allreduce_sum_arr": "mpi_allreduce_sum_array",
                "mpi.bcast": "mpi_bcast",
                "mpi.gather": "mpi_gather",
                "mpi.wtime": "mpi_wtime",
            }[key]
            return f"__env.{name}({', '.join(a)})"
        if key.startswith("cuda.tid."):
            sub = key.split(".")[-1]
            if sub == "sync":
                return "__geo[4].wait()"
            return f"__geo{_GEO_INDEX[sub]}"
        if key == "cuda.copy_to_gpu":
            return f"__env.gpu_to_device({a[0]})"
        if key == "cuda.copy_from_gpu":
            return f"__env.gpu_from_device({a[0]})"
        if key == "cuda.device_zeros":
            elem = e.const_args[0]
            return f"__np.zeros(int({a[0]}), dtype='{elem.np_dtype.str}')"
        if key in ("cuda.free_gpu", "wj.free"):
            return f"__noop({a[0]})"
        if key == "wj.zeros":
            elem = e.const_args[0]
            return f"__np.zeros(int({a[0]}), dtype='{elem.np_dtype.str}')"
        if key == "wj.output":
            label = e.const_args[0]
            shape = e.args[0].shape
            lists = self.p.list_slots
            if shape.slot in lists or (lists and shape.slot is None):
                # a list carries no dtype (and an empty one no type at all)
                a[0] = f"__np.asarray({a[0]}, {shape.elem.np_dtype.str!r})"
            return f"__env.output({label!r}, {a[0]})"
        if key == "wj.lcg64":
            return f"__wj_lcg64({a[0]})"
        if key == "wj.u01":
            return f"__wj_u01({a[0]})"
        if key == "wj.dgemm":
            return f"__wj_dgemm({', '.join(a)})"
        if key.startswith("math."):
            return f"__m_{key.split('.')[1]}({', '.join(a)})"
        if key == "builtin.abs":
            return f"abs({a[0]})"
        if key == "builtin.min":
            return f"min({a[0]}, {a[1]})"
        if key == "builtin.max":
            return f"max({a[0]}, {a[1]})"
        if key.startswith("ffi."):
            ff = e.const_args[0]
            return f"__ffi[{ff.cname!r}]({', '.join(a)})"
        raise BackendError(f"unknown intrinsic {key}")

    # -- statements ----------------------------------------------------------

    def emit_stmt(self, s: ir.Stmt) -> None:
        w = self.w
        if isinstance(s, (ir.LocalDecl, ir.Assign)):
            want = self.f_local_shape(s.name)
            w.line(f"{s.name} = {self.value_of(s.value, want)}")
            return
        if isinstance(s, ir.FieldStore):
            oshape = s.obj.shape
            w.line(
                f"__snap.{snap_attr(oshape.root_path)}.{s.fname} = "
                f"{self.emit(s.value)}"
            )
            return
        if isinstance(s, ir.ArrayStore):
            # bounds_ok accesses were proven in-range by the bce pass
            if self.p.bounds_checks and not s.bounds_ok:
                w.line(
                    f"__wj_st({self.emit(s.arr)}, {self.emit(s.index)}, "
                    f"{self.emit(s.value)})"
                )
                return
            w.line(
                f"{self.emit(s.arr)}[{self.emit(s.index)}] = {self.emit(s.value)}"
            )
            return
        if isinstance(s, ir.If):
            w.line(f"if {self.emit(s.cond)}:")
            self._block(s.then)
            if s.orelse:
                w.line("else:")
                self._block(s.orelse)
            return
        if isinstance(s, ir.ForRange):
            rng = f"range({self.emit(s.start)}, {self.emit(s.stop)}"
            if s.step is not None:
                rng += f", {self.emit(s.step)}"
            rng += ")"
            w.line(f"for {s.var} in {rng}:")
            self._block(s.body)
            return
        if isinstance(s, ir.While):
            w.line(f"while {self.emit(s.cond)}:")
            self._block(s.body)
            return
        if isinstance(s, ir.Return):
            if s.value is None:
                w.line("return")
            else:
                want = self.f.ret_shape
                w.line(f"return {self.value_of(s.value, want)}")
            return
        if isinstance(s, ir.ExprStmt):
            if isinstance(s.value, ir.KernelLaunch):
                self.emit_launch(s.value)
                return
            w.line(f"{self.emit(s.value)}")
            return
        if isinstance(s, ir.Break):
            w.line("break")
            return
        if isinstance(s, ir.Continue):
            w.line("continue")
            return
        raise BackendError(f"unhandled statement {type(s).__name__}")

    def _block(self, stmts) -> None:
        self.w.depth += 1
        start = len(self.w.lines)
        end = self._span[id(stmts[-1])][1] if stmts else 0
        for st in stmts:
            if not self._copy_propagated(st, end):
                self.emit_stmt(st)
        if len(self.w.lines) == start:
            self.w.line("pass")
        self.w.depth -= 1

    def _copy_propagated(self, s: ir.Stmt, end: int) -> bool:
        """Drop ``a = b`` where ``b`` is a scalar/array local or a prologue
        binding (the inliner's argument temps, licm/cse re-bindings) when
        every read of ``a`` comes later in the same block — statements
        ``at + 1 .. end`` — and neither name is assigned there: those reads
        see ``b``."""
        v = getattr(s, "value", None)
        if not (isinstance(s, (ir.LocalDecl, ir.Assign))
                and isinstance(v, (ir.LocalRef, ir.FieldLoad))
                and isinstance(v.shape, (PrimShape, ArrayShape))):
            return False
        src = self.emit(v)
        at = self._span[id(s)][0]
        reads = self._reads.get(s.name, ())
        if (not src.isidentifier()
                or (reads and (reads[0] <= at or reads[-1] > end))
                or any(at < w <= end for name in (s.name, src)
                       for w in self._writes.get(name, ()))):
            return False
        self.alias[s.name] = src
        return True

    def f_local_shape(self, name: str) -> Shape:
        """The local's final (merged) shape — governs its representation."""
        return self.p.local_shapes[self.f.symbol].get(name)

    def emit_launch(self, e: ir.KernelLaunch) -> None:
        gdims = [self.dim_expr(e.config, "grid", c) for c in "xyz"]
        bdims = [self.dim_expr(e.config, "block", c) for c in "xyz"]
        call_args = self.passed_args(e)
        coop = "True" if self.p.kernel_uses_sync(e.target) else "False"
        thunk = (
            f"lambda __geo, *__a: {e.target.symbol}(__env, __snap, __geo, *__a)"
        )
        self.w.line(
            f"__env.launch_kernel({thunk}, "
            f"({', '.join(gdims)}), ({', '.join(bdims)}), "
            f"({', '.join(call_args)}{',' if len(call_args) == 1 else ''}), "
            f"cooperative={coop})"
        )

    def dim_expr(self, config: ir.Expr, which: str, comp: str) -> str:
        """Emit grid/block component access from the CudaConfig expression."""
        cshape = config.shape
        assert isinstance(cshape, ObjShape)
        dshape = cshape.field(which)
        assert isinstance(dshape, ObjShape)
        pshape = dshape.field(comp)
        if isinstance(pshape, PrimShape) and pshape.const is not None:
            return _lit(pshape.const, pshape.ty)
        # runtime config: index through the emitted value
        widx = list(cshape.fields).index(which)
        cidx = list(dshape.fields).index(comp)
        return f"{self.emit(config)}[{widx}][{cidx}]"

    # -- function shell -------------------------------------------------------

    def emit_function(self) -> None:
        params = ["__env", "__snap"]
        if self.f.is_device:
            params.append("__geo")
        for name, shape in passed_params(self.f):
            params.append(name)
        self.w.line(f"def {self.f.symbol}({', '.join(params)}):")
        at = len(self.w.lines)
        self._block(self.f.body or [ir.Return(None)])
        self.w.lines[at:at] = [
            f"    {local} = __snap.{snap_attr(path)}.{fname}"
            for (path, fname), local in self.hoisted.items()]
        self.w.line("")


class _ProgramEmitter:
    def __init__(self, program: Program, *, bounds_checks: bool = False):
        self.program = program
        self.bounds_checks = bounds_checks
        self.w = _Writer()
        self.local_shapes: dict[str, dict[str, Shape]] = {}
        self._sync_cache: dict[str, bool] = {}
        #: (root_path, field) of every snapshot array field a FieldStore rebinds
        self.rebound: set[tuple] = set()
        self._plan_slots()

    def _plan_slots(self) -> None:
        """Decide, in one IR walk, each snapshot array slot's representation.

        A slot runs as a Python ``list`` when its elements are ``f64``/``i64``
        (narrower types round in the NumPy scalar), no array that may be it
        reaches an ndarray-consuming operation, and some loop indexes it.
        ``ArrayShape.slot`` names the slot at every use — except behind a
        field some ``FieldStore`` rebinds, so both sides of such a store stay
        ndarrays, and an escaping array of unknown slot keeps them all."""
        why: dict[int, str] = {}   # slot -> why it stays an ndarray
        looped, stored, hot = set(), set(), set()
        unknown = False            # an array of unknown slot escaped

        def escape(shape, reason: str) -> None:
            nonlocal unknown
            if isinstance(shape, ArrayShape):
                if shape.slot is None:
                    unknown = True
                else:
                    why.setdefault(shape.slot, reason)
            elif isinstance(shape, ObjShape) and not shape.from_snapshot:
                for fshape in shape.fields.values():
                    escape(fshape, reason)

        def walk(stmts, in_loop: bool) -> None:
            for s in stmts:
                if isinstance(s, ir.FieldStore):
                    self.rebound.add((s.obj.shape.root_path, s.fname))
                    escape(s.obj.shape.field(s.fname), "unknown-alias")
                    escape(s.value.shape, "unknown-alias")
                indexed = []
                if isinstance(s, ir.ArrayStore):
                    stored.add(s.arr.shape.slot)
                    indexed.append(s.arr.shape.slot)
                for e in _own_exprs(s):
                    if isinstance(e, ir.ArrayLoad):
                        indexed.append(e.arr.shape.slot)
                    elif isinstance(e, ir.KernelLaunch):
                        hot.add(e.target.symbol)  # one call per thread
                        for a in filter(None, (e.recv, *e.args)):
                            escape(a.shape, "escapes:kernel-launch")
                    elif isinstance(e, ir.Call) and in_loop:
                        hot.add(e.target.symbol)
                    elif (isinstance(e, ir.IntrinsicCall)
                          and e.key not in _LIST_SAFE):
                        for a in e.args:
                            escape(a.shape, f"escapes:{e.key}")
                if in_loop:
                    looped.update(indexed)
                nested = in_loop or isinstance(s, (ir.ForRange, ir.While))
                for block in ir.stmt_blocks(s):
                    walk(block, nested)

        # callers before callees, so a loop's callees are known to be hot
        for spec in reversed(self.program.specializations):
            walk(spec.func_ir.body, spec.symbol in hot)

        self.slot_report = {
            str(slot.index): (
                "ndarray:dtype" if slot.elem not in (_t.F64, _t.I64)
                else "ndarray:unknown-alias" if unknown
                else f"ndarray:{why[slot.index]}" if slot.index in why
                else "ndarray:no-loop-access" if slot.index not in looped
                else "list")
            for slot in self.program.snapshot.array_slots}
        #: list slot -> whether the program may store to it (not read back)
        self.list_slots = {
            int(k): None in stored or int(k) in stored
            for k, v in self.slot_report.items() if v == "list"}

    def kernel_uses_sync(self, spec) -> bool:
        cached = self._sync_cache.get(spec.symbol)
        if cached is None:
            cached = any(
                isinstance(x, ir.IntrinsicCall) and x.key == "cuda.tid.sync"
                for s in self.program.specializations
                if s.device
                for x in ir.walk_exprs(s.func_ir.body)
            )
            self._sync_cache[spec.symbol] = cached
        return cached

    def emit(self) -> str:
        w = self.w
        w.line("# generated by repro.backends.pybackend — do not edit")
        w.line(f"__py_slots = {self.slot_report!r}")
        w.line(f"__list_slots = {self.list_slots!r}  # slot: written back")
        w.line("")
        for spec in self.program.specializations:
            self.local_shapes[spec.symbol] = compute_local_shapes(spec.func_ir)
            _FuncEmitter(self, spec.func_ir).emit_function()
        self._emit_entry()
        return w.source()

    def _emit_entry(self) -> None:
        w = self.w
        entry = self.program.entry
        args = ["__env", "__snap"]
        for name, shape in passed_params(entry.func_ir):
            if isinstance(shape, PrimShape):
                if shape.const is None:
                    raise BackendError(
                        "entry scalar argument without a recorded value"
                    )
                args.append(_lit(shape.const, shape.ty))
            elif isinstance(shape, ArrayShape):
                args.append(f"__arrays[{shape.slot}]")
            else:
                raise BackendError(f"unsupported entry parameter shape {shape!r}")
        w.line("def __entry(__env, __snap, __arrays):")
        w.depth += 1
        w.line(f"return {entry.symbol}({', '.join(args)})")
        w.depth -= 1
