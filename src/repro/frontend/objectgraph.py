"""Runtime object-graph snapshot.

WootinJ's JIT "receives not only the entry method but also the arguments
passed to the entry method" (§3.3) and derives every concrete type — and,
thanks to semi-immutability, every non-array field *value* — from them.  This
module performs that capture: given the live entry receiver and arguments, it
produces :class:`~repro.frontend.shapes.Shape` trees plus the flattened list
of array parameters that will cross into the translated memory space.

Aliasing is preserved: if the same NumPy array is reachable through two
paths, both resolve to the same entry slot (and hence the same single copy).
Recursive object graphs violate semi-immutability (definition 3e) and are
rejected.

A capture that succeeds seals every ``@wootin`` instance it visited
(:mod:`repro.lang.seal`): from then on the host can rebind only their array
fields, so the capture stays what the translated code assumes.
"""

from __future__ import annotations

import numpy as np

from repro.errors import JitError, NotSemiImmutable
from repro.frontend.shapes import ArrayShape, ObjShape, PrimShape, Shape
from repro.lang import seal as _seal
from repro.lang import types as _t

__all__ = ["ArraySlot", "Snapshot", "snapshot_args"]


class ArraySlot:
    """One flattened entry array parameter; ``size`` is the length the
    capture read (the one its shape, and so the cache key, carries)."""

    def __init__(self, index: int, path: str, array: np.ndarray,
                 elem: _t.PrimType, size: int):
        self.index = index
        self.path = path
        self.array = array
        self.elem = elem
        self.size = size

    def __repr__(self) -> str:
        return f"<ArraySlot {self.index} {self.path} {self.elem!r}[{self.array.size}]>"


class Snapshot:
    """The full capture for one JIT request."""

    def __init__(self):
        self.array_slots: list[ArraySlot] = []
        self._alias: dict[int, int] = {}  # id(ndarray) -> slot index
        self._visiting: set[int] = set()
        # snapshot objects in discovery order: (path, ObjShape); backends
        # materialize globals in exactly this order.
        self.objects: list[tuple[str, ObjShape]] = []
        # the @wootin instances behind ``objects``, sealed once capture ends
        self._instances: list = []
        #: every visited instance is sealed: the graph can no longer change
        #: but by an array-field rebind (False before the capture finishes)
        self.sealed = False

    # -- capture ----------------------------------------------------------

    def capture(self, value, path: str) -> Shape:
        if isinstance(value, bool):  # bool before int: bool is an int subclass
            return PrimShape(_t.BOOL, const=value)
        if isinstance(value, int):
            return PrimShape(_t.I64, const=value)
        if isinstance(value, float):
            return PrimShape(_t.F64, const=value)
        if isinstance(value, np.bool_):
            return PrimShape(_t.BOOL, const=bool(value))
        if isinstance(value, np.integer):
            prim = _t.prim_for_dtype(value.dtype)
            return PrimShape(prim, const=int(value))
        if isinstance(value, np.floating):
            prim = _t.prim_for_dtype(value.dtype)
            return PrimShape(prim, const=float(value))
        if isinstance(value, np.ndarray):
            return self._capture_array(value, path)
        info = _t.wootin_info(type(value))
        if info is not None:
            return self._capture_object(value, info, path)
        raise JitError(
            f"value at {path} has unsupported type {type(value).__name__}; "
            f"only primitives, 1-D NumPy arrays, and @wootin objects can "
            f"cross into translated code"
        )

    def _capture_array(self, arr: np.ndarray, path: str) -> ArrayShape:
        if arr.ndim != 1:
            raise JitError(
                f"array at {path} has ndim={arr.ndim}; the guest language has "
                f"1-D arrays only (use indexer classes for multi-d data, as "
                f"the paper's class library does)"
            )
        elem = _t.prim_for_dtype(arr.dtype)
        size = int(arr.size)
        slot = self._alias.get(id(arr))
        if slot is None:
            # no contiguity needed: both backends copy a slot into memory
            # of their own before a call
            slot = len(self.array_slots)
            self.array_slots.append(ArraySlot(slot, path, arr, elem, size))
            self._alias[id(arr)] = slot
        # the captured size is part of the shape: it keys specialization
        # and lets the mid-end prove accesses in-bounds (docs/CFG.md)
        return ArrayShape(_t.ArrayType(elem), slot=slot, length=size)

    def _capture_object(self, obj, info: _t.ClassInfo, path: str) -> ObjShape:
        if id(obj) in self._visiting:
            raise NotSemiImmutable(
                f"object graph at {path} is recursive; semi-immutable types "
                f"must not be recursive",
                rule=0,
                where=path,
            )
        self._visiting.add(id(obj))
        decls = info.all_field_decls()
        try:
            fields: dict[str, Shape] = {}
            for fname, fval in vars(obj).items():
                shape = self.capture(fval, f"{path}.{fname}")
                fields[fname] = self._conform_field(
                    shape, decls.get(fname), f"{path}.{fname}"
                )
        finally:
            self._visiting.discard(id(obj))
        shape = ObjShape(info, fields, root_path=path)
        self.objects.append((path, shape))
        self._instances.append(obj)
        return shape

    @staticmethod
    def _conform_field(shape: Shape, decl, where: str) -> Shape:
        """Honor declared field types: a Python float stored in an ``f32``
        field is an f32 constant (matching Java's typed fields); declared
        array/class types are validated against the runtime value."""
        if decl is None:
            return shape
        if isinstance(decl, _t.PrimType):
            if not isinstance(shape, PrimShape):
                raise JitError(f"field {where}: declared {decl!r}, got {shape!r}")
            if shape.ty is decl:
                return shape
            if decl is _t.BOOL or shape.ty is _t.BOOL:
                raise JitError(
                    f"field {where}: cannot coerce {shape.ty!r} to {decl!r}"
                )
            return PrimShape(decl, const=decl(shape.const))
        if isinstance(decl, _t.ArrayType):
            if not isinstance(shape, ArrayShape) or shape.ty is not decl:
                raise JitError(
                    f"field {where}: declared {decl!r}, got {shape!r} — array "
                    f"dtype must match the declaration"
                )
            return shape
        if isinstance(decl, _t.ClassType):
            if not isinstance(shape, ObjShape) or not shape.cls.is_subclass_of(
                decl.info
            ):
                raise JitError(
                    f"field {where}: declared {decl.info.name}, got {shape!r}"
                )
            return shape
        return shape


def snapshot_args(receiver, args) -> tuple[Snapshot, ObjShape, list[Shape]]:
    """Capture the entry receiver and arguments (the paper's recorded
    ``jit4mpi`` arguments), then seal every instance visited.  A capture
    that raises seals nothing."""
    snap = Snapshot()
    recv_shape = snap.capture(receiver, "self")
    if not isinstance(recv_shape, ObjShape):
        raise JitError("the JIT entry receiver must be a @wootin object")
    arg_shapes = [snap.capture(a, f"arg{i}") for i, a in enumerate(args)]
    sealed = True
    for obj in snap._instances:
        sealed = _seal.seal(obj) and sealed
    snap._instances = []
    snap.sealed = sealed
    return snap, recv_shape, arg_shapes
