"""Value shapes: the static knowledge the translator has about each value.

The paper's central observation (§3.2–3.3) is that under the coding rules the
*actual* type of every object reference — and, for semi-immutable objects,
the *value* of every non-array field — can be statically determined once the
actual arguments of the entry method are given.  A :class:`Shape` is exactly
that statically-determined knowledge:

* :class:`PrimShape` — a primitive; ``const`` carries the known value when
  the primitive comes from the immutable snapshot (or a literal), else None;
* :class:`ArrayShape` — an array; ``slot`` identifies which flattened entry
  array parameter it is when it comes from the snapshot, else None;
* :class:`ObjShape` — an object with a known concrete class and a shape for
  every field.  ``root_path`` names snapshot objects (``"self"``,
  ``"self.solver"``, ...); dynamically-constructed objects have no path.

Shapes drive devirtualization (every method call's receiver has an
:class:`ObjShape`, hence a known concrete class), object inlining (snapshot
objects are never materialized at full optimization — their primitive fields
fold to literals and their array fields resolve to entry parameters), and
specialization keys.
"""

from __future__ import annotations

from typing import Optional

from repro.errors import TypeFlowError
from repro.lang import types as _t

__all__ = ["Shape", "PrimShape", "ArrayShape", "ObjShape", "forget_lengths",
           "merge_shapes", "shape_digest"]


class Shape:
    """Base of the static-knowledge lattice (see module docstring)."""

    ty: _t.Type

    def digest(self) -> str:
        raise NotImplementedError


class PrimShape(Shape):
    """A primitive value, possibly with a compile-time-known constant."""

    __slots__ = ("ty", "const")

    def __init__(self, ty: _t.PrimType, const=None):
        assert isinstance(ty, _t.PrimType)
        self.ty = ty
        self.const = const

    def digest(self) -> str:
        if self.const is None:
            return self.ty.name
        return f"{self.ty.name}={self.const!r}"

    def __repr__(self) -> str:
        return f"PrimShape({self.digest()})"


class ArrayShape(Shape):
    """A 1-D array value.

    ``slot`` is the index of the flattened entry array parameter this array
    resolves to when it is part of the immutable snapshot; dynamic arrays
    (allocated inside translated code, or merged from distinct slots) have
    ``slot=None`` and live as runtime values.

    ``length`` is the element count when it is statically known — snapshot
    arrays record their captured size, exactly like snapshot primitives
    record their value.  Because lengths enter the shape digest they become
    specialization (and cache-key) constants, which is what lets the range
    analysis (``repro.opt.cfg.ranges``) prove accesses in-bounds and elide
    ``REPRO_BOUNDS`` guards soundly: an artifact proven for one length can
    never be reused for another.
    """

    __slots__ = ("ty", "slot", "length")

    def __init__(self, ty: _t.ArrayType, slot: Optional[int] = None,
                 length: Optional[int] = None):
        assert isinstance(ty, _t.ArrayType)
        self.ty = ty
        self.slot = slot
        self.length = length

    @property
    def elem(self) -> _t.PrimType:
        return self.ty.elem  # element types are strict-final primitives here

    def digest(self) -> str:
        slot = self.slot if self.slot is not None else "dyn"
        if self.length is None:
            return f"{self.ty!r}@{slot}"
        return f"{self.ty!r}@{slot}#{self.length}"

    def __repr__(self) -> str:
        return f"ArrayShape({self.digest()})"


class ObjShape(Shape):
    """An object with statically-known concrete class and field shapes."""

    __slots__ = ("ty", "cls", "fields", "root_path")

    def __init__(
        self,
        cls: _t.ClassInfo,
        fields: dict[str, Shape],
        root_path: Optional[str] = None,
    ):
        self.cls = cls
        self.ty = cls.type
        self.fields = fields
        self.root_path = root_path

    @property
    def from_snapshot(self) -> bool:
        return self.root_path is not None

    def field(self, name: str) -> Shape:
        try:
            return self.fields[name]
        except KeyError:
            raise TypeFlowError(
                f"class {self.cls.name} has no field {name!r} "
                f"(known: {sorted(self.fields)})"
            ) from None

    def digest(self) -> str:
        inner = ",".join(f"{k}:{v.digest()}" for k, v in sorted(self.fields.items()))
        return f"{self.cls.qualname}{{{inner}}}"

    def __repr__(self) -> str:
        return f"ObjShape({self.cls.name}, path={self.root_path!r})"


def merge_shapes(a: Shape, b: Shape, *, where: str = "") -> Shape:
    """Join two shapes at a control-flow merge point.

    Joining loses constant/snapshot knowledge but must preserve concrete
    types — the coding rules guarantee both sides agree on those; a mismatch
    is reported as a type-flow failure.
    """
    if a is b:
        return a
    if isinstance(a, PrimShape) and isinstance(b, PrimShape):
        if a.ty is not b.ty:
            raise TypeFlowError(
                f"conflicting primitive types at merge: {a.ty} vs {b.ty} {where}"
            )
        if a.const is not None and a.const == b.const:
            return a
        return PrimShape(a.ty)
    if isinstance(a, ArrayShape) and isinstance(b, ArrayShape):
        if a.ty is not b.ty:
            raise TypeFlowError(
                f"conflicting array types at merge: {a.ty!r} vs {b.ty!r} {where}"
            )
        if a.slot is not None and a.slot == b.slot and a.length == b.length:
            return a
        length = a.length if a.length == b.length else None
        return ArrayShape(a.ty, length=length)
    if isinstance(a, ObjShape) and isinstance(b, ObjShape):
        if a.cls is not b.cls:
            raise TypeFlowError(
                f"cannot statically determine object type at merge: "
                f"{a.cls.name} vs {b.cls.name} {where} — the coding rules "
                f"require strict-final local types"
            )
        if a.root_path is not None and a.root_path == b.root_path:
            return a
        fields = {
            name: merge_shapes(a.fields[name], b.fields[name], where=where)
            for name in a.fields
            if name in b.fields
        }
        if set(a.fields) != set(b.fields):
            raise TypeFlowError(
                f"objects of class {a.cls.name} with differing field sets at "
                f"merge {where}: {sorted(a.fields)} vs {sorted(b.fields)}"
            )
        return ObjShape(a.cls, fields, root_path=None)
    raise TypeFlowError(
        f"conflicting value kinds at merge: {a!r} vs {b!r} {where}"
    )


def forget_lengths(shape: Shape, fields: frozenset) -> Shape:
    """``shape`` with the length of each snapshot array field named in
    ``fields`` (``(root_path, field)`` pairs) unknown.  Object shapes on the
    way to such a field are copied; every other shape is returned as is."""
    if not (fields and isinstance(shape, ObjShape)):
        return shape
    new = {}
    for name, fshape in shape.fields.items():
        if (isinstance(fshape, ArrayShape) and fshape.length is not None
                and (shape.root_path, name) in fields):
            new[name] = ArrayShape(fshape.ty, fshape.slot)
        else:
            new[name] = forget_lengths(fshape, fields)
    if all(new[name] is f for name, f in shape.fields.items()):
        return shape
    return ObjShape(shape.cls, new, shape.root_path)


def shapes_equal(a: Shape, b: Shape) -> bool:
    """Structural equality used by the lowering fixpoint."""
    return a.digest() == b.digest() and _kind(a) == _kind(b)


def _kind(s: Shape) -> str:
    return type(s).__name__


def shape_digest(shape: Shape) -> str:
    """Stable structural key for specialization caching."""
    return shape.digest()
