"""Guest-language type system.

The paper's guest language is Java, so it inherits Java's static types.  Our
guest language is a Python subset, so the types are explicit objects:

* primitives — :data:`i32`, :data:`i64`, :data:`f32`, :data:`f64`,
  :data:`boolean` (aliases ``int`` → :data:`i64`, ``float`` → :data:`f64`,
  ``bool`` → :data:`boolean` are accepted in annotations);
* one-dimensional arrays — ``Array(f32)`` — backed by NumPy arrays at the
  Python level and by ``{ptr, len}`` structs in generated C.  Following the
  paper, arrays are the only mutable objects, and multi-dimensional data is
  expressed with 1-D arrays plus indexer classes in the class library;
* class types — any class decorated with ``@wootin``.

Primitive type objects are *callable*: ``f32(x)`` is a cast.  Under direct
CPython execution the cast is performed with NumPy so that interpreted runs
("Java on the JVM" in the paper's comparison) and translated runs agree on
rounding; in translated code the call lowers to a C cast.
"""

from __future__ import annotations

import numpy as np

from repro.errors import LoweringError

__all__ = [
    "Type",
    "PrimType",
    "ArrayType",
    "ClassType",
    "ClassInfo",
    "MethodInfo",
    "Array",
    "boolean",
    "i32",
    "i64",
    "f32",
    "f64",
    "BOOL",
    "I32",
    "I64",
    "F32",
    "F64",
    "VOID",
    "resolve_annotation",
    "wootin_info",
    "register_wootin_class",
    "promote",
    "is_numeric",
]


class Type:
    """Base class of all guest types."""

    def is_strict_final_shallow(self) -> bool:
        """Whether this type alone satisfies the non-recursive part of the
        strict-final definition; class types defer to the rule checker."""
        raise NotImplementedError


class PrimType(Type):
    """A primitive numeric type.

    ``rank`` orders types for C-style arithmetic promotion.  ``cname`` is the
    C spelling used by the C backend; ``np_dtype`` is the NumPy dtype used by
    arrays of this element type and by interpreted casts.
    """

    def __init__(self, name: str, cname: str, np_dtype, rank: int, is_float: bool):
        self.name = name
        self.cname = cname
        self.np_dtype = np.dtype(np_dtype)
        self.rank = rank
        self.is_float = is_float

    def is_strict_final_shallow(self) -> bool:
        return True

    def __call__(self, value):
        """Cast, with the same rounding the C backend produces."""
        if self is BOOL:
            return bool(value)
        casted = self.np_dtype.type(value)
        return float(casted) if self.is_float else int(casted)

    def __repr__(self) -> str:
        return self.name

    # PrimType instances are singletons; identity comparison is intended.
    __hash__ = object.__hash__


BOOL = PrimType("boolean", "int", np.bool_, 0, is_float=False)
I32 = PrimType("i32", "int32_t", np.int32, 1, is_float=False)
I64 = PrimType("i64", "int64_t", np.int64, 2, is_float=False)
F32 = PrimType("f32", "float", np.float32, 3, is_float=True)
F64 = PrimType("f64", "double", np.float64, 4, is_float=True)

# Lower-case aliases: these read better in guest-code annotations.
boolean = BOOL
i32 = I32
i64 = I64
f32 = F32
f64 = F64


class VoidType(Type):
    def is_strict_final_shallow(self) -> bool:
        return True

    def __repr__(self) -> str:
        return "void"


VOID = VoidType()

_PRIM_BY_DTYPE = {t.np_dtype: t for t in (BOOL, I32, I64, F32, F64)}


def prim_for_dtype(dtype) -> PrimType:
    """Map a NumPy dtype to the guest primitive type, or raise."""
    try:
        return _PRIM_BY_DTYPE[np.dtype(dtype)]
    except KeyError:
        raise LoweringError(f"unsupported array dtype {dtype!r}") from None


class ArrayType(Type):
    """A one-dimensional array of a strict-final element type."""

    _cache: dict[int, "ArrayType"] = {}

    def __new__(cls, elem: Type):
        key = id(elem)
        inst = cls._cache.get(key)
        if inst is None:
            inst = super().__new__(cls)
            inst.elem = elem
            cls._cache[key] = inst
        return inst

    def is_strict_final_shallow(self) -> bool:
        return self.elem.is_strict_final_shallow()

    def __repr__(self) -> str:
        return f"Array({self.elem!r})"

    __hash__ = object.__hash__


def Array(elem: Type) -> ArrayType:
    """Annotation helper: ``Array(f32)`` is the type of a 1-D f32 array."""
    if not isinstance(elem, Type):
        elem = resolve_annotation(elem)
    return ArrayType(elem)


class MethodInfo:
    """Metadata for one guest method, captured by the ``@wootin`` decorator."""

    def __init__(self, name: str, func, owner: "ClassInfo"):
        self.name = name
        self.func = func
        self.owner = owner
        self.is_global_kernel = bool(getattr(func, "__wj_global__", False))
        self.is_device = bool(getattr(func, "__wj_device__", False))

    def __repr__(self) -> str:
        return f"<method {self.owner.name}.{self.name}>"


class ClassInfo:
    """Registry entry for a ``@wootin`` class.

    * ``final`` is computed, not declared: a class is a leaf (strict-final
      candidate) iff no ``@wootin`` subclass has been registered — the same
      "no subclasses" criterion as the paper's definition.
    * ``field_decls`` holds class-level annotations (PEP 526), when present;
      fields not declared there are typed from the runtime object graph.
    """

    def __init__(self, pycls: type):
        self.pycls = pycls
        self.name = pycls.__name__
        self.qualname = f"{pycls.__module__}.{pycls.__qualname__}"
        self.bases: list[ClassInfo] = []
        self.subclasses: list[ClassInfo] = []
        self.methods: dict[str, MethodInfo] = {}
        self.field_decls: dict[str, Type] = {}
        self.shared_fields: set[str] = set()
        self._class_type: ClassType | None = None

    @property
    def final(self) -> bool:
        return not self.subclasses

    @property
    def type(self) -> "ClassType":
        if self._class_type is None:
            self._class_type = ClassType(self)
        return self._class_type

    def all_methods(self) -> dict[str, MethodInfo]:
        """Methods including inherited ones (subclass wins)."""
        out: dict[str, MethodInfo] = {}
        for base in self.bases:
            out.update(base.all_methods())
        out.update(self.methods)
        return out

    def find_method(self, name: str) -> MethodInfo | None:
        if name in self.methods:
            return self.methods[name]
        for base in self.bases:
            m = base.find_method(name)
            if m is not None:
                return m
        return None

    def all_field_decls(self) -> dict[str, Type]:
        out: dict[str, Type] = {}
        for base in self.bases:
            out.update(base.all_field_decls())
        out.update(self.field_decls)
        return out

    def descendants(self) -> list["ClassInfo"]:
        """All transitive subclasses (used for virtual-dispatch tables)."""
        out: list[ClassInfo] = []
        for sub in self.subclasses:
            out.append(sub)
            out.extend(sub.descendants())
        return out

    def is_subclass_of(self, other: "ClassInfo") -> bool:
        if self is other:
            return True
        return any(b.is_subclass_of(other) for b in self.bases)

    def __repr__(self) -> str:
        return f"<wootin class {self.name}>"


class ClassType(Type):
    """The guest type of one @wootin class (interned on its ClassInfo)."""

    def __init__(self, info: ClassInfo):
        self.info = info

    def is_strict_final_shallow(self) -> bool:
        return self.info.final

    def __repr__(self) -> str:
        return self.info.name

    __hash__ = object.__hash__


#: Global registry of @wootin classes, keyed by the Python class object.
WOOTIN_CLASSES: dict[type, ClassInfo] = {}


def register_wootin_class(pycls: type) -> ClassInfo:
    """Create and register the :class:`ClassInfo` for a decorated class."""
    info = ClassInfo(pycls)
    for base in pycls.__bases__:
        if base in WOOTIN_CLASSES:
            base_info = WOOTIN_CLASSES[base]
            info.bases.append(base_info)
            base_info.subclasses.append(info)
    # Class-level annotations declare field types (optional).  shared(...)
    # wrappers mark CUDA __shared__ array fields (the paper's @Shared).
    from repro.lang.annotations import Shared

    for fname, ann in vars(pycls).get("__annotations__", {}).items():
        if isinstance(ann, str):
            ann = _eval_annotation_string(ann, pycls)
        if isinstance(ann, Shared):
            info.shared_fields.add(fname)
            ann = ann.inner
        info.field_decls[fname] = resolve_annotation(ann, owner=pycls)
    for mname, member in vars(pycls).items():
        if callable(member) and (not mname.startswith("__") or mname == "__init__"):
            info.methods[mname] = MethodInfo(mname, member, info)
    WOOTIN_CLASSES[pycls] = info
    return info


def wootin_info(pycls: type) -> ClassInfo | None:
    """Look up the registry entry for a class, or None if not ``@wootin``."""
    return WOOTIN_CLASSES.get(pycls)


def _eval_annotation_string(ann: str, owner) -> object:
    """Evaluate a stringized annotation against the owner's module globals
    (``from __future__ import annotations`` users)."""
    import sys

    globalns = {}
    if owner is not None:
        mod = sys.modules.get(getattr(owner, "__module__", None))
        if mod is not None:
            globalns = vars(mod)
        elif hasattr(owner, "__globals__"):
            globalns = owner.__globals__
    try:
        return eval(ann, dict(globalns))  # noqa: S307 - controlled input
    except Exception as exc:
        raise LoweringError(f"cannot resolve annotation {ann!r}: {exc}") from exc


def resolve_annotation(ann, owner=None) -> Type:
    """Resolve a guest annotation object to a :class:`Type`.

    Accepts framework type objects, the Python builtins ``int``/``float``/
    ``bool``, ``None``, ``@wootin`` classes, ``shared(...)`` wrappers, and
    string annotations (evaluated against the owner's module globals, for
    ``from __future__ import annotations`` users).
    """
    # under `from __future__ import annotations`, a quoted forward reference
    # like `other: "Pair"` stringizes to '"Pair"' — evaluate until resolved
    depth = 0
    while isinstance(ann, str) and depth < 4:
        ann = _eval_annotation_string(ann, owner)
        depth += 1
    from repro.lang.annotations import Shared

    if isinstance(ann, Shared):
        return ann.inner
    if isinstance(ann, Type):
        return ann
    if ann is int:
        return I64
    if ann is float:
        return F64
    if ann is bool:
        return BOOL
    if ann is None or ann is type(None):
        return VOID
    if isinstance(ann, type):
        info = wootin_info(ann)
        if info is not None:
            return info.type
    raise LoweringError(f"unsupported type annotation {ann!r}")


def is_numeric(ty: Type) -> bool:
    """Whether a type participates in arithmetic (primitive, non-bool)."""
    return isinstance(ty, PrimType) and ty is not BOOL


def promote(a: PrimType, b: PrimType) -> PrimType:
    """C-style arithmetic promotion between two primitive types."""
    return a if a.rank >= b.rank else b
