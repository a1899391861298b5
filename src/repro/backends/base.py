"""Backend interface and the optimization-level ablation.

The paper's evaluation compares four native program families that differ
only in how object orientation is compiled away.  :class:`OptLevel`
reproduces them as modes of one emitter, so every comparator runs the same
algorithm from the same IR:

=============  ==================  ==========================================
OptLevel       Paper comparator    Realization in the C backend
=============  ==================  ==========================================
``VIRTUAL``    *C++* (naive)       every method call dispatches through a
                                   volatile function-pointer table indexed by
                                   a runtime class id (a vtable the compiler
                                   cannot see through); snapshot scalar
                                   fields are runtime loads
``DEVIRT``     *Template*          all calls direct (devirtualized), but
                                   objects stay materialized: snapshot
                                   scalars remain runtime loads from the
                                   per-rank snapshot struct
``NOVIRT``     *Template w/o       direct calls + snapshot scalars folded to
               virt.*              literals, but dynamic objects remain
                                   struct values
``FULL``       *WootinJ*           direct calls + constant folding + object
                                   inlining (snapshot objects fully elided;
                                   dynamic objects scalarized)
=============  ==================  ==========================================

The Python backend always emits at ``FULL`` (it exists for portability and
differential testing, not performance comparison; the "Java on a JVM" bar is
direct CPython execution of the class library, no backend involved).
"""

from __future__ import annotations

import enum
from typing import TYPE_CHECKING, Sequence

import numpy as np

if TYPE_CHECKING:
    from repro.jit.program import Program
    from repro.jit.runtime import RuntimeEnv

__all__ = ["OptLevel", "Backend", "CompiledProgram", "is_pure", "passed_params"]


class OptLevel(enum.Enum):
    """Optimization level = paper comparator (see module docstring)."""

    VIRTUAL = "virtual"   # paper: C++ (virtual functions)
    DEVIRT = "devirt"     # paper: Template (devirtualized by templates)
    NOVIRT = "novirt"     # paper: Template w/o virt. (manually flattened)
    FULL = "full"         # paper: WootinJ (devirt + object inlining)

    @property
    def devirtualize(self) -> bool:
        return self is not OptLevel.VIRTUAL

    @property
    def fold_constants(self) -> bool:
        return self in (OptLevel.NOVIRT, OptLevel.FULL)

    @property
    def inline_objects(self) -> bool:
        return self is OptLevel.FULL


class CompiledProgram:
    """A translated program ready to run on one rank.

    ``run(env, arrays)`` executes the entry method in memory only the call
    holds: it deep-copies ``arrays`` (the flattened entry array slots) and
    never writes them; ``env`` provides the runtime callbacks (MPI, GPU
    timing, outputs).  Returns the entry method's return value (primitives
    only cross back by value; arrays come back through ``wj.output`` labels).

    Instances must be safe to ``run`` from multiple threads at once after
    construction: the JIT service shares one compiled artifact across every
    ``JitCode`` that hit the same cache key, and the tiered mode hot-swaps
    a ``JitCode``'s artifact while other threads may be invoking it.
    """

    #: generated source, for inspection / docs / tests
    source: str = ""

    #: native-build breakdown (see cbackend.build.BuildStats), when any
    build_stats: "dict | None" = None

    #: optimizer decisions taken at emit time, merged into
    #: ``JitReport.opt_stats`` (C: ``parallel``, py: ``py_slots``), when any
    opt_stats: "dict | None" = None

    def run(self, env: "RuntimeEnv", arrays: Sequence[np.ndarray]):
        raise NotImplementedError


class Backend:
    """Turns a specialized :class:`~repro.jit.program.Program` into a
    :class:`CompiledProgram`."""

    name: str = "?"

    #: True when ``compile`` runs an external native toolchain (slow but
    #: fast to execute).  The tiered JIT service answers on a non-native
    #: backend first and promotes to a native artifact in the background;
    #: requesting ``tiered=True`` against a non-native backend is a no-op.
    native: bool = False

    def compile(self, program: "Program", opt: OptLevel) -> CompiledProgram:
        raise NotImplementedError


# ---------------------------------------------------------------------------
# shared emitter helpers
# ---------------------------------------------------------------------------

def is_pure(expr) -> bool:
    """Whether folding ``expr`` to its constant can drop no side effects."""
    from repro.frontend import ir

    if isinstance(expr, (ir.Const, ir.LocalRef)):
        return True
    if isinstance(expr, ir.FieldLoad):
        return is_pure(expr.obj)
    if isinstance(expr, ir.Cast):
        return is_pure(expr.value)
    if isinstance(expr, (ir.BinOp, ir.Compare)):
        return is_pure(expr.left) and is_pure(expr.right)
    if isinstance(expr, ir.UnaryOp):
        return is_pure(expr.operand)
    if isinstance(expr, ir.BoolOp):
        return all(is_pure(v) for v in expr.values)
    if isinstance(expr, ir.ArrayLen):
        return is_pure(expr.arr)
    return False


def compute_local_shapes(func_ir) -> dict:
    """Final per-local shapes for one function: every shape a local is
    observed with, merged — this governs the local's runtime representation
    (e.g. a local that merges two snapshot objects becomes a dynamic value).
    """
    from repro.frontend import ir
    from repro.frontend.shapes import PrimShape, merge_shapes
    from repro.lang import types as _t

    shapes: dict = {}
    if func_ir.self_shape is not None:
        shapes["self"] = func_ir.self_shape
    for name, shape in zip(func_ir.param_names, func_ir.param_shapes):
        shapes[name] = shape

    def note(name, shape):
        if shape is None:
            return
        if name in shapes:
            try:
                shapes[name] = merge_shapes(shapes[name], shape, where=name)
            except Exception:
                shapes[name] = shape
        else:
            shapes[name] = shape

    def walk(stmts):
        for s in stmts:
            if isinstance(s, (ir.LocalDecl, ir.Assign)):
                note(s.name, s.value.shape)
            elif isinstance(s, ir.If):
                walk(s.then)
                walk(s.orelse)
            elif isinstance(s, ir.ForRange):
                note(s.var, PrimShape(_t.I64))
                walk(s.body)
            elif isinstance(s, ir.While):
                walk(s.body)
            # this statement's own expressions only: the recursion above
            # already covered its nested blocks
            for top in ir.stmt_exprs(s):
                for e in ir.walk_exprs(top):
                    if isinstance(e, ir.LocalRef):
                        note(e.name, e.shape)

    walk(func_ir.body)
    return shapes


def passed_params(func_ir) -> list:
    """The runtime parameters of a specialized function: ``self`` (when the
    receiver is a dynamic value) plus every non-snapshot-object parameter.
    Snapshot-shaped object parameters are elided — the callee reaches them
    through the per-rank snapshot state (object inlining of the composed
    application object).  Returns [(name, shape), ...]."""
    from repro.frontend.shapes import ObjShape

    out = []
    if func_ir.self_shape is not None and not func_ir.self_shape.from_snapshot:
        out.append(("self", func_ir.self_shape))
    for name, shape in zip(func_ir.param_names, func_ir.param_shapes):
        if isinstance(shape, ObjShape) and shape.from_snapshot:
            continue
        out.append((name, shape))
    return out
