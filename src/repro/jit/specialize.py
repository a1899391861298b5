"""Monomorphic specialization — the devirtualizer.

Each guest method is lowered once per distinct (receiver shape, argument
shapes, device flag) combination, depth-first from the entry method, so that
callees' return shapes are known when their callers lower (this is the
paper's "WootinJ may generate multiple function declarations from a single
method implementation for different types of the arguments", §3.3).

Recursion — direct or mutual — shows up here as a specialization that is
requested while still being lowered; the coding rules forbid it (rule 6) and
it is reported as such.
"""

from __future__ import annotations

from typing import Optional

from repro.errors import CodingRuleViolation
from repro.frontend.lower import lower_method
from repro.frontend.shapes import ObjShape, Shape, shape_digest
from repro.jit.program import Program

__all__ = ["Specialization", "Specializer"]


class Specialization:
    """One (method × concrete shapes) translation unit."""

    def __init__(self, minfo, self_shape: ObjShape, arg_shapes, device: bool, symbol: str):
        self.minfo = minfo
        self.self_shape = self_shape
        self.arg_shapes = list(arg_shapes)
        self.device = device
        self.symbol = symbol
        self.func_ir = None  # FuncIR, set when lowering completes
        self._lowering = True

    @property
    def ret_type(self):
        if self.func_ir is None:
            raise CodingRuleViolation(
                f"recursive call involving {self.minfo} — recursion is not "
                f"allowed in translated code",
                rule=6,
            )
        return self.func_ir.ret_type

    @property
    def ret_shape(self) -> Optional[Shape]:
        if self.func_ir is None:
            raise CodingRuleViolation(
                f"recursive call involving {self.minfo} — recursion is not "
                f"allowed in translated code",
                rule=6,
            )
        return self.func_ir.ret_shape

    def __repr__(self) -> str:
        return f"<spec {self.symbol} of {self.minfo}{' [device]' if self.device else ''}>"


def _sym_sanitize(name: str) -> str:
    return "".join(c if c.isalnum() else "_" for c in name)


class Specializer:
    """Drives lowering; implements the engine protocol lowering expects
    (``specialize`` and ``new_site_id``)."""

    def __init__(self, program: Program, pipeline=None):
        self.program = program
        #: optional mid-end pass pipeline (repro.opt.Pipeline); runs over
        #: each specialization right after it lowers — post-order, so a
        #: callee is already optimized when its caller's pipeline runs
        self.pipeline = pipeline
        self._cache: dict[tuple, Specialization] = {}
        self._counter = 0
        # methods currently being lowered: any re-entry — even with
        # different argument shapes (constant propagation can unroll a
        # recursion into ever-new specializations) — is recursion (rule 6)
        self._lowering_stack: list[int] = []
        #: ``(root_path, field)`` of every snapshot array field a lowered
        #: ``FieldStore`` rebinds to an array not known to have its
        #: captured length (see ``repro.jit.engine._translate``)
        self.resized: set = set()

    # -- protocol used by repro.frontend.lower ---------------------------

    def new_site_id(self) -> int:
        sid = self.program.n_sites
        self.program.n_sites += 1
        return sid

    def specialize(self, minfo, self_shape: ObjShape, arg_shapes, *, device: bool = False) -> Specialization:
        key = (
            id(minfo),
            shape_digest(self_shape),
            tuple(shape_digest(s) for s in arg_shapes),
            device,
        )
        spec = self._cache.get(key)
        if spec is not None:
            if spec.func_ir is None:
                raise CodingRuleViolation(
                    f"recursive call cycle through {minfo} — recursion is not "
                    f"allowed in translated code",
                    rule=6,
                )
            return spec
        self._counter += 1
        symbol = (
            f"wj_{_sym_sanitize(minfo.owner.name)}_{_sym_sanitize(minfo.name)}"
            f"_{self._counter}{'_dev' if device else ''}"
        )
        if id(minfo) in self._lowering_stack:
            raise CodingRuleViolation(
                f"recursive call cycle through {minfo} — recursion is not "
                f"allowed in translated code",
                rule=6,
            )
        spec = Specialization(minfo, self_shape, arg_shapes, device, symbol)
        self._cache[key] = spec
        self._lowering_stack.append(id(minfo))
        try:
            func_ir = lower_method(self, minfo, self_shape, arg_shapes, device=device)
        finally:
            self._lowering_stack.pop()
        func_ir.symbol = symbol
        spec.func_ir = func_ir
        if self.pipeline is not None:
            self.pipeline.run_func(func_ir)
        # post-order append: callees land before callers
        self.program.specializations.append(spec)
        self._scan_platform_use(func_ir)
        return spec

    def _scan_platform_use(self, func_ir) -> None:
        from repro.frontend import ir as _ir

        for expr in _ir.walk_exprs(func_ir.body):
            if isinstance(expr, _ir.IntrinsicCall):
                if expr.key.startswith("mpi."):
                    self.program.uses_mpi = True
                elif expr.key.startswith("cuda."):
                    self.program.uses_gpu = True
            elif isinstance(expr, _ir.KernelLaunch):
                self.program.uses_gpu = True
