"""Loader for the py backend's artifacts: source text → runnable program.

This is the py backend's counterpart of ``cbackend/bridge.py``: everything
needed to *run* emitted flat Python — whether it was emitted a moment ago or
read back from the disk tier — and nothing needed to emit it, so hydrating a
cached py artifact imports neither the emitter nor the IR.
"""

from __future__ import annotations

import math
from types import SimpleNamespace
from typing import Sequence

import numpy as np

from repro.backends.base import CompiledProgram, check_slots, slot_guard
from repro.frontend.shapes import ArrayShape
from repro.jit.program import Program
from repro.lang.intrinsics import (
    _MATH_NAMES, _dgemm_py, _lcg64_py, _u01_py, intrinsic_registry,
)
from repro.obs import trace as _trace

__all__ = ["snap_attr"]


def snap_attr(path: str) -> str:
    """Mangle a snapshot path ('self.solver') to an attribute name."""
    return path.replace(".", "_")


def _ld_checked(arr, idx):
    """Bounds-checked array load for the py backend's REPRO_BOUNDS mode."""
    i = int(idx)
    if not 0 <= i < len(arr):
        from repro.errors import GuestRuntimeError

        raise GuestRuntimeError(
            f"out-of-bounds array access in translated code: index {i} "
            f"not in [0, {len(arr)}) (debug bounds checking)"
        )
    return arr[i]


def _st_checked(arr, idx, value):
    """Bounds-checked array store for the py backend's REPRO_BOUNDS mode."""
    i = int(idx)
    if not 0 <= i < len(arr):
        from repro.errors import GuestRuntimeError

        raise GuestRuntimeError(
            f"out-of-bounds array access in translated code: index {i} "
            f"not in [0, {len(arr)}) (debug bounds checking)"
        )
    arr[i] = value


#: what every artifact's globals start from, built once per process
_GLOBALS = {
    "__np": np,
    "__inf": math.inf,
    "__nan": math.nan,
    **{f"__m_{name}": getattr(math, name) for name in _MATH_NAMES},
    "__f32": lambda x: float(np.float32(x)),
    "__i32": lambda x: int(np.int32(int(x))),
    "__noop": lambda *a: None,
    "__wj_lcg64": _lcg64_py,
    "__wj_u01": _u01_py,
    "__wj_dgemm": _dgemm_py,
    "__wj_ld": _ld_checked,
    "__wj_st": _st_checked,
}


class _PyCompiled(CompiledProgram):
    """Emitted Python, exec'd into its own globals.

    ``code`` is the module code object of ``source`` when the caller has it
    already — a disk hit unmarshals the one the cache entry stored — so only
    a freshly emitted program pays for CPython's compiler."""

    def __init__(self, program: Program, source: str, *,
                 bounds_checks: bool = False, code=None):
        self.program = program
        self.source = source
        self.bounds_checks = bounds_checks
        # a @foreign function may be registered at any time: its table is
        # read per artifact, the rest is copied
        self._globals = {**_GLOBALS, "__ffi": _ffi_table()}
        if code is None:
            code = compile(source, "<repro-pybackend>", "exec")
        self.code = code
        exec(code, self._globals)  # noqa: S102 - our own generated code
        self._entry = self._globals["__entry"]
        # the emitted source carries its own slot decisions, so an artifact
        # hydrated from the disk tier runs exactly as the one that emitted it
        self.opt_stats = {"py_slots": self._globals["__py_slots"]}
        self._list_slots = self._globals["__list_slots"]
        self._guard = slot_guard((s.array.size, s.array.dtype)
                                 for s in program.snapshot.array_slots)
        self._snap_layout = [
            (snap_attr(path),
             [(fname, fshape.slot) for fname, fshape in oshape.fields.items()
              if isinstance(fshape, ArrayShape) and fshape.slot is not None])
            for path, oshape in program.snapshot.objects]

    def run(self, env, arrays: Sequence[np.ndarray]):
        check_slots(self._guard, arrays)
        phase = _trace.phases("invoke.copy") if _trace.enabled() else None
        # the deep copy into this call's memory: a list slot is its own copy
        vals = [a.tolist() if k in self._list_slots else np.array(a, copy=True)
                for k, a in enumerate(arrays)]
        if phase:
            phase.end()
        snap = SimpleNamespace(**{
            attr: SimpleNamespace(**{fname: vals[k] for fname, k in fields})
            for attr, fields in self._snap_layout})
        return self._entry(env, snap, vals)


def _ffi_table() -> dict:
    table = {}
    for root_table in intrinsic_registry._by_root.values():
        for spec in root_table.values():
            if spec.foreign is not None:
                table[spec.foreign.cname] = spec.pyimpl
    return table
