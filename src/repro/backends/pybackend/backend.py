"""The py backend driver: emit → exec.

Like ``cbackend/backend.py`` the driver is on the cache-hit path (``jit()``
constructs a backend before it probes the cache), so it imports only the
loader; the emitter belongs to the compile stack and is imported by
:meth:`PyBackend.compile`, i.e. by the first miss.
"""

from __future__ import annotations

from repro.backends.base import Backend, CompiledProgram, OptLevel
from repro.backends.pybackend.loader import _PyCompiled
from repro.env import env_flag
from repro.jit.program import Program

__all__ = ["PyBackend"]


class PyBackend(Backend):
    """Emit flat specialized Python and exec it (portable backend).

    Like the C backend, honors ``REPRO_BOUNDS`` (debug bounds checking):
    unproven array accesses go through checked helpers that raise
    :class:`~repro.errors.GuestRuntimeError` on out-of-bounds indices —
    numpy alone would silently accept negative indices."""

    name = "py"

    def __init__(self, *, bounds_checks: bool | None = None):
        if bounds_checks is None:
            bounds_checks = env_flag("REPRO_BOUNDS", default=False)
        self.bounds_checks = bounds_checks

    def compile(self, program: Program, opt: OptLevel) -> CompiledProgram:
        from repro.backends.pybackend.emit import _ProgramEmitter

        # the Python backend always emits at FULL optimization (see base.py)
        source = _ProgramEmitter(
            program, bounds_checks=self.bounds_checks).emit()
        return _PyCompiled(program, source,
                           bounds_checks=self.bounds_checks)
