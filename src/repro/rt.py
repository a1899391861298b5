"""Thread-local runtime context for *interpreted* guest execution.

The paper's class libraries are plain Java and can run directly on the JVM
(§4.4).  Our guest libraries likewise run directly under CPython; when they
do, calls such as ``MPI.rank()``, ``cuda.thread_idx_x()`` or ``wj.output(...)``
must still mean something.  This module holds the per-thread bindings that
give them meaning: the active simulated-MPI rank context, the active
simulated-CUDA device context, and the output sink.

Translated code does not use this module — the backends route the same
operations through explicit runtime callbacks instead.
"""

from __future__ import annotations

import threading
from typing import Any

__all__ = ["current", "RtContext"]


class RtContext(threading.local):
    """Per-thread runtime bindings for interpreted guest code."""

    def __init__(self):
        self.mpi_ctx: Any = None  # repro.mpi.comm.RankContext when inside mpirun
        self.cuda_ctx: Any = None  # repro.cuda.kernel.ThreadContext inside kernels
        self.cuda_device: Any = None  # repro.cuda.device.SimulatedGpu when bound
        self.outputs: dict[str, Any] | None = None

    def record_output(self, name: str, array) -> None:
        import numpy as np

        if self.mpi_ctx is not None:
            # inside mpirun the rank's context collects its outputs
            sink = self.mpi_ctx.outputs
        else:
            if self.outputs is None:
                self.outputs = {}
            sink = self.outputs
        sink[name] = np.array(array, copy=True)

    def take_outputs(self) -> dict[str, Any]:
        out = self.outputs or {}
        self.outputs = None
        return out

    def reset(self) -> None:
        """Drop every binding (a clean slate for interpreted reference runs
        — e.g. the differential harness — so no simulated-MPI/CUDA context
        or pending outputs leak between executions)."""
        self.mpi_ctx = None
        self.cuda_ctx = None
        self.cuda_device = None
        self.outputs = None


current = RtContext()
