"""Program: the unit handed from the specializer to a backend."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from repro.frontend.objectgraph import Snapshot
from repro.frontend.shapes import ObjShape, Shape

__all__ = ["Program"]


@dataclass
class Program:
    """Everything a backend needs to emit one translated program.

    ``specializations`` is in dependency order (callees before callers;
    the entry specialization is last).  ``snapshot`` carries the immutable
    object graph (materialization layout + array slots); ``entry`` is the
    entry method's specialization.
    """

    snapshot: Snapshot
    specializations: list = field(default_factory=list)
    entry: object = None
    recv_shape: Optional[ObjShape] = None
    arg_shapes: list = field(default_factory=list)
    n_sites: int = 0
    uses_mpi: bool = False
    uses_gpu: bool = False

    def rebind(self, snapshot: Snapshot, recv_shape, arg_shapes) -> "Program":
        """A copy bound to a freshly-captured snapshot (cache-hit path):
        the translated code is shared, but array slots index into the new
        capture so each JitCode invokes against its own recorded arrays."""
        return Program(
            snapshot=snapshot,
            specializations=self.specializations,
            entry=self.entry,
            recv_shape=recv_shape,
            arg_shapes=arg_shapes,
            n_sites=self.n_sites,
            uses_mpi=self.uses_mpi,
            uses_gpu=self.uses_gpu,
        )
