"""The ``mpirun`` launcher.

The paper's ``code.invoke()`` runs the translated program under ``mpirun``
(§3.1).  Our launcher spawns one OS thread per rank, binds a
:class:`~repro.mpi.comm.RankContext` into the thread-local runtime, runs the
given per-rank callable, and returns per-rank results, labeled outputs, and
final virtual clocks.  It is used both by the JIT engine (translated code)
and directly for interpreted runs.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from typing import Callable, Optional

from repro.errors import MpiError
from repro.mpi.comm import Communicator, RankContext
from repro.mpi.netmodel import NetworkModel, TSUBAME_NET
from repro.obs.trace import span as _span
from repro.rt import current as _rt

__all__ = ["mpirun", "MpiRunResult"]


@dataclass
class MpiRunResult:
    """Outcome of one simulated MPI run."""

    nranks: int
    returns: list = field(default_factory=list)      # per-rank return values
    outputs: list = field(default_factory=list)      # per-rank {label: array}
    clocks: list = field(default_factory=list)       # per-rank final virtual t
    comm_times: list = field(default_factory=list)   # per-rank modeled comm time
    device_times: list = field(default_factory=list)  # per-rank modeled GPU time

    @property
    def sim_wall_clock(self) -> float:
        """Simulated wall-clock of the whole run (slowest rank)."""
        return max(self.clocks) if self.clocks else 0.0


def mpirun(
    nranks: int,
    body: Callable[[RankContext], object],
    *,
    net: NetworkModel = TSUBAME_NET,
    gpu_model=None,
    timeout_s: float = 600.0,
) -> MpiRunResult:
    """Run ``body(rank_ctx)`` on ``nranks`` simulated ranks.

    ``body`` receives the :class:`RankContext`; while it runs, the context is
    also bound thread-locally, so guest-library ``MPI.x()`` statics work
    without plumbing.  Exceptions on any rank abort the communicator (so
    blocked peers wake) and re-raise on the caller.
    """
    comm = Communicator(nranks, net=net)
    ctxs = [RankContext(r, comm) for r in range(nranks)]
    for ctx in ctxs:
        ctx.gpu_model = gpu_model
    returns: list = [None] * nranks
    errors: list[tuple[int, BaseException]] = []

    def run_rank(ctx: RankContext):
        with _span("mpi.rank", rank=ctx.rank):
            _rt.mpi_ctx = ctx
            _rt.outputs = None
            ctx.acquire_token()
            ctx.clock.start()
            try:
                returns[ctx.rank] = body(ctx)
                ctx.clock.sync_cpu()
            except BaseException as exc:
                errors.append((ctx.rank, exc))
                comm.abort(exc)
            finally:
                ctx.release_token()
                ctx.outputs.update(_rt.take_outputs())
                _rt.mpi_ctx = None

    with _span("mpi.run", nranks=nranks):
        if nranks == 1:
            # run in-thread: cheap, keeps single-rank benches allocation-free
            run_rank(ctxs[0])
        else:
            threads = [
                threading.Thread(target=run_rank, args=(ctx,), daemon=True,
                                 name=f"rank-{ctx.rank}")
                for ctx in ctxs
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=timeout_s)
                if t.is_alive():
                    comm.abort(MpiError(f"rank thread {t.name} timed out"))
                    raise MpiError(
                        f"mpirun timed out after {timeout_s}s ({t.name})"
                    )
    if errors:
        rank, exc = errors[0]
        raise MpiError(f"rank {rank} failed: {exc!r}") from exc
    result = MpiRunResult(nranks=nranks, returns=returns)
    for ctx in ctxs:
        clock = ctx.clock
        result.outputs.append(ctx.outputs)
        result.clocks.append(clock.t)
        result.comm_times.append(clock.comm_time)
        result.device_times.append(clock.device_time)
    return result
