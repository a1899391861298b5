"""The ``mpirun`` launcher.

The paper's ``code.invoke()`` runs the translated program under ``mpirun``
(§3.1).  Our launcher runs every rank of a multi-rank world on its own OS
thread (a lone rank runs on the caller's), binds a
:class:`~repro.mpi.comm.RankContext` into the thread-local runtime, runs the
given per-rank callable, and returns per-rank results, labeled outputs, and
final virtual clocks.  It is used both by the JIT engine (translated code)
and directly for interpreted runs.  The engine launches only the programs
that need it: one that calls MPI or the GPU, or runs on more than one rank.
A one-rank program with neither runs on the caller's thread with no
launcher, communicator or rank context at all (``JitCode.invoke``).

Rank threads start once: a finished rank's thread parks on a lock in
``_IDLE`` and the next ``mpirun`` hands it a job instead of paying a
``pthread_create`` per rank per call.  The list grows to the largest number
of ranks ever in flight at once.  A parked thread carries nothing in
``repro.rt`` from one job to the next (every job starts from ``reset()``);
what it does keep is the C library's: its malloc arena and its libgomp team.
"""

from __future__ import annotations

import os
import threading
from dataclasses import dataclass, field
from typing import Callable

from repro.errors import MpiError
from repro.mpi.comm import Communicator, RankContext
from repro.mpi.netmodel import NetworkModel, TSUBAME_NET
from repro.obs import trace as _trace
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


#: parked rank threads; ``pop``/``append`` are atomic, so no lock (the way
#: ``CCompiled._frames`` pools call frames)
_IDLE: list["_Worker"] = []
# the child of a fork has the list but none of its threads
os.register_at_fork(after_in_child=_IDLE.clear)


class _Worker:
    """A daemon thread that runs one rank job at a time and parks between."""

    def __init__(self):
        self._go = threading.Lock()
        self._go.acquire()
        threading.Thread(target=self._loop, daemon=True,
                         name="mpi-rank-worker").start()

    def submit(self, job: Callable[[int], None], rank: int,
               finished: Callable[[], None]):
        self._job = job, rank, finished
        self._go.release()

    def _loop(self):
        while True:
            self._go.acquire()
            job, rank, finished = self._job
            _rt.reset()  # a fresh thread had no bindings; a reused one must not
            job(rank)
            del self._job, job  # a parked thread keeps no run alive
            # parked before the caller can come back for a worker
            _IDLE.append(self)
            finished()


def _idle_worker() -> _Worker:
    try:
        return _IDLE.pop()
    except IndexError:
        return _Worker()


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
    blocked peers wake) and re-raise on the caller.  ``timeout_s`` bounds
    the whole run; a rank still running then is abandoned with its thread.
    """
    comm = Communicator(nranks, net=net)
    # every rank fills its own entries; they are read only if all finished
    res = MpiRunResult(nranks, [None] * nranks, [None] * nranks,
                       [0.0] * nranks, [0.0] * nranks, [0.0] * nranks)
    errors: list[tuple[int, BaseException]] = []
    # a lone no-op rank is a few microseconds: with tracing off, the spans
    # cost this one check (as in ``JitCode.invoke``)
    tracing = _trace.enabled()

    def run_rank(rank: int):
        span = _trace.phases("mpi.rank", rank=rank) if tracing else None
        # built on the rank's own thread, so the clock's first mark is its
        ctx = RankContext(rank, comm)
        ctx.gpu_model = gpu_model
        _rt.mpi_ctx = ctx  # also where ``wj.output`` finds ``ctx.outputs``
        res.outputs[rank] = ctx.outputs
        ctx.acquire_token()
        try:
            res.returns[rank] = body(ctx)
            clock = ctx.clock
            clock.sync_cpu()
            res.clocks[rank] = clock.t
            res.comm_times[rank] = clock.comm_time
            res.device_times[rank] = clock.device_time
        except BaseException as exc:
            errors.append((rank, exc))
            comm.abort(exc)
        finally:
            ctx.release_token()
            _rt.mpi_ctx = None
            if span:
                span.end()

    span = _trace.phases("mpi.run", nranks=nranks) if tracing else None
    try:
        if nranks == 1:
            run_rank(0)
        else:
            unfinished, done = [None] * (nranks - 1), threading.Lock()
            done.acquire()

            def finished():
                # every rank but the last to finish pops one (atomically);
                # the last finds the list empty and wakes the caller
                try:
                    unfinished.pop()
                except IndexError:
                    done.release()

            for rank in range(nranks):
                _idle_worker().submit(run_rank, rank, finished)
            if not done.acquire(timeout=timeout_s):
                comm.abort(MpiError("mpirun timed out"))
                raise MpiError(f"mpirun timed out after {timeout_s}s")
    finally:
        if span:
            span.end()
    if errors:
        rank, exc = errors[0]
        raise MpiError(f"rank {rank} failed: {exc!r}") from exc
    return res
