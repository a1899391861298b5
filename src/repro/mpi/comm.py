"""Communicator: real data exchange between rank threads + virtual time.

Execution model
---------------
Each rank is an OS thread executing the real program.  Sends are *eager*
(the payload is copied into the matching queue immediately, so a blocking
ring exchange cannot deadlock); receives block the rank thread until a
matching message exists.  Matching is by exact ``(source, tag)`` FIFO order,
which — together with per-sender program order — makes data exchange
deterministic.

Virtual time
------------
Each rank's :class:`VirtualClock` accumulates *measured* per-thread CPU time
for compute segments (``time.thread_time`` — unaffected by how the one
physical core interleaves the rank threads) and *modeled* time for
communication.  A receive completes at

    t_recv_out = max(t_recv_in, t_send + α + n/β)

(Lamport max semantics); collectives synchronize every rank to the max
participant clock plus the modeled collective cost.  The per-rank final
clocks are the simulated wall-clock the scaling figures report.
"""

from __future__ import annotations

import threading
import time
from collections import deque
from typing import Callable, Optional

import numpy as np

from repro.errors import MpiError
from repro.mpi.netmodel import NetworkModel, TSUBAME_NET

__all__ = ["VirtualClock", "Communicator", "RankContext"]


class VirtualClock:
    """Per-rank simulated clock fed by measured CPU segments and modeled
    communication/device events."""

    __slots__ = ("t", "_mark", "comm_time", "device_time")

    def __init__(self):
        self.t = 0.0
        self._mark = time.thread_time()
        #: bookkeeping for reports
        self.comm_time = 0.0
        self.device_time = 0.0

    def sync_cpu(self, deduct: float = 0.0) -> None:
        """Fold the CPU time since the last mark into the clock.

        ``deduct`` removes calibrated instrumentation cost (e.g. the ctypes
        callback transition preceding a runtime op — see
        :mod:`repro.mpi.calibrate`), clamped so time never goes backwards.
        """
        now = time.thread_time()
        dt = now - self._mark - deduct
        if dt > 0.0:
            self.t += dt
        self._mark = now

    def exclude(self) -> None:
        """Drop CPU time since the last mark (simulator overhead)."""
        self._mark = time.thread_time()

    def advance(self, dt: float, *, kind: str = "comm") -> None:
        """Add modeled time (communication or device)."""
        self.t += dt
        if kind == "comm":
            self.comm_time += dt
        elif kind == "device":
            self.device_time += dt

    def to_at_least(self, t: float, *, kind: str = "comm") -> None:
        """Lamport max: waiting for an event that completes at time ``t``."""
        if t > self.t:
            self.advance(t - self.t, kind=kind)

    def measure_excluded(self) -> float:
        """Return CPU seconds since the last mark and re-mark, *without*
        advancing the clock — used to convert emulated device work into
        modeled device time."""
        now = time.thread_time()
        dt = now - self._mark
        self._mark = now
        return dt


class _Message:
    __slots__ = ("payload", "nbytes", "send_t")

    def __init__(self, payload, nbytes: int, send_t: float):
        self.payload = payload
        self.nbytes = nbytes
        self.send_t = send_t


class _CollectiveSlot:
    """Rendezvous state for the i-th collective call on a communicator."""

    def __init__(self, kind: str, size: int):
        self.kind = kind
        self.size = size
        self.arrived: dict[int, tuple[float, object]] = {}
        self.result = None
        self.done = False


#: every 1-rank communicator's condition: never waited on, held only for
#: the few statements of a collective that completes on arrival
_LONE_RANK_LOCK = threading.Condition()


class Communicator:
    """A simulated MPI communicator over ``size`` rank threads."""

    def __init__(self, size: int, net: NetworkModel = TSUBAME_NET):
        if size < 1:
            raise MpiError(f"communicator size must be >= 1, got {size}")
        self.size = size
        self.net = net
        # a lone rank has no peer to wait for or to wake
        self._lock = threading.Condition() if size > 1 else _LONE_RANK_LOCK
        self._queues: dict[tuple[int, int, int], deque] = {}
        self._coll: dict[int, _CollectiveSlot] = {}
        self.aborted: Optional[BaseException] = None
        #: compute token: rank threads hold it while executing compute
        #: segments and release it only inside communication ops, so each
        #: segment's measured CPU time is not polluted by cache interference
        #: from other rank threads sharing the one physical core (on the
        #: real machine each rank has its own node).
        self.run_lock = threading.Lock()

    # ------------------------------------------------------------------
    def abort(self, exc: BaseException) -> None:
        """Wake all blocked ranks after a rank died (propagates the error)."""
        with self._lock:
            self.aborted = exc
            self._lock.notify_all()

    def _check_abort(self):
        if self.aborted is not None:
            raise MpiError(f"communicator aborted: {self.aborted!r}") from self.aborted

    def _check_rank(self, rank: int, what: str) -> None:
        if not (0 <= rank < self.size):
            raise MpiError(f"{what} rank {rank} out of range [0, {self.size})")

    # -- point to point -------------------------------------------------
    def send(self, ctx: "RankContext", data: np.ndarray, dest: int, tag: int) -> None:
        self._check_rank(dest, "destination")
        if dest == ctx.rank:
            raise MpiError("send to self is not supported (use a local copy)")
        ctx.clock.sync_cpu()
        ctx.release_token()
        try:
            payload = np.array(data, copy=True)
            msg = _Message(payload, payload.nbytes, ctx.clock.t)
            with self._lock:
                self._check_abort()
                self._queues.setdefault((ctx.rank, dest, tag), deque()).append(msg)
                self._lock.notify_all()
        finally:
            ctx.acquire_token()
        # eager send: sender pays the injection overhead only
        ctx.clock.advance(self.net.latency_s)
        ctx.clock.exclude()

    def recv(self, ctx: "RankContext", out: np.ndarray, source: int, tag: int) -> None:
        self._check_rank(source, "source")
        if source == ctx.rank:
            raise MpiError("recv from self is not supported")
        ctx.clock.sync_cpu()
        ctx.release_token()
        try:
            key = (source, ctx.rank, tag)
            with self._lock:
                while True:
                    self._check_abort()
                    q = self._queues.get(key)
                    if q:
                        msg = q.popleft()
                        break
                    self._lock.wait(timeout=60.0)
        finally:
            ctx.acquire_token()
        if msg.payload.size != out.size:
            raise MpiError(
                f"recv size mismatch: message has {msg.payload.size} elements, "
                f"buffer has {out.size}"
            )
        out[...] = msg.payload.astype(out.dtype, copy=False)
        ctx.clock.to_at_least(msg.send_t + self.net.ptp_time(msg.nbytes))
        ctx.clock.exclude()

    def sendrecv(
        self,
        ctx: "RankContext",
        senddata: np.ndarray,
        dest: int,
        out: np.ndarray,
        source: int,
        tag: int,
    ) -> None:
        self.send(ctx, senddata, dest, tag)
        self.recv(ctx, out, source, tag)

    # -- collectives ------------------------------------------------------
    def _collective(self, ctx: "RankContext", kind: str, contribution,
                    compute: Callable[[dict], object]):
        """Generic rendezvous: all ranks contribute, one computes, all get
        (result, t_max).  Collectives must be called in the same order on
        every rank (standard MPI semantics, validated here)."""
        ctx.clock.sync_cpu()
        ctx.release_token()
        idx = ctx.coll_index
        ctx.coll_index += 1
        with self._lock:
            self._check_abort()
            slot = self._coll.get(idx)
            if slot is None:
                slot = _CollectiveSlot(kind, self.size)
                self._coll[idx] = slot
            if slot.kind != kind:
                exc = MpiError(
                    f"collective mismatch at call #{idx}: rank {ctx.rank} "
                    f"called {kind}, others called {slot.kind}"
                )
                self.aborted = exc
                self._lock.notify_all()
                raise exc
            slot.arrived[ctx.rank] = (ctx.clock.t, contribution)
            if len(slot.arrived) == self.size:
                slot.result = compute(slot.arrived)
                slot.done = True
                self._lock.notify_all()
            else:
                while not slot.done:
                    self._check_abort()
                    self._lock.wait(timeout=60.0)
            t_max = max(t for t, _ in slot.arrived.values())
            result = slot.result
        ctx.acquire_token()
        ctx.clock.to_at_least(t_max)
        return result

    def barrier(self, ctx: "RankContext") -> None:
        self._collective(ctx, "barrier", None, lambda arrived: None)
        ctx.clock.advance(self.net.barrier_time(self.size))
        ctx.clock.exclude()

    def allreduce_sum(self, ctx: "RankContext", value: float) -> float:
        """Sum ``value`` over the ranks, in rank order whatever order they
        arrived in: the same bits on every run."""
        result = self._collective(
            ctx,
            "allreduce",
            float(value),
            lambda arrived: float(sum(v for _, (_, v) in sorted(
                arrived.items()))),
        )
        ctx.clock.advance(self.net.allreduce_time(8, self.size))
        ctx.clock.exclude()
        return result

    def allreduce_sum_array(self, ctx: "RankContext", data: np.ndarray) -> None:
        """In-place element-wise sum-allreduce of ``data`` across ranks."""
        result = self._collective(
            ctx,
            "allreduce_arr",
            np.array(data, copy=True),
            lambda arrived: sum(v for _, (_, v) in sorted(arrived.items())),
        )
        data[...] = result.astype(data.dtype, copy=False)
        ctx.clock.advance(self.net.allreduce_time(data.nbytes, self.size))
        ctx.clock.exclude()

    def bcast(self, ctx: "RankContext", data: np.ndarray, root: int) -> None:
        self._check_rank(root, "root")
        contribution = np.array(data, copy=True) if ctx.rank == root else None

        def compute(arrived):
            return arrived[root][1]

        result = self._collective(ctx, "bcast", contribution, compute)
        if ctx.rank != root:
            if result.size != data.size:
                raise MpiError(
                    f"bcast size mismatch: root has {result.size}, rank "
                    f"{ctx.rank} buffer has {data.size}"
                )
            data[...] = result.astype(data.dtype, copy=False)
        ctx.clock.advance(self.net.bcast_time(data.nbytes, self.size))
        ctx.clock.exclude()

    def gather(self, ctx: "RankContext", data: np.ndarray, out, root: int) -> None:
        """Gather equal-size contributions into ``out`` (root only)."""
        self._check_rank(root, "root")
        result = self._collective(
            ctx,
            "gather",
            np.array(data, copy=True),
            lambda arrived: [v for _, v in sorted(
                ((r, v) for r, (_, v) in arrived.items())
            )],
        )
        if ctx.rank == root:
            expected = data.size * self.size
            if out.size != expected:
                raise MpiError(
                    f"gather buffer size mismatch: need {expected}, got {out.size}"
                )
            for r, chunk in enumerate(result):
                out[r * data.size:(r + 1) * data.size] = chunk.astype(
                    out.dtype, copy=False
                )
            ctx.clock.advance(self.net.gather_time(data.nbytes, self.size))
        else:
            ctx.clock.advance(self.net.ptp_time(data.nbytes))
        ctx.clock.exclude()


class RankContext:
    """Everything one rank thread needs: identity, communicator, clock."""

    def __init__(self, rank: int, comm: Communicator):
        comm._check_rank(rank, "rank")
        self.rank = rank
        self.comm = comm
        self.clock = VirtualClock()
        self.coll_index = 0
        self._token_held = False
        #: set by the launcher: labeled wj.output arrays from this rank
        self.outputs: dict[str, np.ndarray] = {}
        #: optional GPU timing model bound for this rank (GPU platforms)
        self.gpu_model = None

    @property
    def size(self) -> int:
        return self.comm.size

    # -- compute token (see Communicator.run_lock) ----------------------
    def acquire_token(self) -> None:
        # a lone rank shares its core with no peer: no token, and its
        # clock's mark is the one taken when the context was built
        if not self._token_held and self.comm.size > 1:
            self.comm.run_lock.acquire()
            self._token_held = True
            self.clock.exclude()  # waiting for the core is not compute

    def release_token(self) -> None:
        if self._token_held:
            self._token_held = False
            self.comm.run_lock.release()
