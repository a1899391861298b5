"""Per-rank runtime environment for translated code.

Translated code runs in its own memory space; the only doors back into the
host are the operations the paper's generated C reaches through libraries —
MPI calls, CUDA memory/launch operations — plus our explicit ``wj.output``
result channel.  :class:`RuntimeEnv` implements those doors for one rank:
MPI is serviced by the rank's simulated communicator, GPU events are metered
into the rank's virtual clock via the GPU timing model, and outputs are
copied out by label.

Both backends call the same methods (the C backend through ctypes callback
thunks), so platform semantics live here exactly once.
"""

from __future__ import annotations

import time
from typing import Optional

import numpy as np

from repro.cuda.perf import GpuModel
from repro.errors import MpiError
from repro.mpi.calibrate import callback_entry_overhead
from repro.mpi.comm import RankContext

__all__ = ["RuntimeEnv"]


class RuntimeEnv:
    """Runtime callbacks for one rank of one invocation."""

    def __init__(self, ctx: Optional[RankContext], gpu_model: Optional[GpuModel] = None):
        self.ctx = ctx
        self.gpu_model = gpu_model
        self.outputs: dict[str, np.ndarray] = {}

    def note_native_entry(self) -> None:
        """Called by the C bridge at every callback entry: attribute the CPU
        time since the last runtime event to compute, minus the calibrated
        callback-transition cost (see repro.mpi.calibrate)."""
        if self.ctx is not None:
            self.ctx.clock.sync_cpu(deduct=callback_entry_overhead())

    # -- results ----------------------------------------------------------

    def output(self, label: str, arr) -> None:
        self.outputs[label] = np.array(arr, copy=True)

    # -- MPI --------------------------------------------------------------

    def _mpi(self) -> RankContext:
        if self.ctx is None:
            raise MpiError("MPI operation outside an MPI invocation")
        return self.ctx

    def mpi_rank(self) -> int:
        return 0 if self.ctx is None else self.ctx.rank

    def mpi_size(self) -> int:
        return 1 if self.ctx is None else self.ctx.size

    def mpi_send(self, data, dest, tag) -> None:
        ctx = self._mpi()
        ctx.comm.send(ctx, data, int(dest), int(tag))

    def mpi_recv(self, out, source, tag) -> None:
        ctx = self._mpi()
        ctx.comm.recv(ctx, out, int(source), int(tag))

    def mpi_sendrecv(self, data, dest, out, source, tag) -> None:
        ctx = self._mpi()
        ctx.comm.sendrecv(ctx, data, int(dest), out, int(source), int(tag))

    def mpi_send_part(self, data, offset, count, dest, tag) -> None:
        o, c = int(offset), int(count)
        self.mpi_send(data[o:o + c], dest, tag)

    def mpi_recv_part(self, out, offset, count, source, tag) -> None:
        o, c = int(offset), int(count)
        self.mpi_recv(out[o:o + c], source, tag)

    def mpi_sendrecv_part(self, data, soffset, count, dest, out, roffset, source, tag) -> None:
        so, ro, c = int(soffset), int(roffset), int(count)
        self.mpi_sendrecv(data[so:so + c], dest, out[ro:ro + c], source, tag)

    def mpi_barrier(self) -> None:
        if self.ctx is not None:
            self.ctx.comm.barrier(self.ctx)

    def mpi_allreduce_sum(self, value) -> float:
        if self.ctx is None:
            return float(value)
        return self.ctx.comm.allreduce_sum(self.ctx, float(value))

    def mpi_allreduce_sum_array(self, data) -> None:
        if self.ctx is not None:
            self.ctx.comm.allreduce_sum_array(self.ctx, data)

    def mpi_bcast(self, data, root) -> None:
        if self.ctx is not None:
            self.ctx.comm.bcast(self.ctx, data, int(root))

    def mpi_gather(self, data, out, root) -> None:
        if self.ctx is None:
            np.asarray(out)[...] = np.asarray(data)
            return
        self.ctx.comm.gather(self.ctx, data, out, int(root))

    def mpi_wtime(self) -> float:
        if self.ctx is None:
            return time.perf_counter()
        self.ctx.clock.sync_cpu()
        return self.ctx.clock.t

    # -- GPU timing (translated code emulates kernels on the CPU; the model
    # converts measured emulation work into simulated device time) ---------

    def kernel_begin(self) -> None:
        if self.ctx is not None:
            self.ctx.clock.sync_cpu()

    def kernel_end(self) -> None:
        if self.ctx is None:
            return
        emulated = self.ctx.clock.measure_excluded()
        if self.gpu_model is not None:
            self.ctx.clock.advance(self.gpu_model.kernel_time(emulated), kind="device")
        else:
            # no model bound: count emulation as ordinary compute
            self.ctx.clock.advance(emulated, kind="device")

    def gpu_transfer(self, nbytes: int) -> None:
        if self.ctx is None:
            return
        self.ctx.clock.sync_cpu()
        if self.gpu_model is not None:
            self.ctx.clock.advance(self.gpu_model.transfer_time(int(nbytes)), kind="device")

    # -- interpreted-kernel launch (Python backend) -----------------------

    def launch_kernel(self, kernel_fn, gdim, bdim, args, *, cooperative: bool) -> None:
        """Grid-execute an emitted Python kernel function.

        ``kernel_fn(geo, *args)`` is called per logical thread; ``geo`` is
        ``(tid, bid, bdim, gdim, barrier)`` consumed by the thread-geometry
        intrinsics.  ``cooperative`` selects per-block OS threads with a
        barrier (kernels using sync_threads).
        """
        import threading

        self.kernel_begin()
        gx, gy, gz = (int(v) for v in gdim)
        bx, by, bz = (int(v) for v in bdim)
        blocks = [
            (ix, iy, iz)
            for iz in range(gz)
            for iy in range(gy)
            for ix in range(gx)
        ]
        threads_of_block = [
            (ix, iy, iz)
            for iz in range(bz)
            for iy in range(by)
            for ix in range(bx)
        ]
        if not cooperative:
            for bid in blocks:
                for tid in threads_of_block:
                    kernel_fn((tid, bid, (bx, by, bz), (gx, gy, gz), None), *args)
        else:
            for bid in blocks:
                barrier = threading.Barrier(len(threads_of_block))
                errors: list[BaseException] = []

                def worker(tid):
                    try:
                        kernel_fn((tid, bid, (bx, by, bz), (gx, gy, gz), barrier), *args)
                    except BaseException as exc:
                        errors.append(exc)
                        barrier.abort()

                ts = [
                    threading.Thread(target=worker, args=(tid,), daemon=True)
                    for tid in threads_of_block
                ]
                for t in ts:
                    t.start()
                for t in ts:
                    t.join()
                if errors:
                    raise errors[0]
        self.kernel_end()

    def gpu_to_device(self, arr) -> np.ndarray:
        """Python-backend device transfer: returns the device-space copy."""
        data = np.array(arr, copy=True)
        self.gpu_transfer(data.nbytes)
        return data

    def gpu_from_device(self, arr) -> np.ndarray:
        data = np.array(arr, copy=True)
        self.gpu_transfer(data.nbytes)
        return data
