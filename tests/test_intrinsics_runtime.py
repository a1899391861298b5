"""Intrinsic registry, calibration, and the per-rank runtime environment."""

import math

import numpy as np
import pytest

from repro.cuda.perf import GpuModel
from repro.jit.runtime import RuntimeEnv
from repro.lang import wj, wjmath
from repro.lang.intrinsics import intrinsic_registry
from repro.mpi import Communicator, RankContext
from repro.mpi.netmodel import LOCAL_NET


class TestRegistry:
    def test_math_roots(self):
        spec = intrinsic_registry.lookup(math, ("sqrt",))
        assert spec.key == "math.sqrt"
        assert intrinsic_registry.lookup(wjmath, ("sqrt",)).key == "math.sqrt"

    def test_wj_namespace(self):
        assert intrinsic_registry.lookup(wj, ("zeros",)).const_head == 1
        assert intrinsic_registry.lookup(wj, ("output",)).key == "wj.output"
        assert intrinsic_registry.lookup(wj, ("nope",)) is None

    def test_mpi_and_cuda_registered(self):
        from repro.cuda.api import cuda
        from repro.mpi.api import MPI

        assert intrinsic_registry.lookup(MPI, ("sendrecv_part",)) is not None
        assert intrinsic_registry.lookup(cuda, ("tid_x",)).key == "cuda.tid.tid_x"

    def test_non_root_object(self):
        assert not intrinsic_registry.is_intrinsic_root(object())

    def test_foreign_registration(self):
        from tests.guestlib import clampf

        spec = intrinsic_registry.lookup(clampf, ())
        assert spec.key == "ffi.wj_test_clamp"
        assert spec.foreign.cname == "wj_test_clamp"
        # the ForeignFunction remains a working Python callable
        assert clampf(5.0, -1.0, 1.0) == 1.0


class TestCalibration:
    def test_overhead_is_cached_and_plausible(self):
        from repro.mpi.calibrate import callback_entry_overhead

        a = callback_entry_overhead()
        b = callback_entry_overhead()
        assert a == b  # cached
        assert 0 < a < 1e-3  # sub-millisecond per callback


class TestRuntimeEnv:
    def make_ctx(self):
        comm = Communicator(1, net=LOCAL_NET)
        ctx = RankContext(0, comm)
        ctx.acquire_token()
        return ctx

    def test_outputs_are_copies(self):
        env = RuntimeEnv(None)
        a = np.arange(4.0)
        env.output("x", a)
        a[:] = -1
        assert np.allclose(env.outputs["x"], np.arange(4.0))

    def test_mpi_defaults_without_context(self):
        env = RuntimeEnv(None)
        assert env.mpi_rank() == 0
        assert env.mpi_size() == 1
        assert env.mpi_allreduce_sum(2.5) == 2.5
        env.mpi_barrier()  # no-op
        out = np.zeros(3)
        env.mpi_gather(np.arange(3.0), out, 0)
        assert np.allclose(out, np.arange(3.0))

    def test_ptp_without_context_rejected(self):
        from repro.errors import MpiError

        env = RuntimeEnv(None)
        with pytest.raises(MpiError):
            env.mpi_send(np.zeros(1), 1, 0)

    def test_kernel_metering_uses_model(self):
        ctx = self.make_ctx()
        env = RuntimeEnv(ctx, gpu_model=GpuModel(emulation_speedup=10.0,
                                                 launch_overhead_s=1e-6))
        env.kernel_begin()
        x = 0.0
        for i in range(200000):
            x += i * 0.5  # emulated kernel work
        env.kernel_end()
        assert ctx.clock.device_time > 1e-6
        # modeled time ~ emulated/10 + overhead, so well below the raw work
        assert ctx.clock.device_time < 0.5

    def test_transfer_metering(self):
        ctx = self.make_ctx()
        model = GpuModel(pcie_bandwidth=1e9)
        env = RuntimeEnv(ctx, gpu_model=model)
        env.gpu_transfer(10 ** 9)
        assert ctx.clock.device_time >= 1.0

    def test_part_ops_use_views(self):
        comm = Communicator(2, net=LOCAL_NET)
        from repro.mpi.launcher import mpirun

        def body(ctx):
            env = RuntimeEnv(ctx)
            buf = np.arange(8.0)
            out = np.zeros(8)
            if ctx.rank == 0:
                env.mpi_send_part(buf, 2, 3, 1, 0)
                return None
            env.mpi_recv_part(out, 4, 3, 0, 0)
            return out

        res = mpirun(2, body, net=LOCAL_NET)
        assert np.allclose(res.returns[1][4:7], [2.0, 3.0, 4.0])
        assert np.allclose(res.returns[1][:4], 0)
