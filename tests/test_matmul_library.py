"""Matmul class library: calculators, Fox algorithm, GPU kernels, and the
Listing-6 mutually-referential composition."""

import numpy as np
import pytest

from repro import jit, jit4gpu, jit4mpi
from repro.library.matmul import (
    CPULoop,
    FoxAlgorithm,
    GPUThread,
    GpuCalculator,
    MPIThread,
    OptimizedCalculator,
    SimpleCalculator,
    SimpleOuterBody,
    TiledGpuCalculator,
    make_matrix,
)
from repro.mpi.netmodel import LOCAL_NET

from tests.conftest import seeded_matrix

N = 8


@pytest.fixture(scope="module")
def abref():
    a = seeded_matrix(N, 1)
    b = seeded_matrix(N, 2)
    return a, b, a @ b


def loaded(n, a=None, b=None):
    ma, mb, mc = make_matrix(n), make_matrix(n), make_matrix(n)
    if a is not None:
        ma.data[:] = a.ravel()
        mb.data[:] = b.ravel()
    return ma, mb, mc


class TestCalculators:
    @pytest.mark.parametrize("calc_cls", [SimpleCalculator, OptimizedCalculator])
    def test_cpu_loop(self, backend, calc_cls, abref):
        a, b, c_ref = abref
        ma, mb, mc = loaded(N, a, b)
        app = CPULoop(SimpleOuterBody(), calc_cls())
        res = jit(app, "start", ma, mb, mc, backend=backend,
                  use_cache=False).invoke()
        assert np.allclose(res.output("c").reshape(N, N), c_ref)
        assert res.value == pytest.approx(float(c_ref.sum()))

    def test_interpreted(self, abref):
        import repro.rt as rt

        a, b, c_ref = abref
        ma, mb, mc = loaded(N, a, b)
        app = CPULoop(SimpleOuterBody(), SimpleCalculator())
        value = app.start(ma, mb, mc)
        rt.current.take_outputs()
        assert value == pytest.approx(float(c_ref.sum()))
        # interpreted execution mutates the host matrix directly (no
        # separate memory space without translation)
        assert np.allclose(mc.data.reshape(N, N), c_ref)


class TestFox:
    @pytest.mark.parametrize("p", [1, 4])
    def test_fox_blocks_stitch_to_reference(self, backend, abref, p):
        _, _, c_ref = abref
        q = int(p ** 0.5)
        m = N // q
        ma, mb, mc = loaded(m)
        app = MPIThread(FoxAlgorithm(), OptimizedCalculator())
        code = jit4mpi(app, "start_generated", ma, mb, mc, backend=backend,
                       use_cache=False)
        res = code.set4mpi(p, net=LOCAL_NET).invoke()
        got = np.zeros((N, N))
        for r in range(p):
            row, col = r // q, r % q
            got[row * m:(row + 1) * m, col * m:(col + 1) * m] = (
                res.outputs[r]["c"].reshape(m, m)
            )
        assert np.allclose(got, c_ref)
        assert res.value == pytest.approx(float(c_ref.sum()))

    def test_checksum_is_the_interpreted_bits(self, backend):
        """Four ranks: every rank's checksum is, bit for bit, the one the
        interpreted guest computes, on every invoke — the allreduce sums
        the ranks' partials in rank order, whatever order they arrive in."""
        import copy

        from repro.mpi import mpirun

        m = N // 2
        c = make_matrix(m)
        c.fill_seeded(3)
        app = MPIThread(FoxAlgorithm(), OptimizedCalculator())
        args = (make_matrix(m), make_matrix(m), c)
        copies = [copy.deepcopy((app, args)) for _ in range(4)]
        want = mpirun(4, lambda ctx: copies[ctx.rank][0].start_generated(
            *copies[ctx.rank][1]), net=LOCAL_NET).returns
        code = jit4mpi(app, "start_generated", *args, backend=backend,
                       use_cache=False).set4mpi(4, net=LOCAL_NET)
        for _ in range(3):
            got = code.invoke().returns
            assert [v.hex() for v in got] == [v.hex() for v in want]

    def test_mutual_reference_devirtualizes(self, backend):
        """Listing 6: FoxAlgorithm.run receives the MPIThread back and calls
        thread.calculator() — both directions of the cycle resolve to direct
        calls (the thing C++ templates could not express)."""
        ma, mb, mc = loaded(4)
        app = MPIThread(FoxAlgorithm(), OptimizedCalculator())
        code = jit4mpi(app, "start_generated", ma, mb, mc, backend=backend,
                       use_cache=False)
        src = code.source
        assert "OptimizedCalculator_multiply_add" in src
        # no dynamic dispatch machinery in the default (FULL) translation
        assert "volatile" not in src


class TestGpuMatmul:
    def test_naive_kernel(self, backend, abref):
        a, b, c_ref = abref
        ma, mb, mc = loaded(N, a, b)
        app = GPUThread(SimpleOuterBody(), GpuCalculator())
        res = jit4gpu(app, "start", ma, mb, mc, backend=backend,
                      use_cache=False).invoke()
        assert np.allclose(res.output("c").reshape(N, N), c_ref)

    def test_tiled_shared_memory_interpreted(self, abref):
        import repro.rt as rt

        a, b, c_ref = abref
        ma, mb, mc = loaded(N, a, b)
        calc = TiledGpuCalculator(4, np.zeros(16), np.zeros(16))
        app = GPUThread(SimpleOuterBody(), calc)
        value = app.start(ma, mb, mc)
        rt.current.take_outputs()
        assert value == pytest.approx(float(c_ref.sum()))

    def test_tiled_shared_memory_pybackend(self, abref):
        a, b, c_ref = abref
        ma, mb, mc = loaded(N, a, b)
        calc = TiledGpuCalculator(4, np.zeros(16), np.zeros(16))
        app = GPUThread(SimpleOuterBody(), calc)
        res = jit4gpu(app, "start", ma, mb, mc, backend="py",
                      use_cache=False).invoke()
        assert np.allclose(res.output("c").reshape(N, N), c_ref)

    def test_tiled_rejected_by_c_backend(self):
        from repro.backends.cbackend import compiler_available
        from repro.errors import BackendError

        if not compiler_available():
            pytest.skip("no cc")
        ma, mb, mc = loaded(N)
        calc = TiledGpuCalculator(4, np.zeros(16), np.zeros(16))
        app = GPUThread(SimpleOuterBody(), calc)
        with pytest.raises(BackendError, match="sync_threads"):
            jit4gpu(app, "start", ma, mb, mc, backend="c", use_cache=False)

    def test_fox_with_gpu_calculator(self, backend, abref):
        _, _, c_ref = abref
        p, q = 4, 2
        m = N // q
        ma, mb, mc = loaded(m)
        app = MPIThread(FoxAlgorithm(), GpuCalculator())
        code = jit4mpi(app, "start_generated", ma, mb, mc, backend=backend,
                       use_cache=False)
        res = code.set4mpi(p, net=LOCAL_NET).invoke()
        got = np.zeros((N, N))
        for r in range(p):
            row, col = r // q, r % q
            got[row * m:(row + 1) * m, col * m:(col + 1) * m] = (
                res.outputs[r]["c"].reshape(m, m)
            )
        assert np.allclose(got, c_ref)
        assert all(t > 0 for t in res.device_times)


class TestBlockedCalculator:
    @pytest.mark.parametrize("bs", [2, 3, 8, 16])
    def test_blocked_matches_reference(self, backend, abref, bs):
        from repro.library.matmul import BlockedCalculator

        a, b, c_ref = abref
        ma, mb, mc = loaded(N, a, b)
        app = CPULoop(SimpleOuterBody(), BlockedCalculator(bs))
        res = jit(app, "start", ma, mb, mc, backend=backend,
                  use_cache=False).invoke()
        assert np.allclose(res.output("c").reshape(N, N), c_ref)

    def test_blocked_in_fox(self, backend, abref):
        from repro.library.matmul import BlockedCalculator

        _, _, c_ref = abref
        p, q = 4, 2
        m = N // q
        ma, mb, mc = loaded(m)
        app = MPIThread(FoxAlgorithm(), BlockedCalculator(2))
        code = jit4mpi(app, "start_generated", ma, mb, mc, backend=backend,
                       use_cache=False)
        res = code.set4mpi(p, net=LOCAL_NET).invoke()
        got = np.zeros((N, N))
        for r in range(p):
            row, col = r // q, r % q
            got[row * m:(row + 1) * m, col * m:(col + 1) * m] = (
                res.outputs[r]["c"].reshape(m, m)
            )
        assert np.allclose(got, c_ref)
