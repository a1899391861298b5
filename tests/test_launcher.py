"""mpirun launcher behaviour."""

import os
import signal
import sys
import threading
import time
import warnings

import numpy as np
import pytest

from repro import jit4mpi
from repro.errors import MpiError
from repro.mpi import MPI, launcher, mpirun
from repro.mpi.netmodel import LOCAL_NET

from tests.conftest import requires_cc
from tests.guestlib import RingExchanger


class TestLauncher:
    def test_thread_local_context_binding(self):
        """Guest-style MPI statics work inside the body without plumbing."""

        def body(ctx):
            assert MPI.rank() == ctx.rank
            assert MPI.size() == ctx.size
            return MPI.rank()

        res = mpirun(3, body, net=LOCAL_NET)
        assert res.returns == [0, 1, 2]

    def test_context_unbound_after_run(self):
        mpirun(2, lambda ctx: None, net=LOCAL_NET)
        assert MPI.rank() == 0
        assert MPI.size() == 1

    def test_outputs_collected_per_rank(self):
        from repro.lang import wj

        def body(ctx):
            wj.output("tag", np.full(2, float(ctx.rank)))

        res = mpirun(3, body, net=LOCAL_NET)
        for r in range(3):
            assert np.allclose(res.outputs[r]["tag"], r)

    def test_exception_propagates_with_rank(self):
        def body(ctx):
            if ctx.rank == 1:
                raise ValueError("boom")
            ctx.comm.barrier(ctx)

        with pytest.raises(MpiError, match="rank 1 failed"):
            mpirun(2, body, net=LOCAL_NET)

    def test_sim_wall_clock_is_max(self):
        def body(ctx):
            if ctx.rank == 0:
                x = 0.0
                for i in range(100000):
                    x += i
            ctx.clock.sync_cpu()
            return ctx.clock.t

        res = mpirun(2, body, net=LOCAL_NET)
        assert res.sim_wall_clock == pytest.approx(max(res.clocks))
        assert res.clocks[0] >= res.clocks[1]

    def test_gpu_model_plumbed(self):
        from repro.cuda.perf import GpuModel

        def body(ctx):
            return ctx.gpu_model

        model = GpuModel(emulation_speedup=7.0)
        res = mpirun(2, body, net=LOCAL_NET, gpu_model=model)
        assert all(m is model for m in res.returns)

    def test_zero_ranks_rejected(self):
        with pytest.raises(MpiError):
            mpirun(0, lambda ctx: None)


def _idents(nranks=2, **kw):
    """One run whose ranks return the OS thread they ran on."""
    return mpirun(nranks, lambda ctx: threading.get_ident(), net=LOCAL_NET,
                  **kw).returns


def _ring(base):
    """A rank body: pass ``base + rank`` to the right, return what came."""

    def body(ctx):
        out = np.zeros(1)
        ctx.comm.sendrecv(ctx, np.array([base + ctx.rank], dtype=float),
                          (ctx.rank + 1) % ctx.size, out,
                          (ctx.rank - 1) % ctx.size, 7)
        return out[0]

    return body


class TestParkedWorkers:
    """Rank threads start once and park between runs; nothing a run can
    observe may depend on which thread a rank got."""

    def test_workers_are_reused(self):
        _idents()
        assert set(_idents()) == set(_idents())

    def test_one_deadline_for_the_whole_run(self):
        """Staggered ranks used to get ``timeout_s`` each."""
        timeout_s = 1.0

        def body(ctx):
            if ctx.rank == 0:
                time.sleep(0.8 * timeout_s)  # holds the compute token
                return None
            ctx.comm.recv(ctx, np.zeros(1), 0, 1)  # never sent

        t0 = time.monotonic()
        with pytest.raises(MpiError, match="timed out"):
            mpirun(2, body, net=LOCAL_NET, timeout_s=timeout_s)
        assert time.monotonic() - t0 < 1.3 * timeout_s
        assert mpirun(2, _ring(5), net=LOCAL_NET).returns == [6.0, 5.0]

    def test_stuck_worker_is_abandoned_not_recycled(self):
        release, stuck = threading.Event(), []

        def body(ctx):
            if ctx.rank == 1:
                stuck.append(threading.get_ident())
                release.wait(60)

        try:
            with pytest.raises(MpiError, match="timed out"):
                mpirun(2, body, net=LOCAL_NET, timeout_s=0.2)
            for _ in range(3):
                assert stuck[0] not in _idents()
        finally:
            release.set()

    def test_concurrent_runs_share_the_free_list(self):
        nthreads, rounds = 8, 50
        wrong, used = [], set()

        def host(t):
            for i in range(rounds):
                base = 1000 * t + i
                got = mpirun(2, _ring(base), net=LOCAL_NET).returns
                if got != [base + 1.0, base + 0.0]:
                    wrong.append((t, i, got))
                used.update(_idents())

        before = len(launcher._IDLE)
        threads = [threading.Thread(target=host, args=(t,))
                   for t in range(nthreads)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert not wrong
        # the list grows to the ranks in flight at once, not with the calls
        assert len(used) <= 2 * nthreads
        assert len(launcher._IDLE) <= max(before, 2 * nthreads)

    def test_reused_worker_starts_from_a_clean_rt(self):
        from repro import rt

        def dirty(ctx):
            rt.current.cuda_device = rt.current.cuda_ctx = object()
            rt.current.outputs = {"stale": np.zeros(1)}
            return threading.get_ident()

        def look(ctx):
            seen = (rt.current.cuda_device, rt.current.cuda_ctx,
                    rt.current.outputs)
            return threading.get_ident(), seen

        first = mpirun(2, dirty, net=LOCAL_NET).returns
        second = mpirun(2, look, net=LOCAL_NET).returns
        assert {ident for ident, _ in second} == set(first)
        assert all(seen == (None, None, None) for _, seen in second)

    def test_interpreted_gpu_guest_repeats_bit_for_bit(self):
        """Simulated-CUDA state is bound per thread; a second run on the
        same workers must not find the first one's."""
        from repro.library.stencil import (
            EmptyContext, SineGen, StencilGPU3D_MPI, ThreeDIndexer)
        from repro.library.stencil.config import (
            make_dif3d_solver, make_grid3d)

        def run():
            apps = [StencilGPU3D_MPI(make_dif3d_solver(),
                                     make_grid3d(8, 8, 4 + 2),
                                     ThreeDIndexer(8, 8, 4 + 2),
                                     SineGen(8, 8, 4, 2), EmptyContext())
                    for _ in range(2)]
            return mpirun(2, lambda ctx: apps[ctx.rank].run(2), net=LOCAL_NET)

        first, second = run(), run()
        assert first.returns == second.returns
        for a, b in zip(first.outputs, second.outputs):
            # ("secs" is the guest's own timing of its sweeps)
            assert a.keys() == b.keys() == {"grid", "secs"}
            assert a["grid"].tobytes() == b["grid"].tobytes()

    def test_failed_rank_leaves_its_workers_usable(self):
        def body(ctx):
            if ctx.rank == 1:
                raise ValueError("boom")
            ctx.comm.barrier(ctx)
            return threading.get_ident()

        with pytest.raises(MpiError, match="rank 1 failed"):
            mpirun(2, body, net=LOCAL_NET)
        assert MPI.rank() == 0 and MPI.size() == 1
        assert mpirun(2, _ring(1), net=LOCAL_NET).returns == [2.0, 1.0]
        assert MPI.rank() == 0

    def test_nested_mpirun(self):
        def body(ctx):
            inner = mpirun(2, _ring(10 * ctx.rank), net=LOCAL_NET).returns
            return MPI.rank(), MPI.size(), inner

        assert mpirun(2, body, net=LOCAL_NET).returns == [
            (0, 2, [1.0, 0.0]), (1, 2, [11.0, 10.0])]

    def test_child_of_fork_starts_its_own_workers(self):
        """The child inherits the free list but none of its threads."""
        _idents()
        with warnings.catch_warnings():
            # 3.12+: fork() in a process with (parked) threads
            warnings.simplefilter("ignore", DeprecationWarning)
            pid = os.fork()
        if pid == 0:
            ok = False
            try:
                got = mpirun(2, _ring(3), net=LOCAL_NET, timeout_s=20).returns
                ok = got == [4.0, 3.0]
            finally:
                os._exit(0 if ok else 1)
        deadline = time.monotonic() + 60
        done = 0
        while not done and time.monotonic() < deadline:
            done, status = os.waitpid(pid, os.WNOHANG)
            time.sleep(0.01)
        if not done:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
        assert done and os.waitstatus_to_exitcode(status) == 0

    @requires_cc
    def test_openmp_artifact_on_parked_workers(self, monkeypatch):
        """Workers x libgomp: a parked thread keeps its OpenMP team."""
        monkeypatch.setenv("REPRO_OMP", "1")
        # a bounds-checked build stays sequential (no pragma to test)
        monkeypatch.delenv("REPRO_BOUNDS", raising=False)
        code = jit4mpi(RingExchanger(64), "run", 3, backend="c").set4mpi(2)
        assert "#pragma omp" in code.source
        first = code.invoke()
        alive = threading.active_count()
        for _ in range(20):
            res = code.invoke()
            assert res.returns == first.returns
            for got, want in zip(res.outputs, first.outputs):
                assert got["buf"].tobytes() == want["buf"].tobytes()
            assert threading.active_count() == alive


class TestWorkCounts:
    """What a warm launch does, counted — no timing."""

    @pytest.mark.parametrize("nranks", [2, 4])
    def test_warm_invokes_start_no_thread(self, backend, nranks, monkeypatch):
        code = jit4mpi(RingExchanger(5), "run", 3,
                       backend=backend).set4mpi(nranks)
        first = code.invoke().returns
        started = []
        start = threading.Thread.start
        monkeypatch.setattr(threading.Thread, "start",
                            lambda t: (started.append(t.name), start(t))[1])
        for _ in range(50):
            assert code.invoke().returns == first
        assert started == []

    def test_lone_rank_does_nothing_only_peers_need(self, monkeypatch):
        from repro.mpi import comm

        token, init = [], comm.Communicator.__init__

        class SpyLock:
            def acquire(self, *a, **kw):
                token.append("acquire")
                return True

            def release(self):
                token.append("release")

        def spied_init(self, *a, **kw):
            init(self, *a, **kw)
            self.run_lock = SpyLock()

        reads, thread_time = [], time.thread_time
        monkeypatch.setattr(comm.Communicator, "__init__", spied_init)
        monkeypatch.setattr(time, "thread_time",
                            lambda: (reads.append(1), thread_time())[1])
        res = mpirun(1, lambda ctx: None)
        assert token == [] and len(reads) <= 2
        assert res.clocks[0] >= 0.0
        # the spies see what they are meant to see
        mpirun(2, lambda ctx: None)
        assert token.count("acquire") == token.count("release") == 2
