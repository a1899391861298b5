"""Reusable call frames in the ctypes bridge (``CCompiled.run``).

A frame — callback thunks, one buffer per array slot with the vectors
naming them, snapshot buffer, return cell — is built once and pooled per
artifact.  These tests pin what pooling and owning the rank's memory must
not change: results under concurrency, host arrays read afresh by every
invoke and never written, one memory space per rank, a zeroed snapshot
buffer per call, the bounds-check report, no reference from an idle frame
to the call that used it, a dropped artifact freeing its frames, and a
host-callback exception reaching the caller on both backends.
"""

from __future__ import annotations

import gc
import sys
import threading
import tracemalloc
import weakref

import numpy as np
import pytest

from repro import jit, jit4mpi
from repro.backends.cbackend import bridge
from repro.errors import BackendError, GuestRuntimeError, MpiError
from repro.jit import cache, engine
from repro.jit.runtime import RuntimeEnv
from repro.mpi import mpirun
from repro.mpi.netmodel import LOCAL_NET

from tests.conftest import requires_cc
from tests.guestlib import (
    RankStamp, RingExchanger, ScaleAddSolver, ShortRecv, SwapBuf, SwapPeek,
    Sweeper,
)
from tests.guestlib_bounds import OffByOne, SafeSum


def _sweeper():
    # uncached: the memory tier would hand every test the same artifact,
    # and with it the frames the test before left in its pool
    return jit(Sweeper(ScaleAddSolver(0.75), 9), "run", 3, backend="c",
               use_cache=False)


def _slot_copies(code):
    return [s.array.copy() for s in code.program.snapshot.array_slots]


@requires_cc
class TestFramePool:
    def test_concurrent_invokes_are_bit_identical(self):
        """8 threads x 200 invokes of one artifact that overwrites its
        recorded array: every value and every call's own outputs equal the
        sequential ones, and the pool holds at most one frame per thread
        that ever ran at once."""
        code = jit(RankStamp(np.linspace(0.5, 2.0, 33)), "run", 3,
                   backend="c", use_cache=False)
        first = code.invoke()
        want_value, want_data = first.value, first.output("data").tobytes()
        nthreads, ncalls = 8, 200
        wrong: list = []
        start = threading.Barrier(nthreads)

        def worker():
            start.wait()
            for _ in range(ncalls):
                res = code.invoke()
                if (res.value != want_value
                        or res.output("data").tobytes() != want_data):
                    wrong.append(res)

        threads = [threading.Thread(target=worker, daemon=True)
                   for _ in range(nthreads)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)  # switch threads mid-marshal, often
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert not wrong
        assert 1 <= len(code.compiled._frames) <= nthreads

    def test_rank_threads_each_hold_a_frame(self):
        """Two ranks run one artifact at once, with live callbacks."""
        code = jit4mpi(RingExchanger(4), "run", 3, backend="c").set4mpi(2)
        first = code.invoke()
        for _ in range(20):
            res = code.invoke()
            assert res.returns == first.returns
            for got, want in zip(res.outputs, first.outputs):
                assert got["buf"].tobytes() == want["buf"].tobytes()
        assert 1 <= len(code.compiled._frames) <= 2

    def test_warm_invokes_build_no_thunks(self, monkeypatch):
        built = []
        for name in [n for n in vars(bridge) if n.startswith("_FN_")]:
            proto = getattr(bridge, name)

            def counting(fn, _proto=proto):
                built.append(_proto)
                return _proto(fn)

            monkeypatch.setattr(bridge, name, counting)
        code = jit(Sweeper(ScaleAddSolver(0.5), 7), "run", 2, backend="c",
                   use_cache=False)
        code.invoke()
        assert len(built) == len(bridge.WjEnvStruct._fields_) - 1
        del built[:]
        for _ in range(5):
            code.invoke()
        assert built == []
        assert len(code.compiled._frames) == 1

    def test_snapshot_buffer_is_zeroed_every_call(self):
        """The guest swaps two array fields of its snapshot, so the buffer
        is dirty after every call; the next call must start from zeros."""
        code = jit(SwapPeek(SwapBuf(np.ones(4, np.float32),
                                    np.full(4, 2.0, np.float32))),
                   "run", backend="c", use_cache=False)
        compiled = code.compiled
        assert code.invoke().value == 1.0
        (frame,) = compiled._frames
        native_entry, at_entry = compiled._entry, []

        def spying_entry(*args):
            at_entry.append(frame.snap.raw)
            native_entry(*args)

        compiled._entry = spying_entry
        try:
            for _ in range(3):
                assert any(frame.snap.raw)  # left dirty by the last call
                assert code.invoke().value == 1.0
        finally:
            compiled._entry = native_entry
        assert at_entry == [bytes(len(frame.snap.raw))] * 3

    def test_bounds_violation_raises_and_returns_the_frame(self, monkeypatch):
        monkeypatch.setenv("REPRO_BOUNDS", "1")
        code = jit(OffByOne(), "run", np.arange(4.0), backend="c",
                   use_cache=False)
        compiled = code.compiled
        assert compiled.bounds_checks
        for _ in range(2):
            with pytest.raises(GuestRuntimeError, match="out-of-bounds"):
                compiled.run(RuntimeEnv(None), _slot_copies(code))
            (frame,) = compiled._frames
            assert frame.cell.env is None
        with pytest.raises(MpiError) as err:
            code.invoke()
        assert isinstance(err.value.__cause__, GuestRuntimeError)
        assert len(compiled._frames) == 1

    def test_rejected_arrays_return_the_frame(self):
        code = _sweeper()
        code.invoke()
        compiled = code.compiled
        with pytest.raises(BackendError, match="array slots"):
            compiled.run(RuntimeEnv(None), [np.zeros(3)])
        assert len(compiled._frames) == 1
        code = jit(SafeSum(), "run", np.arange(4.0), backend="c",
                   use_cache=False)
        compiled = code.compiled
        for wrong in (np.arange(5.0), np.arange(4, dtype=np.float32),
                      np.arange(4.0).reshape(2, 2), np.ones(1)):
            with pytest.raises(BackendError, match="slot 0 holds float64"):
                compiled.run(RuntimeEnv(None), [wrong])
            (frame,) = compiled._frames
            assert frame.cell.env is None

    def test_non_contiguous_source_is_copied(self):
        """A strided array of the slot's length is copied like any other:
        C only sees the frame's own contiguous buffer."""
        code = jit(SafeSum(), "run", np.arange(4.0), backend="c",
                   use_cache=False)
        assert code.compiled.run(RuntimeEnv(None),
                                 [np.arange(8.0)[::2]]) == 12.0
        (frame,) = code.compiled._frames
        assert frame.cell.env is None

    def test_read_only_and_empty_slots_still_run(self):
        """A read-only source is only read; an empty captured slot runs
        empty; an empty array for a 4-element slot never reaches C, whose
        checks were elided against the captured length."""
        code = jit(SafeSum(), "run", np.arange(4.0), backend="c")
        frozen = np.arange(4.0)
        frozen.flags.writeable = False
        assert code.compiled.run(RuntimeEnv(None), [frozen]) == 6.0
        with pytest.raises(BackendError, match=r"slot 0 .* got float64\[0\]"):
            code.compiled.run(RuntimeEnv(None), [np.empty(0)])
        empty = jit(SafeSum(), "run", np.empty(0), backend="c")
        assert empty.compiled.run(RuntimeEnv(None), [np.empty(0)]) == 0.0

    def test_idle_frame_pins_neither_env_nor_rank_context(self, monkeypatch):
        refs = []

        class Watched(RuntimeEnv):
            def __init__(self, ctx, gpu_model=None):
                super().__init__(ctx, gpu_model=gpu_model)
                refs.extend((weakref.ref(self), weakref.ref(ctx)))

        monkeypatch.setattr(engine, "RuntimeEnv", Watched)
        code = _sweeper()
        res = code.invoke()
        assert res.output("arr").shape == (9,)
        assert len(refs) == 2
        del res
        gc.collect()
        assert [r() for r in refs] == [None, None]


@requires_cc
class TestFrameMemory:
    """A frame owns its rank's memory: buffers allocated once, filled from
    the host arrays by every call, freed with the artifact."""

    def test_a_dropped_artifact_frees_its_frames(self):
        """With the collector off, reference counting alone frees a frame
        (callback thunks, which the collector cannot see, must not close a
        loop back to it) once its artifact is dropped."""
        code = jit(SafeSum(), "run", np.arange(4.0), backend="c")
        code.invoke()
        (frame,) = code.compiled._frames
        refs = [weakref.ref(frame.struct), weakref.ref(frame.bufs[0])]
        del frame
        gc.collect()
        gc.disable()
        try:
            del code
            cache.clear_memory()
            assert [r() for r in refs] == [None, None]
        finally:
            gc.enable()

    @pytest.mark.parametrize("nranks", [1, 2])
    def test_invoke_reads_the_host_arrays_afresh(self, backend, nranks):
        """The host mutates a recorded array between two invokes; the
        second sees the new values (no copy cached when a frame is built)."""
        data = np.arange(6.0)
        code = jit4mpi(SafeSum(), "run", data, backend=backend)
        code.set4mpi(nranks)
        assert code.invoke().returns == [15.0] * nranks
        data *= 2.0
        assert code.invoke().returns == [30.0] * nranks
        assert data.tolist() == [0.0, 2.0, 4.0, 6.0, 8.0, 10.0]

    def test_each_rank_writes_its_own_memory(self, backend):
        """Two ranks of one invoke overwrite one recorded slot with
        rank-dependent values; each rank's output equals the interpreted
        run's, and the host array is never written."""
        data = np.linspace(-1.0, 1.0, 17)
        host = data.copy()
        apps = [RankStamp(data.copy()) for _ in range(2)]
        want = mpirun(2, lambda ctx: apps[ctx.rank].run(3), net=LOCAL_NET)
        code = jit4mpi(RankStamp(data), "run", 3, backend=backend).set4mpi(2)
        for _ in range(3):
            got = code.invoke()
            assert got.returns == want.returns
            for mine, ref in zip(got.outputs, want.outputs):
                assert mine["data"].tobytes() == ref["data"].tobytes()
        assert data.tobytes() == host.tobytes()

    def test_strided_snapshot_array_runs_like_the_interpreter(self, backend):
        """A guest holding ``a[::2]``: both backends copy the slot into
        memory of their own, so the capture needs no contiguity, and the
        invoke is bit-equal to the interpreted guest."""
        data = np.linspace(-1.0, 1.0, 34)
        want = mpirun(1, lambda ctx: RankStamp(data.copy()[::2]).run(3),
                      net=LOCAL_NET)
        code = jit(RankStamp(data[::2]), "run", 3, backend=backend,
                   use_cache=False)
        got = code.invoke()
        assert got.value == want.returns[0]
        assert got.output("data").tobytes() == (
            want.outputs[0]["data"].tobytes())

    def test_warm_invoke_allocates_no_slot_copy(self):
        """A 1 MB slot: a warm invoke copies into the frame's buffer and
        allocates nothing of its size, and the frame's pointers never
        change."""
        code = jit(SafeSum(), "run", np.ones(1 << 17), backend="c",
                   use_cache=False)
        assert code.invoke().value == float(1 << 17)
        (frame,) = code.compiled._frames
        ptrs = list(frame.ptrs)
        tracemalloc.start()
        try:
            code.invoke()
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 256 * 1024
        for _ in range(50):
            code.invoke()
            assert code.compiled._frames == [frame]
            assert list(frame.ptrs) == ptrs


class _Boom(Exception):
    pass


class _RaisingEnv(RuntimeEnv):
    def output(self, label, arr):
        raise _Boom(label)


class TestCallbackExceptions:
    """An exception raised in a host callback reaches the caller — ctypes
    alone would print it and let the native code return a value."""

    @pytest.mark.parametrize("nranks", [1, 2])
    def test_raising_output_propagates(self, backend, nranks, monkeypatch,
                                       capfd):
        monkeypatch.setattr(engine, "RuntimeEnv", _RaisingEnv)
        code = jit4mpi(RingExchanger(4), "run", 2, backend=backend)
        code.set4mpi(nranks)
        with pytest.raises(MpiError) as err:
            code.invoke()
        assert isinstance(err.value.__cause__, _Boom)
        assert "Exception ignored" not in capfd.readouterr().err

    def test_recv_size_mismatch_propagates(self, backend):
        code = jit4mpi(ShortRecv(4), "run", backend=backend).set4mpi(2)
        with pytest.raises(MpiError, match="rank 1 failed") as err:
            code.invoke()
        assert "recv size mismatch" in str(err.value.__cause__)

    @requires_cc
    def test_run_reraises_and_frame_is_reusable(self):
        code = _sweeper()
        compiled = code.compiled
        with pytest.raises(_Boom, match="arr"):
            compiled.run(_RaisingEnv(None), _slot_copies(code))
        (frame,) = compiled._frames
        assert frame.cell.env is None and frame.cell.error is None
        # the frame that carried the error serves the next call
        env = RuntimeEnv(None)
        assert compiled.run(env, _slot_copies(code)) == code.invoke().value
        assert set(env.outputs) == {"arr"}

    @requires_cc
    def test_callbacks_after_the_error_do_nothing(self):
        """RingExchanger calls barrier, allreduce and output after rank()
        and size(); once one has raised, the rest must not reach the env."""
        seen = []

        class FailsAtSize(RuntimeEnv):
            def note_native_entry(self):
                seen.append("callback")

            def mpi_size(self):
                raise _Boom("size")

        code = jit(RingExchanger(4), "run", 2, backend="c")
        with pytest.raises(_Boom, match="size"):
            code.compiled.run(FailsAtSize(None), _slot_copies(code))
        assert seen == ["callback", "callback"]  # rank(), then size()
