"""Reusable call frames in the ctypes bridge (``CCompiled.run``).

A frame — callback thunks, slot vectors, snapshot buffer, return cell —
is built once and pooled per artifact.  These tests pin what pooling must
not change: results under concurrency, a zeroed snapshot buffer per call,
the bounds-check report, no reference from an idle frame to the call that
used it, and a host-callback exception reaching the caller on both
backends.
"""

from __future__ import annotations

import gc
import sys
import threading
import weakref

import numpy as np
import pytest

from repro import jit, jit4mpi
from repro.backends.cbackend import bridge
from repro.errors import BackendError, GuestRuntimeError, MpiError
from repro.jit import engine
from repro.jit.runtime import RuntimeEnv

from tests.conftest import requires_cc
from tests.guestlib import (
    RingExchanger, ScaleAddSolver, ShortRecv, SwapBuf, SwapPeek, Sweeper,
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
        """8 threads x 200 invokes of one artifact: every value and every
        call's own outputs equal the sequential ones, and the pool holds at
        most one frame per thread that ever ran at once."""
        code = _sweeper()
        first = code.invoke()
        want_value, want_arr = first.value, first.output("arr").tobytes()
        nthreads, ncalls = 8, 200
        wrong: list = []
        start = threading.Barrier(nthreads)

        def worker():
            start.wait()
            for _ in range(ncalls):
                res = code.invoke()
                if (res.value != want_value
                        or res.output("arr").tobytes() != want_arr):
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
            assert frame.env is None
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

    def test_non_contiguous_slot_is_refused(self):
        code = jit(OffByOne(), "run", np.arange(4.0), backend="c",
                   use_cache=False)
        with pytest.raises(BackendError, match="C-contiguous"):
            code.compiled.run(RuntimeEnv(None), [np.arange(8.0)[::2]])
        (frame,) = code.compiled._frames
        assert frame.env is None

    def test_read_only_and_empty_slots_still_run(self):
        """The fast pointer fetch needs a writable non-empty buffer; other
        arrays take ``ndarray.ctypes``."""
        code = jit(SafeSum(), "run", np.arange(4.0), backend="c")
        frozen = np.arange(4.0)
        frozen.flags.writeable = False
        assert code.compiled.run(RuntimeEnv(None), [frozen]) == 6.0
        assert code.compiled.run(RuntimeEnv(None), [np.empty(0)]) == 0.0

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
        assert frame.env is None and frame.error is None
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
