"""The concurrency-safe JIT service (single-flight dedup).

Covers: ≥8 threads racing the same cache key trigger exactly one
translate+compile (the rest join the in-flight build), mixed identical and
distinct keys compile once each with bit-identical results versus
sequential runs, leader failures propagate to every joiner — plus the
satellite bugfixes: warm/cold ``JitReport`` parity (``build_stats``
restored from both tiers), ``cached_lookup_s`` populated on misses with
``translate_s`` excluding the probe, and ``clear_code_cache()`` returning
the removed-entry count.
"""

from __future__ import annotations

import copy
import gc
import os
import shutil
import struct
import subprocess
import sys
import threading
import time

import numpy as np
import pytest

from repro import f64, i64, jit
from repro.backends.cbackend.backend import CBackend
from repro.backends.pybackend.emit import PyBackend
from repro.jit import cache as code_cache
from repro.jit import service
from repro.jit.engine import clear_code_cache
from repro.obs import trace

from tests.conftest import requires_cc
from tests.guestlib import ScaleAddSolver, SquareSolver, Sweeper


@pytest.fixture(autouse=True)
def fresh_service(tmp_path, monkeypatch):
    """Per-test cache directory, empty tiers, zeroed service counters."""
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "code-cache"))
    clear_code_cache()
    service.reset()
    yield
    service.reset()
    clear_code_cache()


def _backend_cls(backend: str):
    return {"py": PyBackend, "c": CBackend}[backend]


class TestSingleFlight:
    def test_same_key_stress_exactly_one_compile(self, backend, monkeypatch):
        """8 threads, one key: 1 compile, ≥7 dedup hits, identical values."""
        n_threads = 8
        app = lambda: Sweeper(ScaleAddSolver(0.5), 16)  # noqa: E731
        expected = jit(app(), "run", 4, backend=backend).invoke().value
        clear_code_cache()
        service.reset()

        cls = _backend_cls(backend)
        orig = cls.compile
        compiles: list[int] = []
        record = threading.Lock()

        def counting_compile(self, program, opt):
            with record:
                compiles.append(threading.get_ident())
            # hold the build open until every other thread has joined the
            # in-flight compile, so the dedup path is exercised for real
            deadline = time.monotonic() + 10
            while time.monotonic() < deadline:
                if service.stats()["inflight_waits"] >= n_threads - 1:
                    break
                time.sleep(0.002)
            return orig(self, program, opt)

        monkeypatch.setattr(cls, "compile", counting_compile)

        barrier = threading.Barrier(n_threads)
        results: list = [None] * n_threads
        errors: list = []

        def worker(i):
            try:
                barrier.wait(timeout=30)
                results[i] = jit(app(), "run", 4, backend=backend)
            except BaseException as exc:  # noqa: BLE001 - surfaced below
                errors.append(exc)

        threads = [threading.Thread(target=worker, args=(i,))
                   for i in range(n_threads)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
        assert not errors
        assert len(compiles) == 1, f"expected 1 backend compile, got {compiles}"

        st = service.stats()
        assert st["compiles"] == 1
        assert st["dedup_hits"] >= n_threads - 1
        assert st["inflight_waits"] >= n_threads - 1
        # no torn memory-tier state: one entry, every handle works
        assert code_cache.stats()["memory_entries"] == 1
        for code in results:
            assert code is not None
            assert code.invoke().value == expected
        deduped = [c for c in results if c.report.dedup_hit]
        assert len(deduped) >= n_threads - 1
        assert all(c.report.cache_hit for c in deduped)
        assert all(c.report.inflight_wait_s > 0 for c in deduped)

    def test_mixed_keys_compile_once_each(self, backend):
        """Identical keys dedup; distinct keys compile independently."""
        apps = {
            "scale14": (lambda: Sweeper(ScaleAddSolver(0.25), 14), 3),
            "scale18": (lambda: Sweeper(ScaleAddSolver(0.25), 18), 3),
            "square": (lambda: Sweeper(SquareSolver(), 14), 2),
        }
        expected = {
            name: jit(mk(), "run", iters, backend=backend).invoke().value
            for name, (mk, iters) in apps.items()
        }
        clear_code_cache()
        service.reset()

        per_key = 4
        jobs = [(name,) for name in apps for _ in range(per_key)]
        barrier = threading.Barrier(len(jobs))
        values: dict[int, tuple] = {}
        errors: list = []

        def worker(i, name):
            mk, iters = apps[name]
            try:
                barrier.wait(timeout=30)
                code = jit(mk(), "run", iters, backend=backend)
                values[i] = (name, code.invoke().value)
            except BaseException as exc:  # noqa: BLE001 - surfaced below
                errors.append(exc)

        threads = [threading.Thread(target=worker, args=(i, name))
                   for i, (name,) in enumerate(jobs)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
        assert not errors
        # single-flight guarantees exactly one compile per unique key even
        # without forcing the threads to overlap
        assert service.stats()["compiles"] == len(apps)
        assert code_cache.stats()["memory_entries"] == len(apps)
        assert len(values) == len(jobs)
        for name, value in values.values():
            assert value == expected[name], name

    def test_leader_failure_propagates_to_joiners(self, monkeypatch):
        n_threads = 4
        orig = PyBackend.compile

        def failing_compile(self, program, opt):
            deadline = time.monotonic() + 10
            while time.monotonic() < deadline:
                if service.stats()["inflight_waits"] >= n_threads - 1:
                    break
                time.sleep(0.002)
            raise RuntimeError("injected build failure")

        monkeypatch.setattr(PyBackend, "compile", failing_compile)
        barrier = threading.Barrier(n_threads)
        errors: list = [None] * n_threads

        def worker(i):
            barrier.wait(timeout=30)
            try:
                jit(Sweeper(ScaleAddSolver(0.75), 12), "run", 2, backend="py")
            except RuntimeError as exc:
                errors[i] = exc

        threads = [threading.Thread(target=worker, args=(i,))
                   for i in range(n_threads)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
        assert all(isinstance(e, RuntimeError) for e in errors)
        # the failed flight was retired — a later request compiles cleanly
        monkeypatch.setattr(PyBackend, "compile", orig)
        code = jit(Sweeper(ScaleAddSolver(0.75), 12), "run", 2, backend="py")
        assert not code.report.cache_hit
        assert code.invoke().value > 0


class TestSatelliteBugfixes:
    @requires_cc
    def test_warm_reports_restore_build_stats(self):
        """Warm and cold reports are field-for-field comparable — including
        ``build_stats`` — from the memory *and* the disk tier."""
        app = lambda: Sweeper(ScaleAddSolver(0.5), 13)  # noqa: E731
        cold = jit(app(), "run", 2, backend="c")
        assert cold.report.build_stats, "C builds must record build_stats"

        warm = jit(app(), "run", 2, backend="c")
        assert warm.report.cache_tier == "memory"
        code_cache.clear_memory()
        disk = jit(app(), "run", 2, backend="c")
        assert disk.report.cache_tier == "disk"

        for hit in (warm, disk):
            assert hit.report.build_stats == cold.report.build_stats, hit.report.cache_tier
            assert hit.report.opt_stats == cold.report.opt_stats
            assert hit.report.n_specializations == cold.report.n_specializations
            assert hit.report.n_call_sites == cold.report.n_call_sites
            assert hit.report.backend == cold.report.backend
            assert hit.report.opt == cold.report.opt

    def test_miss_populates_cached_lookup_and_splits_translate(self, monkeypatch):
        """The failed probe is timed as ``cached_lookup_s``, never inside
        ``translate_s``."""
        delay = 0.08
        orig_lookup = code_cache.lookup

        def slow_lookup(*args, **kwargs):
            time.sleep(delay)
            return orig_lookup(*args, **kwargs)

        monkeypatch.setattr(code_cache, "lookup", slow_lookup)
        cold = jit(Sweeper(ScaleAddSolver(0.5), 15), "run", 2, backend="py")
        assert not cold.report.cache_hit
        assert cold.report.cached_lookup_s >= delay
        assert cold.report.translate_s > 0
        assert cold.report.translate_s < delay, \
            "translate_s must exclude the cache-probe time"
        assert cold.report.total_s >= delay + cold.report.translate_s

    def test_uncached_compile_reports_zero_probe(self):
        """A ``use_cache=False`` build never keys or probes the cache: no
        ``cache.key``/``cache.probe`` span, and ``cached_lookup_s`` is 0."""
        was_enabled = trace.enabled()
        trace.enable()
        try:
            trace.clear()
            jit(Sweeper(ScaleAddSolver(0.5), 15), "run", 2, backend="py")
            cached = {s.name for s in trace.spans()}
            trace.clear()
            code = jit(Sweeper(ScaleAddSolver(0.5), 15), "run", 2,
                       backend="py", use_cache=False)
            uncached = {s.name for s in trace.spans()}
        finally:
            if not was_enabled:
                trace.disable()
            trace.clear()
        assert {"cache.key", "cache.probe"} <= cached
        assert "jit.translate" in uncached
        assert not uncached & {"cache.key", "cache.probe"}
        assert code.report.cached_lookup_s == 0.0
        assert code.report.translate_s > 0

    def test_clear_code_cache_returns_entry_count(self, backend):
        jit(Sweeper(ScaleAddSolver(0.5), 17), "run", 2, backend=backend)
        assert clear_code_cache() == 1
        assert clear_code_cache() == 0


# ---------------------------------------------------------------------------
# the capture memo of a sealed receiver
# ---------------------------------------------------------------------------

def _fresh_digest(receiver, method, args, backend):
    """The key a cold process would compute for this request now."""
    from repro.backends.base import OptLevel
    from repro.frontend.objectgraph import snapshot_args
    from repro.jit import engine

    minfo = engine._resolve_minfo(receiver, method)
    _, recv_shape, arg_shapes = snapshot_args(receiver, args)
    be = engine._make_backend(backend)
    return code_cache.program_key(
        minfo, recv_shape, arg_shapes, backend=be.name, opt=OptLevel.FULL,
        bounds_checks=be.bounds_checks).digest


def _bits(value) -> bytes:
    return struct.pack("<d", float(value))


def _served(receiver, method, *args, backend):
    """jit() once; its key is the fresh one and it runs like CPython."""
    code = jit(receiver, method, *args, backend=backend)
    assert code.report.key_digest == _fresh_digest(receiver, method, args,
                                                   backend)
    want = getattr(receiver, method)(*args)
    assert _bits(code.invoke().value) == _bits(want)
    return code


class TestCaptureMemo:
    """Each fence of the memo: whatever moved between two warm calls, the
    served key is the one a fresh capture computes, and the artifact runs
    like the interpreter."""

    def test_warm_call_reuses_the_capture(self, backend):
        from tests.guestlib import FrontSum, SwapBuf

        app = FrontSum(SwapBuf(np.ones(8, np.float32), np.zeros(8, np.float32)))
        first = _served(app, "run", backend=backend)
        again = _served(app, "run", backend=backend)
        assert again.program.snapshot is first.program.snapshot
        assert again.report.cache_tier == "memory"

    def test_array_field_swap(self, backend):
        from tests.guestlib import FrontSum, SwapBuf

        buf = SwapBuf(np.ones(8, np.float32), np.zeros(8, np.float32))
        app = FrontSum(buf)
        before = _served(app, "run", backend=backend)
        _served(app, "run", backend=backend)
        buf.front = np.full(8, 2.0, np.float32)  # same shape: same key
        same = _served(app, "run", backend=backend)
        assert same.report.key_digest == before.report.key_digest
        assert same.program.snapshot.array_slots[0].array is buf.front
        buf.front = np.full(12, 3.0, np.float32)  # new length: new key
        longer = _served(app, "run", backend=backend)
        assert longer.report.key_digest != before.report.key_digest
        assert before.invoke().value == 8.0

    def test_recorded_arg_resized_in_place(self, backend):
        from tests.guestlib_bounds import SafeSum

        data = np.arange(16.0)
        app = SafeSum()
        old = _served(app, "run", data, backend=backend)
        _served(app, "run", data, backend=backend)
        data.resize(20, refcheck=False)
        new = _served(app, "run", data, backend=backend)
        assert new.report.key_digest != old.report.key_digest

    def test_recorded_arg_retyped_in_place(self, backend):
        """``SafeSum.run`` takes ``Array(f64)``: after ``.dtype =`` the
        request is keyed and lowered afresh and refused like a cold one,
        never served the f64 artifact."""
        from repro.errors import LoweringError
        from tests.guestlib_bounds import SafeSum

        data = np.arange(16.0)
        app = SafeSum()
        old = _served(app, "run", data, backend=backend)
        _served(app, "run", data, backend=backend)
        data.dtype = np.int64
        assert _fresh_digest(app, "run", (data,), backend) != \
            old.report.key_digest
        with pytest.raises(LoweringError) as cold:
            jit(SafeSum(), "run", data, backend=backend, use_cache=False)
        with pytest.raises(LoweringError) as warm:
            jit(app, "run", data, backend=backend)
        assert str(warm.value) == str(cold.value)

    def test_subclass_registered_between_calls(self, backend):
        from repro import wootin
        from tests.guestlib import Tally

        app = Tally(3)
        leaf = _served(app, "run", 2, backend=backend)

        @wootin
        class TallyTwice(Tally):
            def run(self, k: i64) -> f64:
                return float(self.n * k * 2)

        assert TallyTwice(1).run(1) == 2.0
        after = _served(app, "run", 2, backend=backend)
        assert after.report.key_digest != leaf.report.key_digest

    @pytest.mark.parametrize("knob, value", [
        ("REPRO_OPT_PASSES", "0"), ("REPRO_OMP", "1"), ("REPRO_BOUNDS", "1"),
    ])
    def test_knob_toggled_between_calls(self, backend, monkeypatch, knob,
                                        value):
        from tests.guestlib import FrontSum, SwapBuf

        monkeypatch.delenv(knob, raising=False)
        app = FrontSum(SwapBuf(np.ones(8, np.float32), np.zeros(8, np.float32)))
        off = _served(app, "run", backend=backend)
        _served(app, "run", backend=backend)
        monkeypatch.setenv(knob, value)
        on = _served(app, "run", backend=backend)
        if knob != "REPRO_OMP" or backend == "c":  # py has no OpenMP leg
            assert on.report.key_digest != off.report.key_digest
        monkeypatch.delenv(knob)
        back = _served(app, "run", backend=backend)
        assert back.report.key_digest == off.report.key_digest

    def test_signed_zero_and_bool_args(self, backend):
        from tests.guestlib import Scale

        app = Scale(0.5)
        digests = set()
        for arg in (1, True, 1, True):
            digests.add(_served(app, "run", arg, backend=backend)
                        .report.key_digest)
        assert len(digests) == 2
        for arg in (0.0, -0.0, 0.0, -0.0):
            code = _served(app, "sign", arg, backend=backend)
            digests.add(code.report.key_digest)
        assert len(digests) == 4

    def test_deepcopy_binds_its_own_arrays(self, backend):
        from repro.lang import seal
        from tests.guestlib import FrontSum, SwapBuf

        app = FrontSum(SwapBuf(np.ones(8, np.float32), np.zeros(8, np.float32)))
        _served(app, "run", backend=backend)
        _served(app, "run", backend=backend)
        dup = copy.deepcopy(app)
        assert seal.record(dup) is None and seal.record(dup.buf) is None
        dup.buf.front[:] = 5.0
        code = _served(dup, "run", backend=backend)
        assert code.program.snapshot.array_slots[0].array is dup.buf.front
        assert code.invoke().value == 40.0

    def test_collected_receiver_replaced(self, backend):
        from repro.lang import seal
        from tests.guestlib import Scale

        for a in (0.5, 2.0, 3.0, -1.0):
            app = Scale(a)
            _served(app, "run", 4, backend=backend)
            _served(app, "run", 4, backend=backend)
            del app
            gc.collect()
            # whatever address the next receiver gets, it starts unsealed
            assert seal.record(Scale(1.0)) is None


@requires_cc
class TestDefaultBackendLookup:
    """``backend="auto"`` asks for a C compiler on every ``jit()``; the
    answer is remembered per ``$CC`` and ``$PATH``."""

    def test_warm_default_jit_walks_no_path(self, monkeypatch):
        import shutil

        from repro.backends.cbackend import build

        app = Sweeper(ScaleAddSolver(0.5), 12)
        assert jit(app, "run", 2).report.backend == "c"
        calls = []
        real = shutil.which
        monkeypatch.setattr(build.shutil, "which",
                            lambda *a, **k: calls.append(a) or real(*a, **k))
        for _ in range(3):
            code = jit(app, "run", 2)
            assert code.report.cache_tier == "memory"
        assert calls == []
        # another $PATH is another lookup, remembered in turn
        monkeypatch.setenv("PATH", "/nonexistent-dir:" + os.environ["PATH"])
        assert jit(app, "run", 2).report.backend == "c"
        assert len(calls) >= 1
        del calls[:]
        jit(app, "run", 2)
        assert calls == []


@requires_cc
class TestCompilerToken:
    """The ``cc`` token of a C key follows ``$CC``: it is read per
    ``($CC, $PATH)``, like the compiler choice itself."""

    def test_moved_cc_keys_its_own_compiler(self, tmp_path, monkeypatch):
        from repro.backends.cbackend import build
        from tests.guestlib_cc import CompilerProbe

        real = shutil.which(build._find_cc())
        mycc = tmp_path / "mycc"
        mycc.write_text('#!/bin/sh\n'
                        'if [ "$1" = "--version" ]; then echo "mycc 1.0"; '
                        'exit 0; fi\n'
                        f'exec "{real}" "$@"\n')
        mycc.chmod(0o755)
        monkeypatch.delenv("CC", raising=False)
        default = jit(CompilerProbe(0.5), "run", 1,
                      backend="c").report.key_digest

        monkeypatch.setenv("CC", str(mycc))
        moved = jit(CompilerProbe(0.5), "run", 1, backend="c")
        assert moved.report.key_digest != default
        assert moved.invoke().value == 0.5
        # a process that starts with this $CC computes the same key
        root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
        script = ("from repro import jit\n"
                  "from tests.guestlib_cc import CompilerProbe\n"
                  "print(jit(CompilerProbe(0.5), 'run', 1, backend='c')"
                  ".report.key_digest)\n")
        env = {**os.environ, "REPRO_CACHE_DIR": str(tmp_path / "fresh"),
               "PYTHONPATH": os.pathsep.join((os.path.join(root, "src"),
                                              root))}
        fresh = subprocess.run([sys.executable, "-c", script], env=env,
                               cwd=root, capture_output=True, text=True,
                               timeout=120)
        assert fresh.returncode == 0, fresh.stderr
        assert fresh.stdout.split()[-1] == moved.report.key_digest

        monkeypatch.delenv("CC")
        back = jit(CompilerProbe(0.5), "run", 1, backend="c")
        assert back.report.key_digest == default
        assert back.report.cache_tier == "memory"


class TestCaptureMemoTrace:
    def test_spans_say_hit_or_miss(self, backend):
        from tests.guestlib import FrontSum, SwapBuf

        def run(buf):
            app = FrontSum(buf)
            values = []
            for fence in (False, False, True, False):
                if fence:
                    buf.front = np.full(8, 2.0, np.float32)
                trace.clear()
                values.append(jit(app, "run", backend=backend).invoke().value)
                memo = {s.name: s.attrs.get("memo") for s in trace.spans()
                        if s.name in ("jit.snapshot", "cache.key")}
                if trace.enabled():
                    seen.append(memo)
            return values

        seen: list = []
        was_enabled = trace.enabled()
        trace.enable()
        try:
            traced = run(SwapBuf(np.ones(8, np.float32),
                                 np.zeros(8, np.float32)))
        finally:
            if not was_enabled:
                trace.disable()
            trace.clear()
        miss = {"jit.snapshot": "miss", "cache.key": "miss"}
        hit = {"jit.snapshot": "hit", "cache.key": "hit"}
        assert seen == [miss, hit, miss, hit]
        trace.disable()
        try:
            plain = run(SwapBuf(np.ones(8, np.float32),
                                np.zeros(8, np.float32)))
        finally:
            if was_enabled:
                trace.enable()
        assert traced == plain == [8.0, 8.0, 16.0, 16.0]


class TestCaptureMemoRace:
    def test_warm_jit_races_an_array_swap(self, backend):
        """8 threads of warm jit() on one receiver while a ninth swaps its
        array field between two lengths: every JitCode binds the array its
        own key was computed for, and a jit() that starts after a swap
        binds the array the swap stored."""
        from tests.guestlib import FrontSum, SwapBuf

        short, long = np.ones(8, np.float32), np.ones(16, np.float32)
        buf = SwapBuf(short, np.zeros(4, np.float32))
        app = FrontSum(buf)
        digest = {}
        for arr in (short, long):
            buf.front = arr
            digest[arr.size] = jit(app, "run", backend=backend).report.key_digest
        assert len(set(digest.values())) == 2

        n_threads, calls = 8, 150
        stop = threading.Event()
        codes: list = []
        stale: list = []
        errors: list = []
        barrier = threading.Barrier(n_threads + 1)

        def swapper():
            try:
                barrier.wait(timeout=30)
                while not stop.is_set():
                    buf.front = now = long if buf.front is short else short
                    code = jit(app, "run", backend=backend)
                    if code.program.snapshot.array_slots[0].array is not now:
                        stale.append(code)
            except BaseException as exc:  # noqa: BLE001 - surfaced below
                errors.append(exc)

        def worker():
            try:
                barrier.wait(timeout=30)
                mine = [jit(app, "run", backend=backend) for _ in range(calls)]
                codes.extend(mine)
            except BaseException as exc:  # noqa: BLE001 - surfaced below
                errors.append(exc)

        # switch threads often, so the swap lands inside the walk
        switch = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [threading.Thread(target=worker)
                       for _ in range(n_threads)]
            swap = threading.Thread(target=swapper)
            for t in [swap, *threads]:
                t.start()
            for t in threads:
                t.join(timeout=120)
            stop.set()
            swap.join(timeout=30)
        finally:
            sys.setswitchinterval(switch)
        assert not errors
        assert not stale, f"{len(stale)} jit() calls bound a replaced array"
        assert len(codes) == n_threads * calls
        for code in codes:
            arr = code.program.snapshot.array_slots[0].array
            assert arr is short or arr is long
            assert code.report.key_digest == digest[arr.size]
        for code in codes[:: max(1, len(codes) // 16)]:
            arr = code.program.snapshot.array_slots[0].array
            assert code.invoke().value == float(arr.size)


# ---------------------------------------------------------------------------
# the warm path: one request configuration per environment, one lock per hit
# ---------------------------------------------------------------------------

class _CountingLock:
    """A lock that counts its acquisitions."""

    def __init__(self, lock):
        self.lock, self.n = lock, 0

    def acquire(self, *args, **kwargs):
        self.n += 1
        return self.lock.acquire(*args, **kwargs)

    def release(self):
        self.lock.release()

    def __enter__(self):
        self.acquire()
        return self

    def __exit__(self, *exc):
        self.release()


def _counting(monkeypatch, owner, name):
    """Wrap ``owner.name`` so every call lands in the returned list."""
    real, calls = getattr(owner, name), []

    def counted(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(owner, name, counted)
    return calls


class TestWarmPath:
    def test_warm_calls_resolve_no_configuration(self, backend, monkeypatch):
        """Three warm calls build no backend and compute no key
        configuration: both are resolved once per environment."""
        cls = _backend_cls(backend)
        app = Sweeper(ScaleAddSolver(0.5), 12)
        jit(app, "run", 2, backend=backend)
        inits = _counting(monkeypatch, cls, "__init__")
        configs = _counting(monkeypatch, code_cache, "key_config")
        for _ in range(3):
            assert jit(app, "run", 2, backend=backend).report.cache_tier \
                == "memory"
        assert inits == [] and configs == []

    def test_memory_hit_takes_no_service_lock(self, backend, monkeypatch):
        app = Sweeper(ScaleAddSolver(0.5), 12)
        jit(app, "run", 2, backend=backend)
        lock = _CountingLock(service._LOCK)
        monkeypatch.setattr(service, "_LOCK", lock)
        for _ in range(3):
            assert jit(app, "run", 2, backend=backend).report.cache_tier \
                == "memory"
        assert lock.n == 0
        code_cache.clear_memory()  # a miss of the memory tier takes it
        assert jit(app, "run", 2, backend=backend).report.cache_tier == "disk"
        assert lock.n >= 1

    @pytest.mark.parametrize("name", [
        "REPRO_OPT_PASSES", "REPRO_OMP", "REPRO_OMP_REDUCTIONS",
        "REPRO_BLAS", "REPRO_BOUNDS", "CC", "PATH",
    ])
    def test_environment_change_resolves_again(self, monkeypatch, name):
        """Each variable the configuration reads: moving it between warm
        calls resolves the configuration again, and the served key is the
        one a fresh capture computes."""
        before = os.environ.get(name)
        value = {"CC": "gcc" if before == "cc" else "cc",
                 "PATH": f"/nonexistent-dir:{before}"}.get(
            name, "0" if before == "1" else "1")
        monkeypatch.setattr(service, "_CONFIGS", {})  # none seen yet
        app = Sweeper(ScaleAddSolver(0.5), 12)
        _served(app, "run", 2, backend="py")
        configs = _counting(monkeypatch, code_cache, "key_config")
        _served(app, "run", 2, backend="py")
        assert configs == []
        monkeypatch.setenv(name, value)
        _served(app, "run", 2, backend="py")
        assert len(configs) == 1
        _served(app, "run", 2, backend="py")
        # back to the first environment: resolved before, so not again
        if before is None:
            monkeypatch.delenv(name)
        else:
            monkeypatch.setenv(name, before)
        _served(app, "run", 2, backend="py")
        assert len(configs) == 1

    def test_capture_reuses_its_served_program(self, backend):
        """A sealed receiver's warm hits share one rebound program while
        the tier keeps its entry; a re-hydrated entry rebinds afresh."""
        app = Sweeper(ScaleAddSolver(0.5), 12)
        jit(app, "run", 2, backend=backend)
        first = jit(app, "run", 2, backend=backend)
        again = jit(app, "run", 2, backend=backend)
        assert again.program is first.program
        code_cache.clear_memory()
        disk = jit(app, "run", 2, backend=backend)
        warm = jit(app, "run", 2, backend=backend)
        assert disk.report.cache_tier == "disk"
        assert warm.program is not first.program
        assert warm.program.snapshot is first.program.snapshot
        assert warm.invoke().value == first.invoke().value == app.run(2)


class TestWarmHitRace:
    def test_warm_hits_race_clear_memory(self, monkeypatch):
        """8 threads of warm jit() on one key while a ninth empties the
        memory tier in a loop (disk tier off, so each clear can cost a
        compile): nothing raises, every code runs like the interpreter, and
        single-flight compiles at most once per clear, plus the first."""
        monkeypatch.setenv("REPRO_DISK_CACHE", "0")
        app = Sweeper(ScaleAddSolver(0.5), 12)
        want = _bits(app.run(2))
        jit(app, "run", 2, backend="py")
        before = service.stats()["compiles"]

        n_threads, calls = 8, 150
        stop = threading.Event()
        clears = [0]
        codes: list = []
        errors: list = []
        barrier = threading.Barrier(n_threads + 1)

        def clearer():
            try:
                barrier.wait(timeout=30)
                while not stop.is_set():
                    code_cache.clear_memory()
                    clears[0] += 1
                    time.sleep(0.001)
            except BaseException as exc:  # noqa: BLE001 - surfaced below
                errors.append(exc)

        def worker():
            try:
                barrier.wait(timeout=30)
                codes.extend(jit(app, "run", 2, backend="py")
                             for _ in range(calls))
            except BaseException as exc:  # noqa: BLE001 - surfaced below
                errors.append(exc)

        switch = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [threading.Thread(target=worker)
                       for _ in range(n_threads)]
            clear = threading.Thread(target=clearer)
            for t in [clear, *threads]:
                t.start()
            for t in threads:
                t.join(timeout=120)
            stop.set()
            clear.join(timeout=30)
        finally:
            sys.setswitchinterval(switch)
        assert not errors
        assert len(codes) == n_threads * calls
        assert clears[0] > 0
        assert service.stats()["compiles"] - before <= clears[0] + 1
        for code in codes:
            assert _bits(code.invoke().value) == want
