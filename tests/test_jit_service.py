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

import threading
import time

import pytest

from repro import jit
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
