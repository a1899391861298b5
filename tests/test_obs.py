"""The observability subsystem: spans, exports, CLI, service wiring.

Covers: the disabled path is a shared no-op (nothing recorded, negligible
cost), span parent/child links are correct within a thread and across the
8-thread single-flight stress pattern (every parent lives on the span's
own thread; exactly one ``jit.translate`` per unique key), the ring buffer
is bounded, JSONL and Chrome exports round-trip, ``REPRO_TRACE``/
``REPRO_TRACE_FILE`` enable tracing in a fresh process, the service
counters are exact under concurrent ``jit()`` calls, ``service.stats()``
keeps its historical shape (with ``repro jit stats --json`` for scripts), and
a disk hit's ``cache.hydrate`` span nests under its ``cache.probe``.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import threading
import time
from pathlib import Path

import numpy as np
import pytest

from repro import jit
from repro.jit import cache as code_cache
from repro.jit import service
from repro.jit.engine import clear_code_cache
from repro.obs import export, trace

from tests.conftest import requires_cc
from tests.guestlib import (
    RingExchanger, RuntimeLength, ScaleAddSolver, Sweeper,
)


@pytest.fixture(autouse=True)
def clean_trace():
    """Spans off and the ring empty around every test; the pre-test
    enabled state (e.g. a CI run under REPRO_TRACE=1) is restored."""
    was_enabled = trace.enabled()
    trace.disable()
    trace.clear()
    yield
    trace.disable()
    trace.clear()
    if was_enabled:
        trace.enable(file=os.environ.get("REPRO_TRACE_FILE") or None)


class TestDisabledMode:
    def test_span_is_shared_noop_and_records_nothing(self):
        s1 = trace.span("x", a=1)
        s2 = trace.span("y")
        assert s1 is s2, "disabled span() must return one shared singleton"
        with trace.span("z") as sp:
            sp.set(tier="memory")
            assert trace.current_span() is None
        trace.set_attr(ignored=True)
        assert trace.spans() == []

    def test_disabled_overhead_negligible(self):
        # the warm cache-hit budget is <2%; a disabled span must cost well
        # under a microsecond-scale bound even on a loaded CI host
        n = 20000
        t0 = time.perf_counter()
        for _ in range(n):
            with trace.span("hot"):
                pass
        per_span = (time.perf_counter() - t0) / n
        assert per_span < 20e-6, f"{per_span*1e6:.2f} us per disabled span"


class TestSpans:
    def test_parent_child_links_and_attrs(self):
        trace.enable()
        with trace.span("outer", phase="compile") as outer:
            with trace.span("inner", k=1):
                pass
            outer.set(late=True)
        inner_rec, outer_rec = trace.spans()
        assert inner_rec.name == "inner"  # children finish first
        assert inner_rec.parent_id == outer_rec.span_id
        assert outer_rec.parent_id is None
        assert inner_rec.attrs == {"k": 1}
        assert outer_rec.attrs == {"phase": "compile", "late": True}
        assert outer_rec.dur_s >= inner_rec.dur_s >= 0.0

    def test_set_attr_reaches_innermost_live_span(self):
        trace.enable()
        with trace.span("a"):
            with trace.span("b"):
                trace.set_attr(tier="disk")
        b, a = trace.spans()
        assert b.attrs == {"tier": "disk"}
        assert a.attrs == {}

    def test_exception_is_recorded_and_span_closed(self):
        trace.enable()
        with pytest.raises(ValueError):
            with trace.span("boom"):
                raise ValueError("nope")
        (rec,) = trace.spans()
        assert rec.attrs["error"] == "ValueError"
        assert trace.current_span() is None

    def test_ring_buffer_is_bounded(self):
        trace.enable(capacity=8)
        for i in range(20):
            with trace.span("s", i=i):
                pass
        recs = trace.spans()
        assert len(recs) == 8
        assert [r.attrs["i"] for r in recs] == list(range(12, 20))

    def test_threads_get_independent_stacks(self):
        trace.enable()
        n = 8
        barrier = threading.Barrier(n)

        def worker(i):
            barrier.wait(timeout=30)
            with trace.span("t.outer", worker=i):
                with trace.span("t.inner", worker=i):
                    pass

        threads = [threading.Thread(target=worker, args=(i,))
                   for i in range(n)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=30)
        recs = trace.spans()
        assert len(recs) == 2 * n
        by_id = {r.span_id: r for r in recs}
        for r in recs:
            if r.name == "t.inner":
                parent = by_id[r.parent_id]
                assert parent.name == "t.outer"
                # the parent is on the same thread and the same worker
                assert parent.tid == r.tid
                assert parent.attrs["worker"] == r.attrs["worker"]


class TestPipelineSpans:
    def test_single_flight_stress_span_tree(self):
        """8 threads racing one key: exactly one ``jit.translate`` span,
        every span's parent lives on its own thread, and the nested
        pipeline (snapshot/key/probe under the request, lower under
        translate) links up correctly."""
        n_threads = 8
        trace.enable()
        service.reset()
        clear_code_cache()

        barrier = threading.Barrier(n_threads)
        errors: list = []

        def worker(i):
            try:
                barrier.wait(timeout=30)
                jit(Sweeper(ScaleAddSolver(0.5), 16), "run", 4, backend="py")
            except BaseException as exc:  # noqa: BLE001 - surfaced below
                errors.append(exc)

        threads = [threading.Thread(target=worker, args=(i,))
                   for i in range(n_threads)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
        assert not errors

        recs = trace.spans()
        by_id = {r.span_id: r for r in recs}
        translates = [r for r in recs if r.name == "jit.translate"]
        assert len(translates) == 1, "single-flight must translate once"
        lowers = [r for r in recs if r.name == "frontend.lower"]
        assert len(lowers) == 1
        assert by_id[lowers[0].parent_id].name == "jit.translate"
        verifies = [r for r in recs if r.name == "frontend.verify"]
        assert len(verifies) == 1
        assert len([r for r in recs if r.name == "jit.snapshot"]) == n_threads
        probes = [r for r in recs if r.name == "cache.probe"]
        assert len(probes) >= n_threads
        assert any(r.attrs.get("tier") == "memory" for r in probes)
        assert any(r.attrs.get("tier") == "miss" for r in probes)
        # parent links never cross threads
        for r in recs:
            if r.parent_id is not None:
                assert by_id[r.parent_id].tid == r.tid

    def test_invoke_and_mpi_spans_nest(self):
        """An MPI guest at one rank still runs under ``mpirun``."""
        trace.enable()
        code = jit(RingExchanger(4), "run", 2, backend="py")
        trace.clear()
        code.invoke()
        recs = trace.spans()
        by_id = {r.span_id: r for r in recs}
        names = [r.name for r in recs]
        assert "jit.invoke" in names and "mpi.run" in names
        run = next(r for r in recs if r.name == "mpi.run")
        assert by_id[run.parent_id].name == "jit.invoke"
        rank = next(r for r in recs if r.name == "mpi.rank")
        assert rank.attrs == {"rank": 0}

    @requires_cc
    def test_invoke_splits_into_the_ledgers_layers(self):
        """copy / marshal / native / unmarshal: consecutive children of the
        rank's span, in that order, that fit inside ``jit.invoke`` (an MPI
        guest at one rank, so the rank's span is ``mpirun``'s)."""
        trace.enable()
        code = jit(RingExchanger(4), "run", 2, backend="c")
        trace.clear()
        code.invoke()
        recs = trace.spans()
        rank = next(r for r in recs if r.name == "mpi.rank")
        layers = [r for r in recs if r.name.startswith("invoke.")]
        assert [r.name for r in layers] == [
            "invoke.copy", "invoke.marshal", "invoke.native",
            "invoke.unmarshal"]
        assert {r.parent_id for r in layers} == {rank.span_id}
        for before, after in zip(layers, layers[1:]):
            assert before.t_start + before.dur_s <= after.t_start
        invoke = next(r for r in recs if r.name == "jit.invoke")
        assert sum(r.dur_s for r in layers) <= invoke.dur_s
        assert trace.current_span() is None

    @requires_cc
    def test_one_rank_without_mpi_has_no_launcher_spans(self):
        """A program with no MPI or GPU call at one rank: the four layers
        are children of ``jit.invoke`` itself, no ``mpi.run`` or
        ``mpi.rank`` is opened, and its one output crosses back through the
        call frame: no ``runtime.callback``, ``outputs=1`` on
        ``invoke.unmarshal``."""
        trace.enable()
        code = jit(Sweeper(ScaleAddSolver(0.5), 8), "run", 2, backend="c")
        trace.clear()
        code.invoke()
        recs = trace.spans()
        by_id = {r.span_id: r for r in recs}
        tree = sorted((r.name, r.parent_id and by_id[r.parent_id].name)
                      for r in recs)
        assert tree == sorted([
            ("jit.invoke", None), ("invoke.copy", "jit.invoke"),
            ("invoke.marshal", "jit.invoke"), ("invoke.native", "jit.invoke"),
            ("invoke.unmarshal", "jit.invoke")])
        (invoke,) = [r for r in recs if r.name == "jit.invoke"]
        assert invoke.attrs == {"backend": "c", "nranks": 1}
        (unmarshal,) = [r for r in recs if r.name == "invoke.unmarshal"]
        assert unmarshal.attrs == {"outputs": 1}
        assert trace.current_span() is None

    @requires_cc
    def test_failed_native_call_closes_its_phase(self):
        """An output of a length known only at run time still calls back;
        the callback raises."""
        from repro.jit.runtime import RuntimeEnv

        class Refusing(RuntimeEnv):
            def output(self, label, arr):
                raise KeyError(label)

        trace.enable()
        sizes = np.array([6], dtype=np.int64)
        code = jit(RuntimeLength(sizes), "run", 0, backend="c")
        trace.clear()
        with pytest.raises(KeyError, match="dyn"):
            code.compiled.run(Refusing(None), [sizes.copy()])
        assert trace.current_span() is None
        recs = trace.spans()
        phases = [r for r in recs if r.name.startswith("invoke.")]
        assert [r.name for r in phases] == [
            "invoke.copy", "invoke.marshal", "invoke.native",
            "invoke.unmarshal"]
        # closed from a ``finally``, the phase records what passed through
        assert [r.attrs.get("error") for r in phases] == [
            None, None, None, "KeyError"]
        # the callback that raised, inside the native call
        (callback,) = [r for r in recs if r.name == "runtime.callback"]
        assert callback.attrs == {"callback": "output", "error": "KeyError"}

    @requires_cc
    def test_one_callback_span_per_host_callback(self, monkeypatch):
        """Two ranks of ``RingExchanger``: a ``runtime.callback`` span,
        named for its callback and parented by its rank's
        ``invoke.native``, for every native→host transition."""
        from repro.jit import engine
        from repro.jit.runtime import RuntimeEnv

        entries = []

        class Counting(RuntimeEnv):
            def note_native_entry(self):
                entries.append(self)
                super().note_native_entry()

        monkeypatch.setattr(engine, "RuntimeEnv", Counting)
        trace.enable()
        code = jit(RingExchanger(4), "run", 3, backend="c").set4mpi(2)
        trace.clear()
        del entries[:]
        code.invoke()
        recs = trace.spans()
        by_id = {r.span_id: r for r in recs}
        calls = [r for r in recs if r.name == "runtime.callback"]
        assert len(calls) == len(entries) > 2
        assert {by_id[r.parent_id].name for r in calls} == {"invoke.native"}
        names = {r.attrs["callback"] for r in calls}
        assert {"mpi_rank", "mpi_size", "mpi_barrier"} <= names
        # ``buf`` has a length known at translation: it crosses back
        # through the call frame
        assert "output" not in names

    def test_phases_are_siblings(self):
        trace.enable()
        with trace.span("outer"):
            ph = trace.phases("a", n=1)
            ph.next("b")
            ph.end()
        a, b, outer = trace.spans()
        assert (a.name, b.name, outer.name) == ("a", "b", "outer")
        assert a.parent_id == b.parent_id == outer.span_id
        assert a.attrs == {"n": 1}


class TestCompileRoot:
    """``jit.compile``: one root span per ``jit()`` request, its ``tier``
    saying what served it, every pipeline span of the request beneath."""

    @staticmethod
    def _jit(backend):
        return jit(Sweeper(ScaleAddSolver(0.5), 29), "run", 2,
                   backend=backend)

    @pytest.fixture()
    def cache_dir(self, tmp_path, monkeypatch):
        root = tmp_path / "code-cache"
        monkeypatch.setenv("REPRO_CACHE_DIR", str(root))
        clear_code_cache()
        yield root
        clear_code_cache()

    @staticmethod
    def _root_of(rec, by_id):
        while rec.parent_id is not None:
            rec = by_id[rec.parent_id]
        return rec

    def test_every_span_nests_under_one_root_per_request(self, backend,
                                                          cache_dir):
        trace.enable()
        self._jit(backend)                  # a miss
        self._jit(backend)                  # memory
        code_cache.clear_memory()
        self._jit(backend)                  # disk
        recs = trace.spans()
        by_id = {r.span_id: r for r in recs}
        roots = [r for r in recs if r.parent_id is None]
        assert [r.name for r in roots] == ["jit.compile"] * 3
        assert [r.attrs for r in roots] == [
            {"method": "run", "backend": backend, "tier": tier}
            for tier in ("miss", "memory", "disk")]
        for rec in recs:
            assert self._root_of(rec, by_id).name == "jit.compile"
        snapshots = [r for r in recs if r.name == "jit.snapshot"]
        assert [by_id[r.parent_id].name for r in snapshots] == [
            "jit.compile"] * 3
        for rec in recs:
            root = self._root_of(rec, by_id)
            assert root.t_start <= rec.t_start
            assert rec.t_start + rec.dur_s <= root.t_start + root.dur_s

    def test_a_joined_flight_is_a_dedup(self, monkeypatch, cache_dir):
        """Two threads on one cold key: one compiles, the other waits on
        its flight and is served from memory as ``dedup``."""
        from repro.jit import engine

        started, release = threading.Event(), threading.Event()
        real = engine._translate

        def slow(*args, **kwargs):
            started.set()
            release.wait(timeout=30)
            return real(*args, **kwargs)

        monkeypatch.setattr(engine, "_translate", slow)
        trace.enable()
        waits = service.stats()["inflight_waits"]
        leader = threading.Thread(target=self._jit, args=("py",))
        leader.start()
        assert started.wait(timeout=30)
        joiner = threading.Thread(target=self._jit, args=("py",))
        joiner.start()
        deadline = time.monotonic() + 30
        while (service.stats()["inflight_waits"] == waits
               and time.monotonic() < deadline):
            time.sleep(0.001)
        release.set()
        leader.join(timeout=60)
        joiner.join(timeout=60)
        tiers = sorted(r.attrs["tier"] for r in trace.spans()
                       if r.name == "jit.compile")
        assert tiers == ["dedup", "miss"]

    def test_off_the_root_costs_one_enabled_check(self, monkeypatch):
        """With tracing off a ``jit()`` opens no span at all."""
        from repro.jit import engine

        self._jit("py")
        opened = []
        monkeypatch.setattr(engine._trace, "span",
                            lambda *a, **k: opened.append(a))
        self._jit("py")
        assert opened == [] and trace.spans() == []


class TestHydrateSpan:
    """``cache.hydrate``: the read, hash and dlopen/unmarshal of a disk hit,
    under its ``cache.probe``."""

    @staticmethod
    def _jit(backend):
        return jit(Sweeper(ScaleAddSolver(0.5), 23), "run", 2,
                   backend=backend)

    @pytest.fixture()
    def cache_dir(self, tmp_path, monkeypatch):
        root = tmp_path / "code-cache"
        monkeypatch.setenv("REPRO_CACHE_DIR", str(root))
        clear_code_cache()
        yield root
        clear_code_cache()

    def test_disk_hit_nests_hydrate_under_probe(self, backend, cache_dir):
        trace.enable()
        digest = self._jit(backend).report.key_digest   # a miss
        assert self._jit(backend).report.cache_tier == "memory"
        assert [r for r in trace.spans() if r.name == "cache.hydrate"] == []

        trace.clear()
        code_cache.clear_memory()
        assert self._jit(backend).report.cache_tier == "disk"
        recs = trace.spans()
        by_id = {r.span_id: r for r in recs}
        (hydrate,) = [r for r in recs if r.name == "cache.hydrate"]
        probe = by_id[hydrate.parent_id]
        assert probe.name == "cache.probe" and probe.attrs["tier"] == "disk"
        payload = cache_dir / f"{digest}.{'so' if backend == 'c' else 'pyc'}"
        assert hydrate.attrs == {"kind": backend,
                                 "bytes": payload.stat().st_size}
        assert hydrate.t_start >= probe.t_start
        assert hydrate.t_start + hydrate.dur_s <= probe.t_start + probe.dur_s

    def test_off_the_site_is_one_shared_noop(self, cache_dir, monkeypatch):
        """With tracing off the site is the one ``span()`` call every other
        site makes: it returns the shared no-op and records nothing."""
        self._jit("py")
        sites = []
        real = code_cache._span

        def spy(name, **attrs):
            sites.append((name, real(name, **attrs)))
            return sites[-1][1]

        monkeypatch.setattr(code_cache, "_span", spy)
        code_cache.clear_memory()
        assert self._jit("py").report.cache_tier == "disk"
        assert [name for name, _ in sites] == ["cache.hydrate"]
        assert sites[0][1] is trace.span("any other site")
        assert trace.spans() == []


class TestExports:
    def _sample(self):
        trace.enable()
        with trace.span("outer", tier="memory"):
            with trace.span("inner", n=3):
                pass
        return trace.spans()

    def test_jsonl_round_trip(self, tmp_path):
        recs = self._sample()
        path = tmp_path / "t.jsonl"
        assert export.write_jsonl(recs, path) == 2
        back = export.load_jsonl(path)
        assert [r["name"] for r in back] == ["inner", "outer"]
        assert back == [r.as_dict() for r in recs]
        assert back[0]["parent_id"] == back[1]["span_id"]
        assert back[1]["attrs"]["tier"] == "memory"

    def test_load_jsonl_rejects_garbage(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"name": "ok"}\nnot json\n')
        with pytest.raises(ValueError, match="bad.jsonl:2"):
            export.load_jsonl(path)

    def test_chrome_trace_round_trip(self, tmp_path):
        recs = self._sample()
        path = tmp_path / "t.json"
        assert export.write_chrome(recs, path) == 2
        doc = json.loads(path.read_text())
        xs = [e for e in doc["traceEvents"] if e["ph"] == "X"]
        metas = [e for e in doc["traceEvents"] if e["ph"] == "M"]
        assert {e["name"] for e in xs} == {"outer", "inner"}
        for e in xs:
            assert e["dur"] >= 0 and e["ts"] > 0  # microseconds
            assert e["pid"] == os.getpid()
        assert metas and metas[0]["name"] == "thread_name"
        # works from dicts (a loaded JSONL file) too
        assert export.chrome_trace([r.as_dict() for r in recs])["traceEvents"]

    def test_phase_summary_groups_by_name_and_tier(self):
        trace.enable()
        for tier in ("memory", "memory", "disk"):
            with trace.span("cache.probe", tier=tier):
                pass
        with trace.span("jit.translate"):
            pass
        rows = {r["phase"]: r for r in export.phase_summary(trace.spans())}
        assert rows["cache.probe[memory]"]["count"] == 2
        assert rows["cache.probe[disk]"]["count"] == 1
        assert rows["jit.translate"]["count"] == 1
        text = export.render_summary(trace.spans())
        assert "cache.probe[memory]" in text and "total_s" in text

    def test_env_enables_tracing_in_fresh_process(self, tmp_path):
        """REPRO_TRACE_FILE streams JSONL from a child process."""
        out = tmp_path / "child.jsonl"
        env = dict(os.environ)
        src = Path(__file__).resolve().parents[1] / "src"
        env["PYTHONPATH"] = f"{src}{os.pathsep}{env.get('PYTHONPATH', '')}"
        env["REPRO_TRACE_FILE"] = str(out)
        code = (
            "from repro.obs import trace\n"
            "assert trace.enabled()\n"
            "with trace.span('child.work', k=1):\n"
            "    pass\n"
        )
        subprocess.run([sys.executable, "-c", code], check=True, env=env,
                       timeout=60)
        recs = export.load_jsonl(out)
        assert recs and recs[-1]["name"] == "child.work"
        assert recs[-1]["attrs"] == {"k": 1}


class _YieldingDict(dict):
    """A counter dict that gives up the GIL between reading a count and
    writing it back.  CPython 3.11/3.12 happen not to switch threads inside
    a bare ``d[k] += 1``, so without this an unlocked increment would look
    exact there."""

    def __getitem__(self, key):
        value = super().__getitem__(key)
        time.sleep(0)
        return value


class TestMetrics:
    def test_concurrent_increments_are_exact(self, monkeypatch):
        """8 threads of warm ``jit()`` with a 10 µs switch interval: the
        service's request counter loses no increment."""
        jit(Sweeper(ScaleAddSolver(0.5), 16), "run", 4, backend="py")
        service.reset()
        monkeypatch.setattr(service, "_COUNTERS",
                            _YieldingDict(service._COUNTERS))
        n_threads, per = 8, 250

        def worker():
            app = Sweeper(ScaleAddSolver(0.5), 16)
            for _ in range(per):
                jit(app, "run", 4, backend="py")

        threads = [threading.Thread(target=worker) for _ in range(n_threads)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        st = service.stats()
        assert st["requests"] == n_threads * per
        assert st["compiles"] == 0


class TestServiceIntegration:
    def test_stats_keeps_historical_shape(self):
        service.reset()
        st = service.stats()
        assert set(st) == {
            "requests", "compiles", "dedup_hits", "inflight_waits",
            "inflight_wait_s",
            "farm_lock_waits", "farm_lock_wait_s", "farm_lock_timeouts",
            "farm_dedup_hits",
        }
        assert all(v == 0 for v in st.values())

    def test_compile_feeds_counters_and_phase_histograms(self):
        """The counters count requests and compiles; each request's phase
        times are on its own ``JitReport``."""
        service.reset()
        clear_code_cache()
        cold = jit(Sweeper(ScaleAddSolver(0.5), 16), "run", 4, backend="py")
        st = service.stats()
        assert st["requests"] == 1 and st["compiles"] == 1
        assert not cold.report.cache_hit and cold.report.translate_s > 0
        warm = jit(Sweeper(ScaleAddSolver(0.5), 16), "run", 4, backend="py")
        st = service.stats()
        assert st["requests"] == 2 and st["compiles"] == 1
        assert warm.report.cache_tier == "memory"
        assert warm.report.cached_lookup_s > 0

    def test_cli_jit_stats_json(self, capsys):
        from repro.__main__ import main

        service.reset()
        assert main(["jit", "stats", "--json"]) == 0
        st = json.loads(capsys.readouterr().out)
        assert st["requests"] == 0 and "py_slots" in st

    def test_cli_trace_summarize_demo(self, capsys):
        """`repro trace summarize` (no file): runs the stencil demo under
        tracing and prints the per-phase breakdown + JitReport delta."""
        from repro.__main__ import main

        assert main(["trace", "summarize"]) == 0
        out = capsys.readouterr().out
        assert "phase sum" in out and "JitReport" in out
        assert "jit.snapshot" in out and "mpi.run" in out
        delta = float(out.split("delta ")[1].split("%")[0])
        assert delta < 10.0
        assert not trace.enabled(), "demo must restore the disabled state"

    def test_cli_trace_export_and_summarize_file(self, tmp_path, capsys,
                                                 monkeypatch):
        from repro.__main__ import main

        monkeypatch.chdir(tmp_path)
        out = tmp_path / "t.jsonl"
        assert main(["trace", "export", "--format", "jsonl",
                     "-o", str(out)]) == 0
        assert out.exists()
        capsys.readouterr()
        assert main(["trace", "summarize", str(out)]) == 0
        text = capsys.readouterr().out
        assert "jit.snapshot" in text
