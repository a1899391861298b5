"""The observability subsystem: spans, metrics, exports, CLI, service wiring.

Covers: the disabled path is a shared no-op (nothing recorded, negligible
cost), span parent/child links are correct within a thread and across the
8-thread single-flight stress pattern (every parent lives on the span's
own thread; exactly one ``jit.translate`` per unique key), the ring buffer
is bounded, JSONL and Chrome exports round-trip, ``REPRO_TRACE``/
``REPRO_TRACE_FILE`` enable tracing in a fresh process, the metrics
registry is exact under concurrent increments, and ``service.stats()``
keeps its historical shape (with ``repro jit stats --json`` for scripts).
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

from repro import jit
from repro.jit import service
from repro.jit.engine import clear_code_cache
from repro.obs import export, metrics, trace

from tests.conftest import requires_cc
from tests.guestlib import RingExchanger, ScaleAddSolver, Sweeper


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
        are children of ``jit.invoke`` itself, the host callback sits under
        ``invoke.native``, and no ``mpi.run`` or ``mpi.rank`` is opened."""
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
            ("runtime.callback", "invoke.native"),
            ("invoke.unmarshal", "jit.invoke")])
        (invoke,) = [r for r in recs if r.name == "jit.invoke"]
        assert invoke.attrs == {"backend": "c", "nranks": 1}
        assert trace.current_span() is None

    @requires_cc
    def test_failed_native_call_closes_its_phase(self):
        from repro.jit.runtime import RuntimeEnv

        class Refusing(RuntimeEnv):
            def output(self, label, arr):
                raise KeyError(label)

        trace.enable()
        code = jit(Sweeper(ScaleAddSolver(0.5), 8), "run", 2, backend="c")
        trace.clear()
        with pytest.raises(KeyError, match="arr"):
            code.compiled.run(Refusing(None), [])
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
        assert {"mpi_rank", "mpi_size", "output"} <= {
            r.attrs["callback"] for r in calls}

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


class TestMetrics:
    def test_counter_gauge_histogram_basics(self):
        reg = metrics.MetricsRegistry()
        c = reg.counter("t.count")
        assert c.inc() == 1 and c.inc(2) == 3
        g = reg.gauge("t.depth")
        g.inc(), g.inc(), g.dec()
        assert g.value == 1 and g.max == 2
        h = reg.histogram("t.lat", buckets=(0.01, 0.1, 1.0))
        for v in (0.005, 0.05, 0.5, 5.0):
            h.observe(v)
        d = h.as_dict()
        assert d["count"] == 4 and d["min"] == 0.005 and d["max"] == 5.0
        assert d["buckets"] == {"0.01": 1, "0.1": 1, "1.0": 1, "+inf": 1}
        assert h.mean == pytest.approx(5.555 / 4)

    def test_histogram_percentile_interpolates_buckets(self):
        reg = metrics.MetricsRegistry()
        h = reg.histogram("t.p", buckets=(1.0, 10.0, 100.0))
        assert h.percentile(50) is None  # empty
        for v in (0.5, 2.0, 3.0, 4.0, 50.0):
            h.observe(v)
        assert h.percentile(0) == 0.5      # clamps to observed min
        assert h.percentile(100) == 50.0   # ... and max
        # p50: rank 2.5 of 5 lands in the (1.0, 10.0] bucket (3 samples)
        p50 = h.percentile(50)
        assert 1.0 <= p50 <= 10.0
        # p99 lands in the (10.0, 100.0] bucket, clamped to the max
        assert 10.0 < h.percentile(99) <= 50.0
        # monotone in q
        qs = [h.percentile(q) for q in (10, 25, 50, 75, 90, 99)]
        assert qs == sorted(qs)

    def test_registry_get_or_create_and_type_conflicts(self):
        reg = metrics.MetricsRegistry()
        assert reg.counter("a") is reg.counter("a")
        with pytest.raises(TypeError, match="already registered"):
            reg.gauge("a")
        snap = reg.snapshot()
        assert snap == {"a": {"type": "counter", "value": 0}}

    def test_reset_zeroes_in_place_keeping_references(self):
        reg = metrics.MetricsRegistry()
        c = reg.counter("jit.x")
        other = reg.counter("cache.y")
        c.inc(5), other.inc(3)
        reg.reset("jit.")
        assert c.value == 0 and reg.counter("jit.x") is c
        assert other.value == 3

    def test_concurrent_increments_are_exact(self):
        reg = metrics.MetricsRegistry()
        c = reg.counter("race")
        h = reg.histogram("race.h", buckets=(1.0,))
        n_threads, per = 8, 5000

        def worker():
            for _ in range(per):
                c.inc()
                h.observe(0.5)

        threads = [threading.Thread(target=worker) for _ in range(n_threads)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
        assert c.value == n_threads * per
        assert h.count == n_threads * per


class TestServiceIntegration:
    def test_stats_keeps_historical_shape(self):
        service.reset()
        st = service.stats()
        assert set(st) == {
            "requests", "compiles", "dedup_hits", "inflight_waits",
            "inflight_wait_s", "tiered_requests", "tier_promotions",
            "tier_failures", "queue_depth", "max_queue_depth",
            "workers", "tiered_default",
            "farm_lock_waits", "farm_lock_wait_s", "farm_lock_timeouts",
            "farm_dedup_hits",
        }
        assert all(st[k] == 0 for k in st
                   if k not in ("workers", "tiered_default"))

    def test_compile_feeds_counters_and_phase_histograms(self):
        service.reset()
        clear_code_cache()
        jit(Sweeper(ScaleAddSolver(0.5), 16), "run", 4, backend="py")
        st = service.stats()
        assert st["requests"] == 1 and st["compiles"] == 1
        phases = service.phase_metrics()
        assert phases["jit.phase.translate_s"]["count"] == 1
        assert phases["jit.phase.translate_s"]["sum"] > 0
        # warm second request lands in the lookup histogram
        jit(Sweeper(ScaleAddSolver(0.5), 16), "run", 4, backend="py")
        assert service.phase_metrics()["jit.phase.cached_lookup_s"]["count"] >= 2

    def test_cli_jit_stats_json(self, capsys):
        from repro.__main__ import main

        service.reset()
        assert main(["jit", "stats", "--json"]) == 0
        st = json.loads(capsys.readouterr().out)
        assert st["requests"] == 0 and "workers" in st

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
