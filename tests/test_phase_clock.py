"""One clock per compile phase.

A request's ``JitReport`` phase fields, ``BuildStats`` and the mid-end's
per-pass seconds are read from :class:`repro.obs.trace.phases`, the clock
the spans read: with tracing on, each field equals (``==``) the summed
``dur_s`` of its spans, on every tier.  The spans of a request tile its
``jit.compile`` root, and no compile-path module reads a second clock.
"""

from __future__ import annotations

import ast
import json
import os
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

from repro import jit
from repro.backends.cbackend import compiler_available
from repro.jit import cache as code_cache
from repro.jit import engine, service
from repro.jit.engine import clear_code_cache
from repro.obs import trace
from repro.obs.trace import phases

from tests.conftest import requires_cc
from tests.guestlib import ScaleAddSolver, Sweeper

SRC = Path(__file__).resolve().parents[1] / "src"

#: the laps a request that translated counts in ``translate_s`` and
#: ``backend_compile_s`` (docs/OBSERVABILITY.md, "Counters"); every other
#: lap is ``cached_lookup_s``
_TRANSLATE = ("backend.init", "jit.snapshot", "jit.translate")


@pytest.fixture(autouse=True)
def traced():
    was_enabled = trace.enabled()
    trace.enable()
    trace.clear()
    yield
    if not was_enabled:
        trace.disable()
    trace.clear()


@pytest.fixture()
def cache_dir(tmp_path, monkeypatch):
    root = tmp_path / "code-cache"
    monkeypatch.setenv("REPRO_CACHE_DIR", str(root))
    clear_code_cache()
    yield root
    clear_code_cache()


def _jit(backend):
    return jit(Sweeper(ScaleAddSolver(0.5), 31), "run", 2, backend=backend)


def _laps(recs, root) -> list:
    """The root's direct children as ``(name, dur_s)``, in the order they
    ran."""
    return [(r.name, r.dur_s) for r in recs if r.parent_id == root.span_id]


def _total(laps, keep=lambda name: True) -> float:
    return sum((d for n, d in laps if keep(n)), 0.0)


def _check_fields(report, laps) -> None:
    assert report.inflight_wait_s == _total(
        laps, lambda n: n == "jit.inflight_wait")
    if report.cache_hit:
        assert report.translate_s == report.backend_compile_s == 0.0
        assert report.cached_lookup_s == _total(laps)
        return
    assert report.translate_s == _total(laps, lambda n: n in _TRANSLATE)
    assert report.backend_compile_s == _total(
        laps, lambda n: n == "backend.compile")
    assert report.cached_lookup_s == _total(
        laps, lambda n: n not in _TRANSLATE and n != "backend.compile")


def _root(recs, tier):
    (root,) = [r for r in recs
               if r.name == "jit.compile" and r.attrs["tier"] == tier]
    return root


class TestPhasesClock:
    def test_siblings_share_each_read(self):
        with phases("a", n=1) as clock:
            clock.next("b")
            clock.next("a")
        a1, b, a2 = trace.spans()
        assert a1.t_start + a1.dur_s == b.t_start
        assert b.t_start + b.dur_s == a2.t_start
        assert clock.laps == [("a", a1.dur_s), ("b", b.dur_s),
                              ("a", a2.dur_s)]
        assert clock.end() == a1.dur_s + b.dur_s + a2.dur_s
        assert a1.attrs == {"n": 1}

    def test_untraced_clock_still_keeps_laps(self):
        trace.disable()
        with phases("a") as clock:
            clock.next("b")
        assert [name for name, _ in clock.laps] == ["a", "b"]
        assert clock.end() == sum(dt for _, dt in clock.laps) > 0
        assert trace.spans() == []

    def test_exception_closes_the_open_phase(self):
        with pytest.raises(KeyError):
            with phases("a") as clock:
                clock.next("b")
                raise KeyError("x")
        a, b = trace.spans()
        assert "error" not in a.attrs and b.attrs["error"] == "KeyError"
        assert trace.current_span() is None


class TestReportIsTheSpans:
    """Each phase field equals the summed ``dur_s`` of its laps, exactly."""

    def test_miss_memory_disk(self, backend, cache_dir):
        cold = _jit(backend)
        warm = _jit(backend)
        code_cache.clear_memory()
        disk = _jit(backend)
        recs = trace.spans()
        for code, tier in ((cold, "miss"), (warm, "memory"),
                           (disk, "disk")):
            laps = _laps(recs, _root(recs, tier))
            _check_fields(code.report, laps)
            assert [n for n, _ in laps[:2]] == ["backend.init", "jit.snapshot"]

        # a miss takes the key's entry lock and re-probes under it: both
        # are lookup time, as they are on a farm-dedup hit
        root = _root(recs, "miss")
        kids = [r.name for r in recs if r.parent_id == root.span_id]
        assert kids == ["backend.init", "jit.snapshot", "cache.key",
                        "cache.probe", "jit.farm_lock", "cache.probe",
                        "jit.translate", "backend.compile", "cache.store"]
        assert cold.report.total_s <= root.dur_s
        assert root.dur_s - cold.report.total_s < 0.01 * root.dur_s

    def test_root_is_the_request_clock(self, backend, cache_dir):
        """The ``jit.compile`` root starts at the request clock's first read
        and lasts the report's ``total_s``, whatever served it."""
        codes = [_jit(backend), _jit(backend)]
        code_cache.clear_memory()
        codes.append(_jit(backend))
        recs = trace.spans()
        for code, tier in zip(codes, ("miss", "memory", "disk")):
            root = _root(recs, tier)
            first = min(r.t_start for r in recs
                        if r.parent_id == root.span_id)
            assert root.t_start == first
            assert root.dur_s == code.report.total_s

    def test_dedup(self, monkeypatch, cache_dir):
        started, release = threading.Event(), threading.Event()
        real = engine._translate

        def slow(*args, **kwargs):
            started.set()
            release.wait(timeout=30)
            return real(*args, **kwargs)

        monkeypatch.setattr(engine, "_translate", slow)
        codes = {}
        waits = service.stats()["inflight_waits"]

        def run(name):
            codes[name] = _jit("py")

        leader = threading.Thread(target=run, args=("leader",))
        leader.start()
        assert started.wait(timeout=30)
        joiner = threading.Thread(target=run, args=("joiner",))
        joiner.start()
        deadline = time.monotonic() + 30
        while (service.stats()["inflight_waits"] == waits
               and time.monotonic() < deadline):
            time.sleep(0.001)
        release.set()
        leader.join(timeout=60)
        joiner.join(timeout=60)
        assert not leader.is_alive() and not joiner.is_alive()
        recs = trace.spans()
        laps = _laps(recs, _root(recs, "dedup"))
        assert _total(laps, lambda n: n == "jit.inflight_wait") > 0
        _check_fields(codes["joiner"].report, laps)
        _check_fields(codes["leader"].report, _laps(recs, _root(recs, "miss")))

    def test_uncached_has_no_lookup_laps(self, backend):
        code = jit(Sweeper(ScaleAddSolver(0.5), 31), "run", 2,
                   backend=backend, use_cache=False)
        recs = trace.spans()
        laps = _laps(recs, _root(recs, "miss"))
        assert [n for n, _ in laps] == ["backend.init", "jit.snapshot",
                                        "jit.translate", "backend.compile"]
        _check_fields(code.report, laps)
        assert code.report.cached_lookup_s == 0.0

    @requires_cc
    def test_build_stats_are_the_cc_spans(self, cache_dir):
        stats = _jit("c").report.build_stats
        (build,) = [r for r in trace.spans() if r.name == "cc.build"]
        (cc,) = [r for r in trace.spans() if r.name == "cc.compile"]
        assert cc.parent_id == build.span_id
        assert stats["compile_s"] == cc.dur_s
        assert stats["wall_s"] == build.dur_s

    def test_pass_seconds_are_the_opt_spans(self, cache_dir):
        pipeline = _jit("py").report.opt_stats["pipeline"]
        assert pipeline
        for name, st in pipeline.items():
            durs = [r.dur_s for r in trace.spans() if r.name == f"opt.{name}"]
            assert len(durs) == st["runs"]
            assert st["seconds"] == sum(durs, 0.0), name


#: compiles the ledger's four programs in a fresh interpreter, py first, so
#: each backend's first request pays its backend's import and probe; every
#: program is a miss and then three disk hits.  Prints the spans as JSON
#: lines.
_LEDGER_PROGRAMS = r"""
import json, sys
import numpy as np
from repro import jit, jit4mpi
from repro.jit import cache
from repro.library.cgsolve.config import make_solver
from repro.library.matmul import (
    FoxAlgorithm, MPIThread, OptimizedCalculator, make_matrix)
from repro.library.nbody.config import make_system
from repro.library.stencil import (
    EmptyContext, SineGen, StencilCPU3D, ThreeDIndexer)
from repro.library.stencil.config import make_dif3d_solver, make_grid3d
from repro.obs import trace

def programs():
    yield jit, StencilCPU3D(make_dif3d_solver(), make_grid3d(8, 8, 6),
                            ThreeDIndexer(8, 8, 6), SineGen(8, 8, 4, 1),
                            EmptyContext()), "run", (2,)
    yield jit, make_solver(5, 5), "solve", (20,)
    yield jit, make_system(16), "run", (2,)
    yield jit4mpi, MPIThread(FoxAlgorithm(), OptimizedCalculator()), \
        "start_generated", (make_matrix(8), make_matrix(8), make_matrix(8))

trace.enable()
for backend in sys.argv[1:]:
    for entry, recv, method, args in programs():
        entry(recv, method, *args, backend=backend)
        for _ in range(3):
            cache.clear_memory()
            entry(recv, method, *args, backend=backend)
for s in trace.spans():
    print(json.dumps(s.as_dict()))
"""


def _uncovered(parent, kids) -> list:
    """``(start, length)`` of each stretch of ``parent`` no child covers,
    as offsets from the parent's start."""
    gaps, at = [], parent["t_start"]
    end = parent["t_start"] + parent["dur_s"]
    for k in sorted(kids, key=lambda k: k["t_start"]):
        if k["t_start"] > at:
            gaps.append((at - parent["t_start"], k["t_start"] - at))
        at = max(at, k["t_start"] + k["dur_s"])
    if end > at:
        gaps.append((at - parent["t_start"], end - at))
    return gaps


def _coverage(parent, kids) -> tuple:
    """``(share uncovered, message naming the widest gap)``."""
    gaps = _uncovered(parent, kids)
    at, n = max(gaps, key=lambda g: g[1], default=(0.0, 0.0))
    share = sum(g[1] for g in gaps) / parent["dur_s"]
    before = [k["name"] for k in kids
              if k["t_start"] < parent["t_start"] + at]
    return share, (f"{parent['name']} {parent['attrs']}: {share:.1%} of "
                   f"{parent['dur_s'] * 1e3:.3f} ms uncovered; the widest "
                   f"gap is {n * 1e3:.3f} ms at +{at * 1e3:.3f} ms, after "
                   f"{before}")


def test_children_cover_every_root(tmp_path):
    """Each ``jit.compile`` root and each ``backend.compile``: its direct
    children cover at least 95 % of it.  A disk hit is under a millisecond,
    where one preemption inside the span bookkeeping outweighs 5 %, so of
    its three disk hits a program's best one is held to the bound."""
    backends = ["py"] + (["c"] if compiler_available() else [])
    env = dict(os.environ, REPRO_CACHE_DIR=str(tmp_path / "cache"),
               PYTHONPATH=f"{SRC}{os.pathsep}{os.environ.get('PYTHONPATH', '')}")
    env.pop("REPRO_TRACE_FILE", None)
    out = subprocess.run([sys.executable, "-c", _LEDGER_PROGRAMS, *backends],
                         capture_output=True, text=True, env=env,
                         timeout=600, check=True).stdout
    recs = [json.loads(line) for line in out.splitlines()]
    kids: dict = {}
    for r in recs:
        kids.setdefault(r["parent_id"], []).append(r)
    disk: dict = {}  # the program's miss root -> its best disk hit
    n_roots = miss = 0
    for p in recs:
        if p["name"] not in ("jit.compile", "backend.compile"):
            continue
        share, msg = _coverage(p, kids.get(p["span_id"], []))
        tier = p["attrs"].get("tier")
        n_roots += tier is not None
        if tier == "disk":
            disk[miss] = min(disk.get(miss, (1.0, "")), (share, msg))
            continue
        if tier == "miss":
            miss = p["span_id"]
        assert share <= 0.05, msg
    assert n_roots == 16 * len(backends)
    assert len(disk) == 4 * len(backends)
    for share, msg in disk.values():
        assert share <= 0.05, msg


#: compile-path modules whose timings come from the span clock
_ONE_CLOCK = ("jit/service.py", "backends/cbackend/build.py",
              "opt/pipeline.py")


@pytest.mark.parametrize("rel", _ONE_CLOCK)
def test_no_second_clock(rel):
    """These modules time through ``trace.phases``: a ``perf_counter`` in
    them would be a second clock beside the spans'."""
    path = SRC / "repro" / rel
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    uses = [n.lineno for n in ast.walk(tree)
            if isinstance(n, ast.Attribute) and n.attr == "perf_counter"
            or isinstance(n, ast.Name) and n.id == "perf_counter"
            or isinstance(n, ast.alias) and n.name == "perf_counter"]
    assert uses == [], f"{rel}: perf_counter at lines {uses}"
