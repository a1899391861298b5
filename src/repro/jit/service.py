"""Concurrency-safe JIT service: single-flight compilation + tiered execution.

The paper amortizes its 4–5 s JIT pause (Table 3) over one client calling
``jit()`` once.  A serving system has N threads racing into the same cold
key: without coordination each of them runs the translator *and* gcc, and
the in-memory cache tier is read and written with no lock at all.  This
module is the layer in front of ``engine._compile`` that fixes both, plus
the tiered mode that hides the native-build pause entirely:

* **Single-flight deduplication** — the first thread to miss on a
  ``CacheKey`` becomes the *leader* and compiles; every other thread
  requesting the same key joins the in-flight build and blocks until the
  leader stores the artifact, then serves itself from the (lock-protected)
  memory tier.  Exactly one translate+compile runs per unique key, no
  matter how many threads collide.  The cache store happens *before* the
  flight is retired, under the same lock that registers new flights, so a
  late joiner can never slip between "store finished" and "flight gone"
  and compile a second time.

* **Cross-process single-flight (the compile farm)** — the in-process
  leader additionally acquires the key's on-disk file lock
  (:func:`repro.jit.cache.entry_lock`) before building, so N *processes*
  racing one cold key also produce exactly one translate+compile: one
  process wins the lock and compiles, the rest block on it and then read
  the finished disk entry.  The lock is held across the store, released
  after, and a waiter re-probes the disk tier on acquisition before it
  would compile.  Lock waits surface as ``jit.farm_*`` counters and on
  ``JitReport.farm_dedup``/``farm_wait_s``.  See docs/COMPILE_FARM.md.

* **Tiered compilation** — ``jit(..., tiered=True)`` answers immediately
  with a py-tier artifact (no external compiler on the critical path) and
  submits the native build to a background worker pool; when it resolves,
  the ``JitCode`` hot-swaps its artifact atomically w.r.t. ``invoke``.  A
  failed native build degrades to the py tier with a recorded warning
  (``JitCode.tier_warning``) instead of raising on the background thread.

* **Observability** — the per-phase counters (``compiles``,
  ``dedup_hits``, ``inflight_waits``, ``tier_promotions``,
  ``tier_failures``, queue depth) live on the process-wide metrics
  registry (:mod:`repro.obs.metrics`, names ``jit.*``) together with
  per-phase latency histograms (``jit.phase.*``); :func:`stats` keeps
  its historical dict shape and backs ``python -m repro jit stats``
  (``--json`` for scripts).  Every pipeline step also opens a tracing
  span (:mod:`repro.obs.trace` — ``jit.snapshot``, ``cache.key``,
  ``cache.probe``, ``jit.translate``, ``backend.compile``,
  ``cache.store``, ``jit.inflight_wait``, ``jit.tier_promote``), so
  ``REPRO_TRACE=1`` yields a full flame graph of a compile.  Per-request
  fields (``dedup_hit``, ``inflight_wait_s``, ``tiered``, ``promotion``)
  stay on ``JitReport``.

Environment:

* ``REPRO_TIERED=1``      — make tiered mode the default for ``jit*()``;
* ``REPRO_JIT_WORKERS=N`` — background native-build pool width
  (default ``min(4, cpu_count)``);
* ``REPRO_FARM_LOCK_TIMEOUT_S`` — max seconds a worker blocks on another
  process's compile before giving up and compiling itself (default 600).

See docs/JIT_SERVICE.md and docs/COMPILE_FARM.md for the full protocol.
"""

from __future__ import annotations

import os
import threading
import time
from typing import Optional

from repro.backends.base import OptLevel
from repro.errors import JitError
from repro.frontend.objectgraph import snapshot_args
from repro.jit import cache as code_cache
from repro.jit import engine as _engine
from repro.obs import metrics as _metrics
from repro.obs.trace import span as _span

__all__ = [
    "compile_program",
    "farm_lock_timeout_s",
    "jit_workers",
    "phase_metrics",
    "reset",
    "stats",
    "tiered_default",
]


class _Flight:
    """One in-flight compilation: waiters block on ``done``; a failed
    build parks its exception in ``exc`` for every waiter to re-raise."""

    __slots__ = ("done", "exc")

    def __init__(self) -> None:
        self.done = threading.Event()
        self.exc: Optional[BaseException] = None


#: guards _FLIGHTS and the worker pool.  Lock order is always
#: service lock -> cache._TIER_LOCK (via lookup/store); never the reverse.
#: (the metrics below lock themselves, finer-grained)
_LOCK = threading.Lock()

#: cache-key digest -> in-flight compilation
_FLIGHTS: dict[str, _Flight] = {}

_M = _metrics.registry()

#: the historical counter names, now backed by the metrics registry
#: (``jit.<name>`` there); :func:`stats` still reports these exact keys
_COUNTERS = {
    name: _M.counter(f"jit.{name}")
    for name in (
        "requests",         # compile_program calls
        "compiles",         # leader translate+compile runs (cache misses)
        "dedup_hits",       # requests served by another thread's compile
        "inflight_waits",   # blocking waits on an in-flight build
        "inflight_wait_s",  # total seconds spent in those waits
        "tiered_requests",  # requests that took the tiered path
        "tier_promotions",  # background native builds hot-swapped in
        "tier_failures",    # background native builds that degraded
        "farm_lock_waits",    # blocked on another process's entry lock
        "farm_lock_wait_s",   # total seconds spent in those waits
        "farm_lock_timeouts", # gave up waiting and compiled uncoordinated
        "farm_dedup_hits",    # served by another process's compile
    )
}

#: background builds submitted but not yet resolved (+ high-water mark)
_QUEUE_DEPTH = _M.gauge("jit.queue_depth")

#: per-phase latency distributions (the paper's Table 3, as histograms)
_PHASE_HIST = {
    name: _M.histogram(f"jit.phase.{name}")
    for name in ("translate_s", "backend_compile_s", "cached_lookup_s",
                 "inflight_wait_s", "farm_wait_s")
}

_POOL = None  # lazily-created ThreadPoolExecutor for background builds


def jit_workers() -> int:
    """Background native-build pool width (``REPRO_JIT_WORKERS``)."""
    try:
        n = int(os.environ.get("REPRO_JIT_WORKERS", ""))
    except ValueError:
        n = 0
    return n if n > 0 else min(4, os.cpu_count() or 1)


def tiered_default() -> bool:
    """Whether ``jit*()`` defaults to tiered mode (``REPRO_TIERED``)."""
    from repro.env import env_flag

    return env_flag("REPRO_TIERED", default=False)


def farm_lock_timeout_s() -> float:
    """Max seconds to block on another process's compile
    (``REPRO_FARM_LOCK_TIMEOUT_S``); past it the worker compiles
    uncoordinated — availability beats deduplication."""
    from repro.env import env_float

    return env_float("REPRO_FARM_LOCK_TIMEOUT_S", 600.0)


def _acquire_farm_lock(key):
    """Acquire the key's cross-process entry lock, or None when the farm
    does not apply (non-persistable key, disk tier off) or the wait timed
    out.  Contended acquisitions feed the ``jit.farm_*`` counters and the
    ``farm_wait_s`` phase histogram."""
    if not (key.persistable and code_cache.disk_enabled()):
        return None
    lock = code_cache.entry_lock(key.digest)
    with _span("jit.farm_lock", key=key.digest[:12]):
        acquired = lock.acquire(timeout=farm_lock_timeout_s())
    if not acquired:
        _bump("farm_lock_timeouts")
        return None
    if lock.contended:
        _bump("farm_lock_waits")
        _bump("farm_lock_wait_s", lock.waited_s)
        _PHASE_HIST["farm_wait_s"].observe(lock.waited_s)
    return lock


def _bump(name: str, by=1) -> None:
    _COUNTERS[name].inc(by)


def _ensure_pool():
    """The background build pool (caller must hold ``_LOCK``)."""
    global _POOL
    if _POOL is None:
        from concurrent.futures import ThreadPoolExecutor

        _POOL = ThreadPoolExecutor(
            max_workers=jit_workers(), thread_name_prefix="repro-jit"
        )
    return _POOL


def stats() -> dict:
    """Service counters plus current configuration.

    The dict shape is stable (scripts and the CLI consume it); the whole
    snapshot — counters *and* the ``workers``/``tiered_default``
    configuration — is taken under the service lock, so a concurrent
    ``reset()`` or env flip cannot produce a torn half-old/half-new view."""
    with _LOCK:
        out = {name: c.value for name, c in _COUNTERS.items()}
        out["queue_depth"] = _QUEUE_DEPTH.value
        out["max_queue_depth"] = _QUEUE_DEPTH.max
        out["workers"] = jit_workers()
        out["tiered_default"] = tiered_default()
    return out


def phase_metrics() -> dict:
    """Per-phase latency histograms (``jit.phase.*``), as snapshots."""
    return _M.snapshot("jit.phase.")


def reset(wait: bool = True) -> None:
    """Drain the background pool and zero the counters (test isolation)."""
    global _POOL
    with _LOCK:
        pool = _POOL
        _POOL = None
    if pool is not None:
        pool.shutdown(wait=wait)
    with _LOCK:
        _FLIGHTS.clear()
        _M.reset("jit.")


# ---------------------------------------------------------------------------
# the compile protocol
# ---------------------------------------------------------------------------

def compile_program(minfo, receiver, args, *, backend: str = "auto",
                    opt: OptLevel = OptLevel.FULL, use_cache: bool = True,
                    tiered: Optional[bool] = None) -> "_engine.JitCode":
    """Compile ``receiver.<minfo>(*args)`` through the service layer.

    This is what ``jit``/``jit4mpi``/``jit4gpu`` call; ``tiered=None``
    falls back to the ``REPRO_TIERED`` default.
    """
    if tiered is None:
        tiered = tiered_default()
    # backend construction (and its import chain) is excluded from the
    # timings, as before — it is process-lifetime cost, not per-program
    backend_obj = _engine._make_backend(backend)
    _bump("requests")
    t0 = time.perf_counter()
    with _span("jit.snapshot"):
        snapshot, recv_shape, arg_shapes = snapshot_args(receiver, args)
    snap_s = time.perf_counter() - t0
    run = _compile_tiered if tiered and backend_obj.native else _compile_sync
    return run(minfo, snapshot, recv_shape, arg_shapes, backend_obj, opt,
               use_cache, snap_s=snap_s, t_start=t0)


def _program_key(minfo, recv_shape, arg_shapes, backend_obj, opt):
    """The request's cache key, digested under a ``cache.key`` span."""
    with _span("cache.key"):
        return code_cache.program_key(
            minfo, recv_shape, arg_shapes,
            backend=backend_obj.name, opt=opt,
            bounds_checks=getattr(backend_obj, "bounds_checks", False),
        )


def _probe(key, snapshot, recv_shape, arg_shapes, *, join: bool = False):
    """One lock-protected probe of the cache tiers.

    Returns ``(hit, flight, leader)``.  With ``join``, a miss atomically
    (same ``_LOCK`` hold as the lookup) joins the key's in-flight compile,
    or registers a new flight and makes the caller its leader."""
    flight, leader = None, False
    with _span("cache.probe") as sp:
        with _LOCK:
            hit = code_cache.lookup(key, snapshot=snapshot,
                                    recv_shape=recv_shape,
                                    arg_shapes=arg_shapes)
            if hit is None and join:
                flight = _FLIGHTS.get(key.digest)
                leader = flight is None
                if leader:
                    flight = _FLIGHTS[key.digest] = _Flight()
                else:
                    _bump("inflight_waits")
        sp.set(hit=hit is not None,
               tier=hit.tier if hit is not None else "miss")
    return hit, flight, leader


def _served(hit, key, *, opt, t_start: float, deduped: bool = False,
            wait_s: float = 0.0, tiered: bool = False,
            farm_lock=None) -> "_engine.JitCode":
    """The one place a cached artifact is returned.

    The warm-path JitReport is field-for-field comparable with a cold one
    (``opt_stats`` *and* ``build_stats`` are restored from the entry meta,
    whichever tier served it).  ``farm_lock`` is the entry lock the caller
    won before this probe hit: another process compiled the key while we
    waited on it."""
    elapsed_s = time.perf_counter() - t_start
    _PHASE_HIST["cached_lookup_s"].observe(elapsed_s)
    if deduped:
        _bump("dedup_hits")
    if farm_lock is not None:
        _bump("farm_dedup_hits")
    meta = hit.meta
    report = _engine.JitReport(
        translate_s=0.0,
        backend_compile_s=0.0,
        cached_lookup_s=elapsed_s,
        n_specializations=int(meta.get("n_specializations", 0)),
        n_call_sites=int(meta.get("n_sites", 0)),
        backend=str(meta.get("backend", "")),
        opt=str(meta.get("opt", opt.value)),
        cache_hit=True,
        cache_tier=hit.tier,
        dedup_hit=deduped,
        inflight_wait_s=wait_s,
        farm_dedup=farm_lock is not None,
        farm_wait_s=farm_lock.waited_s if farm_lock is not None else 0.0,
        key_digest=key.digest,
        tiered=tiered,
        opt_stats=dict(meta.get("opt_stats", {})),
        build_stats=dict(meta.get("build_stats", {})),
    )
    return _engine.JitCode(hit.program, hit.compiled, report)


def _build(minfo, snapshot, recv_shape, arg_shapes, backend_obj, opt, *,
           snap_s: float) -> "_engine.JitCode":
    """Translate + backend-compile, uncached (the leader's cold path)."""
    _bump("compiles")
    t1 = time.perf_counter()
    with _span("jit.translate"):
        program, opt_stats = _engine._translate(minfo, snapshot, recv_shape,
                                                arg_shapes, opt=opt)
    translate_s = snap_s + (time.perf_counter() - t1)

    t2 = time.perf_counter()
    with _span("backend.compile", backend=backend_obj.name, opt=opt.value):
        compiled = backend_obj.compile(program, opt)
    backend_s = time.perf_counter() - t2
    _PHASE_HIST["translate_s"].observe(translate_s)
    _PHASE_HIST["backend_compile_s"].observe(backend_s)

    bstats = dict(getattr(compiled, "build_stats", None) or {})
    # decisions the backend took while emitting belong with the optimizer
    # stats (C: loop parallelization, py: array-slot representation)
    opt_stats = {**opt_stats, **(compiled.opt_stats or {})}

    report = _engine.JitReport(
        translate_s=translate_s,
        backend_compile_s=backend_s,
        n_specializations=len(program.specializations),
        n_call_sites=program.n_sites,
        backend=backend_obj.name,
        opt=opt.value,
        opt_stats=opt_stats,
        build_stats=bstats,
    )
    return _engine.JitCode(program, compiled, report)


def _compile_sync(minfo, snapshot, recv_shape, arg_shapes, backend_obj, opt,
                  use_cache: bool, *, snap_s: float,
                  t_start: float) -> "_engine.JitCode":
    """The lock-protected probe / single-flight / store protocol."""
    if not use_cache:
        return _build(minfo, snapshot, recv_shape, arg_shapes, backend_obj,
                      opt, snap_s=snap_s)

    p0 = time.perf_counter()
    key = _program_key(minfo, recv_shape, arg_shapes, backend_obj, opt)
    deduped = False
    wait_s = 0.0
    for _ in range(1000):  # re-probe loop; each pass waits on one flight
        hit, flight, leader = _probe(key, snapshot, recv_shape, arg_shapes,
                                     join=True)
        farm_lock = None
        if leader:
            probe_s = time.perf_counter() - p0
            try:
                # cross-process single-flight: win the on-disk entry lock
                # before building.  If another process held it, it was
                # compiling this very key — so on acquisition re-probe the
                # disk tier and serve its finished entry instead of
                # compiling a second time.
                farm_lock = _acquire_farm_lock(key)
                if farm_lock is not None:
                    hit = _probe(key, snapshot, recv_shape, arg_shapes)[0]
                if hit is None:
                    code = _build(minfo, snapshot, recv_shape, arg_shapes,
                                  backend_obj, opt, snap_s=snap_s)
                    _PHASE_HIST["cached_lookup_s"].observe(probe_s)
                    code.report.cached_lookup_s = probe_s
                    code.report.dedup_hit = deduped
                    code.report.inflight_wait_s = wait_s
                    code.report.key_digest = key.digest
                    if farm_lock is not None:
                        code.report.farm_wait_s = farm_lock.waited_s
                with _LOCK:
                    # store-then-retire under one lock: a joiner re-probing
                    # after this flight vanishes is guaranteed to hit.
                    # The farm lock is still held here, so a cross-process
                    # waiter can only re-probe after the entry is complete.
                    if hit is None:
                        with _span("cache.store"):
                            code_cache.store(key, code.program, code.compiled,
                                             code.report)
                    _FLIGHTS.pop(key.digest, None)
            except BaseException as exc:
                with _LOCK:
                    flight.exc = exc
                    _FLIGHTS.pop(key.digest, None)
                raise
            finally:
                flight.done.set()
                if farm_lock is not None:
                    farm_lock.release()
        if hit is not None:
            return _served(hit, key, opt=opt, t_start=t_start,
                           deduped=deduped, wait_s=wait_s,
                           farm_lock=farm_lock)
        if leader:
            return code
        # joiner: wait for the leader, then re-probe (served from memory)
        w0 = time.perf_counter()
        with _span("jit.inflight_wait", key=key.digest[:12]):
            flight.done.wait()
        waited = time.perf_counter() - w0
        wait_s += waited
        _bump("inflight_wait_s", waited)
        _PHASE_HIST["inflight_wait_s"].observe(waited)
        if flight.exc is not None:
            raise flight.exc
        deduped = True
    raise JitError("single-flight compilation did not converge")


# ---------------------------------------------------------------------------
# tiered compilation
# ---------------------------------------------------------------------------

def _compile_tiered(minfo, snapshot, recv_shape, arg_shapes, backend_obj, opt,
                    use_cache: bool, *, snap_s: float,
                    t_start: float) -> "_engine.JitCode":
    """Answer on the py tier now; promote to ``backend_obj`` when its
    background build lands (or degrade gracefully if it fails)."""
    _bump("tiered_requests")
    if use_cache:
        # fast path: the native artifact may already be cached — no tiers
        key = _program_key(minfo, recv_shape, arg_shapes, backend_obj, opt)
        hit = _probe(key, snapshot, recv_shape, arg_shapes)[0]
        if hit is not None:
            return _served(hit, key, opt=opt, t_start=t_start, tiered=True)

    from repro.backends.pybackend import PyBackend

    code = _compile_sync(minfo, snapshot, recv_shape, arg_shapes, PyBackend(),
                         opt, use_cache, snap_s=snap_s, t_start=t_start)
    code.report.tiered = True
    code._begin_promotion()

    def promote() -> None:
        with _span("jit.tier_promote", backend=backend_obj.name) as sp:
            try:
                native = _compile_sync(
                    minfo, snapshot, recv_shape, arg_shapes, backend_obj, opt,
                    use_cache, snap_s=0.0, t_start=time.perf_counter(),
                )
            except BaseException as exc:  # noqa: BLE001 - degrade, never raise
                _bump("tier_failures")
                sp.set(outcome="degraded")
                code._degrade(exc)
            else:
                code._promote(native)
                _bump("tier_promotions")
                sp.set(outcome="promoted")
            finally:
                _QUEUE_DEPTH.dec()

    _QUEUE_DEPTH.inc()
    with _LOCK:
        pool = _ensure_pool()
    try:
        pool.submit(promote)
    except RuntimeError as exc:  # pool torn down (interpreter shutdown)
        _QUEUE_DEPTH.dec()
        code._degrade(exc)
    return code
