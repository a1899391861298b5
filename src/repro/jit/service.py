"""Concurrency-safe JIT service: single-flight compilation.

The paper amortizes its 4–5 s JIT pause (Table 3) over one client calling
``jit()`` once.  A serving system has N threads racing into the same cold
key: without coordination each of them runs the translator *and* gcc, and
the in-memory cache tier is read and written with no lock at all.  This
module is the layer in front of ``engine._compile`` that fixes both:

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
  would compile.  Lock waits surface as ``farm_*`` counters and on
  ``JitReport.farm_dedup``/``farm_wait_s``.  See docs/COMPILE_FARM.md.

* **The warm path** — a lookup.  A cached request resolves its backend
  and key configuration once per environment (:func:`_configure`: one
  read of seven variables, then a dict).  A successful capture seals the
  object graph (:mod:`repro.lang.seal`), so a sealed receiver keeps its
  snapshot and key per request (:class:`_Capture`) and a warm call whose
  fences hold skips the graph walk and the digest.  The probe looks at the
  memory tier under the tier lock alone, and a hit serves the program the
  capture was last served from that entry; only a miss takes the service
  lock.  See docs/JIT_SERVICE.md, "The warm path".

* **Observability** — each measurement is recorded once.  The service
  counters (``compiles``, ``dedup_hits``, ``inflight_waits``, ``farm_*``)
  are one dict under the service lock, ``requests`` a lock-free count;
  :func:`stats` returns a copy and backs ``python -m repro jit stats``
  (``--json`` for scripts).  A request's phase times come from one clock
  (:class:`repro.obs.trace.phases`) lapped at each step of the protocol —
  ``backend.init``, ``jit.snapshot`` and ``cache.key`` (with
  ``memo="hit"|"miss"``), ``cache.probe``, ``jit.farm_lock``,
  ``jit.translate``, ``backend.compile``, ``jit.inflight_wait``,
  ``cache.store`` — and the laps fill its ``JitReport`` (the table is in
  docs/OBSERVABILITY.md, "Counters").  Under ``REPRO_TRACE=1`` each lap is
  also a span of exactly those seconds beneath the request's
  ``jit.compile`` root, so the trace and the report cannot disagree.

A worker blocks at most ``_FARM_LOCK_TIMEOUT_S`` (600 s) on another
process's compile before it gives up and compiles the key itself.

See docs/JIT_SERVICE.md and docs/COMPILE_FARM.md for the full protocol.
"""

from __future__ import annotations

import itertools
import os
import threading
import weakref
from typing import Optional

import numpy as np

from repro import env as _env
from repro.backends.base import OptLevel
from repro.errors import JitError
from repro.frontend.objectgraph import snapshot_args
from repro.jit import cache as code_cache
from repro.jit import engine as _engine
from repro.lang import seal as _seal
from repro.lang import types as _t
from repro.obs.trace import current_span as _current_span
from repro.obs.trace import phases as _phases

__all__ = [
    "compile_program",
    "reset",
    "stats",
]


class _Flight:
    """One in-flight compilation: waiters block on ``done``; a failed
    build parks its exception in ``exc`` for every waiter to re-raise."""

    __slots__ = ("done", "exc")

    def __init__(self) -> None:
        self.done = threading.Event()
        self.exc: Optional[BaseException] = None


#: guards _FLIGHTS and _COUNTERS.  Lock order is always
#: service lock -> cache._TIER_LOCK (via lookup/store); never the reverse.
#: A memory hit takes the tier lock alone (:func:`_compile_sync`).
_LOCK = threading.Lock()

#: cache-key digest -> in-flight compilation
_FLIGHTS: dict[str, _Flight] = {}

#: in-process counters, reported by :func:`stats` under these exact keys
#: (and ``requests``)
_COUNTERS = dict.fromkeys((
    "compiles",           # leader translate+compile runs (cache misses)
    "dedup_hits",         # requests served by another thread's compile
    "inflight_waits",     # blocking waits on an in-flight build
    "inflight_wait_s",    # total seconds spent in those waits
    "farm_lock_waits",    # blocked on another process's entry lock
    "farm_lock_wait_s",   # total seconds spent in those waits
    "farm_lock_timeouts", # gave up waiting and compiled uncoordinated
    "farm_dedup_hits",    # served by another process's compile
), 0)

#: compile_program calls, counted without a lock: ``next()`` on a count is
#: atomic.  :func:`stats` reads it by drawing one number itself;
#: ``_UNCOUNTED`` (under ``_LOCK``) is how many drawn numbers counted no
#: request: those reads, and every number before the last ``reset()``
_REQUESTS = itertools.count()
_UNCOUNTED = 0

#: max seconds to block on another process's compile; past it the worker
#: compiles uncoordinated — availability beats deduplication
_FARM_LOCK_TIMEOUT_S = 600.0


def _acquire_farm_lock(clock, key):
    """Acquire the key's cross-process entry lock, or None when the farm
    does not apply (non-persistable key, disk tier off), the lock file
    cannot be opened, or the wait timed out.  The lock file names its
    holder as ``pid:root-span-id`` (0 when untraced); a contended wait's
    ``jit.farm_lock`` span says whose lock it waited on (``leader``).
    Contended acquisitions feed the ``farm_*`` counters; only a wait that
    ran out counts as a timeout."""
    if not (key.persistable and code_cache.disk_enabled()):
        return None
    lock = code_cache.entry_lock(key.digest)
    clock.next("jit.farm_lock", key=key.digest[:12])
    sp = _current_span()
    lock.owner = f"{os.getpid()}:{(sp and sp.parent_id) or 0}"
    acquired = lock.acquire(timeout=_FARM_LOCK_TIMEOUT_S)
    if lock.contended:
        clock.set(leader=lock.last_owner)
        with _LOCK:
            if acquired:
                _COUNTERS["farm_lock_waits"] += 1
                _COUNTERS["farm_lock_wait_s"] += lock.waited_s
            else:
                _COUNTERS["farm_lock_timeouts"] += 1
    return lock if acquired else None


def _bump(name: str, by=1) -> None:
    """Add ``by`` to one counter; the caller must not hold ``_LOCK``."""
    with _LOCK:
        _COUNTERS[name] += by


def stats() -> dict:
    """The service counters, by their historical names.

    The dict shape is stable (scripts and the CLI consume it); the
    snapshot is taken under the service lock, so a concurrent ``reset()``
    cannot produce a torn half-old/half-new view."""
    global _UNCOUNTED
    with _LOCK:
        drawn = next(_REQUESTS)
        requests = drawn - _UNCOUNTED
        _UNCOUNTED += 1
        return {"requests": requests, **_COUNTERS}


def reset() -> None:
    """Forget in-flight builds and zero the counters (test isolation)."""
    global _UNCOUNTED
    with _LOCK:
        _FLIGHTS.clear()
        _COUNTERS.update(dict.fromkeys(_COUNTERS, 0))
        _UNCOUNTED = next(_REQUESTS) + 1


# ---------------------------------------------------------------------------
# the compile protocol
# ---------------------------------------------------------------------------

def compile_program(minfo, receiver, args, *, backend: str = "auto",
                    opt: OptLevel = OptLevel.FULL, use_cache: bool = True,
                    root=None) -> "_engine.JitCode":
    """Compile ``receiver.<minfo>(*args)`` through the service layer.

    This is what ``jit``/``jit4mpi``/``jit4gpu`` call.  A cached request
    resolves its backend and key configuration once per environment
    (:func:`_configure`), and a sealed receiver (:mod:`repro.lang.seal`)
    remembers its capture and key per request (:class:`_Capture`): a warm
    call whose fences all hold skips the object-graph walk and the digest
    and goes straight to the probe.  One clock times the request, lap by
    lap, and fills its ``JitReport``.  ``root`` is a traced request's
    ``jit.compile`` root (a :class:`repro.obs.trace.phases`): it is closed
    here, from the clock's first read and ``total_s`` long, so the root
    and the report cannot disagree.
    """
    clock = _phases("backend.init")
    try:
        next(_REQUESTS)
        if not use_cache:
            # resolved afresh: an uncached build is cold anyway
            backend_obj = _engine._make_backend(backend)
            clock.next("jit.snapshot", memo="miss")
            snapshot, recv_shape, arg_shapes = snapshot_args(receiver, args)
            passes = _env.pipeline_passes(opt, backend_obj.name,
                                          backend_obj.bounds_checks)
            code = _build(clock, minfo, snapshot, recv_shape, arg_shapes,
                          backend_obj, opt, passes)
        else:
            backend_obj, config = _configure(backend, opt)
            clock.next("jit.snapshot", memo="hit")
            token, live = _args_token(args)
            slot = (minfo, backend_obj.name, backend_obj.bounds_checks, opt,
                    token)
            seal = _seal.record(receiver)
            cap = seal.memo.get(slot) if seal is not None else None
            if cap is not None and not cap.holds(live):
                cap = None
            if cap is None:
                clock.set(memo="miss")
                # both fences are read before the walk: a rebind during it
                # leaves the entry stale, never a stale entry current
                epoch, generation = _seal.epoch(), len(_t.WOOTIN_CLASSES)
                captured = snapshot_args(receiver, args)
            if cap is not None and cap.config == config:
                clock.next("cache.key", memo="hit")
                key, captured = cap.key, cap.captured
            else:
                clock.next("cache.key", memo="miss")
                if cap is not None:  # only the configuration moved: no walk
                    epoch, generation = cap.epoch, cap.generation
                    captured = cap.captured
                key = _program_key(minfo, captured[1], captured[2],
                                   backend_obj, opt)
                cap = None
                if token is not None and captured[0].sealed:
                    cap = _Capture(epoch, generation, captured, live, config,
                                   key)
                    _remember(seal or _seal.record(receiver), slot, cap)
            code = _compile_sync(clock, minfo, *captured, backend_obj, opt,
                                 key, cap)
    finally:
        total = clock.end()
    # fields sum laps (docs/OBSERVABILITY.md "Counters"); only joiners wait
    report = code.report
    if report.cache_hit and not report.dedup_hit:
        report.cached_lookup_s = total
    else:
        for name, dt in clock.laps:
            if name == "jit.inflight_wait":
                report.inflight_wait_s += dt
            if report.cache_hit or name not in _COMPILE_LAPS:
                report.cached_lookup_s += dt
            elif name == "backend.compile":
                report.backend_compile_s += dt
            else:
                report.translate_s += dt
    if root is not None:
        root.set(backend=report.backend, tier=_engine._served_tier(report))
        root.end_as(clock.t0, report.total_s)
    return code


#: a compile's translate_s and backend_compile_s laps; others are lookup
_COMPILE_LAPS = frozenset(("backend.init", "jit.snapshot", "jit.translate",
                           "backend.compile"))


#: (backend, opt, env.request_env()) -> (backend object, key config).
#: Unbounded, like ``cbackend.build._FOUND_CC``: a process sees few
#: environments.  A backend object is not written after ``__init__``, so
#: every request of one configuration shares it.
_CONFIGS: dict = {}


def _configure(backend: str, opt):
    """The request configuration: the backend ``backend`` resolves to and
    :func:`repro.jit.cache.key_config`, both resolved once per environment
    (one read of seven variables, :func:`repro.env.request_env`)."""
    raw = _env.request_env()
    try:
        return _CONFIGS[backend, opt, raw]
    except KeyError:
        pass
    # two threads may resolve one configuration at once: both results hold
    backend_obj = _engine._make_backend(backend)
    got = _CONFIGS[backend, opt, raw] = (
        backend_obj, code_cache.key_config(backend_obj.name, opt, raw))
    return got


#: memoized captures per receiver; past it the receiver's memo restarts
_MEMO_CAP = 16


class _Capture:
    """One sealed receiver's capture and key for one request.

    The seal freezes every non-array field of the graph, so the entry stays
    right while every input the key reads that is *not* frozen holds
    (:meth:`holds`): the array-rebind epoch and registry size read before
    the walk, each slot's ``ndim``/``size``/``dtype`` (in-place ``resize``
    and ``.dtype =`` leave identity alone), and the non-primitive arguments
    by identity.  ``config`` (:func:`repro.jit.cache.key_config`) is
    compared separately: when only it moved, the key is recomputed from the
    stored shapes.

    ``served`` is ``(entry, program)``: the memory-tier entry a hit of
    this capture was last served from, and its program rebound to the
    capture.  A later hit on the same entry serves that program again (the
    snapshot is the same one, and a ``Program`` is not written after
    translation); one stored in a single assignment, so a racing thread
    reads a whole pair."""

    __slots__ = ("epoch", "generation", "captured", "slots", "refs",
                 "config", "key", "served")

    def __init__(self, epoch, generation, captured, live, config, key):
        self.epoch = epoch
        self.generation = generation
        self.captured = captured  # (snapshot, recv_shape, arg_shapes)
        self.slots = tuple((s.array, s.size, s.elem.np_dtype)
                           for s in captured[0].array_slots)
        # an ndarray is held (a weak reference would make numpy refuse
        # to ``resize`` it, and an array cannot reach back to a receiver);
        # any other argument is followed weakly, so the memo keeps nothing
        # alive that might hold the receiver
        self.refs = tuple((lambda a=a: a) if isinstance(a, np.ndarray)
                          else weakref.ref(a) for a in live)
        self.config = config
        self.key = key
        self.served = None

    def holds(self, live) -> bool:
        if (self.epoch != _seal.epoch()
                or self.generation != len(_t.WOOTIN_CLASSES)):
            return False
        for arr, size, dtype in self.slots:
            if arr.size != size or arr.dtype is not dtype or arr.ndim != 1:
                return False
        for ref, obj in zip(self.refs, live):
            if ref() is not obj:
                return False
        return True


def _remember(seal, slot, cap) -> None:
    """File ``cap`` in the receiver's memo (a receiver the capture could
    not seal has no record, and no memo)."""
    if seal is None:
        return
    memo = seal.memo
    if len(memo) >= _MEMO_CAP and slot not in memo:
        memo.clear()
    memo[slot] = cap


def _args_token(args) -> tuple:
    """``(token, live)``: the entry arguments as a hashable memo key, and
    those held by identity.  A primitive keys by its type and exact value
    (``0.0`` is not ``-0.0``, ``1`` is not ``True``); anything else by
    ``id()``, which :meth:`_Capture.holds` checks by identity (token None:
    an argument a weak reference cannot follow)."""
    token, live = [], []
    for a in args:
        t = type(a)
        if t is float or isinstance(a, np.floating):
            token.append((t, float(a).hex()))
        elif t is int or t is bool or isinstance(a, (np.integer, np.bool_)):
            token.append((t, int(a)))
        else:
            if not (t.__weakrefoffset__ or isinstance(a, np.ndarray)):
                return None, ()
            token.append((t, id(a)))
            live.append(a)
    return tuple(token), tuple(live)


def _program_key(minfo, recv_shape, arg_shapes, backend_obj, opt):
    """The request's cache key."""
    return code_cache.program_key(
        minfo, recv_shape, arg_shapes,
        backend=backend_obj.name, opt=opt,
        bounds_checks=getattr(backend_obj, "bounds_checks", False),
    )


def _probe(clock, key, snapshot, recv_shape, arg_shapes, *,
           join: bool = False):
    """One lock-protected probe of the cache tiers.

    Returns ``(hit, flight, leader)``.  With ``join``, a miss atomically
    (same ``_LOCK`` hold as the lookup) joins the key's in-flight compile,
    or registers a new flight and makes the caller its leader."""
    flight, leader = None, False
    with _LOCK:
        hit = code_cache.lookup(key, snapshot=snapshot, recv_shape=recv_shape,
                                arg_shapes=arg_shapes)
        if hit is None and join:
            flight = _FLIGHTS.get(key.digest)
            leader = flight is None
            if leader:
                flight = _FLIGHTS[key.digest] = _Flight()
            else:
                _COUNTERS["inflight_waits"] += 1
    clock.set(hit=hit is not None,
              tier=hit.tier if hit is not None else "miss")
    return hit, flight, leader


def _served(tier: str, entry, program, key, *, deduped: bool = False,
            farm_lock=None) -> "_engine.JitCode":
    """The one place a cached artifact is returned.

    The warm-path JitReport is field-for-field comparable with a cold one
    (``opt_stats`` *and* ``build_stats`` are restored from the entry meta,
    whichever tier served it).  ``farm_lock`` is the entry lock the caller
    won before this probe hit: another process compiled the key while we
    waited on it."""
    if deduped:
        _bump("dedup_hits")
    if farm_lock is not None:
        _bump("farm_dedup_hits")
    meta = entry.meta
    report = _engine.JitReport(
        **entry.report,
        cache_hit=True,
        cache_tier=tier,
        dedup_hit=deduped,
        farm_dedup=farm_lock is not None,
        farm_wait_s=farm_lock.waited_s if farm_lock is not None else 0.0,
        key_digest=key.digest,
        opt_stats=dict(meta["opt_stats"]),
        build_stats=dict(meta["build_stats"]),
    )
    return _engine.JitCode(program, entry.compiled, report)


def _build(clock, minfo, snapshot, recv_shape, arg_shapes, backend_obj, opt,
           passes: tuple) -> "_engine.JitCode":
    """Translate + backend-compile, uncached (the leader's cold path), in
    the clock's ``jit.translate`` and ``backend.compile`` laps.  ``passes``
    are the mid-end passes the request's key was digested under."""
    _bump("compiles")
    clock.next("jit.translate")
    program, opt_stats = _engine._translate(minfo, snapshot, recv_shape,
                                            arg_shapes, passes)
    clock.next("backend.compile", backend=backend_obj.name, opt=opt.value)
    compiled = backend_obj.compile(program, opt)

    bstats = dict(getattr(compiled, "build_stats", None) or {})
    # decisions the backend took while emitting belong with the optimizer
    # stats (C: loop parallelization, py: array-slot representation)
    opt_stats = {**opt_stats, **(compiled.opt_stats or {})}

    report = _engine.JitReport(
        n_specializations=len(program.specializations),
        n_call_sites=program.n_sites,
        backend=backend_obj.name,
        opt=opt.value,
        opt_stats=opt_stats,
        build_stats=bstats,
    )
    return _engine.JitCode(program, compiled, report)


def _compile_sync(clock, minfo, snapshot, recv_shape, arg_shapes,
                  backend_obj, opt, key, cap) -> "_engine.JitCode":
    """The probe / single-flight / store protocol.

    The memory tier is looked at first under its own lock alone: a hit is
    served from there (with ``cap``'s program when it came from the same
    entry; ``cap`` is the request's :class:`_Capture`, or None).  Only a miss takes the service lock, probes both tiers again
    and joins or leads the key's flight (double-checked: a store between
    the two probes is found by the second)."""
    clock.next("cache.probe")
    entry = code_cache.lookup_memory(key)
    if entry is not None:
        clock.set(hit=True, tier="memory")
        served = cap.served if cap is not None else None
        if served is not None and served[0] is entry:
            program = served[1]
        else:
            program = entry.program.rebind(snapshot, recv_shape, arg_shapes)
            if cap is not None:
                cap.served = (entry, program)
        return _served("memory", entry, program, key)
    deduped = False
    for _ in range(1000):  # re-probe loop; each pass waits on one flight
        hit, flight, leader = _probe(clock, key, snapshot, recv_shape,
                                     arg_shapes, join=True)
        farm_lock = None
        if leader:
            try:
                # cross-process single-flight: win the on-disk entry lock
                # before building.  If another process held it, it was
                # compiling this very key — so on acquisition re-probe the
                # disk tier and serve its finished entry instead of
                # compiling a second time.
                farm_lock = _acquire_farm_lock(clock, key)
                if farm_lock is not None:
                    clock.next("cache.probe")
                    hit = _probe(clock, key, snapshot, recv_shape,
                                 arg_shapes)[0]
                if hit is None:
                    code = _build(clock, minfo, snapshot, recv_shape,
                                  arg_shapes, backend_obj, opt, key.passes)
                    code.report.dedup_hit = deduped
                    code.report.key_digest = key.digest
                    if farm_lock is not None:
                        code.report.farm_wait_s = farm_lock.waited_s
                with _LOCK:
                    # store-then-retire under one lock: a joiner re-probing
                    # after this flight vanishes is guaranteed to hit.
                    # The farm lock is still held here, so a cross-process
                    # waiter can only re-probe after the entry is complete.
                    if hit is None:
                        clock.next("cache.store")
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
            return _served(hit.tier, hit.entry, hit.program, key,
                           deduped=deduped, farm_lock=farm_lock)
        if leader:
            return code
        # joiner: wait for the leader, then re-probe (served from memory)
        clock.next("jit.inflight_wait", key=key.digest[:12])
        flight.done.wait()
        _bump("inflight_wait_s", clock.next("cache.probe"))
        if flight.exc is not None:
            raise flight.exc
        deduped = True
    raise JitError("single-flight compilation did not converge")
