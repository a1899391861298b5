"""The WootinJ-style JIT engine: ``jit`` / ``jit4mpi`` / ``jit4gpu``.

Usage mirrors the paper's Listing 3::

    stencil = StencilOnGpuAndMPI(generator, solver)
    code = jit4mpi(stencil, "run", length, update_cnt)
    code.set4mpi(128)
    result = code.invoke()

``jit*`` receives the live receiver and the *actual arguments* (recorded and
used for optimization, §3.1); it snapshots the object graph, specializes and
lowers every reachable method, emits through the selected backend, and
returns a :class:`JitCode` handle.  ``invoke`` runs every rank on the
recorded array arguments, which the backend deep-copies into the rank's
translated memory space; mutations are not copied back — results return via
the entry's return value and ``wj.output`` labels, as discussed in §3.1.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from repro.backends.base import Backend, CompiledProgram, OptLevel
from repro.cuda.perf import GpuModel, M2050_MODEL
from repro.errors import JitError, MpiError
from repro.jit.program import Program
from repro.jit.runtime import RuntimeEnv
from repro.lang import types as _t
from repro.mpi.launcher import mpirun
from repro.mpi.netmodel import NetworkModel, TSUBAME_NET
from repro.obs import trace as _trace

__all__ = ["jit", "jit4mpi", "jit4gpu", "JitCode", "JitReport", "InvokeResult"]


@dataclass
class JitReport:
    """Compilation-time breakdown (the paper's Table 3 measures this).

    On a cache hit ``translate_s`` and ``backend_compile_s`` are 0 — the
    warm path runs neither the translator nor the external compiler — and
    ``cached_lookup_s`` carries the real cost paid (snapshot capture, key
    digest, tier probe, artifact rehydration, plus any time spent blocked
    on another thread's in-flight compile).  ``cache_tier`` says which
    tier served the hit (``"memory"`` or ``"disk"``).  On a cache *miss*
    ``cached_lookup_s`` is the key-digest + failed-probe cost — it is kept
    out of ``translate_s``, which means only snapshot + lowering + emit —
    so warm and cold reports are field-for-field comparable.
    """

    translate_s: float = 0.0        # snapshot + rule check + lowering + emit
    backend_compile_s: float = 0.0  # external compiler (gcc) time
    cached_lookup_s: float = 0.0    # key digest + cache probe (hit or miss)
    n_specializations: int = 0
    n_call_sites: int = 0
    backend: str = ""
    opt: str = ""
    cache_hit: bool = False
    cache_tier: str = ""            # "memory" | "disk" | "" (miss)
    #: this request joined another thread's in-flight compile instead of
    #: running the translator itself (single-flight deduplication)
    dedup_hit: bool = False
    #: seconds spent blocked on the in-flight compile (dedup hits only)
    inflight_wait_s: float = 0.0
    #: this request was served by another *process's* compile: it waited on
    #: the cross-process entry lock and then read the finished disk entry
    #: (compile-farm single-flight, docs/COMPILE_FARM.md)
    farm_dedup: bool = False
    #: seconds spent blocked on the cross-process entry lock
    farm_wait_s: float = 0.0
    #: the cache-key digest this request resolved to ("" when uncached)
    key_digest: str = ""
    #: what the translation removed/resolved (see frontend.verify.OptStats)
    opt_stats: dict = field(default_factory=dict)
    #: native-build breakdown (mode, compile and wall seconds) — see
    #: repro.backends.cbackend.build.BuildStats
    build_stats: dict = field(default_factory=dict)

    @property
    def total_s(self) -> float:
        return self.translate_s + self.backend_compile_s + self.cached_lookup_s


@dataclass
class InvokeResult:
    """One invocation's results across ranks."""

    value: object                 # rank 0's return value
    returns: list                 # per-rank return values
    outputs: list                 # per-rank {label: np.ndarray}
    sim_time: float               # simulated wall-clock (max over ranks)
    wall_s: float                 # real host seconds spent executing
    comm_times: list = field(default_factory=list)
    device_times: list = field(default_factory=list)

    def output(self, label: str, rank: int = 0) -> np.ndarray:
        return self.outputs[rank][label]


def clear_code_cache() -> int:
    """Clear both tiers of the code cache (in-memory and on-disk).

    Returns the number of disk entries removed (``cache.clear()``'s count;
    previously discarded here, which left the CLI unable to say what it
    did)."""
    from repro.jit import cache as code_cache

    return code_cache.clear()


def _make_backend(name: str) -> Backend:
    if name == "py":
        from repro.backends.pybackend import PyBackend

        return PyBackend()
    if name == "c":
        from repro.backends.cbackend import CBackend

        return CBackend()
    if name == "auto":
        from repro.backends.cbackend import CBackend, compiler_available

        if compiler_available():
            return CBackend()
        from repro.backends.pybackend import PyBackend

        return PyBackend()
    raise JitError(f"unknown backend {name!r} (expected 'c', 'py', or 'auto')")


class JitCode:
    """Handle to one translated program (the paper's ``JitCode``)."""

    def __init__(self, program: Program, compiled: CompiledProgram, report: JitReport):
        self.program = program
        self.compiled = compiled
        self.report = report
        self.nranks: Optional[int] = None
        self.net: NetworkModel = TSUBAME_NET
        self.gpu_model: Optional[GpuModel] = None
        if program.uses_gpu:
            self.gpu_model = M2050_MODEL
        #: the recorded host arrays, one per slot; every rank gets them and
        #: ``run`` copies them, never writes (built by the first invoke)
        self._arrays: Optional[list] = None

    # -- configuration ------------------------------------------------------

    def set4mpi(self, nranks: int, net: NetworkModel = TSUBAME_NET) -> "JitCode":
        """Configure the simulated-MPI execution (paper: ``set4MPI(128,
        "./nodeList")`` — the node list becomes a network model here)."""
        if nranks < 1:
            raise JitError(f"nranks must be >= 1, got {nranks}")
        self.nranks = nranks
        self.net = net
        return self

    def set_gpu(self, model: Optional[GpuModel]) -> "JitCode":
        """Bind (or disable, with None) the GPU timing model."""
        self.gpu_model = model
        return self

    @property
    def source(self) -> str:
        """The generated C (or Python) source — the paper's Listing 5."""
        return self.compiled.source

    # -- execution ------------------------------------------------------------

    def invoke(self) -> InvokeResult:
        """Run the translated program with the recorded arguments.

        The program's call surface decides the scaffolding.  One rank
        (``set4mpi`` not called, or called with 1) of a program with no
        ``mpi.*`` or ``cuda.*`` call and no kernel launch needs no peer, no
        compute token and no ``RankContext``: ``run`` is called right here,
        on the caller's thread, and the environment's own clock measures the
        rank.  Every other program runs under ``mpirun``.  Either way a
        failure raises ``MpiError("rank R failed: ...")`` from the original
        exception.
        """
        nranks = self.nranks or 1
        program, compiled = self.program, self.compiled
        arrays = self._arrays
        if arrays is None:
            arrays = self._arrays = [s.array
                                     for s in program.snapshot.array_slots]
        gpu_model = self.gpu_model
        alone = nranks == 1 and not (program.uses_mpi or program.uses_gpu)
        # a warm invoke is too short for a ``with`` block that does nothing:
        # with tracing off, its span costs this one check
        span = _trace.phases("jit.invoke", backend=self.report.backend,
                             nranks=nranks) if _trace.enabled() else None
        t0 = time.perf_counter()
        try:
            if alone:
                env = RuntimeEnv(None)
                try:
                    value = compiled.run(env, arrays)
                except BaseException as exc:
                    raise MpiError(f"rank 0 failed: {exc!r}") from exc
                clock = env.clock
                clock.sync_cpu()
            else:
                def body(ctx):
                    env = RuntimeEnv(ctx, gpu_model=gpu_model)
                    value = compiled.run(env, arrays)
                    ctx.outputs.update(env.outputs)
                    return value

                res = mpirun(nranks, body, net=self.net, gpu_model=gpu_model)
        finally:
            if span:
                span.end()
        wall = time.perf_counter() - t0
        if alone:
            return InvokeResult(value, [value], [env.outputs], clock.t, wall,
                                [0.0], [0.0])
        return InvokeResult(res.returns[0], res.returns, res.outputs,
                            res.sim_wall_clock, wall, res.comm_times,
                            res.device_times)


def _resolve_minfo(receiver, method: str):
    """The ``@wootin`` method descriptor for ``receiver.method``."""
    info = _t.wootin_info(type(receiver))
    if info is None:
        raise JitError(
            f"receiver of type {type(receiver).__name__} is not a @wootin class"
        )
    minfo = info.find_method(method)
    if minfo is None:
        raise JitError(f"class {info.name} has no method {method!r}")
    return minfo


def _translate(minfo, snapshot, recv_shape, arg_shapes, passes):
    """Lower one snapshotted call into a specialized Program (no backend).

    Returns ``(program, opt_stats)`` with ``opt_stats`` as a plain dict;
    the service layer owns the timing and the surrounding
    cache/single-flight protocol.  The mid-end passes named in ``passes``
    (``repro.env.pipeline_passes``: the backend's set at ``OptLevel.FULL``,
    none in the comparator modes VIRTUAL/DEVIRT/NOVIRT, which keep measuring
    abstraction cost; see :mod:`repro.opt`) run over every specialization
    as it finishes lowering.
    """
    # the compile stack (lowering, rules, IR, the mid-end passes) is first
    # imported here, by the first miss; a cache hit never loads it
    from repro.frontend.verify import verify_program
    from repro.jit.specialize import Specializer
    from repro.opt import Pipeline

    pipeline = Pipeline(passes) if passes else None
    program = Program(snapshot=snapshot, recv_shape=recv_shape, arg_shapes=arg_shapes)
    with _trace.span("frontend.lower") as sp:
        specializer = Specializer(program, pipeline=pipeline)
        entry_spec = specializer.specialize(minfo, recv_shape, arg_shapes,
                                            device=False)
        program.entry = entry_spec
        sp.set(n_specializations=len(program.specializations))
    opt_stats = verify_program(program).as_dict()
    if pipeline is not None:
        opt_stats["pipeline"] = pipeline.stats_dict()
        # per-function counts for the CFG mid-end (docs/CFG.md):
        # {symbol: checks elided} / {symbol: calls spliced}
        opt_stats["bce"] = dict(pipeline.func_stats.get("bce", {}))
        opt_stats["inline"] = dict(pipeline.func_stats.get("inline", {}))
        # every spliced call site was a devirtualized dispatch that the
        # post-pass verification above can no longer see — fold them back
        # in so the abstraction-cost metric measures the frontend's work,
        # not whatever calls survived the inliner
        opt_stats["devirtualized_calls"] += sum(
            opt_stats["inline"].values())
    return program, opt_stats


def _compile(receiver, method: str, args, *, backend: str, opt: OptLevel,
             use_cache: bool) -> JitCode:
    """Compile via the concurrency-safe service layer (see jit/service.py:
    lock-protected cache tiers, single-flight dedup).

    With tracing on, the request is one ``jit.compile`` root span whose
    ``tier`` attribute says what served it; with tracing off the site
    costs one ``enabled()`` check."""
    minfo = _resolve_minfo(receiver, method)
    from repro.jit import service

    if not _trace.enabled():
        return service.compile_program(minfo, receiver, args, backend=backend,
                                       opt=opt, use_cache=use_cache)
    with _trace.span("jit.compile", method=method) as sp:
        code = service.compile_program(minfo, receiver, args, backend=backend,
                                       opt=opt, use_cache=use_cache)
        sp.set(backend=code.report.backend, tier=_served_tier(code.report))
    return code


def _served_tier(report: JitReport) -> str:
    """What served one request: ``memory``/``disk`` (a cache hit),
    ``dedup`` (another thread's in-flight compile), ``farm`` (another
    process's compile, read from disk) or ``miss`` (compiled here)."""
    if report.farm_dedup:
        return "farm"
    if report.dedup_hit and report.cache_hit:
        return "dedup"
    return report.cache_tier or "miss"


def jit(receiver, method: str, *args, backend: str = "auto",
        opt: OptLevel = OptLevel.FULL, use_cache: bool = True) -> JitCode:
    """Translate ``receiver.method(*args)`` for single-process execution."""
    return _compile(receiver, method, args, backend=backend, opt=opt,
                    use_cache=use_cache)


def jit4mpi(receiver, method: str, *args, backend: str = "auto",
            opt: OptLevel = OptLevel.FULL, use_cache: bool = True) -> JitCode:
    """Translate for MPI execution (call ``set4mpi`` before ``invoke``)."""
    return _compile(receiver, method, args, backend=backend, opt=opt,
                    use_cache=use_cache)


def jit4gpu(receiver, method: str, *args, backend: str = "auto",
            opt: OptLevel = OptLevel.FULL, use_cache: bool = True) -> JitCode:
    """Translate a program whose kernels run on the (simulated) GPU."""
    code = _compile(receiver, method, args, backend=backend, opt=opt,
                    use_cache=use_cache)
    code.set_gpu(M2050_MODEL)
    return code
