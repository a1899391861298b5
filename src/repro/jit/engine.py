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

import threading
import time
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from repro.backends.base import Backend, CompiledProgram, OptLevel
from repro.cuda.perf import GpuModel, M2050_MODEL
from repro.errors import JitError
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
    #: compiled through the tiered service (py tier first, native later)
    tiered: bool = False
    #: background tier-promotion outcome: empty until the native build
    #: resolves, then either the promoted build's breakdown (backend,
    #: translate_s, backend_compile_s, build_stats, ...) or {"error": ...}
    promotion: dict = field(default_factory=dict)
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
    """Handle to one translated program (the paper's ``JitCode``).

    A tiered compile (``jit(..., tiered=True)``) hands back a ``JitCode``
    backed by the fast-to-build py tier; when the background native build
    resolves, the artifact is hot-swapped in place.  The swap is atomic
    with respect to :meth:`invoke` — every invocation runs entirely on one
    tier — and a failed native build degrades gracefully: the handle stays
    on the py tier and records :attr:`tier_warning` instead of raising.
    """

    def __init__(self, program: Program, compiled: CompiledProgram, report: JitReport):
        #: the pair ``invoke`` runs, replaced in one store: a promotion can
        #: never tear an invocation across tiers, and ``invoke`` takes no lock
        self._artifact = (program, compiled)
        self.report = report
        self.nranks: Optional[int] = None
        self.net: NetworkModel = TSUBAME_NET
        self.gpu_model: Optional[GpuModel] = None
        if program.uses_gpu:
            self.gpu_model = M2050_MODEL
        #: set when a background tier promotion failed (degraded to py tier)
        self.tier_warning: Optional[str] = None
        self._tier = report.backend
        self._swap_lock = threading.Lock()
        self._tier_event = threading.Event()
        self._tier_event.set()  # non-tiered handles are final immediately

    @property
    def program(self) -> Program:
        return self._artifact[0]

    @property
    def compiled(self) -> CompiledProgram:
        return self._artifact[1]

    # -- tiered execution ---------------------------------------------------

    @property
    def tier(self) -> str:
        """Backend name of the artifact ``invoke`` runs *right now*."""
        return self._tier

    def wait_tier(self, timeout: Optional[float] = None) -> bool:
        """Block until the background tier build resolves (promotion or
        degradation); True when resolved.  Immediate for non-tiered code."""
        return self._tier_event.wait(timeout)

    def _begin_promotion(self) -> None:
        self._tier_event.clear()

    def _promote(self, code: "JitCode") -> None:
        """Hot-swap to the promoted artifact (service calls this)."""
        promoted = code.report
        with self._swap_lock:
            self._artifact = (code.program, code.compiled)
            self._tier = promoted.backend
            self.report.promotion = {
                "backend": promoted.backend,
                "opt": promoted.opt,
                "cache_hit": promoted.cache_hit,
                "cache_tier": promoted.cache_tier,
                "translate_s": promoted.translate_s,
                "backend_compile_s": promoted.backend_compile_s,
                "cached_lookup_s": promoted.cached_lookup_s,
                "build_stats": dict(promoted.build_stats),
            }
        self._tier_event.set()

    def _degrade(self, exc: BaseException) -> None:
        """Record a failed promotion; the py tier keeps serving."""
        with self._swap_lock:
            self.tier_warning = (
                f"tier promotion failed ({exc!r}); staying on the "
                f"{self._tier!r} tier"
            )
            self.report.promotion = {"error": repr(exc)}
        self._tier_event.set()

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
        """Run the translated program with the recorded arguments."""
        # without set4mpi the program runs as a 1-rank world (collectives
        # degrade to no-ops, exactly like a single-node mpirun)
        nranks = self.nranks or 1
        program, compiled = self._artifact
        # every rank gets the host arrays: ``run`` copies them, never writes
        arrays = [s.array for s in program.snapshot.array_slots]
        gpu_model = self.gpu_model

        def body(ctx):
            env = RuntimeEnv(ctx, gpu_model=gpu_model)
            value = compiled.run(env, arrays)
            if ctx is not None:
                ctx.outputs.update(env.outputs)
            return value

        # a warm invoke is too short for a ``with`` block that does nothing:
        # with tracing off, its span costs this one check
        span = _trace.phases("jit.invoke", backend=self._tier,
                             nranks=nranks) if _trace.enabled() else None
        t0 = time.perf_counter()
        try:
            res = mpirun(nranks, body, net=self.net, gpu_model=gpu_model)
        finally:
            if span:
                span.end()
        wall = time.perf_counter() - t0
        return InvokeResult(
            value=res.returns[0],
            returns=res.returns,
            outputs=res.outputs,
            sim_time=res.sim_wall_clock,
            wall_s=wall,
            comm_times=res.comm_times,
            device_times=res.device_times,
        )


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


def _translate(minfo, snapshot, recv_shape, arg_shapes, opt=None):
    """Lower one snapshotted call into a specialized Program (no backend).

    Returns ``(program, opt_stats)`` with ``opt_stats`` as a plain dict;
    the service layer owns the timing and the surrounding
    cache/single-flight protocol.  When ``opt`` is ``OptLevel.FULL`` the
    mid-end pass pipeline (see :mod:`repro.opt`) runs over every
    specialization as it finishes lowering; the comparator modes
    (VIRTUAL/DEVIRT/NOVIRT) are left untouched so they keep measuring
    abstraction cost.
    """
    # the compile stack (lowering, rules, IR, the mid-end passes) is first
    # imported here, by the first miss; a cache hit never loads it
    from repro.frontend.verify import verify_program
    from repro.jit.specialize import Specializer
    from repro.opt import pipeline_for

    pipeline = pipeline_for(opt) if opt is not None else None
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
             use_cache: bool, tiered: Optional[bool] = None) -> JitCode:
    """Compile via the concurrency-safe service layer (see jit/service.py:
    lock-protected cache tiers, single-flight dedup, tiered execution)."""
    minfo = _resolve_minfo(receiver, method)
    from repro.jit import service

    return service.compile_program(
        minfo, receiver, args, backend=backend, opt=opt,
        use_cache=use_cache, tiered=tiered,
    )


def jit(receiver, method: str, *args, backend: str = "auto",
        opt: OptLevel = OptLevel.FULL, use_cache: bool = True,
        tiered: Optional[bool] = None) -> JitCode:
    """Translate ``receiver.method(*args)`` for single-process execution.

    ``tiered=True`` (or ``REPRO_TIERED=1``) returns immediately on the py
    tier while the native artifact builds in the background — see
    docs/JIT_SERVICE.md."""
    return _compile(receiver, method, args, backend=backend, opt=opt,
                    use_cache=use_cache, tiered=tiered)


def jit4mpi(receiver, method: str, *args, backend: str = "auto",
            opt: OptLevel = OptLevel.FULL, use_cache: bool = True,
            tiered: Optional[bool] = None) -> JitCode:
    """Translate for MPI execution (call ``set4mpi`` before ``invoke``)."""
    return _compile(receiver, method, args, backend=backend, opt=opt,
                    use_cache=use_cache, tiered=tiered)


def jit4gpu(receiver, method: str, *args, backend: str = "auto",
            opt: OptLevel = OptLevel.FULL, use_cache: bool = True,
            tiered: Optional[bool] = None) -> JitCode:
    """Translate a program whose kernels run on the (simulated) GPU."""
    code = _compile(receiver, method, args, backend=backend, opt=opt,
                    use_cache=use_cache, tiered=tiered)
    code.set_gpu(M2050_MODEL)
    return code
