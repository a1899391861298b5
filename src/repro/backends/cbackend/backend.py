"""The C backend driver: emit → compile → load.

The driver is on the cache-hit path (``jit()`` constructs a backend before
it probes the cache), so it imports only the build driver and the bridge;
the emitter and the loop-independence analysis belong to the compile stack
and are imported by :meth:`CBackend.compile`, i.e. by the first miss.
"""

from __future__ import annotations

from repro import env as _env
from repro.backends.base import Backend, CompiledProgram, OptLevel
from repro.backends.cbackend.build import build_shared_object
from repro.backends.cbackend.bridge import CCompiled
from repro.jit.program import Program
from repro.obs import metrics as _metrics

__all__ = ["CBackend"]

_M = _metrics.registry()


class CBackend(Backend):
    """Emit C99, compile with the system compiler, load via ctypes."""

    name = "c"
    native = True

    def __init__(self, *, bounds_checks: bool | None = None):
        # the paper's translated code has no array bounds checks (§3.3
        # "Other issues"); a debug build can turn them on (also via
        # REPRO_BOUNDS=1).  env_flag fixes the old parser, which treated
        # "false"/"no" as truthy.
        if bounds_checks is None:
            bounds_checks = _env.env_flag("REPRO_BOUNDS", default=False)
        self.bounds_checks = bounds_checks

    def compile(self, program: Program, opt: OptLevel) -> CompiledProgram:
        from repro.backends.cbackend.emit import CProgramEmitter

        # loop parallelization only at FULL (the comparator modes measure
        # abstraction cost) and never under bounds checks (the shared
        # wj_oob_count counter is not thread-safe)
        plan = None
        wanted = _env.omp_enabled() and opt is OptLevel.FULL
        if wanted and not self.bounds_checks:
            from repro.opt.parallel import analyze_program

            plan = analyze_program(program)
            _M.counter("parallel.loops_seen").inc(
                plan.stats["loops_seen"])
            _M.counter("parallel.loops_parallelized").inc(
                plan.stats["loops_parallel"])
            _M.counter("parallel.reductions").inc(
                plan.stats["reductions"])
        result = CProgramEmitter(
            program, opt, bounds_checks=self.bounds_checks,
            parallel_plan=plan,
        ).emit()
        so_path, stats = build_shared_object(
            result.source, opt,
            openmp=result.uses_omp
            or (result.uses_dgemm and _env.omp_enabled()),
            blas=result.uses_dgemm and _env.blas_enabled(),
        )
        compiled = CCompiled(so_path, result, result.source,
                             bounds_checks=self.bounds_checks)
        compiled.build_stats = stats.as_dict()
        if plan is not None:
            # the loop-parallelization decisions are an optimizer product:
            # they surface in JitReport.opt_stats and persist in entry meta
            compiled.opt_stats = {"parallel": {
                "loops_seen": plan.stats["loops_seen"],
                "loops_parallel": plan.stats["loops_parallel"],
                "loops_guarded": plan.stats["loops_guarded"],
                "reductions": plan.stats["reductions"],
                "threads_requested": plan.threads,
                "functions": plan.stats["functions"],
            }}
        elif wanted:
            # REPRO_OMP=1 was asked for and stood down: say why
            compiled.opt_stats = {"parallel": {"disabled": "bounds_checks"}}
        return compiled
