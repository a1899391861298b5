"""The traced pass: per-layer metrics, every layer timed from outside.

For each program of the workload the pass re-walks what
``service._compile_sync`` and ``JitCode.invoke`` do, step by step, calling
each layer's public function under a span (``spans.Tracer``), beside the
real ``jit*()`` / ``invoke()`` taken in the same process under the same
conditions.  Layer = module name.  A layer timing is ``stats.steady`` of its
spans, the estimate the end-to-end metrics use; where the workload has
several programs, timings and counts add.

``bench.layers_over_e2e_*`` divide the sum of the replayed layers by the
real end-to-end value: outside [0.85, 1.15] this file's replay has drifted
from the real path and the per-layer numbers should not be trusted.

A row whose ``value`` is ``None`` is not applicable on this workload (its
``reason`` says why) or refused; the result line prints it as 0.
"""

from __future__ import annotations

import os
from pathlib import Path

import numpy as np

from repro.backends.base import OptLevel
from repro.backends.cbackend.bridge import CCompiled
from repro.backends.cbackend.build import build_shared_object, openmp_flag
from repro.backends.cbackend.emit import CProgramEmitter
from repro.backends.pybackend import PyBackend
from repro.frontend import ir
from repro.frontend.objectgraph import snapshot_args
from repro.frontend.verify import verify_program
from repro.jit import JitReport, cache, jit, service
from repro.jit.program import Program
from repro.jit.runtime import RuntimeEnv
from repro.jit.specialize import Specializer
from repro.lang.types import wootin_info
from repro.library.stencil import StencilCPU3D, StencilCPU3D_MPI
from repro.mpi import mpirun
from repro.mpi.comm import Communicator, RankContext
from repro.opt import PASS_ORDER, Pipeline
from repro.opt.parallel import analyze_program

from benchmarks.ledger.guests import (
    CRef, Guest, Workload, _stencil, compile_guest, same,
)
from benchmarks.ledger.hermetic import Scratch, usable_cores
from benchmarks.ledger.spans import Tracer
from benchmarks.ledger.stats import (
    Budget, Tally, floor_count, steady, summarize,
)
from benchmarks.ledger.untraced import Checked, expected_values

#: every per-layer metric: name -> (unit, scale from seconds or 1 for counts)
LAYERS = {
    "frontend.snapshot_us": ("us", 1e6), "frontend.lower_ms": ("ms", 1e3),
    "frontend.verify_ms": ("ms", 1e3), "frontend.ir_stmts": ("count", 1),
    "frontend.n_specializations": ("count", 1),
    "frontend.devirtualized_calls": ("count", 1),
    "frontend.inlined_constructions": ("count", 1),
    "frontend.snapshot_field_loads": ("count", 1),
    "frontend.abstraction_penalty": ("ratio", 1),
    **{f"opt.{p}_ms": ("ms", 1e3) for p in PASS_ORDER},
    "opt.total_ms": ("ms", 1e3),
    **{f"opt.{p}_rewrites": ("count", 1) for p in PASS_ORDER},
    "opt.ir_stmts_after": ("count", 1),
    "opt.on_vs_off_c": ("ratio", 1), "opt.on_vs_off_py": ("ratio", 1),
    "opt.parallel.analyze_ms": ("ms", 1e3),
    "opt.parallel.loops_seen": ("count", 1),
    "opt.parallel.loops_parallel": ("count", 1),
    "opt.parallel.tn_vs_t1": ("ratio", 1),
    "cbackend.emit_ms": ("ms", 1e3), "cbackend.source_bytes": ("bytes", 1),
    "cbackend.cc_ms": ("ms", 1e3), "cbackend.cc_units": ("count", 1),
    "cbackend.so_bytes": ("bytes", 1), "cbackend.load_us": ("us", 1e6),
    "cbackend.run_us": ("us", 1e6),
    "pybackend.compile_ms": ("ms", 1e3), "pybackend.source_bytes": ("bytes", 1),
    "pybackend.run_us": ("us", 1e6),
    "cache.key_us": ("us", 1e6), "cache.lookup_miss_us": ("us", 1e6),
    "cache.lookup_memory_us": ("us", 1e6), "cache.lookup_disk_ms": ("ms", 1e3),
    "cache.store_ms": ("ms", 1e3), "cache.entry_bytes": ("bytes", 1),
    "cache.memory_hits": ("count", 1), "cache.disk_hits": ("count", 1),
    "cache.misses": ("count", 1), "cache.stores": ("count", 1),
    "service.cold_self_ms": ("ms", 1e3), "service.warm_self_us": ("us", 1e6),
    "service.farm_lock_us": ("us", 1e6), "service.compiles": ("count", 1),
    "service.dedup_hits": ("count", 1),
    "engine.copy_us": ("us", 1e6), "engine.copy_bytes": ("bytes", 1),
    "engine.copy_share": ("ratio", 1), "engine.invoke_self_us": ("us", 1e6),
    "engine.invoke_tail_us": ("us", 1e6),
    "runtime.env_us": ("us", 1e6), "runtime.callbacks": ("count", 1),
    "mpi.launcher_r1_us": ("us", 1e6), "mpi.launcher_r2_us": ("us", 1e6),
    "mpi.sim_time_ms": ("ms", 1e3), "mpi.comm_time_ms": ("ms", 1e3),
    "mpi.comm_share": ("ratio", 1), "mpi.messages_computed": ("count", 1),
    "mpi.bytes_computed": ("bytes", 1),
    "kernel.step_ms": ("ms", 1e3), "kernel.cell_updates_per_s": ("1/s", 1),
    "kernel.bytes_moved_computed": ("bytes", 1),
    "kernel.flops_computed": ("count", 1), "baselines.cref_ms": ("ms", 1e3),
    "bench.e2e_cold_jit_ms": ("ms", 1e3), "bench.e2e_disk_jit_ms": ("ms", 1e3),
    "bench.e2e_warm_jit_us": ("us", 1e6), "bench.e2e_invoke_us": ("us", 1e6),
    "bench.layers_over_e2e_jit": ("ratio", 1),
    "bench.layers_over_e2e_invoke": ("ratio", 1),
    "bench.trace_overhead": ("ratio", 1),
}

#: the fixed-count census every program goes through, so that cache and
#: service counters repeat exactly whatever the time budget
_CENSUS_DISK, _CENSUS_MEMORY = 3, 10

#: the issue's abstraction-penalty grid: 32^3 cells, single rank
_PENALTY = Guest("diffusion-cpu-32", _stencil(StencilCPU3D, 32, 32, 30, 1, 16))

_OMP_THREADS = 2

#: enough samples for a fifth percentile; keeps ``trace.jsonl`` readable
_MAX_SPANS = 2000


def _ir_stmts(program) -> int:
    n = 0
    for spec in program.specializations:
        stack = list(spec.func_ir.body)
        while stack:
            s = stack.pop()
            n += 1
            for block in ir.stmt_blocks(s):
                stack.extend(block)
    return n


class _CountingEnv(RuntimeEnv):
    """Counts native-to-host transitions (the C bridge notes one per
    ``WjEnv`` callback).  One instance serves one rank thread."""

    calls = 0

    def note_native_entry(self) -> None:
        self.calls += 1
        super().note_native_entry()


class ProgramLayers:
    """One program's walk through every layer."""

    def __init__(self, workload: Workload, guest: Guest, seed: int,
                 seconds: float, scratch: Scratch, tally: Tally, expect,
                 floor):
        self.workload, self.guest, self.seed = workload, guest, seed
        self.seconds, self.scratch, self.tally = seconds, scratch, tally
        self.expect, self.floor = expect, floor
        self.tr = Tracer()
        self.objs = guest.make(seed)
        receiver, method, _ = self.objs
        self.minfo = wootin_info(type(receiver)).find_method(method)
        self.t: dict = {}    # additive timings, seconds
        self.n: dict = {}    # samples behind each timing
        self.c: dict = {}    # additive counts
        self.single: dict = {}   # metrics defined for single-program workloads
        # cold jit() without the external compiler's wall time, the real
        # call and the replay; and that wall time, pooled over both, which
        # run the same command on the same source.  One cc run differs from
        # the next by more than everything else in a cold jit() takes.
        self.real_cold_no_cc: list = []
        self.replay_cold_no_cc: list = []
        self.cc_walls: list = []

    # -- step-by-step compile ----------------------------------------------

    def _lower(self, snapshot, recv_shape, arg_shapes) -> Program:
        program = Program(snapshot=snapshot, recv_shape=recv_shape,
                          arg_shapes=arg_shapes)
        program.entry = Specializer(program, pipeline=None).specialize(
            self.minfo, recv_shape, arg_shapes, device=False)
        return program

    def _c_artifact(self, program, *, plan=None, spans=True):
        tr = self.tr if spans else Tracer()
        emit = tr.call("cbackend.emit", lambda: CProgramEmitter(
            program, OptLevel.FULL, parallel_plan=plan).emit())
        so_path, stats = tr.call(
            "cbackend.cc", build_shared_object, emit.source, OptLevel.FULL,
            units=emit.units, openmp=emit.uses_omp)
        compiled = tr.call("cbackend.load", CCompiled, so_path, emit,
                           emit.source)
        compiled.build_stats = stats.as_dict()
        return compiled, emit, so_path

    def replay_cold(self) -> None:
        """What ``service._compile_sync`` does on a miss, layer by layer."""
        tr, receiver, args = self.tr, self.objs[0], self.objs[2]
        self.scratch.fresh_caches()
        tr.new_request()
        with tr.span("jit.cold"):
            snap = tr.call("frontend.snapshot", snapshot_args, receiver, args)
            key = tr.call("cache.key", cache.program_key, self.minfo,
                          snap[1], snap[2], backend=self.guest.backend,
                          opt=OptLevel.FULL, bounds_checks=False)
            probe = dict(snapshot=snap[0], recv_shape=snap[1],
                         arg_shapes=snap[2])
            tr.call("cache.lookup_miss", cache.lookup, key, **probe)
            lock = cache.entry_lock(key.digest)
            tr.call("service.farm_lock.acquire", lock.acquire, timeout=600.0)
            try:
                tr.call("cache.lookup_miss", cache.lookup, key, **probe)
                program = tr.call("frontend.lower", self._lower, *snap)
                # callees first, every pass on one function before the next
                # function: the order the specializer drives the mid-end in
                passes = {name: Pipeline((name,)) for name in PASS_ORDER}
                for spec in program.specializations:
                    for name, pipeline in passes.items():
                        tr.call(f"opt.{name}", pipeline.run_func, spec.func_ir)
                opt_stats = tr.call(
                    "frontend.verify",
                    lambda: verify_program(program).as_dict())
                if self.guest.backend == "c":
                    compiled, emit, so_path = self._c_artifact(program)
                else:
                    compiled = tr.call("pybackend.compile",
                                       PyBackend().compile, program,
                                       OptLevel.FULL)
                report = JitReport(
                    backend=self.guest.backend, opt=OptLevel.FULL.value,
                    n_specializations=len(program.specializations),
                    n_call_sites=program.n_sites, opt_stats=opt_stats,
                    build_stats=dict(compiled.build_stats or {}))
                tr.call("cache.store", cache.store, key, program, compiled,
                        report)
            finally:
                tr.call("service.farm_lock.release", lock.release)
        self.program, self.compiled = program, compiled
        cc = (compiled.build_stats or {}).get("wall_s", 0.0)
        self.cc_walls.append(cc)
        self.replay_cold_no_cc.append(tr.child_sums("jit.cold")[-1] - cc)
        self.c.update({f"opt.{n}_rewrites": p.stats[n]["rewrites"]
                       for n, p in passes.items()})
        self.c["opt.ir_stmts_after"] = _ir_stmts(program)
        if self.guest.backend == "c":
            self.tally.check(compiled.build_stats["mode"] != "cached",
                             f"{self.guest.name}: replayed cc was cached")
            self.c["cbackend.source_bytes"] = len(emit.source.encode())
            self.c["cbackend.cc_units"] = compiled.build_stats["units"]
            self.c["cbackend.so_bytes"] = os.path.getsize(so_path)

    def replay_hit(self, tier: str) -> None:
        """The hit path: snapshot, key, one lookup served by ``tier``."""
        tr, receiver, args = self.tr, self.objs[0], self.objs[2]
        if tier == "disk":
            cache.clear_memory()
        tr.new_request()
        with tr.span(f"jit.{tier}"):
            snap = tr.call("frontend.snapshot", snapshot_args, receiver, args)
            key = tr.call("cache.key", cache.program_key, self.minfo,
                          snap[1], snap[2], backend=self.guest.backend,
                          opt=OptLevel.FULL, bounds_checks=False)
            hit = tr.call(f"cache.lookup_{tier}", cache.lookup, key,
                          snapshot=snap[0], recv_shape=snap[1],
                          arg_shapes=snap[2])
        self.tally.check(hit is not None and hit.tier == tier,
                         f"{self.guest.name}: replayed {tier} lookup got "
                         f"{getattr(hit, 'tier', 'a miss')}")

    # -- the real API, beside the replay -------------------------------------

    def real_jit(self, name: str):
        code = self.tr.call(f"e2e.jit.{name}", compile_guest, self.guest,
                            self.objs)
        if name == "cold":
            cc = code.report.build_stats.get("wall_s", 0.0)
            self.cc_walls.append(cc)
            self.real_cold_no_cc.append(
                self.tr.durations("e2e.jit.cold")[-1] - cc)
        return code

    def census(self) -> None:
        """A fixed number of real ``jit()`` calls in each cache state; the
        counters must equal what was attempted."""
        before = cache.stats()
        dirs = self.scratch.fresh_caches()
        code = self.real_jit("cold")
        report = code.report
        self.tally.check(
            not report.cache_hit and report.build_stats.get("mode") != "cached",
            f"{self.guest.name}: census cold compile was served warm")
        for _ in range(_CENSUS_DISK):
            cache.clear_memory()
            self.real_jit("disk")
        for _ in range(_CENSUS_MEMORY):
            self.real_jit("memory")
        after, svc = cache.stats(), service.stats()
        got = {k: after[k] - before[k]
               for k in ("memory_hits", "disk_hits", "misses", "stores")}
        got.update(compiles=svc["compiles"], dedup_hits=svc["dedup_hits"])
        want = {"memory_hits": _CENSUS_MEMORY, "disk_hits": _CENSUS_DISK,
                "misses": 2, "stores": 1, "compiles": 1, "dedup_hits": 0}
        self.tally.check(got == want,
                         f"{self.guest.name}: counters {got} != {want}")
        for k in ("memory_hits", "disk_hits", "misses", "stores"):
            self.c[f"cache.{k}"] = got[k]
        self.c["service.compiles"] = got["compiles"]
        self.c["service.dedup_hits"] = got["dedup_hits"]
        # payload only: the .json beside it holds timestamps of varying width
        payload = [Path(dirs["REPRO_CACHE_DIR"]) / f"{report.key_digest}.{ext}"
                   for ext in ("src", "so")]
        self.c["cache.entry_bytes"] = sum(
            f.stat().st_size for f in payload if f.exists())
        self.code = Checked(self.guest, code, self.expect[self.guest.name],
                            self.tally)

    def compile_side(self, seconds: float) -> None:
        budget = Budget(0.7 * seconds, 1)
        while budget.more():
            self.scratch.fresh_caches()
            self.real_jit("cold")
            self.replay_cold()
        # replay_cold left its own entry in the active directories
        for tier, min_n in (("disk", 10), ("memory", 100)):
            budget = Budget(0.15 * seconds, self.floor(min_n), _MAX_SPANS)
            while budget.more():
                if tier == "disk":
                    cache.clear_memory()
                code = self.real_jit(tier)
                self.tally.check(code.report.cache_tier == tier,
                                 f"{self.guest.name}: {tier} jit served by "
                                 f"{code.report.cache_tier or 'a compile'}")
                self.replay_hit(tier)

    # -- invoke ------------------------------------------------------------

    def replay_invoke(self) -> int:
        """What ``JitCode.invoke`` does, layer by layer; returns the number
        of host callbacks the program made."""
        tr, code = self.tr, self.code.code
        slots = code.program.snapshot.array_slots
        envs = []
        tr.new_request()
        with tr.span("invoke") as root:
            def body(ctx):
                with tr.span("mpi.rank", parent=root):
                    env = tr.call("runtime.env", _CountingEnv, ctx,
                                  gpu_model=code.gpu_model)
                    envs.append(env)
                    arrays = tr.call("engine.copy", lambda: [
                        np.array(s.array, copy=True) for s in slots])
                    value = tr.call("backend.run", code.compiled.run, env,
                                    arrays)
                    if ctx is not None:
                        ctx.outputs.update(env.outputs)
                    return value

            res = mpirun(self.guest.nranks, body, net=code.net,
                         gpu_model=code.gpu_model)
        self.tally.check(
            same(res.returns[0], self.code.first, self.guest.repeat_tol),
            f"{self.guest.name}: replayed invoke returned {res.returns[0]!r}")
        return sum(env.calls for env in envs)

    def invoke_side(self, seconds: float) -> None:
        tr, guest, code = self.tr, self.guest, self.code.code
        slots = code.program.snapshot.array_slots
        sim, comm, secs = [], [], []
        self.c["runtime.callbacks"] = self.replay_invoke()
        # the real call and the replay take turns in hot loops of their own
        # (alternating call by call slows both by a tenth at 65 us), four
        # times over so that a slow spell of the machine lands on both
        turns = 4
        for _ in range(turns):
            budget = Budget(0.3 * seconds / turns, self.floor(10),
                            _MAX_SPANS // turns)
            while budget.more():
                res = tr.call("e2e.invoke", code.invoke)
                self.tally.check(
                    same(res.value, self.code.first, guest.repeat_tol),
                    f"{guest.name}: result changed to {res.value!r}")
                sim.append(res.sim_time)
                comm.append(max(res.comm_times))
                if "secs" in res.outputs[0]:
                    secs.append(max(float(o["secs"][0]) for o in res.outputs))
            budget = Budget(0.3 * seconds / turns, self.floor(10),
                            _MAX_SPANS // turns)
            while budget.more():
                self.replay_invoke()
        self.t["mpi.sim_time"] = steady(sim)
        self.t["mpi.comm_time"] = steady(comm)
        self.kernel_secs = steady(secs) if secs else None

        # each layer alone, through its public function
        ctx = RankContext(0, Communicator(1))
        probes = (
            ("mpi.launcher_r1", lambda: mpirun(1, lambda c: None)),
            ("mpi.launcher_r2", lambda: mpirun(2, lambda c: None)),
            ("probe.env", lambda: RuntimeEnv(ctx, gpu_model=code.gpu_model)),
            ("probe.copy", lambda: [np.array(s.array, copy=True)
                                    for s in slots]),
        )
        for name, fn in probes:
            budget = Budget(0.05 * seconds, self.floor(20), _MAX_SPANS)
            while budget.more():
                tr.call(name, fn)
        budget = Budget(0.2 * seconds, self.floor(10), _MAX_SPANS)
        while budget.more():
            arrays = [np.array(s.array, copy=True) for s in slots]
            tr.call("probe.run", code.compiled.run, RuntimeEnv(None), arrays)
        self.c["engine.copy_bytes"] = guest.nranks * sum(
            s.array.nbytes for s in slots)

    # -- comparisons that need extra builds (single-program workloads) -----------

    def _ab(self, name_a, run_a, name_b, run_b, seconds, min_n=8) -> float:
        """Interleave two callables; the ratio of their steady times."""
        budget = Budget(seconds, self.floor(min_n))
        while budget.more():
            self.tr.call(name_a, run_a)
            self.tr.call(name_b, run_b)
        return self.tr.steady(name_a) / self.tr.steady(name_b)

    def _runner(self, compiled, slots):
        def run():
            arrays = [np.array(s.array, copy=True) for s in slots]
            return compiled.run(RuntimeEnv(None), arrays)
        return run

    def abstraction_penalty(self, seconds: float) -> None:
        objs = _PENALTY.make(self.seed)
        codes = {}
        for opt in (OptLevel.VIRTUAL, OptLevel.FULL):
            self.scratch.fresh_caches()
            codes[opt] = jit(objs[0], objs[1], *objs[2], backend="c", opt=opt)
        self.tally.check(
            same(codes[OptLevel.VIRTUAL].invoke().value,
                 codes[OptLevel.FULL].invoke().value, 1e-5),
            "abstraction penalty: VIRTUAL and FULL results differ")
        self.single["frontend.abstraction_penalty"] = self._ab(
            "penalty.virtual", codes[OptLevel.VIRTUAL].invoke,
            "penalty.full", codes[OptLevel.FULL].invoke, seconds)

    def on_vs_off(self, seconds: float) -> None:
        """Invoke time of the artifact built from the optimized program over
        that of the artifact built from the unoptimized one."""
        receiver, _, args = self.objs
        snap = snapshot_args(receiver, args)
        plain = self._lower(*snap)
        self.scratch.fresh_caches()
        if self.guest.backend == "c":
            off = self._c_artifact(plain, spans=False)[0]
        else:
            off = PyBackend().compile(plain, OptLevel.FULL)
        slots = snap[0].array_slots
        run_on, run_off = self._runner(self.compiled, slots), self._runner(off, slots)
        self.tally.check(same(run_on(), run_off(), 0.0),
                         f"{self.guest.name}: passes changed the result")
        # without the inliner the C stencil runs 40x slower: few pairs do
        self.single[f"opt.on_vs_off_{self.guest.backend}"] = self._ab(
            "opt.on", run_on, "opt.off", run_off, seconds, min_n=3)

    def thread_scaling(self, seconds: float) -> None:
        name = "opt.parallel.tn_vs_t1"
        if usable_cores() < _OMP_THREADS:
            self.single[name] = (None, f"refused: {_OMP_THREADS} threads on "
                                 f"{usable_cores()} usable core(s)")
            return
        if openmp_flag() is None:
            self.single[name] = (None, "refused: toolchain has no OpenMP")
            return
        if self.plan.stats["loops_parallel"] == 0:
            self.single[name] = (None, "no loop was proven independent")
            return
        runs = {}
        slots = self.program.snapshot.array_slots
        for threads in (1, _OMP_THREADS):
            self.plan.threads = threads
            self.scratch.fresh_caches()
            runs[threads] = self._runner(
                self._c_artifact(self.program, plan=self.plan, spans=False)[0],
                slots)
        self.tally.check(same(runs[1](), runs[_OMP_THREADS](), 0.0),
                         "OpenMP result depends on the thread count")
        self.single[name] = self._ab("omp.tn", runs[_OMP_THREADS],
                                     "omp.t1", runs[1], seconds)

    def comm_share(self, seconds: float) -> None:
        """(2-rank wall - 2 x 1-rank wall at equal slab) / 2-rank wall."""
        nx, ny, nzg, steps = self.guest.grid
        alone = Guest("one-rank", _stencil(StencilCPU3D_MPI, nx, ny,
                                           nzg // self.guest.nranks, 1, steps))
        self.scratch.fresh_caches()
        one = compile_guest(alone, alone.make(self.seed))
        ratio = self._ab("mpi.one_rank", one.invoke, "mpi.all_ranks",
                         self.code.code.invoke, seconds)
        self.single["mpi.comm_share"] = 1.0 - self.guest.nranks * ratio

    def kernel(self, seconds: float) -> None:
        nx, ny, nzg, steps = self.guest.grid
        cells = (nx - 2) * (ny - 2) * nzg * steps
        cref = CRef(self.guest.grid, self.seed)
        budget = Budget(seconds, self.floor(5))
        while budget.more():
            self.tr.call("baselines.cref", cref.run)
        self.single.update({
            "kernel.step_ms": self.kernel_secs / steps,
            "kernel.cell_updates_per_s": cells / self.kernel_secs,
            # one f32 read stream and one write stream per update; the six
            # neighbours come from cache.  Computed, not measured.
            "kernel.bytes_moved_computed": 8 * cells,
            # cc*c + cw*(xm+xp) + ch*(ym+yp) + cd*(zm+zp)
            "kernel.flops_computed": 10 * cells,
            "baselines.cref_ms": self.tr.steady("baselines.cref"),
        })
        if self.guest.nranks > 1:
            messages = 2 * (self.guest.nranks - 1) * steps
            self.single["mpi.messages_computed"] = messages
            self.single["mpi.bytes_computed"] = messages * nx * ny * 4

    # -- the walk ----------------------------------------------------------

    def run(self) -> None:
        guest, tr = self.guest, self.tr
        single = len(self.workload.guests) == 1
        extras = single and guest.grid is not None
        s = self.seconds
        share = {"compile": 0.40, "invoke": 0.25, "extra": 0.08} if extras \
            else {"compile": 0.6, "invoke": 0.4, "extra": 0.0}

        # what the frontend alone produced, before the mid-end
        plain = self._lower(*snapshot_args(self.objs[0], self.objs[2]))
        stats = verify_program(plain).as_dict()
        self.c["frontend.ir_stmts"] = _ir_stmts(plain)
        self.c["frontend.n_specializations"] = len(plain.specializations)
        for k in ("devirtualized_calls", "inlined_constructions",
                  "snapshot_field_loads"):
            self.c[f"frontend.{k}"] = stats[k]

        self.census()
        self.compile_side(share["compile"] * s)
        budget = Budget(0.02 * s, self.floor(3))
        while budget.more():
            self.plan = tr.call("opt.parallel.analyze", analyze_program,
                                self.program)
        self.c["opt.parallel.loops_seen"] = self.plan.stats["loops_seen"]
        self.c["opt.parallel.loops_parallel"] = self.plan.stats["loops_parallel"]
        budget = Budget(0.02 * s, self.floor(3))
        while budget.more():
            py = tr.call("pybackend.compile.probe", PyBackend().compile,
                         self.program, OptLevel.FULL)
        self.c["pybackend.source_bytes"] = len(py.source.encode())
        self.invoke_side(share["invoke"] * s)

        if single and guest.backend == "py":
            self.on_vs_off(0.15 * s)
        if extras:
            self.kernel(0.02 * s)
            if guest.nranks > 1:
                self.comm_share(share["extra"] * 2 * s)
            else:
                self.on_vs_off(share["extra"] * s)
                self.abstraction_penalty(share["extra"] * s)
                self.thread_scaling(share["extra"] * s)

        self._collect()

    def _take(self, key: str, span: "str | None" = None) -> None:
        xs = self.tr.durations(span or key)
        self.t[key], self.n[key] = steady(xs), len(xs)

    def _collect(self) -> None:
        """Medians of the spans, in seconds, under additive keys."""
        t, tr, guest = self.t, self.tr, self.guest
        for key in ("frontend.snapshot", "frontend.lower", "frontend.verify",
                    "cache.key", "cache.lookup_miss", "cache.lookup_memory",
                    "cache.lookup_disk", "cache.store", "opt.parallel.analyze",
                    "mpi.launcher_r1", "mpi.launcher_r2", "e2e.jit.disk",
                    "e2e.jit.memory"):
            self._take(key)
        for p in PASS_ORDER:
            sums = tr.request_sums(f"opt.{p}")
            t[f"opt.{p}"], self.n[f"opt.{p}"] = steady(sums), len(sums)
        self._take("engine.copy", "probe.copy")
        self._take("runtime.env", "probe.env")
        self._take("pybackend.compile", "pybackend.compile.probe")
        self._take("replay.invoke", "invoke")
        if guest.backend == "c":
            for key in ("cbackend.emit", "cbackend.cc", "cbackend.load"):
                self._take(key)
            self._take("cbackend.run", "probe.run")
        else:
            self._take("pybackend.run", "probe.run")
        t["service.farm_lock"] = (tr.steady("service.farm_lock.acquire")
                                  + tr.steady("service.farm_lock.release"))
        cc = steady(self.cc_walls)
        t["e2e.jit.cold"] = steady(self.real_cold_no_cc) + cc
        self.n["e2e.jit.cold"] = len(self.real_cold_no_cc)
        t["layers.jit.cold"] = steady(self.replay_cold_no_cc) + cc
        t["service.cold_self"] = t["e2e.jit.cold"] - t["layers.jit.cold"]
        t["layers.jit.memory"] = steady(tr.child_sums("jit.memory"))
        invokes = summarize(tr.durations("e2e.invoke"))
        t["e2e.invoke"], t["e2e.invoke.tail"] = invokes["value"], invokes["tail"]
        self.n["e2e.invoke"] = invokes["n"]
        t["copy.all_ranks"] = guest.nranks * t["engine.copy"]
        # the layers as they ran inside the replayed invoke, the slowest
        # rank setting the time; probes in a hot loop of their own read
        # about 15 % low on a 65 us call and would not add up
        t["layers.invoke"] = t[f"mpi.launcher_r{min(guest.nranks, 2)}"] + steady(
            tr.slowest_branch_sums("invoke", "mpi.rank"))


#: per-layer timing metric -> the additive key it reads
_DIRECT = {
    "frontend.snapshot_us": "frontend.snapshot",
    "frontend.lower_ms": "frontend.lower",
    "frontend.verify_ms": "frontend.verify",
    **{f"opt.{p}_ms": f"opt.{p}" for p in PASS_ORDER},
    "opt.parallel.analyze_ms": "opt.parallel.analyze",
    "cbackend.emit_ms": "cbackend.emit", "cbackend.cc_ms": "cbackend.cc",
    "cbackend.load_us": "cbackend.load", "cbackend.run_us": "cbackend.run",
    "pybackend.compile_ms": "pybackend.compile",
    "pybackend.run_us": "pybackend.run",
    "cache.key_us": "cache.key", "cache.lookup_miss_us": "cache.lookup_miss",
    "cache.lookup_memory_us": "cache.lookup_memory",
    "cache.lookup_disk_ms": "cache.lookup_disk",
    "cache.store_ms": "cache.store",
    "service.farm_lock_us": "service.farm_lock",
    "engine.copy_us": "engine.copy", "engine.invoke_tail_us": "e2e.invoke.tail",
    "runtime.env_us": "runtime.env",
    "mpi.launcher_r1_us": "mpi.launcher_r1",
    "mpi.launcher_r2_us": "mpi.launcher_r2",
    "mpi.sim_time_ms": "mpi.sim_time", "mpi.comm_time_ms": "mpi.comm_time",
    "bench.e2e_cold_jit_ms": "e2e.jit.cold",
    "bench.e2e_disk_jit_ms": "e2e.jit.disk",
    "bench.e2e_warm_jit_us": "e2e.jit.memory",
    "bench.e2e_invoke_us": "e2e.invoke",
}


def run(workload: Workload, seed: int, seconds: float, scratch: Scratch,
        tally: Tally) -> tuple:
    """Every per-layer metric of one workload: ``({name: row}, spans)``."""
    expect = expected_values(workload, seed, scratch, tally)
    walks = []
    for guest in workload.guests:
        walk = ProgramLayers(workload, guest, seed,
                             seconds / len(workload.guests), scratch, tally,
                             expect, lambda base: floor_count(base, seconds))
        walk.run()
        walks.append(walk)

    def added(field: str, key: str):
        vals = [getattr(w, field)[key] for w in walks if key in getattr(w, field)]
        return sum(vals) if vals else None

    def t(key):
        return added("t", key)

    values, counts_of = {}, {}
    for name, key in _DIRECT.items():
        values[name] = t(key)
        ns = [w.n[key] for w in walks if key in w.n]
        counts_of[name] = min(ns) if ns else None
    for name, (unit, _) in LAYERS.items():
        if unit in ("count", "bytes"):
            values[name] = added("c", name)
    values.update({
        "opt.total_ms": sum(t(f"opt.{p}") for p in PASS_ORDER),
        "service.cold_self_ms": t("service.cold_self"),
        "service.warm_self_us": t("e2e.jit.memory") - t("layers.jit.memory"),
        "engine.copy_share": t("copy.all_ranks") / t("e2e.invoke"),
        "engine.invoke_self_us": t("e2e.invoke") - t("layers.invoke"),
        "bench.layers_over_e2e_jit": t("layers.jit.cold") / t("e2e.jit.cold"),
        "bench.layers_over_e2e_invoke": t("layers.invoke") / t("e2e.invoke"),
        "bench.trace_overhead": t("replay.invoke") / t("e2e.invoke"),
    })
    reasons = {}
    for walk in walks:
        for name, value in walk.single.items():
            if isinstance(value, tuple):
                value, reasons[name] = value
            values[name] = value

    rows = {}
    for name, (_, scale) in LAYERS.items():
        value = values.get(name)
        row = {"value": None if value is None else value * scale}
        if counts_of.get(name) is not None:
            row["n"] = counts_of[name]
        if value is None:
            row["reason"] = reasons.get(
                name, "not applicable: the layer does no work this "
                      "workload's end-to-end metrics depend on")
        rows[name] = row
    spans = []
    for walk in walks:
        for rec in walk.tr.records():
            rec["program"] = walk.guest.name
            spans.append(rec)
    return rows, spans
