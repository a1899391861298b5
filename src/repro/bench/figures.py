"""Per-experiment drivers: one function per table/figure of the paper's §4.

Every function returns a :class:`~repro.bench.harness.Series` whose rows are
the same quantities the paper plots (who runs in what time at which scale).
Absolute numbers differ from the paper's TSUBAME measurements — the
substrate is a simulator — but the comparative *shape* is the reproduction
target; EXPERIMENTS.md records both.

GPU figures omit the ``cpp`` (virtual-call) comparator, mirroring the paper:
"since virtual function calls by -> operator in CUDA on GPUs were unstable
in our environment, we did not use virtual function calls ... in the kernel
functions for CUDA" (§4).
"""

from __future__ import annotations

import os
import tempfile


def _repeats() -> int:
    """Min-of-N repeats per measured point (noise on a shared host inflates
    the max-over-ranks statistic; min is the standard robust estimator)."""
    return int(os.environ.get("REPRO_BENCH_REPEATS", "3"))

from repro.backends.cbackend.build import FLAG_SETS, cc_version
from repro.baselines.comparators import (
    diffusion_scaling,
    diffusion_single,
    matmul_scaling,
    matmul_single,
)
from repro.bench.harness import Series, iteration_span
from repro.bench.workloads import Workloads, current

__all__ = [
    "fig03", "fig04", "fig05", "fig06", "fig07", "fig09", "fig10", "fig11",
    "fig12", "fig13_16", "fig17", "fig18", "fig19", "fig20", "fig21",
    "table1_2", "table3", "all_experiments",
]

_CPU_VARIANTS = ["c-ref", "cpp", "template", "template-novirt", "wootinj"]
_GPU_VARIANTS = ["c-ref", "template", "wootinj"]


def _single_series(exp_id: str, title: str, variants, runner) -> Series:
    s = Series(exp_id, title, ["variant", "seconds", "per_unit_ns", "vs_c"])

    def best(v):
        n = 1 if v == "java" else _repeats()
        rows = []
        for i in range(n):
            with iteration_span(exp_id, v, i):
                rows.append(runner(v))
        return min(rows, key=lambda r: r.seconds)

    rows = {v: best(v) for v in variants}
    c_time = rows.get("c-ref").per_unit_ns if "c-ref" in rows else None
    for v, row in rows.items():
        rel = row.per_unit_ns / c_time if c_time else float("nan")
        s.rows.append([v, row.seconds, row.per_unit_ns, rel])
    return s


# ---------------------------------------------------------------------------
# single-thread comparisons
# ---------------------------------------------------------------------------

def fig03(w: Workloads | None = None) -> Series:
    """Fig 3: 3-D diffusion, one thread — Java vs C++ vs C (the >10× OO
    overhead motivating the framework)."""
    w = w or current()
    s = _single_series(
        "fig03",
        f"3-D diffusion {w.diff_nx}x{w.diff_ny}x{w.diff_nzg}, 1 thread "
        f"(Java / C++ / C)",
        ["java", "cpp", "c-ref"],
        lambda v: diffusion_single(v, w.diff_nx, w.diff_ny, w.diff_nzg, w.diff_steps),
    )
    s.notes = (
        "Expected shape: java >> cpp >> c-ref.  The CPython interpreter "
        "exaggerates the paper's 'Java' bar (JVMs JIT); the cpp/c gap is "
        "the paper's point: the overhead is object orientation, not the "
        "language."
    )
    return s


def fig17(w: Workloads | None = None) -> Series:
    """Fig 17: diffusion, all six program families."""
    w = w or current()
    s = _single_series(
        "fig17",
        f"3-D diffusion {w.diff_nx}x{w.diff_ny}x{w.diff_nzg}, 1 thread, all "
        f"comparators",
        ["java", "cpp", "template", "template-novirt", "wootinj", "c-ref"],
        lambda v: diffusion_single(v, w.diff_nx, w.diff_ny, w.diff_nzg, w.diff_steps),
    )
    s.notes = (
        "Expected shape: java >> cpp >> template ~= template-novirt ~= "
        "wootinj ~= c-ref (WootinJ may beat hand-C: run-time constants are "
        "baked into the specialized code)."
    )
    return s


def fig18(w: Workloads | None = None) -> Series:
    """Fig 18: matrix multiplication, all six program families.

    The interpreted bar runs at a smaller n (its per-unit time is size-
    independent enough for the comparison; the row notes its n)."""
    w = w or current()
    s = Series(
        "fig18",
        f"matmul {w.mm_n}^3 (java at {w.mm_java_n}^3), 1 thread, all "
        f"comparators",
        ["variant", "n", "seconds", "per_unit_ns", "vs_c"],
    )
    rows = {}
    for v in ["java", "cpp", "template", "template-novirt", "wootinj", "c-ref"]:
        n = w.mm_java_n if v == "java" else w.mm_n
        rows[v] = (n, matmul_single(v, n))
    c_ppu = rows["c-ref"][1].per_unit_ns
    for v, (n, row) in rows.items():
        s.rows.append([v, n, row.seconds, row.per_unit_ns, row.per_unit_ns / c_ppu])
    s.notes = "Expected shape: as fig17."
    return s


# ---------------------------------------------------------------------------
# scaling figures
# ---------------------------------------------------------------------------

def _scaling_series(exp_id, title, variants, ranks, runner, *, weak: bool) -> Series:
    headers = ["ranks"] + [f"{v}_s" for v in variants] + [f"{variants[-1]}_eff"]
    s = Series(exp_id, title, headers)
    base = None
    for p in ranks:
        row = [p]
        times = {}
        for v in variants:
            samples = []
            for i in range(_repeats()):
                with iteration_span(exp_id, v, i, ranks=p):
                    samples.append(runner(v, p).seconds)
            times[v] = min(samples)
            row.append(times[v])
        t_main = times[variants[-1]]
        if base is None:
            base = t_main
        eff = (base / t_main) if weak else (base / (t_main * p) * ranks[0] * 1.0)
        row.append(eff)
        s.rows.append(row)
    s.notes = (
        "weak scaling: *_eff = T(1)/T(p), flat≈1 is ideal"
        if weak
        else "strong scaling: *_eff = T(p1)*p1/(T(p)*p), parallel efficiency"
    )
    return s


def fig04(w: Workloads | None = None) -> Series:
    """Fig 4: diffusion weak scaling, CPU + MPI (fixed slab per rank)."""
    w = w or current()
    return _scaling_series(
        "fig04",
        f"diffusion weak scaling CPU+MPI, {w.diff_nx}x{w.diff_ny}x"
        f"{w.diff_weak_nzl}/rank, {w.diff_steps} steps",
        _CPU_VARIANTS,
        w.diff_weak_ranks,
        lambda v, p: diffusion_scaling(
            v, w.diff_nx, w.diff_ny, w.diff_weak_nzl, w.diff_steps, p
        ),
        weak=True,
    )


def fig05(w: Workloads | None = None) -> Series:
    """Fig 5: diffusion strong scaling CPU — C vs WootinJ."""
    w = w or current()
    ranks = [p for p in w.diff_strong_ranks if w.diff_strong_nzg % p == 0
             and w.diff_strong_nzg // p >= 2]
    return _scaling_series(
        "fig05",
        f"diffusion strong scaling CPU+MPI, total "
        f"{w.diff_nx}x{w.diff_ny}x{w.diff_strong_nzg}",
        ["c-ref", "wootinj"],
        ranks,
        lambda v, p: diffusion_scaling(
            v, w.diff_nx, w.diff_ny, w.diff_strong_nzg // p, w.diff_steps, p
        ),
        weak=False,
    )


def fig06(w: Workloads | None = None) -> Series:
    """Fig 6: diffusion weak scaling on GPUs."""
    w = w or current()
    ranks = tuple(p for p in w.diff_weak_ranks if p <= 8)
    return _scaling_series(
        "fig06",
        f"diffusion weak scaling GPU+MPI, {w.diff_gpu_nx}x{w.diff_gpu_ny}x"
        f"{w.diff_gpu_nzl}/GPU",
        _GPU_VARIANTS,
        ranks,
        lambda v, p: diffusion_scaling(
            v, w.diff_gpu_nx, w.diff_gpu_ny, w.diff_gpu_nzl, w.diff_steps, p,
            gpu=True,
        ),
        weak=True,
    )


def fig07(w: Workloads | None = None) -> Series:
    """Fig 7: diffusion strong scaling on GPUs — C vs WootinJ."""
    w = w or current()
    total = w.diff_gpu_nzl * 4
    ranks = [p for p in (1, 2, 4, 8) if total % p == 0]
    return _scaling_series(
        "fig07",
        f"diffusion strong scaling GPU+MPI, total "
        f"{w.diff_gpu_nx}x{w.diff_gpu_ny}x{total}",
        ["c-ref", "wootinj"],
        ranks,
        lambda v, p: diffusion_scaling(
            v, w.diff_gpu_nx, w.diff_gpu_ny, total // p, w.diff_steps, p,
            gpu=True,
        ),
        weak=False,
    )


def fig09(w: Workloads | None = None) -> Series:
    """Fig 9: matmul weak scaling CPU+MPI (fixed block per rank, Fox)."""
    w = w or current()
    return _scaling_series(
        "fig09",
        f"matmul weak scaling CPU+MPI (Fox), {w.mm_weak_m}^2 block/rank",
        _CPU_VARIANTS,
        w.mm_ranks,
        lambda v, p: matmul_scaling(v, w.mm_weak_m, p),
        weak=True,
    )


def fig10(w: Workloads | None = None) -> Series:
    """Fig 10: matmul strong scaling CPU — C vs WootinJ."""
    w = w or current()
    ranks = [p for p in w.mm_ranks if w.mm_strong_n % int(round(p ** 0.5)) == 0]
    return _scaling_series(
        "fig10",
        f"matmul strong scaling CPU+MPI (Fox), global {w.mm_strong_n}^2",
        ["c-ref", "wootinj"],
        ranks,
        lambda v, p: matmul_scaling(v, w.mm_strong_n // int(round(p ** 0.5)), p),
        weak=False,
    )


def fig11(w: Workloads | None = None) -> Series:
    """Fig 11: matmul weak scaling on GPUs."""
    w = w or current()
    return _scaling_series(
        "fig11",
        f"matmul weak scaling GPU+MPI (Fox), {w.mm_weak_m}^2 block/GPU",
        _GPU_VARIANTS,
        tuple(p for p in w.mm_ranks if p <= 9),
        lambda v, p: matmul_scaling(v, w.mm_weak_m, p, gpu=True),
        weak=True,
    )


def fig12(w: Workloads | None = None) -> Series:
    """Fig 12: matmul strong scaling on GPUs — C vs WootinJ."""
    w = w or current()
    ranks = [p for p in (1, 4, 9) if w.mm_strong_n % int(round(p ** 0.5)) == 0]
    return _scaling_series(
        "fig12",
        f"matmul strong scaling GPU+MPI (Fox), global {w.mm_strong_n}^2",
        ["c-ref", "wootinj"],
        ranks,
        lambda v, p: matmul_scaling(v, w.mm_strong_n // int(round(p ** 0.5)), p,
                                    gpu=True),
        weak=False,
    )


# ---------------------------------------------------------------------------
# guest-workload scaling (beyond the paper's four programs; same axes as
# figs 17-18: interpreted vs translated at growing problem size)
# ---------------------------------------------------------------------------

def _guest_scaling_series(exp_id, title, points) -> Series:
    """Problem-size scaling of one guest workload: interpreted vs the py
    and C backends.  ``points`` is ``[(size_label, make, method, args)]``;
    each backend point is min-of-:func:`_repeats` invokes of one cold
    translation, the interpreted point runs once (it dominates the bench
    budget already)."""
    import time as _time

    from repro import jit
    import repro.rt as _rt

    s = Series(
        exp_id, title, ["size", "interp_s", "py_s", "c_s", "c_speedup"]
    )
    for size, make, method, args in points:
        _rt.current.reset()
        t0 = _time.perf_counter()
        getattr(make(), method)(*args)
        interp_s = _time.perf_counter() - t0
        _rt.current.take_outputs()
        times = {}
        for backend in ("py", "c"):
            code = jit(make(), method, *args, backend=backend,
                       use_cache=False)
            samples = []
            for i in range(_repeats()):
                with iteration_span(exp_id, backend, i, size=size):
                    t0 = _time.perf_counter()
                    code.invoke()
                    samples.append(_time.perf_counter() - t0)
            times[backend] = min(samples)
        s.rows.append(
            [size, interp_s, times["py"], times["c"],
             interp_s / times["c"]]
        )
    s.notes = (
        "Expected shape: c_speedup grows (or stays >> 1) with problem "
        "size — translation cost is constant, the win is per-element."
    )
    return s


def fig19(w: Workloads | None = None) -> Series:
    """N-body (gravity, kick-drift) problem-size scaling, 1 thread."""
    from repro.library.nbody.config import make_system

    points = [
        (n, (lambda n=n: make_system(n, force="gravity",
                                     integ="kickdrift")), "run", (10,))
        for n in (16, 32, 48, 64)
    ]
    return _guest_scaling_series(
        "fig19", "N-body gravity, 10 steps, growing particle count", points
    )


def fig20(w: Workloads | None = None) -> Series:
    """Conjugate-gradient (Jacobi-preconditioned) grid-size scaling."""
    from repro.library.cgsolve.config import make_solver

    points = [
        (n, (lambda n=n: make_solver(n, n, precond="jacobi")),
         "solve", (300,))
        for n in (8, 12, 16, 24)
    ]
    return _guest_scaling_series(
        "fig20", "CG solve (Jacobi), 300 iterations, growing grid", points
    )


def fig21(w: Workloads | None = None) -> Series:
    """Monte-Carlo option pricer path-count scaling."""
    from repro.library.montecarlo.config import make_pricer

    points = [
        (n, (lambda n=n: make_pricer(n, kind="call")), "run", (n,))
        for n in (5000, 10000, 20000, 40000)
    ]
    return _guest_scaling_series(
        "fig21", "Monte-Carlo call pricing, growing path count", points
    )


# ---------------------------------------------------------------------------
# compilation time
# ---------------------------------------------------------------------------

def table3(w: Workloads | None = None) -> Series:
    """Table 3: WootinJ compilation time for the four programs (translate +
    external C compiler), measured with cold caches."""
    from repro.jit.engine import clear_code_cache
    from repro.jit import jit4mpi
    from repro.library.matmul import (
        FoxAlgorithm, GPUThread, GpuCalculator, MPIThread,
        OptimizedCalculator, SimpleOuterBody, make_matrix,
    )
    from repro.baselines.comparators import _stencil_app
    from repro.library.stencil import StencilCPU3D_MPI, StencilGPU3D_MPI

    w = w or current()
    s = Series(
        "table3",
        "JIT compilation time (translate + C compile), cold caches",
        ["program", "translate_s", "cc_s", "total_s", "n_functions"],
    )

    def build(name, make_code):
        old_env = {
            k: os.environ.get(k) for k in ("REPRO_CC_CACHE", "REPRO_CACHE_DIR")
        }
        with tempfile.TemporaryDirectory() as tmp:
            # point both caches (compiler artifacts + code cache) at the
            # temp dir so clearing them cannot touch the user's warm tiers
            os.environ["REPRO_CC_CACHE"] = tmp
            os.environ["REPRO_CACHE_DIR"] = os.path.join(tmp, "code")
            clear_code_cache()
            try:
                code = make_code()
            finally:
                for k, v in old_env.items():
                    if v is None:
                        os.environ.pop(k, None)
                    else:
                        os.environ[k] = v
        r = code.report
        s.rows.append(
            [name, r.translate_s, r.backend_compile_s, r.total_s,
             r.n_specializations]
        )

    nx, ny, nzl, steps = w.diff_nx, w.diff_ny, w.diff_weak_nzl, w.diff_steps
    build(
        "diffusion CPU+MPI",
        lambda: jit4mpi(_stencil_app(StencilCPU3D_MPI, nx, ny, nzl, 4),
                        "run", steps, backend="c", use_cache=False),
    )
    build(
        "diffusion GPU+MPI",
        lambda: jit4mpi(_stencil_app(StencilGPU3D_MPI, nx, ny, nzl, 4),
                        "run", steps, backend="c", use_cache=False),
    )
    m = w.mm_weak_m
    build(
        "matmul CPU+MPI (Fox)",
        lambda: jit4mpi(
            MPIThread(FoxAlgorithm(), OptimizedCalculator()),
            "start_generated", make_matrix(m), make_matrix(m), make_matrix(m),
            backend="c", use_cache=False,
        ),
    )
    build(
        "matmul GPU",
        lambda: jit4mpi(
            GPUThread(SimpleOuterBody(), GpuCalculator()),
            "start", make_matrix(m), make_matrix(m), make_matrix(m),
            backend="c", use_cache=False,
        ),
    )
    s.notes = (
        "Paper reports 4-5 s per program on 2013 hardware; size-independent "
        "and amortized over the run (cf. figs 13-16)."
    )
    return s


def fig13_16(w: Workloads | None = None) -> Series:
    """Figs 13-16: strong scaling of WootinJ with and without compilation
    time, vs C — compilation is constant, so it vanishes at scale/duration.
    """
    w = w or current()
    s = Series(
        "fig13_16",
        "strong scaling incl/excl JIT compilation (diffusion CPU shown; the "
        "other three programs follow the same law)",
        ["ranks", "c_ref_s", "wootinj_excl_s", "wootinj_incl_s"],
    )
    ranks = [p for p in w.diff_strong_ranks if w.diff_strong_nzg % p == 0
             and w.diff_strong_nzg // p >= 2]
    for p in ranks:
        nzl = w.diff_strong_nzg // p
        c = diffusion_scaling("c-ref", w.diff_nx, w.diff_ny, nzl, w.diff_steps, p)
        woot = diffusion_scaling("wootinj", w.diff_nx, w.diff_ny, nzl,
                                 w.diff_steps, p)
        s.rows.append([p, c.seconds, woot.seconds, woot.seconds + woot.compile_s])
    s.notes = (
        "excl-compile tracks c-ref; incl-compile adds the constant JIT cost "
        "(its relative weight shrinks as the computation grows — the paper's "
        "point in §4.3)."
    )
    return s


# ---------------------------------------------------------------------------
# compiler options
# ---------------------------------------------------------------------------

def table1_2(w: Workloads | None = None) -> Series:
    """Tables 1-2: compiler options per program family (gcc analogues of the
    paper's icc rows)."""
    s = Series(
        "table1_2",
        f"compiler options per comparator ({cc_version()})",
        ["comparator", "flags"],
    )
    name_of = {
        "virtual": "C++ (virtual)",
        "devirt": "Template",
        "novirt": "Template w/o virt.",
        "full": "WootinJ / C",
    }
    for opt, flags in FLAG_SETS.items():
        s.rows.append([name_of[opt.value], " ".join(flags)])
    return s


def all_experiments(w: Workloads | None = None) -> list[Series]:
    """Run every experiment (used by the EXPERIMENTS.md regeneration)."""
    w = w or current()
    out = []
    for fn in (fig03, fig04, fig05, fig06, fig07, fig09, fig10, fig11, fig12,
               fig13_16, fig17, fig18, fig19, fig20, fig21, table1_2, table3):
        out.append(fn(w))
    return out
