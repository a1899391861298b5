"""The guest programs, their seeded inputs, their independent references,
and the five workloads built from them.

Inputs come from ``--seed`` only: the diffusion coefficient of the stencil
programs (a constant the translator bakes into the generated code, so each
seed compiles different source), the right-hand side of the CG systems, the
perturbation of the N-body initial state, and the matrix contents.  None of
them changes the amount of work, so timings from different seeds compare.
The program under test receives the generated objects, never the seed.

No reference comes from the artifact under test: ``interp`` executes the
same guest classes directly under CPython (the paper's "Java" bar) and
``CRef`` is the hand-written C kernel of ``repro.baselines.c_ref``.  The
compile side has references too (``ref_py``, ``ref_cc``, ``BARE_CHILD``):
work of the same nature as a cache hit, a cold compile and a fresh
interpreter that runs none of ``repro``, taken in the same run, so that each
of those times can be gated as a ratio the machine's speed cancels out of.
"""

from __future__ import annotations

import copy
import random
import shutil
import struct
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Optional

import numpy as np

from repro import jit, jit4mpi, mpirun
from repro import rt
from repro.baselines import c_ref
from repro.library.cgsolve.config import laplacian2d_csr
from repro.library.cgsolve.csr import CsrMatrix
from repro.library.cgsolve.precond import JacobiPreconditioner
from repro.library.cgsolve.solver import CgSolver
from repro.library.matmul import (
    FoxAlgorithm, GPUThread, GpuCalculator, MPIThread, OptimizedCalculator,
    SimpleOuterBody, make_matrix,
)
from repro.library.nbody.config import initial_state
from repro.library.nbody.forces import Gravity
from repro.library.nbody.integrators import KickDriftIntegrator
from repro.library.nbody.particles import ParticleSet
from repro.library.nbody.system import NBodySystem
from repro.library.stencil import (
    EmptyContext, SineGen, StencilCPU3D, StencilCPU3D_MPI, StencilGPU3D_MPI,
    ThreeDIndexer,
)
from repro.library.stencil.config import (
    diffusion_coefficients, make_dif3d_solver, make_grid3d,
)


@dataclass(frozen=True)
class Guest:
    """One program: how to build its objects from a seed and how to check
    what it returns."""

    name: str
    make: Callable[[int], tuple]        # seed -> (receiver, method, args)
    backend: str = "c"
    nranks: int = 1
    #: allowed relative error against direct CPython execution; 0 means
    #: bit-for-bit (every all-f64 single-rank program).  f32 stencils round
    #: differently under CPython, and Fox's per-rank partial sums meet in
    #: another order.
    rel_tol: float = 0.0
    #: allowed relative difference between two invokes of one artifact; 0
    #: means bit-for-bit.  Only a sum over more than two rank threads is
    #: not: the allreduce adds in arrival order.
    repeat_tol: float = 0.0
    #: the same classes at a size CPython can execute (None: this size is)
    reduced: Optional["Guest"] = None
    #: (nx, ny, nz_global, steps) when the program is a 3-D diffusion run
    grid: Optional[tuple] = None


def same(value, expect, rel_tol: float) -> bool:
    if rel_tol == 0.0:
        return struct.pack("<d", float(value)) == struct.pack("<d", float(expect))
    return abs(float(value) - float(expect)) <= rel_tol * abs(float(expect))


def compile_guest(guest: Guest, objs: tuple):
    """The public ``jit*()`` call a user of this program would make."""
    receiver, method, args = objs
    if guest.nranks > 1:
        return jit4mpi(receiver, method, *args,
                       backend=guest.backend).set4mpi(guest.nranks)
    return jit(receiver, method, *args, backend=guest.backend)


def interp(guest: Guest, objs: tuple) -> tuple:
    """Execute the guest directly under CPython; ``(value, seconds)``.

    Interpreted guests mutate their host arrays, so ``objs`` must be fresh.
    Multi-rank programs run under the simulated ``mpirun`` with a private
    deep copy per rank — the memory model translated code has (§3.1)."""
    receiver, method, args = objs
    if guest.nranks == 1:
        rt.current.reset()
        t0 = time.perf_counter()
        value = getattr(receiver, method)(*args)
        dt = time.perf_counter() - t0
        rt.current.take_outputs()
        return value, dt
    copies = [copy.deepcopy((receiver, args)) for _ in range(guest.nranks)]

    def body(ctx):
        recv, rank_args = copies[ctx.rank]
        return getattr(recv, method)(*rank_args)

    t0 = time.perf_counter()
    res = mpirun(guest.nranks, body)
    return res.returns[0], time.perf_counter() - t0


# ---------------------------------------------------------------------------
# seeded inputs
# ---------------------------------------------------------------------------

def _kappa(seed: int) -> float:
    # 6*kappa*dt/dx^2 stays below 0.07: the explicit scheme is stable
    return 0.1 * (1.0 + 0.05 * random.Random(seed).random())


def _stencil(cls, nx, ny, nzl, nranks, steps):
    def make(seed):
        app = cls(make_dif3d_solver(_kappa(seed)),
                  make_grid3d(nx, ny, nzl + 2),
                  ThreeDIndexer(nx, ny, nzl + 2),
                  SineGen(nx, ny, nzl, nranks), EmptyContext())
        return app, "run", (steps,)
    return make


def _cgsolve(nx, ny, maxiter):
    def make(seed):
        m = laplacian2d_csr(nx, ny)
        n = m["n"]
        rhs = np.random.default_rng(seed).random(n)
        solver = CgSolver(
            CsrMatrix(m["vals"], m["cols"], m["rowptr"], n),
            JacobiPreconditioner(np.full(n, 0.25)), rhs,
            np.zeros(n), np.zeros(n), np.zeros(n), np.zeros(n), np.zeros(n),
            1e-20)
        return solver, "solve", (maxiter,)
    return make


def _nbody(n, steps):
    def make(seed):
        st = initial_state(n)
        rng = np.random.default_rng(seed)
        for axis in ("x", "y", "z"):
            st[axis] = st[axis] + 0.01 * rng.standard_normal(n)
        p = ParticleSet(st["x"], st["y"], st["z"], st["vx"], st["vy"],
                        st["vz"], st["m"], n)
        system = NBodySystem(p, Gravity(1.0, 0.05), KickDriftIntegrator(),
                             np.zeros(n), np.zeros(n), np.zeros(n), 0.01)
        return system, "run", (steps,)
    return make


def _matmul_fox(m):
    def make(seed):
        # A and B are generated per rank inside the program; C accumulates,
        # so its seeded start reaches the checksum
        c = make_matrix(m)
        c.fill_seeded(seed)
        app = MPIThread(FoxAlgorithm(), OptimizedCalculator())
        return app, "start_generated", (make_matrix(m), make_matrix(m), c)
    return make


def _matmul_gpu(m):
    def make(seed):
        a, b, c = make_matrix(m), make_matrix(m), make_matrix(m)
        a.fill_seeded(seed)
        b.fill_seeded(seed + 1)
        app = GPUThread(SimpleOuterBody(), GpuCalculator())
        return app, "start", (a, b, c)
    return make


class CRef:
    """The paper's *C* comparator for one diffusion run: the same fill,
    sweeps and interior sum the guest's ``run`` does, on the whole grid."""

    def __init__(self, grid: tuple, seed: int):
        self.nx, self.ny, nzg, self.steps = grid
        self.nzg = nzg
        self.coeffs = diffusion_coefficients(_kappa(seed))
        n = self.nx * self.ny * (nzg + 2)
        self.a = np.zeros(n, dtype=np.float32)
        self.b = np.zeros(n, dtype=np.float32)

    def run(self) -> tuple:
        """``(interior sum, seconds)``."""
        nx, ny, nz = self.nx, self.ny, self.nzg + 2
        a, b = self.a, self.b
        t0 = time.perf_counter()
        c_ref.fill_sine(a, nx, ny, self.nzg, 1, 0)
        c_ref.fill_sine(b, nx, ny, self.nzg, 1, 0)
        for _ in range(self.steps):
            c_ref.diff3d_sweep(a, b, nx, ny, nz, *self.coeffs)
            a, b = b, a
        value = c_ref.diff3d_interior_sum(a, nx, ny, nz)
        return value, time.perf_counter() - t0


# ---------------------------------------------------------------------------
# in-run references of the compile side
# ---------------------------------------------------------------------------

def ref_py() -> float:
    """Seconds for a fixed CPython loop: in-process, interpreter-bound work,
    the nature of a cache hit and of the py backend's compile."""
    t0 = time.perf_counter()
    total = 0
    for i in range(2000):
        total += i
    return time.perf_counter() - t0


def ref_cc(workdir: Path) -> float:
    """Seconds for the host's C compiler to build the hand-written comparator
    (``c_ref``'s source) into a shared object: one compiler process on one
    file with fixed flags, the nature of a cold ``jit()`` of a C program.
    Called directly, not through ``repro``'s build layer."""
    cc = next(c for c in ("cc", "gcc", "clang") if shutil.which(c))
    workdir.mkdir(parents=True, exist_ok=True)
    src = workdir / "ref_cc.c"
    src.write_text(c_ref._C_SOURCE)
    t0 = time.perf_counter()
    subprocess.run([cc, "-O3", "-std=c99", "-shared", "-fPIC", "-w", str(src),
                    "-o", str(workdir / "ref_cc.so"), "-lm"], check=True)
    return time.perf_counter() - t0


#: a fresh interpreter that imports NumPy and exits: process start-up work,
#: the nature of a first result, with none of ``repro`` in it
BARE_CHILD = (sys.executable, "-c", "import numpy")


# ---------------------------------------------------------------------------
# programs
# ---------------------------------------------------------------------------

_F32_TOL = 1e-5   # f32 sweeps: CPython rounds through double, C does not
_SUM_TOL = 1e-12  # f64 partial sums combined in another order

_SMALL_CPU = Guest("diffusion-cpu-small", _stencil(StencilCPU3D, 16, 16, 8, 1, 4),
                   rel_tol=_F32_TOL)
_SMALL_MPI = Guest("diffusion-cpu-mpi", _stencil(StencilCPU3D_MPI, 16, 16, 8, 2, 2),
                   nranks=2, rel_tol=_F32_TOL, grid=(16, 16, 16, 2))

STENCIL = Guest("diffusion-cpu", _stencil(StencilCPU3D, 64, 64, 62, 1, 128),
                rel_tol=_F32_TOL, reduced=_SMALL_CPU, grid=(64, 64, 62, 128))
HALO = Guest("diffusion-cpu-mpi-2", _stencil(StencilCPU3D_MPI, 64, 64, 96, 2, 8),
             nranks=2, rel_tol=_F32_TOL, reduced=_SMALL_MPI,
             grid=(64, 64, 192, 8))
TINY = Guest("cgsolve-4x4", _cgsolve(4, 4, 1))
NBODY_PY = Guest("nbody-48-py", _nbody(48, 10), backend="py")

#: the paper's Table 3 four plus the two newer class libraries, at sizes
#: CPython can execute — compile time does not depend on problem size
TIERS = (
    _SMALL_MPI,
    Guest("diffusion-gpu-mpi", _stencil(StencilGPU3D_MPI, 16, 16, 8, 2, 2),
          nranks=2, rel_tol=_F32_TOL),
    Guest("matmul-fox-mpi", _matmul_fox(8), nranks=4, rel_tol=_SUM_TOL,
          repeat_tol=_SUM_TOL),
    Guest("matmul-gpu", _matmul_gpu(16)),
    Guest("cgsolve-16x16", _cgsolve(16, 16, 300)),
    Guest("nbody-48", _nbody(48, 10)),
)


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    guests: tuple
    #: what ``vs_ref`` divides by: "cref" (hand-written C on the same grid)
    #: or "interp" (the same guest under CPython)
    ref: str
    #: invokes / reference runs per interleaved block, per program
    inv_block: int = 1
    ref_block: int = 1
    #: whole lifecycles per run (cold compiles and fresh interpreters happen
    #: once per round) and the share of ``--seconds`` the time-sliced
    #: operations get, spread evenly over the rounds
    rounds: int = 5
    shares: dict = field(default_factory=dict)

    @property
    def backend(self) -> str:
        """All programs of a workload go through one backend."""
        return self.guests[0].backend


_RUN_SHARES = {"invoke": 0.40, "disk": 0.04, "warm": 0.04}

WORKLOADS = {w.name: w for w in (
    Workload(
        "stencil-steady",
        "kernel-bound and L2-resident: measures generated-code quality "
        "against hand-written C; call-path work should not move it",
        (STENCIL,), "cref", shares=_RUN_SHARES),
    Workload(
        "tiny-invoke",
        "kernel is about zero, so ctypes marshalling, callback thunks, "
        "mpirun(1) scaffolding and slot copies are the whole invoke; "
        "codegen work should not move it",
        (TINY,), "interp", inv_block=400, ref_block=40, shares=_RUN_SHARES),
    Workload(
        "compile-tiers",
        "compile-bound: six programs through cold, disk and memory tiers "
        "plus fresh interpreters; the cache is written beside being read "
        "and the kernel does none of the work",
        TIERS, "interp", inv_block=30, ref_block=1, rounds=4,
        shares={"invoke": 0.08, "disk": 0.06, "warm": 0.06}),
    Workload(
        "mpi-halo",
        "same invoke layer with two rank threads, RankContext and live "
        "WjEnv callbacks; a one-rank fast path must leave it unchanged",
        (HALO,), "cref", shares=_RUN_SHARES),
    Workload(
        "py-portable",
        "py backend has no downstream optimizer, so this is where a "
        "mid-end pass pays at run time; cc, bridge and cache work should "
        "not move it",
        (NBODY_PY,), "interp",
        shares={"invoke": 0.60, "disk": 0.04, "warm": 0.04}),
)}
