"""Output-identity oracle for the translate path.

Two C goldens cannot guard a change that touches lowering and every
mid-end pass, so this table pins, for thirteen programs — the ten the perf
ledger compiles (rebuilt here from ``repro.library`` at fixed inputs; its
two N-body entries are one program) plus Monte Carlo, a BLAS-1 vector
kernel, the 2-D stencil and the golden files' matmul — the SHA-256 of the
source both emitters produce and every pass's rewrite count, under the
full pipeline, the pre-CFG subset and with the mid-end off.  Nothing is
compiled: the program is translated once per configuration (through the
py backend) and only *emitted* as C.

A mismatch means translated output changed.  If that is intended,
regenerate with::

    REPRO_REGEN_GOLDEN=1 PYTHONPATH=src python -m pytest tests/test_translate_fingerprint.py

and say in the commit why the bytes moved; ``sources()`` returns the full
text for diffing two checkouts.
"""

from __future__ import annotations

import hashlib
import json
import os
from pathlib import Path

import numpy as np
import pytest

from repro import jit
from repro.backends.base import OptLevel
from repro.backends.cbackend.emit import CProgramEmitter

TABLE = Path(__file__).parent / "golden" / "translate_fingerprints.json"

#: REPRO_OPT_PASSES spellings: all six passes, the four that predate the
#: CFG mid-end (what the frozen ``*_precfg.c`` goldens pin), none
CONFIGS = {"default": "1", "precfg": "fold,licm,cse,dce", "off": "0"}

#: knobs that change emitted code; the table is recorded with all unset
_CODEGEN_KNOBS = ("REPRO_OMP", "REPRO_OMP_THREADS", "REPRO_OMP_REDUCTIONS",
                  "REPRO_BLAS", "REPRO_BOUNDS", "REPRO_TIERED")


def _stencil3d(cls_name, nx, ny, nzl, nranks, steps):
    def make():
        from repro.library import stencil
        from repro.library.stencil.config import (
            make_dif3d_solver, make_grid3d,
        )

        app = getattr(stencil, cls_name)(
            make_dif3d_solver(0.1025), make_grid3d(nx, ny, nzl + 2),
            stencil.ThreeDIndexer(nx, ny, nzl + 2),
            stencil.SineGen(nx, ny, nzl, nranks), stencil.EmptyContext())
        return app, "run", (steps,)
    return make


def _cgsolve(nx, ny, maxiter):
    def make():
        from repro.library.cgsolve.config import laplacian2d_csr
        from repro.library.cgsolve.csr import CsrMatrix
        from repro.library.cgsolve.precond import JacobiPreconditioner
        from repro.library.cgsolve.solver import CgSolver

        m = laplacian2d_csr(nx, ny)
        n = m["n"]
        solver = CgSolver(
            CsrMatrix(m["vals"], m["cols"], m["rowptr"], n),
            JacobiPreconditioner(np.full(n, 0.25)), np.linspace(0.0, 1.0, n),
            np.zeros(n), np.zeros(n), np.zeros(n), np.zeros(n), np.zeros(n),
            1e-20)
        return solver, "solve", (maxiter,)
    return make


def _nbody():
    from repro.library.nbody.config import initial_state
    from repro.library.nbody.forces import Gravity
    from repro.library.nbody.integrators import KickDriftIntegrator
    from repro.library.nbody.particles import ParticleSet
    from repro.library.nbody.system import NBodySystem

    n = 48
    st = initial_state(n)
    p = ParticleSet(st["x"], st["y"], st["z"], st["vx"], st["vy"], st["vz"],
                    st["m"], n)
    system = NBodySystem(p, Gravity(1.0, 0.05), KickDriftIntegrator(),
                         np.zeros(n), np.zeros(n), np.zeros(n), 0.01)
    return system, "run", (10,)


def _matmul_fox():
    from repro.library.matmul import (
        FoxAlgorithm, MPIThread, OptimizedCalculator, make_matrix,
    )

    app = MPIThread(FoxAlgorithm(), OptimizedCalculator())
    return app, "start_generated", (make_matrix(8), make_matrix(8),
                                    make_matrix(8))


def _matmul_gpu():
    from repro.library.matmul import (
        GPUThread, GpuCalculator, SimpleOuterBody, make_matrix,
    )

    app = GPUThread(SimpleOuterBody(), GpuCalculator())
    return app, "start", (make_matrix(16), make_matrix(16), make_matrix(16))


def _matmul_cpu():
    from repro.library.matmul import (
        CPULoop, OptimizedCalculator, SimpleOuterBody, make_matrix,
    )

    app = CPULoop(SimpleOuterBody(), OptimizedCalculator())
    return app, "start", (make_matrix(8), make_matrix(8), make_matrix(8))


def _montecarlo():
    from repro.library.montecarlo.config import make_pricer

    return make_pricer(64), "run", (64,)


def _vector_axpy():
    from repro.library.vector import AxpyKernel, CpuVectorEngine

    return (CpuVectorEngine(AxpyKernel(2.0)), "run",
            (np.linspace(-0.5, 0.5, 16), np.linspace(0.5, -0.5, 16)))


def _stencil2d():
    from repro.library.stencil import EmptyContext
    from repro.library.stencil.dim2 import (
        Dif2DSolver, Sine2DGen, StencilCPU2D, TwoDIndexer,
    )
    from repro.library.stencil.grid import FloatGridDblB

    nx, nyl = 10, 8
    n = nx * (nyl + 2)
    app = StencilCPU2D(
        Dif2DSolver(0.6, 0.1, 0.1),
        FloatGridDblB(np.zeros(n, np.float32), np.zeros(n, np.float32)),
        TwoDIndexer(nx, nyl + 2), Sine2DGen(nx, nyl, 1), EmptyContext())
    return app, "run", (3,)


PROGRAMS = {
    # the ledger's programs, by its names (benchmarks/ledger/guests.py)
    "diffusion-cpu": _stencil3d("StencilCPU3D", 64, 64, 62, 1, 128),
    "diffusion-cpu-mpi-2": _stencil3d("StencilCPU3D_MPI", 64, 64, 96, 2, 8),
    "cgsolve-4x4": _cgsolve(4, 4, 1),
    "nbody-48": _nbody,  # also its "nbody-48-py": both emitters are hashed
    "diffusion-cpu-mpi": _stencil3d("StencilCPU3D_MPI", 16, 16, 8, 2, 2),
    "diffusion-gpu-mpi": _stencil3d("StencilGPU3D_MPI", 16, 16, 8, 2, 2),
    "matmul-fox-mpi": _matmul_fox,
    "matmul-gpu": _matmul_gpu,
    "cgsolve-16x16": _cgsolve(16, 16, 300),
    # beyond the ledger
    "matmul-cpu": _matmul_cpu,
    "montecarlo": _montecarlo,
    "vector-axpy": _vector_axpy,
    "stencil-2d": _stencil2d,
}


def sources(name: str, config: str, monkeypatch) -> dict:
    """Translate ``name`` under ``config``: both emitted sources and the
    per-pass rewrite counts."""
    for knob in _CODEGEN_KNOBS:
        monkeypatch.delenv(knob, raising=False)
    monkeypatch.setenv("REPRO_OPT_PASSES", CONFIGS[config])
    receiver, method, args = PROGRAMS[name]()
    code = jit(receiver, method, *args, backend="py", use_cache=False)
    pipeline = code.report.opt_stats.get("pipeline", {})
    return {
        "c": CProgramEmitter(code.program, OptLevel.FULL).emit().source,
        "py": code.source,
        "rewrites": {p: st["rewrites"] for p, st in pipeline.items()},
    }


def _fingerprint(name: str, config: str, monkeypatch) -> dict:
    got = sources(name, config, monkeypatch)
    for emitter in ("c", "py"):
        got[emitter] = hashlib.sha256(got[emitter].encode()).hexdigest()
    return got


@pytest.mark.parametrize("config", sorted(CONFIGS))
@pytest.mark.parametrize("name", sorted(PROGRAMS))
def test_translated_output_is_pinned(name, config, monkeypatch):
    got = _fingerprint(name, config, monkeypatch)
    if os.environ.get("REPRO_REGEN_GOLDEN"):
        table = json.loads(TABLE.read_text()) if TABLE.exists() else {}
        table.setdefault(name, {})[config] = got
        TABLE.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")
        pytest.skip(f"recorded {name}/{config} in {TABLE.name}")
    want = json.loads(TABLE.read_text())[name][config]
    assert got["rewrites"] == want["rewrites"], (
        f"{name}/{config}: a pass rewrote a different number of sites")
    for emitter in ("c", "py"):
        assert got[emitter] == want[emitter], (
            f"{name}/{config}: the {emitter} emitter's output changed "
            f"(diff sources() between the two checkouts to see how)")


def test_table_covers_every_program_and_config():
    table = json.loads(TABLE.read_text())
    assert sorted(table) == sorted(PROGRAMS)
    for name, row in table.items():
        assert sorted(row) == sorted(CONFIGS), name
