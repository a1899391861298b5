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

A second table pins what the mid-end *decides* rather than what it emits
by default: for the same thirteen programs plus the guests of
``tests/test_parallel.py`` and ``tests/test_cfg.py``, every loop verdict of
:func:`repro.opt.parallel.analyze_program` (with ``REPRO_OMP_REDUCTIONS`` off
and on, under each pass configuration), the C emitted from those plans, and
the source both emitters produce under ``REPRO_BOUNDS=1`` — which spells
out each individual ``bounds_ok`` mark, not only their count.
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
from repro.frontend import ir

TABLE = Path(__file__).parent / "golden" / "translate_fingerprints.json"
ANALYSIS_TABLE = Path(__file__).parent / "golden" / "analysis_fingerprints.json"

#: REPRO_OPT_PASSES spellings: all six passes, the four that predate the
#: CFG mid-end (what the frozen ``*_precfg.c`` goldens pin), none
CONFIGS = {"default": "1", "precfg": "fold,licm,cse,dce", "off": "0"}

#: knobs that change emitted code; the table is recorded with all unset
_CODEGEN_KNOBS = ("REPRO_OMP", "REPRO_OMP_REDUCTIONS", "REPRO_BLAS",
                  "REPRO_BOUNDS")


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


def _parallel_matmul(calculator):
    def make():
        from repro.library import matmul

        from tests.test_parallel import _matmul_args

        app = matmul.CPULoop(matmul.SimpleOuterBody(),
                             getattr(matmul, calculator)())
        return app, "start", _matmul_args()
    return make


def _parallel_stencil():
    from tests.test_parallel import _stencil_app

    return _stencil_app(), "run", (2,)


def _running_max():
    from tests.guestlib_diff import Reducer

    return Reducer(), "running_max", (np.arange(6, dtype=np.float64),
                                      np.zeros(6))


def _sweeper():
    from tests.guestlib import ScaleAddSolver, Sweeper

    return Sweeper(ScaleAddSolver(0.5), 16), "run", (3,)


#: the guests ``tests/test_parallel.py`` and ``tests/test_cfg.py`` decide on,
#: pinned beside ``PROGRAMS`` in the analysis table
GUESTS = {
    "parallel-matmul": _parallel_matmul("OptimizedCalculator"),
    "parallel-dgemm": _parallel_matmul("BlasCalculator"),
    "parallel-stencil": _parallel_stencil,
    "parallel-running-max": _running_max,
    "cfg-sweeper": _sweeper,
}


def _translate(name: str, config: str, monkeypatch):
    for knob in _CODEGEN_KNOBS:
        monkeypatch.delenv(knob, raising=False)
    monkeypatch.setenv("REPRO_OPT_PASSES", CONFIGS[config])
    receiver, method, args = {**PROGRAMS, **GUESTS}[name]()
    return jit(receiver, method, *args, backend="py", use_cache=False)


def sources(name: str, config: str, monkeypatch) -> dict:
    """Translate ``name`` under ``config``: both emitted sources and the
    per-pass rewrite counts."""
    code = _translate(name, config, monkeypatch)
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


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def _verdicts(plan) -> list:
    """``(symbol, var, parallel, reason, private, reductions, guards)`` for
    every analyzed loop, in program order."""
    rows = []

    def visit(symbol, stmts):
        for s in stmts:
            d = plan.decision_for(s) if isinstance(s, ir.ForRange) else None
            if d is not None:
                rows.append([symbol, d.var, d.parallel, d.reason, d.private,
                             d.reductions, [repr(g) for g in d.guards]])
            for block in ir.stmt_blocks(s):
                visit(symbol, block)

    for spec in plan.program.specializations:
        if getattr(spec, "func_ir", None) is not None:
            visit(spec.symbol, spec.func_ir.body)
    return json.loads(json.dumps(rows))


def decisions(name: str, config: str, monkeypatch) -> dict:
    """What the mid-end decides for ``name`` under ``config``: the loop
    verdicts and the C emitted from them, with float reductions off and
    on, and (pass ``bce`` configured) both sources under bounds checks."""
    from repro.backends.pybackend.emit import _ProgramEmitter
    from repro.opt.parallel import analyze_program

    code = _translate(name, config, monkeypatch)
    program = code.program
    got = {}
    for fred in ("off", "on"):
        monkeypatch.setenv("REPRO_OMP_REDUCTIONS", "1" if fred == "on" else "0")
        plan = analyze_program(program)
        got[fred] = {
            "verdicts": _verdicts(plan),
            "stats": json.loads(json.dumps(plan.stats)),
            "omp_c": _sha(CProgramEmitter(program, OptLevel.FULL,
                                          parallel_plan=plan).emit().source),
        }
    monkeypatch.delenv("REPRO_OMP_REDUCTIONS")
    if config == "default":
        got["bounds"] = {
            "c": _sha(CProgramEmitter(program, OptLevel.FULL,
                                      bounds_checks=True).emit().source),
            "py": _sha(_ProgramEmitter(program, bounds_checks=True).emit()),
        }
    return got


@pytest.mark.parametrize("config", sorted(CONFIGS))
@pytest.mark.parametrize("name", sorted({**PROGRAMS, **GUESTS}))
def test_mid_end_decisions_are_pinned(name, config, monkeypatch):
    got = decisions(name, config, monkeypatch)
    if os.environ.get("REPRO_REGEN_GOLDEN"):
        table = (json.loads(ANALYSIS_TABLE.read_text())
                 if ANALYSIS_TABLE.exists() else {})
        table.setdefault(name, {})[config] = got
        ANALYSIS_TABLE.write_text(
            json.dumps(table, indent=1, sort_keys=True) + "\n")
        pytest.skip(f"recorded {name}/{config} in {ANALYSIS_TABLE.name}")
    want = json.loads(ANALYSIS_TABLE.read_text())[name][config]
    for fred in ("off", "on"):
        assert got[fred]["verdicts"] == want[fred]["verdicts"], (
            f"{name}/{config}: a loop verdict changed "
            f"(REPRO_OMP_REDUCTIONS {fred})")
        assert got[fred]["stats"] == want[fred]["stats"], (name, config, fred)
        assert got[fred]["omp_c"] == want[fred]["omp_c"], (
            f"{name}/{config}: the OpenMP C changed "
            f"(REPRO_OMP_REDUCTIONS {fred})")
    assert got.get("bounds") == want.get("bounds"), (
        f"{name}/{config}: a bounds_ok mark moved (diff the REPRO_BOUNDS=1 "
        f"sources between the two checkouts)")


def test_analysis_table_covers_every_program_and_config():
    table = json.loads(ANALYSIS_TABLE.read_text())
    assert sorted(table) == sorted({**PROGRAMS, **GUESTS})
    for name, row in table.items():
        assert sorted(row) == sorted(CONFIGS), name
        assert [c for c in sorted(row) if "bounds" in row[c]] == ["default"]
