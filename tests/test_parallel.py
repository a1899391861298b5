"""OpenMP loop parallelization: analysis decisions, threaded differential
runs, cache-key isolation, and the dgemm lowering.

The analysis itself is backend-neutral (it runs over translated FuncIR),
so the decision tests need no C compiler; the execution legs compile with
the system cc and are skipped without one.  None of the execution tests
require an OpenMP-capable compiler: ``build.py`` degrades to sequential
(the pragmas are ignored under ``-w``), which keeps every bit-exactness
assertion meaningful either way.
"""

import os

import numpy as np
import pytest

from repro import jit
from repro.env import env_flag
from repro.jit.engine import clear_code_cache
from repro.library.matmul import (
    BlasCalculator,
    CPULoop,
    OptimizedCalculator,
    SimpleOuterBody,
    make_calculator,
    make_matrix,
)
from repro.library.stencil import (
    EmptyContext,
    SineGen,
    StencilCPU3D,
    ThreeDIndexer,
)
from repro.library.stencil.config import make_dif3d_solver, make_grid3d
from repro.opt.parallel import analyze_program, omp_token

from tests.conftest import requires_cc, seeded_matrix

N = 8


def _matmul_app():
    return CPULoop(SimpleOuterBody(), OptimizedCalculator())


def _matmul_args(n=N, seed=1):
    a = seeded_matrix(n, seed)
    b = seeded_matrix(n, seed + 1)
    ma, mb, mc = make_matrix(n), make_matrix(n), make_matrix(n)
    ma.data[:] = a.ravel()
    mb.data[:] = b.ravel()
    return ma, mb, mc


def _stencil_app():
    return StencilCPU3D(
        make_dif3d_solver(), make_grid3d(8, 8, 6), ThreeDIndexer(8, 8, 6),
        SineGen(8, 8, 4, 1), EmptyContext(),
    )


def _translate(app, method, *args):
    """Translate without building C: the analysis runs on the py-backend
    program (same FuncIR the C emitter consumes)."""
    return jit(app, method, *args, backend="py", use_cache=False).program


def _rows(plan, symbol_frag):
    for symbol, rows in plan.by_symbol.items():
        if symbol_frag in symbol:
            return rows
    raise AssertionError(f"no analyzed function matching {symbol_frag!r}: "
                         f"{sorted(plan.by_symbol)}")


class TestAnalysis:
    def test_matmul_outer_loop_parallel(self):
        program = _translate(_matmul_app(), "start", *_matmul_args())
        plan = analyze_program(program)
        rows = _rows(plan, "multiply_add")
        assert [r["parallel"] for r in rows] == [True]
        assert rows[0]["var"] == "i"
        assert not rows[0]["guarded"]

    def test_stencil_sweep_guarded(self):
        """The stencil's src/dst members are swapped every step; static
        disjointness is impossible, so the sweep runs under a runtime
        pointer guard."""
        program = _translate(_stencil_app(), "run", 2)
        plan = analyze_program(program)
        rows = _rows(plan, "compute")
        par = [r for r in rows if r["parallel"]]
        assert par and par[0]["guarded"]

    def test_float_sum_rejected_by_default(self, monkeypatch):
        monkeypatch.delenv("REPRO_OMP_REDUCTIONS", raising=False)
        program = _translate(_stencil_app(), "run", 2)
        rows = _rows(analyze_program(program), "interior_sum")
        assert not any(r["parallel"] for r in rows)
        assert any("reassociates" in r["reason"] for r in rows)

    def test_float_sum_allowed_opt_in(self, monkeypatch):
        monkeypatch.setenv("REPRO_OMP_REDUCTIONS", "1")
        program = _translate(_stencil_app(), "run", 2)
        rows = _rows(analyze_program(program), "interior_sum")
        par = [r for r in rows if r["parallel"]]
        assert par and par[0]["reductions"] == [("+", "total")]

    def test_scatter_with_carry_rejected(self):
        """Reading the accumulator outside its own reduction statement is
        a genuine cross-iteration carry, not a reduction."""
        from tests.guestlib_diff import Reducer

        a = np.arange(6, dtype=np.float64)
        out = np.zeros(6)
        program = _translate(Reducer(), "running_max", a, out)
        rows = _rows(analyze_program(program), "running_max")
        assert not any(r["parallel"] for r in rows)

    def test_token_keys_configuration(self, monkeypatch):
        from repro.backends.base import OptLevel

        monkeypatch.delenv("REPRO_OMP", raising=False)
        assert omp_token(OptLevel.FULL) == ""
        monkeypatch.setenv("REPRO_OMP", "1")
        assert omp_token(OptLevel.DEVIRT) == ""
        base = omp_token(OptLevel.FULL)
        assert base
        monkeypatch.setenv("REPRO_OMP_THREADS", "4")
        assert omp_token(OptLevel.FULL) != base
        monkeypatch.setenv("REPRO_OMP_REDUCTIONS", "1")
        assert "fred=on" in omp_token(OptLevel.FULL)


@requires_cc
class TestThreadedExecution:
    @pytest.mark.parametrize("threads", ["1", "4"])
    def test_matmul_bit_exact(self, monkeypatch, threads):
        """Non-reduction loops are bit-exact at any thread count."""
        monkeypatch.delenv("REPRO_OMP", raising=False)
        ref = jit(_matmul_app(), "start", *_matmul_args(), backend="c",
                  use_cache=False).invoke()
        monkeypatch.setenv("REPRO_OMP", "1")
        monkeypatch.setenv("OMP_NUM_THREADS", threads)
        par = jit(_matmul_app(), "start", *_matmul_args(), backend="c",
                  use_cache=False).invoke()
        assert par.output("c").tobytes() == ref.output("c").tobytes()

    @pytest.mark.parametrize("threads", ["1", "4"])
    def test_stencil_bit_exact(self, monkeypatch, threads):
        """The guarded sweep must stay bit-exact: the guard falls back to
        the sequential body whenever src and dst alias."""
        monkeypatch.delenv("REPRO_OMP", raising=False)
        ref = jit(_stencil_app(), "run", 4, backend="c",
                  use_cache=False).invoke()
        monkeypatch.setenv("REPRO_OMP", "1")
        monkeypatch.setenv("OMP_NUM_THREADS", threads)
        par = jit(_stencil_app(), "run", 4, backend="c",
                  use_cache=False).invoke()
        assert par.output("grid").tobytes() == ref.output("grid").tobytes()

    def test_reduction_within_tolerance(self, monkeypatch):
        """Float reductions (opt-in) may reassociate; the result stays
        within a few ulps of the sequential sum (documented tolerance:
        rel. 1e-12 for these sizes)."""
        monkeypatch.delenv("REPRO_OMP", raising=False)
        ref = jit(_stencil_app(), "run", 4, backend="c",
                  use_cache=False).invoke()
        monkeypatch.setenv("REPRO_OMP", "1")
        monkeypatch.setenv("REPRO_OMP_REDUCTIONS", "1")
        monkeypatch.setenv("OMP_NUM_THREADS", "4")
        par = jit(_stencil_app(), "run", 4, backend="c",
                  use_cache=False).invoke()
        assert par.value == pytest.approx(ref.value, rel=1e-12)
        # the sweep itself is not a reduction: still bit-exact
        assert par.output("grid").tobytes() == ref.output("grid").tobytes()

    def test_omp_off_emits_no_pragmas(self, monkeypatch):
        monkeypatch.setenv("REPRO_OMP", "0")
        code = jit(_matmul_app(), "start", *_matmul_args(), backend="c",
                   use_cache=False)
        assert "#pragma omp" not in code.compiled.source
        assert code.compiled.omp_max_threads == 0

    def test_threads_surface_in_report(self, monkeypatch):
        monkeypatch.setenv("REPRO_OMP", "1")
        monkeypatch.setenv("REPRO_OMP_THREADS", "2")
        code = jit(_matmul_app(), "start", *_matmul_args(), backend="c",
                   use_cache=False)
        par = code.report.opt_stats.get("parallel")
        if env_flag("REPRO_BOUNDS", default=False):
            # the shared out-of-bounds counter is not thread-safe, so a
            # bounds-checked build stays sequential — and says so
            assert par == {"disabled": "bounds_checks"}
            return
        assert par is not None
        assert par["loops_parallel"] >= 1
        assert par["threads_requested"] == 2
        assert "num_threads(2)" in code.compiled.source

    def test_bounds_checks_keep_the_build_sequential(self, monkeypatch):
        """``REPRO_OMP=1 REPRO_BOUNDS=1``: no pragma, the reason in the
        report, and the sequential result bit for bit."""
        monkeypatch.delenv("REPRO_OMP", raising=False)
        monkeypatch.setenv("REPRO_BOUNDS", "1")
        ref = jit(_matmul_app(), "start", *_matmul_args(), backend="c",
                  use_cache=False)
        assert "parallel" not in ref.report.opt_stats
        monkeypatch.setenv("REPRO_OMP", "1")
        code = jit(_matmul_app(), "start", *_matmul_args(), backend="c",
                   use_cache=False)
        assert "#pragma omp" not in code.compiled.source
        assert code.report.opt_stats["parallel"] == {
            "disabled": "bounds_checks"}
        assert (code.invoke().output("c").tobytes()
                == ref.invoke().output("c").tobytes())


@requires_cc
class TestCacheKeys:
    def test_omp_config_never_shares_artifacts(self, monkeypatch, tmp_path):
        """Every OMP knob combination is its own cache key; toggling never
        reuses a stale artifact, and returning to a seen config hits."""
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cc"))
        clear_code_cache()

        def translate():
            return jit(_matmul_app(), "start", *_matmul_args(), backend="c")

        matrix = [
            {},
            {"REPRO_OMP": "1"},
            {"REPRO_OMP": "1", "REPRO_OMP_THREADS": "4"},
            {"REPRO_OMP": "1", "REPRO_OMP_REDUCTIONS": "1"},
        ]
        for env in matrix:
            for var in ("REPRO_OMP", "REPRO_OMP_THREADS",
                        "REPRO_OMP_REDUCTIONS"):
                monkeypatch.delenv(var, raising=False)
            for var, val in env.items():
                monkeypatch.setenv(var, val)
            assert not translate().report.cache_hit, env
            assert translate().report.cache_hit, env
        clear_code_cache()


@requires_cc
class TestDgemm:
    def test_blas_calculator_matches_loop_nest(self):
        ref = jit(_matmul_app(), "start", *_matmul_args(), backend="c",
                  use_cache=False).invoke()
        blas_app = CPULoop(SimpleOuterBody(), BlasCalculator())
        res = jit(blas_app, "start", *_matmul_args(), backend="c",
                  use_cache=False).invoke()
        # ikj and dgemm's per-cell ascending-k order agree bit for bit on
        # these sizes only by accident of both being plain double sums in
        # the same order; assert the documented contract instead
        assert np.allclose(res.output("c"), ref.output("c"))

    def test_dgemm_bit_exact_across_backends(self):
        blas_app = CPULoop(SimpleOuterBody(), BlasCalculator())
        py = jit(blas_app, "start", *_matmul_args(), backend="py",
                 use_cache=False).invoke()
        blas_app = CPULoop(SimpleOuterBody(), BlasCalculator())
        c = jit(blas_app, "start", *_matmul_args(), backend="c",
                use_cache=False).invoke()
        assert py.output("c").tobytes() == c.output("c").tobytes()

    def test_make_calculator_selection(self, monkeypatch):
        monkeypatch.delenv("REPRO_BLAS", raising=False)
        assert isinstance(make_calculator(), OptimizedCalculator)
        monkeypatch.setenv("REPRO_BLAS", "1")
        assert isinstance(make_calculator(), BlasCalculator)

    def test_blas_config_keys_cache(self, monkeypatch, tmp_path):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cc"))
        clear_code_cache()
        blas_app = CPULoop(SimpleOuterBody(), BlasCalculator())

        def translate():
            return jit(blas_app, "start", *_matmul_args(), backend="c")

        monkeypatch.delenv("REPRO_BLAS", raising=False)
        assert not translate().report.cache_hit
        monkeypatch.setenv("REPRO_BLAS", "1")
        assert not translate().report.cache_hit  # distinct build config
        assert translate().report.cache_hit
        clear_code_cache()
