"""JIT engine API: caching, configuration, reports, invocation contract."""

import numpy as np
import pytest

from repro import OptLevel, jit, jit4gpu, jit4mpi
from repro.errors import JitError
from repro.jit.engine import clear_code_cache

from tests.guestlib import RingExchanger, Saxpy, ScaleAddSolver, Sweeper


class TestCache:
    def test_cache_keyed_by_shapes_not_arrays(self, backend):
        """Same structure + same constants = cache hit; array contents are
        runtime data."""
        from tests.guestlib_diff import Reducer

        a1 = np.arange(8.0)
        a2 = np.arange(8.0) * 3
        c1 = jit(Reducer(), "total", a1, backend=backend)
        c2 = jit(Reducer(), "total", a2, backend=backend)
        assert c2.report.cache_hit
        assert c1.invoke().value == pytest.approx(a1.sum())
        assert c2.invoke().value == pytest.approx(a2.sum())

    def test_cache_miss_on_constant_change(self, backend):
        clear_code_cache()
        c1 = jit(Sweeper(ScaleAddSolver(0.5), 8), "run", 2, backend=backend)
        c2 = jit(Sweeper(ScaleAddSolver(0.75), 8), "run", 2, backend=backend)
        assert not c2.report.cache_hit

    def test_cache_miss_on_opt_level(self):
        from repro.backends.cbackend import compiler_available

        if not compiler_available():
            pytest.skip("no cc")
        clear_code_cache()
        jit(Sweeper(ScaleAddSolver(0.5), 8), "run", 2, backend="c",
            opt=OptLevel.FULL)
        c2 = jit(Sweeper(ScaleAddSolver(0.5), 8), "run", 2, backend="c",
                 opt=OptLevel.DEVIRT)
        assert not c2.report.cache_hit

    def test_use_cache_false_recompiles(self, backend):
        jit(Sweeper(ScaleAddSolver(0.5), 8), "run", 2, backend=backend)
        c2 = jit(Sweeper(ScaleAddSolver(0.5), 8), "run", 2, backend=backend,
                 use_cache=False)
        assert not c2.report.cache_hit


class TestConfiguration:
    def test_set4mpi_validation(self, backend):
        code = jit4mpi(RingExchanger(4), "run", 1, backend=backend)
        with pytest.raises(JitError):
            code.set4mpi(0)

    def test_set4mpi_chains(self, backend):
        code = jit4mpi(RingExchanger(4), "run", 1, backend=backend)
        assert code.set4mpi(3) is code
        assert code.nranks == 3

    def test_unknown_backend(self):
        with pytest.raises(JitError):
            jit(Sweeper(ScaleAddSolver(0.5), 4), "run", 1, backend="rust")

    def test_auto_backend_selects_something(self):
        code = jit(Sweeper(ScaleAddSolver(0.5), 4), "run", 1, backend="auto",
                   use_cache=False)
        assert code.report.backend in ("c", "py")
        assert code.invoke().value is not None

    def test_gpu_model_auto_bound_for_gpu_programs(self, backend):
        code = jit4gpu(Saxpy(2.0), "run", 8, 4, backend=backend,
                       use_cache=False)
        assert code.gpu_model is not None
        code2 = jit(Sweeper(ScaleAddSolver(0.5), 4), "run", 1,
                    backend=backend, use_cache=False)
        assert code2.gpu_model is None  # no kernels -> no device model


class TestInvocationContract:
    def test_invoke_is_repeatable(self, backend):
        code = jit(Sweeper(ScaleAddSolver(0.5), 8), "run", 2, backend=backend)
        v1 = code.invoke().value
        v2 = code.invoke().value
        assert v1 == v2  # fresh deep copies per invocation

    def test_per_rank_fresh_memory_spaces(self, backend):
        code = jit4mpi(RingExchanger(4), "run", 2, backend=backend)
        code.set4mpi(3)
        r1 = code.invoke()
        r2 = code.invoke()
        for a, b in zip(r1.outputs, r2.outputs):
            assert np.array_equal(a["buf"], b["buf"])

    def test_result_fields(self, backend):
        code = jit4mpi(RingExchanger(4), "run", 1, backend=backend)
        res = code.set4mpi(2).invoke()
        assert len(res.returns) == 2
        assert len(res.outputs) == 2
        assert res.sim_time >= 0
        assert res.wall_s > 0
        assert res.value == res.returns[0]

    def test_source_property(self, backend):
        code = jit(Sweeper(ScaleAddSolver(0.5), 4), "run", 1, backend=backend,
                   use_cache=False)
        assert isinstance(code.source, str) and len(code.source) > 100


class TestReport:
    def test_compile_time_breakdown(self):
        from repro.backends.cbackend import compiler_available

        if not compiler_available():
            pytest.skip("no cc")
        clear_code_cache()
        code = jit(Sweeper(ScaleAddSolver(0.5), 8), "run", 2, backend="c",
                   use_cache=False)
        assert code.report.translate_s > 0
        assert code.report.backend_compile_s > 0  # gcc actually ran
        assert code.report.total_s == pytest.approx(
            code.report.translate_s + code.report.backend_compile_s
        )
