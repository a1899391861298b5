"""Core JIT pipeline: devirtualization, object inlining, memory-space
semantics, optimization levels."""

import numpy as np
import pytest

from repro import OptLevel, jit
from repro.errors import JitError

from tests.conftest import requires_cc
from tests.guestlib import (
    PairUser,
    ScaleAddSolver,
    SquareSolver,
    Sweeper,
)


def sweeper_reference(a: float, n: int, iters: int) -> tuple[float, np.ndarray]:
    arr = np.ones(n, dtype=np.float32)
    for _ in range(iters):
        for i in range(n):
            arr[i] = np.float32(arr[i] * np.float32(a) + np.float32(float(i)))
    return float(arr.sum()), arr


class TestSweeper:
    def test_matches_reference(self, backend):
        app = Sweeper(ScaleAddSolver(0.5), 8)
        code = jit(app, "run", 2, backend=backend, use_cache=False)
        res = code.invoke()
        ref_sum, ref_arr = sweeper_reference(0.5, 8, 2)
        assert res.value == pytest.approx(ref_sum, rel=1e-6)
        assert np.allclose(res.output("arr"), ref_arr)

    def test_matches_interpreted_execution(self, backend):
        """The same library runs unmodified under CPython (paper §4.4)."""
        import repro.rt as rt

        app = Sweeper(ScaleAddSolver(0.5), 8)
        interp_value = app.run(2)
        rt.current.take_outputs()
        app2 = Sweeper(ScaleAddSolver(0.5), 8)
        res = jit(app2, "run", 2, backend=backend, use_cache=False).invoke()
        assert res.value == pytest.approx(interp_value, rel=1e-6)

    def test_devirtualization_by_component_swap(self, backend):
        """Swapping the injected Solver changes the translated behaviour —
        dispatch is resolved from the actual composed object."""
        sq = jit(Sweeper(SquareSolver(), 4), "run", 3, backend=backend,
                 use_cache=False).invoke()
        assert sq.value == pytest.approx(4.0)  # 1^8 per cell
        sa = jit(Sweeper(ScaleAddSolver(2.0), 4), "run", 1, backend=backend,
                 use_cache=False).invoke()
        assert sa.value == pytest.approx(sum(1 * 2.0 + i for i in range(4)))

    def test_mutations_not_copied_back(self, backend):
        """§3.1: translated code runs in a separate memory space; argument
        mutations never appear in host objects."""
        app = Sweeper(ScaleAddSolver(0.5), 8)
        code = jit(app, "run", 2, backend=backend, use_cache=False)
        res = code.invoke()
        assert res.value != 0
        # the host-side composed object is untouched
        assert app.n == 8
        assert app.solver.a == 0.5

    def test_outputs_are_copies(self, backend):
        app = Sweeper(ScaleAddSolver(0.5), 8)
        res = jit(app, "run", 1, backend=backend, use_cache=False).invoke()
        out = res.output("arr")
        out[:] = -1
        # a second fetch of the same invocation's output is not poisoned
        assert np.all(res.output("arr") == -1)  # same object by design
        res2 = jit(app, "run", 1, backend=backend, use_cache=False).invoke()
        assert not np.any(res2.output("arr") == -1)

    def test_constant_folding_in_source(self, backend):
        """Object inlining: immutable field values appear as literals and
        the snapshot objects vanish from the generated code."""
        app = Sweeper(ScaleAddSolver(0.5), 8)
        code = jit(app, "run", 2, backend=backend, use_cache=False)
        src = code.source
        assert "0.5" in src
        assert "solver" not in src  # the field is gone — inlined away

    def test_report_populated(self, backend):
        app = Sweeper(ScaleAddSolver(0.5), 8)
        code = jit(app, "run", 2, backend=backend, use_cache=False)
        assert code.report.n_specializations >= 2
        assert code.report.translate_s > 0
        assert code.report.backend == backend

    def test_call_sites_count_kept_lowerings_only(self):
        """Loop-fixpoint trials that are thrown away number no call site: a
        call at the bottom of a 3-deep nest is one site, as outside a loop
        (it used to be counted once per discarded trial of every level)."""
        from tests.guestlib_misc import SiteCounter

        flat = jit(SiteCounter(), "flat", 3, backend="py", use_cache=False)
        nested = jit(SiteCounter(), "nested", 3, backend="py",
                     use_cache=False)
        assert nested.invoke().value == 27
        assert flat.report.n_call_sites == 1
        assert nested.report.n_call_sites == flat.report.n_call_sites
        assert nested.program.n_sites == 1

    def test_code_cache_hit(self, backend):
        app = Sweeper(ScaleAddSolver(0.5), 8)
        code1 = jit(app, "run", 2, backend=backend)
        code2 = jit(app, "run", 2, backend=backend)
        assert code2.report.cache_hit
        assert code2.invoke().value == pytest.approx(code1.invoke().value)

    def test_different_arg_values_are_different_programs(self, backend):
        """The paper records the actual arguments and bakes them in; a
        different problem size is a different specialization."""
        r1 = jit(Sweeper(ScaleAddSolver(0.5), 4), "run", 1,
                 backend=backend).invoke()
        r2 = jit(Sweeper(ScaleAddSolver(0.5), 8), "run", 1,
                 backend=backend).invoke()
        assert len(r1.output("arr")) == 4
        assert len(r2.output("arr")) == 8


class TestDynamicObjects:
    def test_object_inlining_of_locals(self, backend):
        app = PairUser()
        res = jit(app, "run", 3.0, 4.0, backend=backend, use_cache=False)
        # (3+4, 4+3) . (3,4) = 7*3 + 7*4 = 49
        assert res.invoke().value == pytest.approx(49.0)

    def test_non_wootin_receiver_rejected(self):
        class Plain:
            def run(self):
                return 0

        with pytest.raises(JitError):
            jit(Plain(), "run")

    def test_unknown_method_rejected(self):
        with pytest.raises(JitError):
            jit(PairUser(), "nope")


@requires_cc
class TestOptLevels:
    @pytest.mark.parametrize("opt", list(OptLevel))
    def test_all_levels_agree(self, opt):
        app = Sweeper(ScaleAddSolver(0.5), 8)
        res = jit(app, "run", 2, backend="c", opt=opt, use_cache=False).invoke()
        ref_sum, _ = sweeper_reference(0.5, 8, 2)
        assert res.value == pytest.approx(ref_sum, rel=1e-6)

    def test_virtual_emits_dispatch_tables(self):
        app = Sweeper(ScaleAddSolver(0.5), 8)
        code = jit(app, "run", 2, backend="c", opt=OptLevel.VIRTUAL,
                   use_cache=False)
        assert "volatile" in code.source
        assert "wj_bind" in code.source

    def test_devirt_keeps_runtime_scalar_loads(self):
        app = Sweeper(ScaleAddSolver(0.5), 8)
        code = jit(app, "run", 2, backend="c", opt=OptLevel.DEVIRT,
                   use_cache=False)
        # the coefficient is loaded from the snapshot state, not folded
        assert "/* self.solver.a */" in code.source

    def test_full_folds_scalars(self):
        app = Sweeper(ScaleAddSolver(0.5), 8)
        code = jit(app, "run", 2, backend="c", opt=OptLevel.FULL,
                   use_cache=False)
        assert "/* self.solver.a */" not in code.source
        assert "0.5f" in code.source
