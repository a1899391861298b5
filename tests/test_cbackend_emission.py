"""Structure of the generated C per optimization level (paper Listing 5)."""

import re
import shutil
import subprocess
import threading

import pytest

from repro import OptLevel, jit, jit4gpu, jit4mpi

from tests.conftest import requires_cc
from tests.guestlib import RingExchanger, Saxpy, ScaleAddSolver, Sweeper

pytestmark = requires_cc


def source(app, method, *args, opt=OptLevel.FULL, factory=jit):
    return factory(app, method, *args, backend="c", opt=opt,
                   use_cache=False).source


class TestFullOptimization:
    def test_devirtualized_direct_calls(self):
        src = source(Sweeper(ScaleAddSolver(0.5), 8), "run", 2)
        assert "wj_ScaleAddSolver_solve" in src
        assert "volatile" not in src  # no dispatch machinery at FULL

    def test_snapshot_fields_folded_to_literals(self):
        src = source(Sweeper(ScaleAddSolver(0.5), 8), "run", 2)
        assert "0.5f" in src
        assert "INT64_C(8)" in src  # self.n baked in

    def test_entry_args_recorded_and_baked(self):
        src = source(Sweeper(ScaleAddSolver(0.5), 8), "run", 7)
        assert "INT64_C(7)" in src

    def test_snap_struct_empty_when_everything_inlined(self):
        src = source(Sweeper(ScaleAddSolver(0.5), 8), "run", 2)
        assert "int _empty;" in src.split("typedef struct WjSnap", 1)[1]


class TestVirtualMode:
    def test_dispatch_tables_and_bind(self):
        src = source(Sweeper(ScaleAddSolver(0.5), 8), "run", 2,
                     opt=OptLevel.VIRTUAL)
        assert "void* volatile t" in src
        assert "wj_bind" in src
        assert "snap->t" in src  # indirect call through the table

    def test_scalars_become_runtime_loads(self):
        src = source(Sweeper(ScaleAddSolver(0.5), 8), "run", 2,
                     opt=OptLevel.VIRTUAL)
        assert "/* self.solver.a */" in src
        assert "/* entry.iters */" in src  # entry args are runtime too


class TestDevirtMode:
    def test_direct_calls_but_runtime_fields(self):
        src = source(Sweeper(ScaleAddSolver(0.5), 8), "run", 2,
                     opt=OptLevel.DEVIRT)
        assert "volatile" not in src
        assert "/* self.solver.a */" in src


class TestPlatformEmission:
    def test_mpi_intrinsics_are_single_calls(self):
        code = jit4mpi(RingExchanger(4), "run", 1, backend="c",
                       use_cache=False)
        src = code.source
        assert "wj_mpi_sendrecv_F64(env," in src
        assert "env->mpi_allreduce_sum(env->h," in src
        assert "env->mpi_barrier(env->h)" in src

    def test_kernel_launch_is_loop_nest(self):
        src = jit4gpu(Saxpy(2.0), "run", 16, 4, backend="c",
                      use_cache=False).source
        assert "env->kernel_begin(env->h);" in src
        assert "env->kernel_end(env->h);" in src
        assert "__g.tx" in src
        assert "_dev(" in src  # device-mode specialization

    def test_gpu_copies_metered(self):
        src = jit4gpu(Saxpy(2.0), "run", 16, 4, backend="c",
                      use_cache=False).source
        assert "wj_gpu_copy_F32" in src

    def test_output_labels_escaped(self):
        src = source(Sweeper(ScaleAddSolver(0.5), 4), "run", 1)
        assert 'wj_output_F32(env, "arr"' in src


class TestNumericEmission:
    def test_python_division_helpers(self):
        from tests.guestlib_numeric import Numerics

        src_fd = source(Numerics(), "floordiv", 7, 2)
        assert "wj_floordiv_i64" in src_fd
        src_m = source(Numerics(), "mod", 7, 2)
        assert "wj_mod_i64" in src_m

    def test_constant_arguments_fold_through_division(self):
        from tests.guestlib_numeric import Numerics

        # the recorded arguments are constants, so 7/2 folds at translation
        src = source(Numerics(), "truediv", 7, 2)
        assert "3.5" in src

    def test_true_division_promotes_to_double(self):
        import numpy as np

        from tests.guestlib_diff import FloatOps

        a = np.ones(4)
        src = source(FloatOps(), "apply", a, a, a.copy(), 2)
        assert "(double)" in src

    def test_snap_size_exported(self):
        src = source(Sweeper(ScaleAddSolver(0.5), 8), "run", 2)
        assert "int64_t wj_snap_size(void)" in src
        assert "void wj_entry(WjEnv* env" in src


_SPEC_SYMBOL = re.compile(r"\bwj_[A-Z]\w*_\w+_\d+\b")


class TestOneStaticUnit:
    def test_specializations_are_static(self):
        src = source(Sweeper(ScaleAddSolver(0.5), 8), "run", 2)
        # column-0 lines naming a specialization are its prototype and its
        # definition; call sites are indented
        heads = [line for line in src.splitlines()
                 if _SPEC_SYMBOL.search(line) and not line.startswith(" ")]
        assert len(heads) >= 4
        assert all(line.startswith("static ") for line in heads), heads

    @pytest.mark.skipif(shutil.which("nm") is None, reason="nm not found")
    def test_only_entry_points_are_exported(self):
        code = jit(Sweeper(ScaleAddSolver(0.5), 8), "run", 2, backend="c",
                   use_cache=False)
        out = subprocess.run(
            ["nm", "-D", "--defined-only", str(code.compiled.so_path)],
            capture_output=True, text=True, check=True).stdout
        assert "wj_entry" in out and "wj_snap_size" in out
        assert not _SPEC_SYMBOL.search(out), out
        assert "wj_oob_count\n" not in out

    def test_concurrent_same_source_builds(self, tmp_path, monkeypatch):
        """Four threads compiling one program on a fresh cc cache: every
        build succeeds with the same value and no temporary is left."""
        cc_cache = tmp_path / "cc"
        monkeypatch.setenv("REPRO_CC_CACHE", str(cc_cache))
        results, errors = [], []

        def work():
            try:
                code = jit(Sweeper(ScaleAddSolver(0.5), 64), "run", 3,
                           backend="c", use_cache=False)
                results.append(code.invoke().value)
            except Exception as exc:  # reported by the assert below
                errors.append(exc)

        threads = [threading.Thread(target=work) for _ in range(4)]
        for th in threads:
            th.start()
        for th in threads:
            th.join(timeout=120)
        assert not any(th.is_alive() for th in threads)
        assert not errors, errors
        assert len(results) == 4 and len(set(results)) == 1
        left = sorted(p.name for p in cc_cache.iterdir())
        assert all(n.endswith(".so") and ".tmp" not in n for n in left), left


class TestCompileCache:
    def test_so_cache_hit(self):
        from repro.backends.cbackend.build import build_shared_object
        from repro.backends.base import OptLevel as OL

        src = "int wj_cache_probe(void){ return 42; }"
        p1, _ = build_shared_object(src, OL.FULL)
        p2, stats2 = build_shared_object(src, OL.FULL)
        assert p1 == p2
        assert stats2.cached is True and stats2.mode == "cached"

    def test_different_flags_different_artifacts(self):
        from repro.backends.cbackend.build import build_shared_object
        from repro.backends.base import OptLevel as OL

        src = "int wj_cache_probe2(void){ return 43; }"
        p1, _ = build_shared_object(src, OL.FULL)
        p2, _ = build_shared_object(src, OL.VIRTUAL)
        assert p1 != p2
