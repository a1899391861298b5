"""Structure of the generated C per optimization level (paper Listing 5)."""

import json
import os
import re
import shutil
import subprocess
import sys
import threading
from pathlib import Path

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

    def test_concurrent_same_source_builds(self):
        """Four threads compiling one program: every build succeeds with the
        same value."""
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


class TestFreshBuilds:
    """The code cache is the only artifact cache: a build always runs the
    compiler, into a directory its process removes at exit."""

    def test_uncached_jit_always_runs_cc(self):
        for _ in range(2):
            code = jit(Sweeper(ScaleAddSolver(0.5), 8), "run", 2,
                       backend="c", use_cache=False)
            assert code.report.backend_compile_s > 0
            assert code.report.build_stats["compile_s"] > 0

    def test_a_process_leaves_no_build_files(self, tmp_path):
        got = _in_fresh_process(_JIT_ONCE, tmp_path)
        assert got["so_files"] == 1 and got["mode"] == "single"
        assert list((tmp_path / "tmp").iterdir()) == []

    def test_a_forked_child_keeps_its_parents_builds(self, tmp_path):
        got = _in_fresh_process(_FORK_AND_BUILD, tmp_path)
        assert got == {"child_exit": 0, "parent_so_exists": True,
                       "so_files": 1}
        assert list((tmp_path / "tmp").iterdir()) == []


_REPO = Path(__file__).resolve().parents[1]

#: the .so files under the build root of the process (<TMPDIR>/*/<build>/)
_SO_FILES = "len(list(Path(tempfile.gettempdir()).glob('*/*/*.so')))"

_JIT_ONCE = f"""
import json, tempfile
from pathlib import Path
from repro import jit
from tests.guestlib import ScaleAddSolver, Sweeper

code = jit(Sweeper(ScaleAddSolver(0.5), 8), "run", 2, backend="c",
           use_cache=False)
print(json.dumps({{"mode": code.report.build_stats["mode"],
                  "so_files": {_SO_FILES}}}))
"""

#: the parent builds, then a forked child builds and exits normally (its
#: atexit handlers run); the parent's .so must survive that exit
_FORK_AND_BUILD = f"""
import json, os, sys, tempfile
from pathlib import Path
from repro.backends.base import OptLevel
from repro.backends.cbackend.build import build_shared_object

src = "int wj_probe(void) {{ return 1; }}"
mine, _ = build_shared_object(src, OptLevel.FULL)
pid = os.fork()
if pid == 0:
    theirs, _ = build_shared_object(src, OptLevel.FULL)
    sys.exit(0 if theirs.parents[1] != mine.parents[1] else 3)
_, status = os.waitpid(pid, 0)
print(json.dumps({{"child_exit": os.waitstatus_to_exitcode(status),
                  "parent_so_exists": mine.exists(),
                  "so_files": {_SO_FILES}}}))
"""


def _in_fresh_process(script: str, tmp_path) -> dict:
    """Run ``script`` in a new interpreter whose TMPDIR is ``tmp_path/tmp``;
    returns the JSON its last line printed."""
    tmp = tmp_path / "tmp"
    tmp.mkdir()
    env = dict(os.environ, TMPDIR=str(tmp),
               REPRO_CACHE_DIR=str(tmp_path / "code"))
    env["PYTHONPATH"] = os.pathsep.join(
        [str(_REPO / "src"), str(_REPO), env.get("PYTHONPATH", "")])
    proc = subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr[-4000:]
    return json.loads(proc.stdout.strip().splitlines()[-1])
