"""Structure of the flat Python the py backend emits, and the data
representation it runs on (list-backed array slots, prologue bindings)."""

import ast
import copy
import hashlib
import json
import os
import struct
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from repro import jit, jit4gpu, jit4mpi
from repro.errors import GuestRuntimeError
from repro.jit import cache as code_cache
from repro.jit.runtime import RuntimeEnv
from repro.mpi.launcher import mpirun

from tests import guestlib_pyslots as gs
from tests.guestlib import PairUser, Saxpy, ScaleAddSolver, Sweeper

REPO_ROOT = Path(__file__).resolve().parent.parent


def source(app, method, *args):
    return jit(app, method, *args, backend="py", use_cache=False).source


class TestEmission:
    def test_flat_functions_no_classes(self):
        src = source(Sweeper(ScaleAddSolver(0.5), 8), "run", 2)
        assert "class " not in src
        assert src.count("def ") >= 3  # solve, run, __entry

    def test_devirtualized_names(self):
        src = source(Sweeper(ScaleAddSolver(0.5), 8), "run", 2)
        assert "wj_ScaleAddSolver_solve" in src

    def test_constants_folded(self):
        src = source(Sweeper(ScaleAddSolver(0.5), 8), "run", 2)
        assert "0.5" in src
        assert "__snap.self_solver" not in src  # scalar fields fully gone

    def test_constant_arguments_fold_whole_program(self):
        # recorded scalar args are constants: the entire Pair dance folds
        src = source(PairUser(), "run", 3.0, 4.0)
        assert "49.0" in src
        assert "Pair(" not in src

    def test_dynamic_objects_are_tuples(self):
        import numpy as np

        from tests.guestlib_diff import PairMapper

        xs = np.arange(4.0)
        src = source(PairMapper(), "dots", xs, xs.copy(), xs.copy())
        assert "[0]" in src or "[1]" in src  # tuple field indexing
        assert "Pair(" not in src            # no class instantiation

    def test_entry_wrapper(self):
        src = source(Sweeper(ScaleAddSolver(0.5), 8), "run", 2)
        assert "def __entry(__env, __snap, __arrays):" in src

    def test_kernel_gets_geometry_param(self):
        src = jit4gpu(Saxpy(2.0), "run", 8, 4, backend="py",
                      use_cache=False).source
        assert "__geo" in src
        assert "launch_kernel" in src

    def test_compiles_and_runs(self):
        code = jit(Sweeper(ScaleAddSolver(0.5), 8), "run", 2, backend="py",
                   use_cache=False)
        assert code.invoke().value == pytest.approx(code.invoke().value)


# ---------------------------------------------------------------------------
# data representation: list-backed array slots, prologue bindings
# ---------------------------------------------------------------------------

def _bits(v) -> bytes:
    return struct.pack("<d", float(v))


def _py(app, method, *args, compile_with=jit):
    return compile_with(app, method, *args, backend="py", use_cache=False)


def _slots(code) -> dict:
    return code.report.opt_stats["py_slots"]


def _run_directly(code):
    """``compiled.run`` on the recorded arrays, without the launcher around
    it."""
    arrays = [s.array for s in code.program.snapshot.array_slots]
    return code.compiled.run(RuntimeEnv(None), arrays)


def _snap_loads_in_loops(src: str) -> list[str]:
    """Every ``__snap.<obj>.<field>`` load lexically inside a loop body."""
    found = []
    for loop in ast.walk(ast.parse(src)):
        if not isinstance(loop, (ast.For, ast.While)):
            continue
        for stmt in loop.body:
            for node in ast.walk(stmt):
                if (isinstance(node, ast.Attribute)
                        and isinstance(node.value, ast.Attribute)
                        and isinstance(node.value.value, ast.Name)
                        and node.value.value.id == "__snap"):
                    found.append(ast.unparse(node))
    return found


class TestArraySlots:
    def test_swapped_buffers_keep_the_namespace_load(self):
        """``front``/``back`` are rebound by a FieldStore every step: they
        stay ndarrays read through ``__snap`` at each use, while the
        never-rebound ``w`` is a list bound once in the prologue."""
        want = gs.make_swap_stencil().run(5)
        code = _py(gs.make_swap_stencil(), "run", 5)
        res = code.invoke()
        assert _bits(res.value) == _bits(want)
        assert _slots(code) == {"0": "ndarray:unknown-alias",
                                "1": "ndarray:unknown-alias", "2": "list"}
        assert "= __snap.self.w\n" in code.source
        assert "__snap.self.front = " in code.source
        loads = set(_snap_loads_in_loops(code.source))
        assert loads and loads <= {"__snap.self.front", "__snap.self.back"}
        assert res.output("front").dtype == np.float64

    def test_no_snapshot_load_of_a_stable_field_inside_a_loop(self):
        from repro.library.cgsolve.config import make_solver
        from repro.library.nbody.config import make_system

        for app, method, arg in ((make_system(6), "run", 3),
                                 (make_solver(4, 4), "solve", 5)):
            src = source(app, method, arg)
            assert "__snap." in src  # the prologues
            assert _snap_loads_in_loops(src) == []

    def test_slot_sent_over_mpi_stays_an_ndarray(self):
        def make():
            return gs.HaloSlots(np.zeros(6), np.zeros(6), np.arange(6.0) / 7.0)

        ranks = [copy.deepcopy(make()) for _ in range(2)]
        want = mpirun(2, lambda ctx: ranks[ctx.rank].run(3)).returns
        code = _py(make(), "run", 3, compile_with=jit4mpi).set4mpi(2)
        res = code.invoke()
        assert [_bits(v) for v in res.returns] == [_bits(v) for v in want]
        assert res.output("inner", rank=1).tobytes() == ranks[1].inner.tobytes()
        assert _slots(code) == {"0": "ndarray:escapes:mpi.sendrecv",
                                "1": "ndarray:escapes:mpi.sendrecv",
                                "2": "list"}

    def test_dgemm_operands_stay_ndarrays(self):
        def make():
            rng = np.random.default_rng(0)
            return gs.GemmSlots(rng.random(16), rng.random(16), np.zeros(16),
                                rng.random(4))

        code = _py(make(), "run", 4)
        assert _bits(code.invoke().value) == _bits(make().run(4))
        assert _slots(code) == {"0": "ndarray:escapes:wj.dgemm",
                                "1": "ndarray:escapes:wj.dgemm",
                                "2": "ndarray:escapes:wj.dgemm", "3": "list"}

    def test_kernel_launch_argument_stays_an_ndarray(self):
        code = _py(gs.KernelSlots(np.arange(8.0), np.arange(8.0) / 3.0),
                   "run", 8, compile_with=jit4gpu)
        want = sum(2.0 * i + i / 3.0 for i in range(8))
        assert code.invoke().value == pytest.approx(want, rel=1e-15)
        assert _slots(code) == {"0": "ndarray:escapes:kernel-launch",
                                "1": "list"}

    def test_escape_of_an_unknown_slot_keeps_every_slot(self):
        code = _py(gs.MergedEscape(np.ones(4), np.zeros(4)), "run", 4,
                   compile_with=jit4mpi).set4mpi(2)
        assert code.invoke().returns == [4.0, 4.0]
        assert set(_slots(code).values()) == {"ndarray:unknown-alias"}

    def test_one_slot_per_rule_and_typed_outputs(self):
        """f64/i64 run as lists, f32 keeps NumPy's rounding, a slot no loop
        indexes is left alone; every output has its slot's dtype — also the
        empty one, where a bare list carries no type at all."""
        host = gs.make_mixed()
        want = host.run(5)
        code = _py(gs.make_mixed(), "run", 5)
        res = code.invoke()
        assert _bits(res.value) == _bits(want)
        assert _slots(code) == {
            "0": "list", "1": "list", "2": "ndarray:dtype", "3": "list",
            "4": "ndarray:no-loop-access"}
        for label, ref in (("xs", host.xs), ("ks", host.ks),
                           ("hs", host.hs), ("none", host.none)):
            out = res.output(label)
            assert isinstance(out, np.ndarray) and out.dtype == ref.dtype
            assert out.tobytes() == ref.tobytes()

    def test_run_leaves_its_arguments_untouched(self, backend):
        """``compiled.run(env, arrays)`` writes memory only its call holds,
        on both backends: the program stores to a list slot, an ndarray
        slot and reads an empty one, its outputs are what CPython left in
        the host arrays, and the arrays passed in keep their bytes."""
        host = gs.make_mixed()
        host.run(5)  # CPython mutates the host arrays in place
        code = jit(gs.make_mixed(), "run", 5, backend=backend,
                   use_cache=False)
        arrays = [np.array(s.array) for s in code.program.snapshot.array_slots]
        before = [a.tobytes() for a in arrays]
        env = RuntimeEnv(None)
        value = code.compiled.run(env, arrays)
        assert [a.tobytes() for a in arrays] == before
        for label in ("xs", "ks", "hs", "none"):
            ref = getattr(host, label)
            got = env.outputs[label]
            assert got.dtype == ref.dtype and got.tobytes() == ref.tobytes()
        assert _bits(value) == _bits(code.invoke().value)

    def test_bounds_helpers_raise_on_a_list_slot(self, monkeypatch):
        monkeypatch.setenv("REPRO_BOUNDS", "1")
        code = _py(gs.OutOfRange(np.arange(4.0)), "run", 4)
        assert _slots(code) == {"0": "list"}
        assert "__wj_ld(" in code.source
        with pytest.raises(GuestRuntimeError, match="index -2 not in"):
            _run_directly(code)

    def test_zero_divisor_read_from_a_list_slot_raises(self):
        """The one semantic edge of list slots (docs/OPTIMIZER.md): NumPy's
        scalar division gave ``inf`` and a RuntimeWarning here; an unboxed
        float divisor raises, as every other float divisor on this tier
        always has."""
        code = _py(gs.ZeroDivisor(np.array([1.0, 0.0])), "run", 2)
        assert _slots(code) == {"0": "list"}
        with pytest.raises(ZeroDivisionError):
            _run_directly(code)

    def test_decisions_are_persisted_and_listed(self, capsys):
        from repro.__main__ import main

        code = jit(gs.make_mixed(), "run", 5, backend="py")
        digest = code.report.key_digest
        assert code_cache.py_slot_decisions()[digest] == _slots(code)
        code_cache.clear_memory()
        warm = jit(gs.make_mixed(), "run", 5, backend="py")
        assert warm.report.cache_tier == "disk"
        assert _slots(warm) == _slots(code)
        assert main(["jit", "stats"]) == 0
        assert f"py slots {digest[:12]}: 0=list, 1=list, 2=ndarray:dtype" \
            in capsys.readouterr().out
        assert main(["jit", "stats", "--json"]) == 0
        assert json.loads(capsys.readouterr().out)["py_slots"][digest] \
            == _slots(code)


_ROUND_TRIP = """
import json, sys
sys.path.insert(0, {root!r})
from repro import jit
from tests.guestlib_pyslots import make_mixed
code = jit(make_mixed(), "run", 5, backend="py")
res = code.invoke()
print(json.dumps({{"tier": code.report.cache_tier, "value": res.value,
                   "slots": code.report.opt_stats["py_slots"],
                   "ks": res.output("ks").tolist(),
                   "none": str(res.output("none").dtype)}}))
"""


class TestDiskTier:
    def _child(self, cache_root) -> dict:
        env = dict(os.environ, REPRO_CACHE_DIR=str(cache_root),
                   PYTHONPATH=os.pathsep.join(
                       [str(REPO_ROOT / "src"),
                        os.environ.get("PYTHONPATH", "")]))
        proc = subprocess.run(
            [sys.executable, "-c", _ROUND_TRIP.format(root=str(REPO_ROOT))],
            capture_output=True, text=True, env=env, timeout=300)
        assert proc.returncode == 0, proc.stderr[-4000:]
        return json.loads(proc.stdout.strip().splitlines()[-1])

    def test_fresh_process_round_trip(self, tmp_path):
        """The source alone tells a fresh interpreter which slots are
        lists."""
        cold = self._child(tmp_path / "cache")
        warm = self._child(tmp_path / "cache")
        assert cold["tier"] == "" and warm["tier"] == "disk"
        assert warm == dict(cold, tier="disk")
        assert warm["slots"]["0"] == "list" and warm["none"] == "int64"

    def test_entry_of_the_previous_format_is_recompiled(self):
        """A py entry written before list slots existed has no
        ``__list_slots``; it is dropped and rebuilt, never hydrated."""
        code = jit(gs.make_mixed(), "run", 5, backend="py")
        want = code.invoke().value
        root, digest = code_cache.cache_dir(), code.report.key_digest
        jpath, spath, *_ = map(Path, code_cache._entry_paths(root, digest))
        meta = json.loads(jpath.read_text())
        assert meta["v"] == code_cache._FORMAT_VERSION >= 3
        old = "\n".join(line for line in spath.read_text().splitlines()
                        if not line.startswith("__")) + "\n"
        spath.write_text(old)
        meta.update(v=2, sha_src=hashlib.sha256(old.encode()).hexdigest())
        jpath.write_text(json.dumps(meta))
        code_cache.clear_memory()
        again = jit(gs.make_mixed(), "run", 5, backend="py")
        assert not again.report.cache_hit
        assert again.invoke().value == want
        assert json.loads(jpath.read_text())["v"] == code_cache._FORMAT_VERSION
