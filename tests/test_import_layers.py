"""The import layers (DESIGN.md, "Import layers").

The package is split along the line the cache draws.  The **hit path** —
``import repro``, ``jit()`` served from the disk tier, ``invoke()``, the
``repro cache`` CLI — must not import the **compile stack** (IR, lowering,
rule checking, verifier, specializer, the mid-end, both emitters); the first
miss imports it, at ``engine._translate`` / ``CBackend.compile`` /
``PyBackend.compile``.  Every probe runs in a fresh interpreter, because
``sys.modules`` of the test process has long since loaded everything.

Also pinned here: moving the cache-key knob readers into ``repro.env`` must
not re-key anyone's cache.
"""

from __future__ import annotations

import hashlib
import importlib.util
import json
import os
import platform
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from repro.backends.base import OptLevel
from repro.backends.cbackend.build import cc_version
from repro.frontend.objectgraph import snapshot_args
from repro.jit import cache as code_cache
from repro.jit import engine, service
from repro.library.cgsolve.config import make_solver

from tests.conftest import requires_cc

SRC_ROOT = str(Path(__file__).resolve().parents[1] / "src")

#: the compile stack, as a regex over module names — the child scripts below
#: share it
_STACK_RE = (r"repro\.(frontend\.(ir|lower|rules|verify|source)"
             r"|jit\.specialize|opt(\.|$)"
             r"|backends\.cbackend\.(emit|prelude)"
             r"|backends\.pybackend\.emit)")

_PRELUDE = f"""
import json, re, sys
_STACK = re.compile({_STACK_RE!r})
def stack():
    return sorted(m for m in sys.modules if _STACK.match(m))
"""

#: ``import repro``, a jit() + invoke() of one program (a disk hit on the
#: second run against the same cache directory), then a *different* program
#: (``argv[2]`` sizes it) with eight threads racing its first miss
_HIT_THEN_MISS = _PRELUDE + r"""
import copy, threading
import repro
after_import = stack()
from repro import jit
from repro.library.cgsolve.config import make_solver

backend, n = sys.argv[1], int(sys.argv[2])
code = jit(make_solver(5, 5, precond="jacobi"), "solve", 3, backend=backend)
value = code.invoke().value
after_invoke = stack()

want = copy.deepcopy(make_solver(n, n, precond="jacobi")).solve(4)
barrier = threading.Barrier(8)
got, errors = [None] * 8, []
def race(i):
    try:
        barrier.wait(timeout=60)
        cold = jit(make_solver(n, n, precond="jacobi"), "solve", 4,
                   backend=backend)
        got[i] = (cold.report.cache_tier, cold.invoke().value == want)
    except BaseException as exc:
        errors.append(repr(exc))
threads = [threading.Thread(target=race, args=(i,)) for i in range(8)]
for t in threads:
    t.start()
for t in threads:
    t.join(timeout=240)
print(json.dumps({
    "after_import": after_import, "after_invoke": after_invoke,
    "tier": code.report.cache_tier, "value": value,
    "interp": copy.deepcopy(make_solver(5, 5, precond="jacobi")).solve(3),
    "alive": [t.is_alive() for t in threads], "errors": errors,
    "cold": got,
    "after_miss": stack(),
}))
"""

_CLI_STATS = _PRELUDE + r"""
from repro.__main__ import main
rc = main(["cache", "stats"])
print(json.dumps({"rc": rc, "stack": stack()}))
"""


#: jit one C stencil and invoke it (its ``wj.output`` is the process's first
#: callback, which calibrates); report the shared objects the process built
_ONE_STENCIL = r"""
import json, tempfile
from pathlib import Path
from repro import jit
from repro.library.stencil import (
    EmptyContext, SineGen, StencilCPU3D, ThreeDIndexer)
from repro.library.stencil.config import make_dif3d_solver, make_grid3d
from repro.mpi import calibrate

app = StencilCPU3D(make_dif3d_solver(), make_grid3d(8, 8, 10),
                   ThreeDIndexer(8, 8, 10), SineGen(8, 8, 8, 1),
                   EmptyContext())
code = jit(app, "run", 2, backend="c")
code.invoke()
print(json.dumps({"mode": code.report.build_stats["mode"],
                  "calibrated": calibrate._cached is not None,
                  "built": sorted(p.name for p in Path(
                      tempfile.gettempdir()).glob("*/*/*.so"))}))
"""


def _child(script: str, cache_root: Path, *argv: str) -> dict:
    env = dict(os.environ)
    env["REPRO_CACHE_DIR"] = str(cache_root / "code")
    env["TMPDIR"] = str(cache_root / "tmp")
    (cache_root / "tmp").mkdir(exist_ok=True)
    env["PYTHONPATH"] = f"{SRC_ROOT}{os.pathsep}{env.get('PYTHONPATH', '')}"
    proc = subprocess.run([sys.executable, "-c", script, *argv], env=env,
                          capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stderr[-4000:]
    return json.loads(proc.stdout.strip().splitlines()[-1])


class TestHitPathImportsNoCompileStack:
    def test_disk_hit_then_cold_miss_in_one_process(self, backend, tmp_path):
        first = _child(_HIT_THEN_MISS, tmp_path, backend, "6")
        assert first["tier"] == ""  # populated the directory
        second = _child(_HIT_THEN_MISS, tmp_path, backend, "7")
        # (a) import, disk hit and invoke load none of the compile stack
        assert second["after_import"] == []
        assert second["tier"] == "disk"
        assert second["value"] == second["interp"] == first["value"]
        assert second["after_invoke"] == []
        # (b) ... and the laziness does not break the miss path: the same
        # process then compiled another program, its first miss raced by 8
        # threads — one compile, seven served, all bit-exact
        for run in (first, second):
            assert not any(run["alive"]) and not run["errors"], run
            assert sorted(run["cold"]) == [["", True]] + [["memory", True]] * 7
            assert "repro.frontend.lower" in run["after_miss"]

    def test_cache_stats_cli(self, tmp_path):
        got = _child(_CLI_STATS, tmp_path)
        assert got == {"rc": 0, "stack": []}


@requires_cc
def test_fresh_process_compiles_one_translation_unit(tmp_path):
    """The callback-overhead calibration used to be a second ``cc`` run in
    every new process; libc's ``qsort`` makes its callbacks now."""
    got = _child(_ONE_STENCIL, tmp_path)
    assert got["mode"] == "single" and got["calibrated"]
    assert got["built"] == ["wj.so"]


# ---------------------------------------------------------------------------
# the knob readers moved; the keys did not
# ---------------------------------------------------------------------------

_ALL_PASSES = "inline,fold,licm,cse,dce,bce"
#: the backend's own pass set: cse alone on C, every pass on py
_OWN = {"c": "cse", "py": _ALL_PASSES}

#: env -> the (opt_passes, omp, blas, bounds) key material of a FULL
#: program; opt_passes is one token for both backends or one per backend
_KEYED = [
    ({}, (_OWN, "", "", False)),
    ({"REPRO_OPT_PASSES": "fold,dce"}, ("fold,dce", "", "", False)),
    ({"REPRO_OMP": "1"}, (_ALL_PASSES, "omp:v1:fred=off", "", False)),
    ({"REPRO_BLAS": "1"}, (_OWN, "", "blas:on", False)),
    ({"REPRO_BOUNDS": "1"}, (_ALL_PASSES, "", "", True)),
    ({"REPRO_OPT_PASSES": "1"}, (_ALL_PASSES, "", "", False)),
]


def _keyed_id(env: dict) -> str:
    # the variable names, and the value where two rows set the same one
    return ",".join(k + ("=1" if v == "1" and k == "REPRO_OPT_PASSES" else "")
                    for k, v in env.items()) or "default"


@pytest.mark.parametrize("env,tokens", _KEYED,
                         ids=[_keyed_id(e) for e, _ in _KEYED])
def test_program_key_digest_is_the_parents(env, tokens, backend, monkeypatch):
    """The digest equals the formula spelled out here with literal tokens,
    byte for byte — so a change to the knob readers cannot silently re-key
    the cache.  (``_FORMAT_VERSION`` 4 added ``flags``: a disk entry carries
    its own ``.so``, so the flag table keys it.  Unset ``REPRO_OPT_PASSES``
    keys C artifacts with ``cse``, its own pass set, except under
    ``REPRO_OMP=1`` and ``REPRO_BOUNDS=1``.  Version 5's py entry carries
    marshalled bytecode, which another bytecode format could crash on, so
    ``py`` names the interpreter's magic number too.)"""
    for name in ("REPRO_OPT_PASSES", "REPRO_OMP", "REPRO_OMP_REDUCTIONS",
                 "REPRO_BLAS", "REPRO_BOUNDS"):
        monkeypatch.delenv(name, raising=False)
    for name, value in env.items():
        monkeypatch.setenv(name, value)
    solver = make_solver(5, 5, precond="jacobi")
    minfo = engine._resolve_minfo(solver, "solve")
    _, recv_shape, arg_shapes = snapshot_args(solver, (3,))
    key = service._program_key(minfo, recv_shape, arg_shapes,
                               engine._make_backend(backend), OptLevel.FULL)

    opt_passes, omp, blas, bounds = tokens
    if isinstance(opt_passes, dict):
        opt_passes = opt_passes[backend]
    roots = [minfo.owner]
    code_cache._shape_classes(recv_shape, roots)
    native = backend == "c"
    material = {
        "v": 5,
        "repro": repro.__version__,
        "py": f"{sys.version_info[0]}.{sys.version_info[1]}:"
              f"{importlib.util.MAGIC_NUMBER.hex()}",
        "machine": platform.machine(),
        "guest": code_cache.guest_source_digest(roots)[0],
        "method": f"{minfo.owner.qualname}.solve",
        "recv": recv_shape.digest(),
        "args": [s.digest() for s in arg_shapes],
        "backend": backend,
        "opt": "full",
        "opt_passes": opt_passes,
        "omp": omp if native else "",
        "blas": blas if native else "",
        "bounds": bounds,
        "cc": cc_version() if native else "",
        "flags": "-O3 -march=native -funroll-loops" if native else "",
    }
    blob = json.dumps(material, sort_keys=True).encode()
    assert key.digest == hashlib.sha256(blob).hexdigest()
    assert key.persistable
    # a miss builds with the passes the key was digested under
    assert ",".join(key.passes) == opt_passes


def test_flag_table_keys_the_c_cache(monkeypatch):
    """A disk-tier entry carries its own ``.so``, so an edit to the flag
    table must miss it (the flags used to reach only the cc cache's digest:
    the entry built with the old flags was served)."""
    from repro.backends.cbackend.build import FLAG_SETS

    solver = make_solver(5, 5, precond="jacobi")
    minfo = engine._resolve_minfo(solver, "solve")
    _, recv_shape, arg_shapes = snapshot_args(solver, (3,))

    def digest(backend):
        return code_cache.program_key(minfo, recv_shape, arg_shapes,
                                      backend=backend,
                                      opt=OptLevel.FULL).digest

    before = {b: digest(b) for b in ("c", "py")}
    monkeypatch.setitem(FLAG_SETS, OptLevel.FULL, ["-O2", "-march=native"])
    assert digest("c") != before["c"]
    assert digest("py") == before["py"]
