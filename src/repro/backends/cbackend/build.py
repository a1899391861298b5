"""Native build driver: generated C → shared object.

Reproduces the paper's Tables 1 and 2 (compiler options per program
variant): each :class:`~repro.backends.base.OptLevel` maps to a flag set in
:data:`FLAG_SETS` — the analogue of the icc option rows, adapted to gcc.
Every call runs the compiler, so first-time compilations are honestly
measured (paper Table 3); re-JITting an identical program is the code
cache's job (``repro.jit.cache``), whose disk tier keeps its own copy of the
``.so``.

Every program is one translation unit and one compiler process: the
specializations are ``static``, so the C compiler inlines them and only the
``wj_*`` entry points are exported.  Each build works in a directory of its
own under one private root per process, so concurrent builds of one source
never share a file.  The returned ``.so`` stays loadable until the process
exits; the process that made the root removes it then.
"""

from __future__ import annotations

import atexit
import os
import shutil
import subprocess
import tempfile
import threading
from dataclasses import asdict, dataclass
from pathlib import Path

from repro.backends.base import OptLevel
from repro.env import CC_VARS, encoded_keys, raw_values
from repro.errors import BackendError, CompilationUnavailable
from repro.obs.trace import phases as _phases

__all__ = [
    "BuildStats",
    "FLAG_SETS",
    "blas_flags",
    "build_shared_object",
    "cc_version",
    "compiler_available",
    "openmp_flag",
]


#: per-comparator compiler options (the analogue of the paper's Table 1/2)
FLAG_SETS: dict[OptLevel, list[str]] = {
    OptLevel.VIRTUAL: ["-O3", "-fno-lto"],
    OptLevel.DEVIRT: ["-O3", "-march=native"],
    OptLevel.NOVIRT: ["-O3", "-march=native"],
    OptLevel.FULL: ["-O3", "-march=native", "-funroll-loops"],
}

_COMMON = ["-std=c99", "-shared", "-fPIC", "-lm", "-w"]


_CC_KEYS = encoded_keys(CC_VARS)

#: raw ($CC, $PATH) -> the compiler found under them (None: none).  A
#: default-backend ``jit()`` asks whenever it resolves its configuration
#: (``repro.jit.service``), and ``shutil.which`` walks $PATH.
_FOUND_CC: dict = {}


def _find_cc() -> str | None:
    where = raw_values(CC_VARS, _CC_KEYS)
    try:
        return _FOUND_CC[where]
    except KeyError:
        pass
    found = None
    for cand in (os.environ.get("CC"), "cc", "gcc", "clang"):
        if cand and shutil.which(cand):
            found = cand
            break
    _FOUND_CC[where] = found
    return found


def compiler_available() -> bool:
    """Whether a usable C compiler was found ($CC, cc, gcc, clang)."""
    return _find_cc() is not None


def cc_version() -> str:
    """Human-readable identification of the compiler in use."""
    cc = _find_cc()
    if cc is None:
        return "none"
    out = subprocess.run([cc, "--version"], capture_output=True, text=True)
    return out.stdout.splitlines()[0] if out.stdout else cc


#: the private directory every build of this process works in, made by the
#: first build and removed at exit by the process that made it
_root: Path | None = None
_root_lock = threading.Lock()


def _build_root() -> Path:
    global _root
    with _root_lock:
        if _root is None:
            _root = Path(tempfile.mkdtemp(prefix="repro-build-"))
            atexit.register(_remove_root)
        return _root


def _remove_root() -> None:
    shutil.rmtree(_root, ignore_errors=True)


def _forget_root() -> None:
    # a forked child neither removes nor reuses its parent's root
    global _root, _root_lock
    atexit.unregister(_remove_root)
    _root, _root_lock = None, threading.Lock()


os.register_at_fork(after_in_child=_forget_root)


@dataclass
class BuildStats:
    """How one shared object was produced (surfaced in ``JitReport``)."""

    mode: str = "single"        # always; read only by the benchmarks/ledger replay
    units: int = 1              # always 1; read only by the benchmarks/ledger replay
    compile_s: float = 0.0      # compiler process (the cc.compile phase)
    wall_s: float = 0.0         # the whole build (the cc.build phase)

    def as_dict(self) -> dict:
        return asdict(self)


def _run_cc(cmd: list[str]) -> None:
    proc = subprocess.run(cmd, capture_output=True, text=True)
    if proc.returncode != 0:
        raise BackendError(
            f"C compilation failed ({' '.join(cmd)}):\n{proc.stderr[-4000:]}"
        )


def _probe(cc: str, source: str, extra: list[str]) -> bool:
    """Whether `source` compiles+links as a shared object with `extra`."""
    with tempfile.TemporaryDirectory(prefix="repro-cc-probe-") as td:
        c_path = os.path.join(td, "probe.c")
        with open(c_path, "w", encoding="utf-8") as fh:
            fh.write(source)
        proc = subprocess.run(
            [cc, c_path, "-o", os.path.join(td, "probe.so"),
             "-std=c99", "-shared", "-fPIC", "-w", *extra],
            capture_output=True, text=True,
        )
        return proc.returncode == 0


_OMP_PROBE: dict[str, str | None] = {}
_BLAS_PROBE: dict[str, tuple[str, ...] | None] = {}

_OMP_PROBE_SRC = (
    "#include <omp.h>\n"
    "int wj_probe(void) { return omp_get_max_threads(); }\n"
)
_BLAS_PROBE_SRC = (
    "void cblas_dgemm(int, int, int, int, int, int, double, const double*,"
    " int, const double*, int, double, double*, int);\n"
    "double a[1], b[1], c[1];\n"
    "void wj_probe(void) {"
    " cblas_dgemm(101, 111, 111, 1, 1, 1, 1.0, a, 1, b, 1, 0.0, c, 1); }\n"
)
#: candidate BLAS link lines, most common first
_BLAS_CANDIDATES = (("-lopenblas",), ("-lcblas",), ("-lcblas", "-lblas"),
                    ("-lblas",))


def openmp_flag(cc: str | None = None) -> str | None:
    """``-fopenmp`` when the toolchain supports it, else None (the emitted
    pragmas are then ignored and execution degrades to sequential).
    Memoized per compiler."""
    cc = cc or _find_cc()
    if cc is None:
        return None
    if cc not in _OMP_PROBE:
        _OMP_PROBE[cc] = (
            "-fopenmp" if _probe(cc, _OMP_PROBE_SRC, ["-fopenmp"]) else None
        )
    return _OMP_PROBE[cc]


def blas_flags(cc: str | None = None) -> tuple[str, ...] | None:
    """Link flags for a system CBLAS providing cblas_dgemm, or None when no
    BLAS links.  Memoized per compiler."""
    cc = cc or _find_cc()
    if cc is None:
        return None
    if cc not in _BLAS_PROBE:
        found = None
        for cand in _BLAS_CANDIDATES:
            if _probe(cc, _BLAS_PROBE_SRC, list(cand)):
                found = cand
                break
        _BLAS_PROBE[cc] = found
    return _BLAS_PROBE[cc]


def build_shared_object(
    source: str, opt: OptLevel, *, units: None = None,
    bounds_checks: bool = False, openmp: bool = False, blas: bool = False,
) -> tuple[Path, BuildStats]:
    """Compile C source to a fresh .so; returns ``(path, BuildStats)``.

    ``units`` is accepted and unused; the benchmarks/ledger replay is its
    only caller.  ``wall_s`` is the ``cc.build`` phase and ``compile_s``
    its one ``cc.compile`` phase, the compiler process; with tracing on,
    each phase is also a span of exactly those seconds
    (:class:`repro.obs.trace.phases`).
    """
    cc = _find_cc()
    if cc is None:
        raise CompilationUnavailable(
            "no C compiler found (set $CC or install gcc/clang), or use "
            "backend='py'"
        )
    with _phases("cc.build") as build:
        flags = list(FLAG_SETS[opt]) + _COMMON
        if bounds_checks:
            flags.append("-DWJ_BOUNDS=1")
        if openmp:
            omp = openmp_flag(cc)
            if omp:
                flags.append(omp)
        if blas:
            libs = blas_flags(cc)
            if libs:
                # the define selects the cblas path in the prelude; the link
                # flags resolve it
                flags.append("-DWJ_HAVE_CBLAS")
                flags.extend(libs)
        # a directory per build: threads compiling the same source must not
        # write each other's .c or half-linked .so
        build_dir = Path(tempfile.mkdtemp(dir=_build_root(), prefix="build-"))
        c_path = build_dir / "wj.c"
        # UTF-8 whatever the locale: the source carries non-ASCII comments
        # and string literals
        c_path.write_text(source, encoding="utf-8")
        so_path = build_dir / "wj.so"
        with _phases("cc.compile") as cc_run:
            _run_cc([cc, str(c_path), "-o", str(so_path), *flags])
        return so_path, BuildStats(compile_s=cc_run.end(),
                                   wall_s=build.end())
