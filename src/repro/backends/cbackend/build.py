"""Native build driver: generated C → shared object.

Reproduces the paper's Tables 1 and 2 (compiler options per program
variant): each :class:`~repro.backends.base.OptLevel` maps to a flag set in
:data:`FLAG_SETS` — the analogue of the icc option rows, adapted to gcc.
Artifacts are cached by content hash, so re-JITting an identical program is
free while first-time compilations are honestly measured (paper Table 3).

Every program is one translation unit and one compiler process: the
specializations are ``static``, so the C compiler inlines them and only the
``wj_*`` entry points are exported.  Each build works in a directory of its
own inside the cache and publishes the ``.so`` with ``os.replace``, so
concurrent builds of one source never share a temporary.
"""

from __future__ import annotations

import hashlib
import os
import shutil
import subprocess
import tempfile
import time
from dataclasses import asdict, dataclass
from pathlib import Path

from repro.backends.base import OptLevel
from repro.errors import BackendError, CompilationUnavailable
from repro.obs.trace import span as _span

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


def _find_cc() -> str | None:
    for cand in (os.environ.get("CC"), "cc", "gcc", "clang"):
        if cand and shutil.which(cand):
            return cand
    return None


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


def _cache_dir() -> Path:
    root = os.environ.get("REPRO_CC_CACHE") or os.path.join(
        tempfile.gettempdir(), "repro-cc-cache"
    )
    path = Path(root)
    path.mkdir(parents=True, exist_ok=True)
    return path


@dataclass
class BuildStats:
    """How one shared object was produced (surfaced in ``JitReport``)."""

    mode: str = "single"        # "single" | "cached"
    units: int = 1              # always 1; read only by the benchmarks/ledger replay
    compile_s: float = 0.0      # compiler process time
    wall_s: float = 0.0         # end-to-end build wall clock
    cached: bool = False        # artifact served from the content-hash cache

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
        with open(c_path, "w") as fh:
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
    """Compile C source to a cached .so; returns ``(path, BuildStats)``.

    ``units`` is accepted and unused; the benchmarks/ledger replay is its
    only caller.  The build runs under a ``cc.build`` tracing span with one
    ``cc.compile`` child around the compiler process.
    """
    with _span("cc.build") as sp:
        path, stats = _build_impl(source, opt, bounds_checks=bounds_checks,
                                  openmp=openmp, blas=blas)
        sp.set(mode=stats.mode, cached=stats.cached)
        return path, stats


def _build_impl(
    source: str, opt: OptLevel, *, bounds_checks: bool, openmp: bool,
    blas: bool,
) -> tuple[Path, BuildStats]:
    cc = _find_cc()
    if cc is None:
        raise CompilationUnavailable(
            "no C compiler found (set $CC or install gcc/clang), or use "
            "backend='py'"
        )
    t0 = time.perf_counter()
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
            # flags resolve it.  Both are part of `flags`, hence the digest.
            flags.append("-DWJ_HAVE_CBLAS")
            flags.extend(libs)
    digest = hashlib.sha256(
        (source + "\x00" + " ".join(flags) + "\x00" + cc).encode()
    ).hexdigest()[:24]
    cache = _cache_dir()
    so_path = cache / f"wj_{digest}.so"
    if so_path.exists():
        return so_path, BuildStats(mode="cached", cached=True,
                                   wall_s=time.perf_counter() - t0)

    # a directory per build: threads and processes compiling the same
    # source must not write each other's .c or half-linked .so
    with tempfile.TemporaryDirectory(dir=cache, prefix="build-") as td:
        c_path = Path(td, f"wj_{digest}.c")
        c_path.write_text(source)
        tmp_out = Path(td, so_path.name)
        t_compile = time.perf_counter()
        with _span("cc.compile"):
            _run_cc([cc, str(c_path), "-o", str(tmp_out), *flags])
        compile_s = time.perf_counter() - t_compile
        os.replace(tmp_out, so_path)
    return so_path, BuildStats(mode="single", compile_s=compile_s,
                               wall_s=time.perf_counter() - t0)
