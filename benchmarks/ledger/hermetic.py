"""Hermetic environment: scrubbed variables, scratch directories inside the
checkout, cold-cache isolation, and the environment fingerprint.

``jit(..., use_cache=False)`` is still served by the ``REPRO_CC_CACHE``
content cache on its second call, so a "cold" compile is only cold when
*both* cache directories are fresh.  :meth:`Scratch.fresh_caches` is the
single place that guarantees it.
"""

from __future__ import annotations

import os
import platform
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

#: the checkout root (this file is <root>/benchmarks/ledger/hermetic.py)
ROOT = Path(__file__).resolve().parents[2]

#: every knob that could change what the program under test does
_SCRUBBED_PREFIXES = ("REPRO_", "OMP_")
_SCRUBBED_NAMES = ("CC",)


def scrub_environment() -> dict:
    """Remove every ``REPRO_*``, ``OMP_*`` and ``CC`` variable from this
    process (children inherit the result); returns what was removed."""
    removed = {}
    for name in list(os.environ):
        if name.startswith(_SCRUBBED_PREFIXES) or name in _SCRUBBED_NAMES:
            removed[name] = os.environ.pop(name)
    return removed


class Scratch:
    """A per-process scratch tree under ``<root>/.bench_scratch``.

    Everything the benchmark writes — cache tiers, ``cc`` temporaries,
    toolchain probes (``TMPDIR``) — lands here and is removed on exit, so a
    run reads and writes only inside its checkout.
    """

    def __init__(self):
        self.path = ROOT / ".bench_scratch" / f"run-{os.getpid()}"
        self._n = 0

    def __enter__(self) -> "Scratch":
        tmp = self.path / "tmp"
        tmp.mkdir(parents=True, exist_ok=True)
        os.environ["TMPDIR"] = str(tmp)
        tempfile.tempdir = str(tmp)
        # never fall back to ~/.cache or /tmp, even before the first jit()
        os.environ.update(self.new_dirs())
        return self

    def __exit__(self, *exc) -> None:
        shutil.rmtree(self.path, ignore_errors=True)
        try:
            self.path.parent.rmdir()  # only succeeds when no other run is live
        except OSError:
            pass

    def new_dirs(self) -> dict:
        """A fresh, empty (code cache, cc cache) directory pair."""
        self._n += 1
        base = self.path / f"caches-{self._n}"
        return {"REPRO_CACHE_DIR": str(base / "code"),
                "REPRO_CC_CACHE": str(base / "cc")}

    def fresh_caches(self) -> dict:
        """Point this process at a fresh directory pair and forget in-process
        cache state (memory tier, in-flight table, service counters): the
        next ``jit()`` is a true cold miss."""
        from repro.jit import cache, service

        dirs = self.new_dirs()
        os.environ.update(dirs)
        service.reset()
        cache.clear_memory()
        return dirs

    def child_env(self, dirs: dict) -> dict:
        """The (already scrubbed) environment for a fresh interpreter.

        NumPy's OpenBLAS is held to one thread: at import it otherwise
        starts one per core, and waking them on a vCPU the hypervisor has
        parked costs anything from 0 to 70 ms — added alike to the child
        under test and to the bare one, so it cancels out of no ratio and
        moved ``first_*_x`` by a third for minutes at a time."""
        env = dict(os.environ)
        env.update(dirs)
        env["OPENBLAS_NUM_THREADS"] = "1"
        env["PYTHONPATH"] = os.pathsep.join([str(ROOT / "src"), str(ROOT)])
        return env


def _read(path: str) -> str:
    try:
        return Path(path).read_text().strip()
    except OSError:
        return ""


def _cpu_model() -> str:
    for line in _read("/proc/cpuinfo").splitlines():
        if line.startswith("model name"):
            return line.split(":", 1)[1].strip()
    return platform.processor() or "unknown"


def _cache_sizes() -> dict:
    out = {}
    base = "/sys/devices/system/cpu/cpu0/cache"
    for i in range(8):
        level = _read(f"{base}/index{i}/level")
        kind = _read(f"{base}/index{i}/type")
        if level and kind != "Instruction":
            out[f"L{level}"] = _read(f"{base}/index{i}/size")
    return out


def _git_commit() -> str:
    if not (ROOT / ".git").exists():
        return "unknown"  # the driver's checkout is not a repository
    proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                          capture_output=True, text=True)
    return proc.stdout.strip() or "unknown"


def usable_cores() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def fingerprint(removed_env: dict) -> dict:
    """What a reader needs to judge whether two ledgers are comparable."""
    import numpy

    from repro.backends.cbackend.build import (
        blas_flags, cc_version, openmp_flag,
    )

    blas = blas_flags()
    return {
        "git_commit": _git_commit(),
        "nproc": usable_cores(),
        "cpu_model": _cpu_model(),
        "cache_sizes": _cache_sizes(),
        "cc_version": cc_version(),
        "openmp_flag": openmp_flag(),
        "blas_flags": list(blas) if blas else None,
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "removed_env": removed_env,
    }
