"""The persistent two-tier code cache (memory + disk).

Covers: tier attribution in ``JitReport`` (memory vs disk hits), cold-miss
-> warm-hit across *separate subprocesses*, invalidation when the guest
source changes on disk, corrupted-entry detection/recovery, and the py
entry's bytecode payload (a py disk hit loads it and compiles nothing).
"""

from __future__ import annotations

import hashlib
import json
import marshal
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest

from repro import jit, jit4mpi
from repro.backends.pybackend import loader as py_loader
from repro.errors import GuestRuntimeError, MpiError
from repro.jit import cache as code_cache
from repro.jit.engine import clear_code_cache

from tests.conftest import requires_cc
from tests.guestlib import ScaleAddSolver, Sweeper
from tests.guestlib_bounds import OffByOne
from tests.test_translate_fingerprint import PROGRAMS

SRC_ROOT = str(Path(__file__).resolve().parents[1] / "src")


@pytest.fixture()
def cache_dir(tmp_path, monkeypatch):
    """A fresh, empty cache directory for one test."""
    root = tmp_path / "code-cache"
    monkeypatch.setenv("REPRO_CACHE_DIR", str(root))
    clear_code_cache()
    yield root
    clear_code_cache()


class TestTierAccuracy:
    def test_miss_then_memory_then_disk(self, backend, cache_dir):
        app = lambda: Sweeper(ScaleAddSolver(0.25), 11)  # noqa: E731

        cold = jit(app(), "run", 3, backend=backend)
        assert not cold.report.cache_hit
        assert cold.report.cache_tier == ""
        assert cold.report.translate_s > 0

        warm = jit(app(), "run", 3, backend=backend)
        assert warm.report.cache_hit
        assert warm.report.cache_tier == "memory"
        assert warm.report.translate_s == 0.0
        assert warm.report.backend_compile_s == 0.0
        assert warm.report.cached_lookup_s > 0
        assert warm.report.total_s == warm.report.cached_lookup_s

        # drop the memory tier: the next lookup must be served from disk
        code_cache.clear_memory()
        disk = jit(app(), "run", 3, backend=backend)
        assert disk.report.cache_hit
        assert disk.report.cache_tier == "disk"
        assert disk.report.backend_compile_s == 0.0
        # the rehydrated artifact computes the same thing
        assert disk.invoke().value == cold.invoke().value
        # metadata survives the round trip
        assert disk.report.n_specializations == cold.report.n_specializations
        assert disk.report.opt_stats == cold.report.opt_stats

    def test_disk_tier_can_be_disabled(self, backend, cache_dir, monkeypatch):
        monkeypatch.setenv("REPRO_DISK_CACHE", "0")
        jit(Sweeper(ScaleAddSolver(0.25), 12), "run", 3, backend=backend)
        assert not any(cache_dir.glob("*.json"))
        code_cache.clear_memory()
        again = jit(Sweeper(ScaleAddSolver(0.25), 12), "run", 3,
                    backend=backend)
        assert not again.report.cache_hit

    def test_use_cache_false_stores_nothing(self, backend, cache_dir):
        jit(Sweeper(ScaleAddSolver(0.25), 13), "run", 3, backend=backend,
            use_cache=False)
        assert not any(cache_dir.glob("*.json"))
        assert code_cache.stats()["memory_entries"] == 0

    def test_stats_and_clear(self, backend, cache_dir):
        jit(Sweeper(ScaleAddSolver(0.25), 14), "run", 3, backend=backend)
        st = code_cache.stats()
        assert st["disk_entries"] == 1
        assert st["memory_entries"] == 1
        assert st["disk_bytes"] > 0
        assert code_cache.clear() == 1
        st = code_cache.stats()
        assert st["disk_entries"] == 0 and st["memory_entries"] == 0


class TestCorruptionRecovery:
    def _entry_files(self, cache_dir, suffix):
        return sorted(cache_dir.glob(f"*{suffix}"))

    def test_corrupted_source_recompiles(self, backend, cache_dir):
        cold = jit(Sweeper(ScaleAddSolver(0.5), 15), "run", 2, backend=backend)
        (src_file,) = self._entry_files(cache_dir, ".src")
        src_file.write_text("/* corrupted */")
        code_cache.clear_memory()
        again = jit(Sweeper(ScaleAddSolver(0.5), 15), "run", 2,
                    backend=backend)
        # the damaged entry was detected, dropped, and recompiled
        assert not again.report.cache_hit
        assert again.invoke().value == cold.invoke().value
        # ... and the recompile rewrote a valid entry
        code_cache.clear_memory()
        third = jit(Sweeper(ScaleAddSolver(0.5), 15), "run", 2,
                    backend=backend)
        assert third.report.cache_tier == "disk"

    def test_corrupted_metadata_recompiles(self, backend, cache_dir):
        jit(Sweeper(ScaleAddSolver(0.5), 16), "run", 2, backend=backend)
        (meta_file,) = self._entry_files(cache_dir, ".json")
        meta_file.write_text("{not json")
        code_cache.clear_memory()
        again = jit(Sweeper(ScaleAddSolver(0.5), 16), "run", 2,
                    backend=backend)
        assert not again.report.cache_hit

    @requires_cc
    def test_truncated_shared_object_recompiles(self, cache_dir):
        cold = jit(Sweeper(ScaleAddSolver(0.5), 17), "run", 2, backend="c")
        (so_file,) = self._entry_files(cache_dir, ".so")
        so_file.write_bytes(so_file.read_bytes()[: so_file.stat().st_size // 2])
        code_cache.clear_memory()
        again = jit(Sweeper(ScaleAddSolver(0.5), 17), "run", 2, backend="c")
        assert not again.report.cache_hit
        assert again.invoke().value == cold.invoke().value

    @requires_cc
    def test_unloadable_shared_object_counts_as_torn(self, cache_dir):
        """Junk whose hash the metadata vouches for passes validation but
        will not load: the entry is dropped and counted like any torn one."""
        cold = jit(Sweeper(ScaleAddSolver(0.5), 17), "run", 2, backend="c")
        (so_file,) = self._entry_files(cache_dir, ".so")
        (meta_file,) = self._entry_files(cache_dir, ".json")
        junk = b"not a shared object\n" * 64
        so_file.write_bytes(junk)
        meta = json.loads(meta_file.read_text())
        meta["sha_so"] = hashlib.sha256(junk).hexdigest()
        meta_file.write_text(json.dumps(meta, sort_keys=True))
        code_cache.clear_memory()
        torn_before = code_cache.stats()["torn_dropped"]
        again = jit(Sweeper(ScaleAddSolver(0.5), 17), "run", 2, backend="c")
        assert not again.report.cache_hit
        assert code_cache.stats()["torn_dropped"] == torn_before + 1
        assert again.invoke().value == cold.invoke().value


def _flip(path: Path) -> None:
    blob = path.read_bytes()
    mid = len(blob) // 2
    path.write_bytes(blob[:mid] + bytes([blob[mid] ^ 0x01]) + blob[mid + 1:])


def _edit_marker(path: Path, **changes) -> None:
    meta = json.loads(path.read_bytes())
    for name, value in changes.items():
        if value is None:
            del meta[name]
        else:
            meta[name] = value
    path.write_text(json.dumps(meta, sort_keys=True))


def _unloadable_so(entry: dict) -> None:
    """Junk in place of the ``.so``, its hash vouched for by the marker:
    every check passes and dlopen fails."""
    junk = b"not a shared object\n" * 64
    entry[".so"].write_bytes(junk)
    _edit_marker(entry[".json"], sha_so=hashlib.sha256(junk).hexdigest())


#: damage -> what it does to one entry (``{suffix: path}``, ``payload`` the
#: ``.so`` of a C entry or the ``.pyc`` of a py one); each must be a miss
#: that drops the entry once
_TORN = {
    "garbage-json": lambda e: e[".json"].write_bytes(b"{not json"),
    "wrong-version": lambda e: _edit_marker(e[".json"], v=-1),
    "missing-kind": lambda e: _edit_marker(e[".json"], kind=None),
    "missing-src": lambda e: e[".src"].unlink(),
    "altered-src": lambda e: _flip(e[".src"]),
    "missing-payload": lambda e: e["payload"].unlink(),
    "truncated-payload": lambda e: e["payload"].write_bytes(
        e["payload"].read_bytes()[:e["payload"].stat().st_size // 2]),
    "altered-payload": lambda e: _flip(e["payload"]),
    "unloadable-so": _unloadable_so,
}


class TestTornEntryMatrix:
    """Every way a disk entry can be incomplete or damaged, on both
    backends: a missing marker is a plain miss that drops nothing; any
    other damage is a miss that drops the entry exactly once, and the
    recompile computes the cold build's result bit for bit."""

    @staticmethod
    def _jit(backend):
        return jit(Sweeper(ScaleAddSolver(0.5), 21), "run", 3,
                   backend=backend)

    @staticmethod
    def _result(code):
        res = code.invoke()
        return (np.float64(res.value).tobytes(),
                {label: out.tobytes() for label, out in res.outputs[0].items()})

    @pytest.fixture()
    def drops(self, monkeypatch):
        """Every ``_drop_entry`` call's result, in order."""
        calls = []
        drop = code_cache._drop_entry

        def counting(*args, **kwargs):
            calls.append(drop(*args, **kwargs))
            return calls[-1]

        monkeypatch.setattr(code_cache, "_drop_entry", counting)
        return calls

    def _cold_entry(self, backend, cache_dir):
        cold = self._jit(backend)
        digest = cold.report.key_digest
        entry = {p.suffix: p for p in cache_dir.glob(f"{digest}.*")
                 if p.suffix != ".lock"}
        entry["payload"] = entry[".so" if backend == "c" else ".pyc"]
        return cold, entry

    def test_missing_marker_is_a_plain_miss(self, backend, cache_dir, drops):
        cold, entry = self._cold_entry(backend, cache_dir)
        want = self._result(cold)
        entry[".json"].unlink()
        torn = code_cache.stats()["torn_dropped"]
        code_cache.clear_memory()
        again = self._jit(backend)
        assert not again.report.cache_hit
        assert drops == []
        assert code_cache.stats()["torn_dropped"] == torn
        assert self._result(again) == want

    @pytest.mark.parametrize("damage", sorted(_TORN))
    def test_damage_is_a_miss_that_drops_once(self, backend, cache_dir,
                                              drops, damage):
        if damage == "unloadable-so" and backend != "c":
            pytest.skip("a py entry has no shared object")
        cold, entry = self._cold_entry(backend, cache_dir)
        want = self._result(cold)
        _TORN[damage](entry)
        torn = code_cache.stats()["torn_dropped"]
        code_cache.clear_memory()
        again = self._jit(backend)
        assert not again.report.cache_hit
        assert drops == [True]
        assert code_cache.stats()["torn_dropped"] == torn + 1
        assert again.source == cold.source
        assert self._result(again) == want
        # the recompile published a fresh entry (the drop took the old
        # marker and with it the compile count), and it serves
        assert json.loads(entry[".json"].read_bytes())["compile_count"] == 1
        code_cache.clear_memory()
        disk = self._jit(backend)
        assert disk.report.cache_tier == "disk"
        assert self._result(disk) == want


def _entry_files(cache_dir, code) -> dict:
    """``{suffix: path}`` of one C entry's files."""
    return {p.suffix: p for p in cache_dir.glob(f"{code.report.key_digest}.*")
            if p.suffix != ".lock"}


@pytest.fixture()
def table(monkeypatch):
    """The bridge's library table, empty for this test; ``clear()`` it to
    forget what was filed, as a fresh process would not have it."""
    from repro.backends.cbackend import bridge

    monkeypatch.setattr(bridge, "_LIBRARIES", {})
    return bridge._LIBRARIES


@requires_cc
class TestLibraryTable:
    """A C disk hit binds the process's one loaded library per verified
    ``.so`` (``bridge.library``), loaded from a copy of the hashed bytes,
    never from the cache directory's file."""

    @staticmethod
    def _jit(a):
        return jit(Sweeper(ScaleAddSolver(a), 11), "run", 3, backend="c")

    @pytest.fixture()
    def loads(self, monkeypatch):
        """Every ``CDLL`` construction's path, in order."""
        import ctypes

        paths, cdll = [], ctypes.CDLL

        def counting(path, *args, **kwargs):
            paths.append(path)
            return cdll(path, *args, **kwargs)

        monkeypatch.setattr(ctypes, "CDLL", counting)
        return paths

    def test_in_place_rebuild_runs_the_new_code(self, cache_dir, table):
        """Entry A is rebuilt in place with entry B's ``.src``, ``.so`` and
        a marker whose hashes match them: the next disk hit in the same
        process runs B's code, not the library it loaded for A before."""
        a, b = self._jit(0.5), self._jit(0.25)
        want_a, want_b = a.invoke().value, b.invoke().value
        assert want_a != want_b
        table.clear()
        code_cache.clear_memory()
        assert self._jit(0.5).invoke().value == want_a  # A's copy is loaded
        files_a = _entry_files(cache_dir, a)
        files_b = _entry_files(cache_dir, b)
        for suffix in (".src", ".so", ".json"):  # the marker last
            tmp = files_a[suffix].with_name("rebuild.tmp")
            tmp.write_bytes(files_b[suffix].read_bytes())
            os.replace(tmp, files_a[suffix])
        code_cache.clear_memory()
        again = self._jit(0.5)
        assert again.report.cache_tier == "disk"
        assert again.source == b.source
        assert again.invoke().value == want_b

    def test_so_swapped_after_validation_never_runs(self, cache_dir, table,
                                                    monkeypatch):
        """Between the hash check and the load, the entry's ``.so`` is
        replaced by another valid library: the hit runs the bytes it
        hashed, loaded from a copy named by their hash."""
        from repro.backends.cbackend.build import _build_root

        a, b = self._jit(0.5), self._jit(0.25)
        want_a = a.invoke().value
        assert b.invoke().value != want_a
        so_a, so_b = _entry_files(cache_dir, a)[".so"], _entry_files(
            cache_dir, b)[".so"]
        validate = code_cache._validate_entry

        def validate_then_swap(*args):
            verified = validate(*args)
            so_a.write_bytes(so_b.read_bytes())
            return verified

        monkeypatch.setattr(code_cache, "_validate_entry", validate_then_swap)
        table.clear()
        code_cache.clear_memory()
        disk = self._jit(0.5)
        assert disk.report.cache_tier == "disk"
        assert disk.invoke().value == want_a
        sha = json.loads(_entry_files(cache_dir, a)[".json"].read_bytes())[
            "sha_so"]
        assert disk.compiled.so_path == os.path.join(_build_root(),
                                                     sha + ".so")

    def test_refills_load_one_library(self, cache_dir, table, loads):
        """The cold build's library is filed under the hash the store
        computed: 1 000 disk refills of the entry load nothing."""
        cold = self._jit(0.5)
        want = cold.invoke().value
        assert len(loads) == 1 and code_cache.stats()["libraries"] == 1
        for _ in range(1000):
            code_cache.clear_memory()
            disk = self._jit(0.5)
            assert disk.report.cache_tier == "disk"
        assert len(loads) == 1
        assert disk.compiled.library is cold.compiled.library
        assert code_cache.stats()["libraries"] == 1
        assert disk.invoke().value == want
        # the tier forgot the cold entry 1 000 times; its JitCode holds it
        assert cold.invoke().value == want

    def test_fresh_process_refills_load_one_copy(self, cache_dir, table,
                                                 loads):
        """With no library filed, the first hit loads one copy and every
        later refill binds it."""
        want = self._jit(0.5).invoke().value
        table.clear()
        del loads[:]
        for _ in range(20):
            code_cache.clear_memory()
            assert self._jit(0.5).invoke().value == want
        assert len(loads) == 1
        assert code_cache.stats()["libraries"] == 1

    @pytest.mark.parametrize("fault", ["full", "noexec"])
    def test_a_copy_this_process_cannot_make_keeps_the_entry(
            self, cache_dir, table, monkeypatch, fault):
        """The private copy of a verified ``.so`` cannot be written (the
        build root is full) or loaded from there (it is mounted
        ``noexec``): the hit is a plain miss, the sound entry is not
        dropped, and no ``.tmp`` is left in the build root."""
        import errno

        from repro.backends.cbackend import bridge
        from repro.backends.cbackend.build import _build_root

        want = self._jit(0.5).invoke().value
        table.clear()
        code_cache.clear_memory()
        torn = code_cache.stats()["torn_dropped"]
        root, drops = str(_build_root()), []
        drop = code_cache._drop_entry

        def spy(*args, **kwargs):
            drops.append(args)
            return drop(*args, **kwargs)

        def full(path, mode="r"):
            Path(path).write_bytes(b"\x7fELF")  # a short write, then ENOSPC
            raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC), path)

        statvfs = os.statvfs

        def noexec(path):
            st = statvfs(path)
            return type("Flags", (), {"f_flag": st.f_flag | os.ST_NOEXEC})

        with monkeypatch.context() as patch:
            patch.setattr(code_cache, "_drop_entry", spy)
            if fault == "full":
                patch.setattr(bridge, "open", full, raising=False)
            else:
                patch.setattr(os, "statvfs", noexec)
            again = self._jit(0.5)
        assert again.report.cache_tier == ""  # recompiled, not served
        assert again.invoke().value == want
        assert drops == [] and code_cache.stats()["torn_dropped"] == torn
        assert not [n for n in os.listdir(root) if n.endswith(".tmp")]
        table.clear()
        code_cache.clear_memory()
        disk = self._jit(0.5)
        assert disk.report.cache_tier == "disk"
        assert disk.invoke().value == want


@requires_cc
class TestCompilerVersionMemo:
    """``cc --version`` is asked once per compiler and cache directory: the
    answer is kept in the directory under the compiler's resolved path and
    ``(st_dev, st_ino, st_size, st_mtime_ns)``.  A wrapper or a script is
    asked every process: its stat does not change with the compiler behind
    it."""

    @pytest.fixture()
    def fake_cc(self, tmp_path, cache_dir, monkeypatch):
        """``$CC`` is a binary printing the line in ``bin/version`` whatever
        its arguments; returns ``(binary, version file, runs)``, ``runs``
        the commands ``subprocess.run`` was asked to run from then on."""
        from repro.backends.cbackend import build

        bin_dir = tmp_path / "bin"
        bin_dir.mkdir()
        version = bin_dir / "version"
        version.write_text("fakecc 9.9\n")
        src, cc = bin_dir / "fakecc.c", bin_dir / "fakecc"
        src.write_text(textwrap.dedent(f"""\
            #include <stdio.h>
            int main(void) {{
                char line[64];
                FILE *f = fopen({json.dumps(str(version))}, "r");
                if (f && fgets(line, sizeof line, f)) fputs(line, stdout);
                return 0;
            }}
            """))
        subprocess.run([build._find_cc(), str(src), "-o", str(cc)],
                       check=True)
        monkeypatch.setenv("CC", str(cc))
        monkeypatch.setattr(build, "_FOUND_CC", {})
        monkeypatch.setattr(code_cache, "_CC_VERSIONS", {})
        runs, run = [], subprocess.run

        def counting(cmd, *args, **kwargs):
            runs.append(cmd)
            return run(cmd, *args, **kwargs)

        monkeypatch.setattr(subprocess, "run", counting)
        return cc, version, runs

    @staticmethod
    def _ask(monkeypatch):
        """The version a fresh process would key under."""
        monkeypatch.setattr(code_cache, "_CC_VERSIONS", {})
        return code_cache._cc_version()

    def test_asked_once_per_compiler(self, fake_cc, cache_dir, monkeypatch):
        cc, _, runs = fake_cc
        assert self._ask(monkeypatch) == "fakecc 9.9"
        assert len(runs) == 1
        (memo,) = cache_dir.glob("cc-*.version")
        assert self._ask(monkeypatch) == "fakecc 9.9"
        assert len(runs) == 1
        # the compiler is replaced in place: a new mtime, asked again
        st = cc.stat()
        os.utime(cc, ns=(st.st_atime_ns, st.st_mtime_ns + 10**9))
        assert self._ask(monkeypatch) == "fakecc 9.9"
        assert len(runs) == 2
        assert len(list(cache_dir.glob("cc-*.version"))) == 2
        assert code_cache.clear() == 0
        assert not memo.exists() and list(cache_dir.iterdir()) == []

    def test_disk_tier_off_asks_every_process(self, fake_cc, cache_dir,
                                              monkeypatch):
        _, _, runs = fake_cc
        monkeypatch.setenv("REPRO_DISK_CACHE", "0")
        for n in (1, 2):
            assert self._ask(monkeypatch) == "fakecc 9.9"
            assert len(runs) == n
        assert not cache_dir.exists() or not any(cache_dir.iterdir())

    @pytest.mark.parametrize("wrapper", ["script", "ccache"])
    def test_a_wrapper_is_asked_every_process(self, fake_cc, cache_dir,
                                              monkeypatch, wrapper):
        """``$CC`` is a wrapper script, or ``cc`` linked to a binary named
        ``ccache``: the compiler behind it is upgraded while the wrapper
        stays as it was, and the next process keys under the new version."""
        cc, version, runs = fake_cc
        if wrapper == "script":
            front = cc.with_name("cc-wrapper")
            front.write_text(f'#!/bin/sh\nexec "{cc}" "$@"\n')
            front.chmod(0o755)
        else:
            os.replace(cc, cc.with_name("ccache"))
            front = cc.with_name("cc")
            front.symlink_to("ccache")
        monkeypatch.setenv("CC", str(front))
        assert self._ask(monkeypatch) == "fakecc 9.9"
        version.write_text("fakecc 10.1\n")
        assert self._ask(monkeypatch) == "fakecc 10.1"
        assert len(runs) == 2
        assert list(cache_dir.glob("cc-*.version")) == []


#: in a fresh interpreter (libgomp reads OMP_NUM_THREADS once per process):
#: the OpenMP and the sequential build of one program, each cold and then
#: from disk, and the thread count each artifact reads
_OMP_CHILD = r"""
import json, os
from repro import jit
from repro.jit import cache
from tests import test_parallel as t

got = {}
for omp in ("1", "0"):
    os.environ["REPRO_OMP"] = omp
    cold = jit(t._matmul_app(), "start", *t._matmul_args(), backend="c")
    cache.clear_memory()
    disk = jit(t._matmul_app(), "start", *t._matmul_args(), backend="c")
    assert disk.report.cache_tier == "disk", disk.report.cache_tier
    got[omp] = [cold.compiled.omp_max_threads, disk.compiled.omp_max_threads]
print(json.dumps(got))
"""


@requires_cc
def test_disk_hit_reads_the_openmp_thread_count(tmp_path):
    """``omp_max_threads`` is read on demand, not at load: an OpenMP build
    reads ``OMP_NUM_THREADS`` cold and from disk, any other build 0."""
    from tests.test_parallel import _expected_threads

    env = dict(os.environ, OMP_NUM_THREADS="3",
               REPRO_CACHE_DIR=str(tmp_path / "cache"))
    env["PYTHONPATH"] = os.pathsep.join(
        [SRC_ROOT, str(Path(SRC_ROOT).parent), env.get("PYTHONPATH", "")])
    proc = subprocess.run([sys.executable, "-c", _OMP_CHILD], env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr[-4000:]
    got = json.loads(proc.stdout.strip().splitlines()[-1])
    n = _expected_threads("3")
    assert got == {"1": [n, n], "0": [0, 0]}


def test_hit_accounting_cannot_clobber_a_rebuild(cache_dir, monkeypatch):
    """A reader validates an entry; before its hit accounting runs,
    another process republishes the same digest (farm-lock timeout, or
    a recompile after a torn drop).  The reader used to write its *old*
    metadata back over the new commit marker, which then named stale
    hashes: the next reader saw a mismatch, dropped the good entry as
    torn and recompiled.  A hit no longer writes file contents."""
    app = lambda: Sweeper(ScaleAddSolver(0.5), 18)  # noqa: E731
    cold = jit(app(), "run", 2, backend="py")
    validate = code_cache._validate_entry
    torn_before = code_cache.stats()["torn_dropped"]

    def validate_then_lose_the_race(meta, spath, opath, cpath):
        source, pyc = validate(meta, spath, opath, cpath)
        monkeypatch.setattr(code_cache, "_validate_entry", validate)
        rebuilt = source.decode("utf-8") + "\n# rebuilt\n"
        code_cache._disk_put(
            cold.report.key_digest, meta, rebuilt, None,
            marshal.dumps(compile(rebuilt, "<repro-pybackend>", "exec")))
        return source, pyc

    monkeypatch.setattr(code_cache, "_validate_entry",
                        validate_then_lose_the_race)
    code_cache.clear_memory()
    assert jit(app(), "run", 2, backend="py").report.cache_tier == "disk"

    code_cache.clear_memory()
    after = jit(app(), "run", 2, backend="py")
    assert after.report.cache_tier == "disk"
    assert code_cache.stats()["torn_dropped"] == torn_before
    assert after.source.endswith("# rebuilt\n")
    assert after.invoke().value == cold.invoke().value


class TestPyBytecode:
    """A py entry stores its module code object beside its source
    (``<digest>.pyc``, marshalled, its sha-256 in the metadata): a disk hit
    loads it instead of running CPython's compiler on the source."""

    @staticmethod
    def _jit():
        return jit(Sweeper(ScaleAddSolver(0.5), 19), "run", 2, backend="py")

    def test_disk_hit_compiles_nothing(self, cache_dir, monkeypatch):
        cold = self._jit()
        code_cache.clear_memory()

        def no_compile(*args, **kwargs):
            raise AssertionError("a py disk hit called compile()")

        monkeypatch.setattr(py_loader, "compile", no_compile, raising=False)
        disk = self._jit()
        assert disk.report.cache_tier == "disk"
        assert disk.compiled.code == cold.compiled.code
        assert disk.invoke().value == cold.invoke().value

    @pytest.mark.parametrize("damage", ["truncated", "deleted", "flipped"])
    def test_damaged_bytecode_is_dropped_never_run(self, cache_dir,
                                                   monkeypatch, damage):
        cold = self._jit()
        (pyc,) = cache_dir.glob("*.pyc")
        blob = pyc.read_bytes()
        if damage == "truncated":
            pyc.write_bytes(blob[: len(blob) // 2])
        elif damage == "deleted":
            pyc.unlink()
        else:
            mid = len(blob) // 2
            pyc.write_bytes(blob[:mid] + bytes([blob[mid] ^ 0x01])
                            + blob[mid + 1:])
        # only code compiled from source in this process may be exec'd
        compiled = []

        def compile_(*args, **kwargs):
            compiled.append(compile(*args, **kwargs))
            return compiled[-1]

        def exec_(code, namespace):
            assert any(code is c for c in compiled), "damaged bytecode ran"
            exec(code, namespace)  # noqa: S102 - the guest's own program

        torn = code_cache.stats()["torn_dropped"]
        code_cache.clear_memory()
        with monkeypatch.context() as patch:
            patch.setattr(py_loader, "compile", compile_, raising=False)
            patch.setattr(py_loader, "exec", exec_, raising=False)
            again = self._jit()
        assert not again.report.cache_hit
        assert code_cache.stats()["torn_dropped"] == torn + 1
        assert len(compiled) == 1
        assert again.invoke().value == cold.invoke().value
        # the recompile stored a whole entry again
        code_cache.clear_memory()
        assert self._jit().report.cache_tier == "disk"

    def test_footprint_eviction_and_clear_cover_the_bytecode(self, cache_dir):
        digest = self._jit().report.key_digest
        sizes = {p.suffix: p.stat().st_size
                 for p in cache_dir.glob(f"{digest}.*") if p.suffix != ".lock"}
        assert set(sizes) == {".json", ".src", ".pyc"}
        assert code_cache.stats()["disk_bytes"] == sum(sizes.values())
        report = code_cache.evict(cap_bytes=1)
        assert report["evicted"] == 1
        assert report["bytes_freed"] == sum(sizes.values())
        assert list(cache_dir.iterdir()) == []

        code_cache.clear_memory()
        assert not self._jit().report.cache_hit
        assert any(cache_dir.glob("*.pyc"))
        assert code_cache.clear() == 1
        assert list(cache_dir.iterdir()) == []

    def test_bounds_checks_survive_a_disk_hit(self, cache_dir, monkeypatch):
        monkeypatch.setenv("REPRO_BOUNDS", "1")
        a = np.arange(4.0)
        cold = jit(OffByOne(), "run", a, backend="py")
        assert cold.compiled.bounds_checks is True
        code_cache.clear_memory()
        disk = jit(OffByOne(), "run", a, backend="py")
        assert disk.report.cache_tier == "disk"
        assert disk.compiled.bounds_checks is True
        # the rank's GuestRuntimeError, raised by the checked load
        with pytest.raises(MpiError) as failed:
            disk.invoke()
        assert isinstance(failed.value.__cause__, GuestRuntimeError)
        assert "out-of-bounds" in str(failed.value.__cause__)


#: the ledger-size stencils: CPython would take minutes to run them, so
#: their disk hit is held to the cold build's code object alone
_TOO_SLOW_TO_RUN = {"diffusion-cpu", "diffusion-cpu-mpi-2"}


@pytest.mark.parametrize("name", sorted(PROGRAMS))
def test_py_disk_hit_matches_the_cold_build_bit_for_bit(name, cache_dir):
    """The fingerprint programs on py (``nbody-48`` is the ledger's
    ``nbody-48-py``): the unmarshalled code object is the one the cold
    build compiled, and it returns every rank's value and output bit for
    bit."""
    def build():
        receiver, method, args = PROGRAMS[name]()
        nranks = 2 if "mpi" in name and "fox" not in name else 1
        return jit4mpi(receiver, method, *args,
                       backend="py").set4mpi(nranks)

    def run(code):
        res = code.invoke()
        # "secs" is a wall-clock reading, not a result
        outputs = [{label: out.tobytes() for label, out in outs.items()
                    if label != "secs"} for outs in res.outputs]
        return np.asarray(res.returns, np.float64).tobytes(), outputs

    cold = build()
    code_cache.clear_memory()
    disk = build()
    assert disk.report.cache_tier == "disk"
    assert disk.compiled.code == cold.compiled.code
    if name not in _TOO_SLOW_TO_RUN:
        assert run(disk) == run(cold)


GUEST_MODULE = """
from repro import f64, i64, wootin


@wootin
class Acc:
    n: i64

    def __init__(self, n: i64):
        self.n = n

    def run(self, iters: i64) -> f64:
        total = 0.0
        for it in range(iters):
            for i in range(self.n):
                total = total + float(i) * {factor}
        return total
"""

WORKER = """
import json
import sys

sys.path.insert(0, {guest_dir!r})
import cache_guest

from repro import jit

code = jit(cache_guest.Acc(5), "run", 3, backend={backend!r})
r = code.report
print(json.dumps({{
    "hit": r.cache_hit,
    "tier": r.cache_tier,
    "translate_s": r.translate_s,
    "backend_compile_s": r.backend_compile_s,
    "total_s": r.total_s,
    "value": code.invoke().value,
}}))
"""


def _run_worker(guest_dir, cache_root, backend="py", **extra_env):
    env = dict(os.environ, **extra_env)
    env["REPRO_CACHE_DIR"] = str(cache_root)
    env["PYTHONPATH"] = f"{SRC_ROOT}{os.pathsep}{env.get('PYTHONPATH', '')}"
    script = WORKER.format(guest_dir=str(guest_dir), backend=backend)
    proc = subprocess.run([sys.executable, "-c", script],
                          capture_output=True, text=True, env=env, timeout=300)
    assert proc.returncode == 0, proc.stderr[-4000:]
    return json.loads(proc.stdout.strip().splitlines()[-1])


class TestAcrossProcesses:
    def test_cold_then_warm_and_source_invalidation(self, tmp_path):
        guest = tmp_path / "cache_guest.py"
        guest.write_text(textwrap.dedent(GUEST_MODULE.format(factor="1.5")))
        cache_root = tmp_path / "cache"

        cold = _run_worker(tmp_path, cache_root)
        assert not cold["hit"]

        warm = _run_worker(tmp_path, cache_root)
        assert warm["hit"] and warm["tier"] == "disk"
        assert warm["backend_compile_s"] == 0.0
        assert warm["value"] == cold["value"]

        # editing the guest source invalidates the entry
        guest.write_text(textwrap.dedent(GUEST_MODULE.format(factor="2.5")))
        edited = _run_worker(tmp_path, cache_root)
        assert not edited["hit"]
        assert edited["value"] != cold["value"]

    @requires_cc
    def test_warm_start_skips_compiler_and_is_10x_faster(self, tmp_path):
        from repro.bench.harness import compile_probe

        cache_root = str(tmp_path / "cache")
        cold = compile_probe(cache_root)
        warm = compile_probe(cache_root)
        assert not cold["cache_hit"]
        assert warm["cache_hit"] and warm["cache_tier"] == "disk"
        # the warm path never spawns the external compiler, nor any
        # process at all ...
        assert warm["backend_compile_s"] == 0.0
        assert warm["spawns"] == 0
        assert warm["key_digest"] == cold["key_digest"]
        assert warm["translate_s"] == 0.0
        assert warm["value"] == cold["value"]
        # ... and is at least 10x cheaper end to end
        assert cold["total_s"] >= 10 * warm["total_s"]


#: the guest of GUEST_MODULE, writing a non-ASCII output label
LABELLED_MODULE = (GUEST_MODULE.format(factor="1.5")
                   .replace("import f64,", "import f64, wj,")
                   .replace("        return total", """\
        out = wj.zeros(f64, 1)
        out[0] = total
        wj.output("\u00e9t\u00e9 \u2014 total", out)
        return total"""))

#: a locale whose preferred encoding is ASCII, with Python's UTF-8 mode and
#: locale coercion both off
ASCII_LOCALE = {"LC_ALL": "C", "LANG": "C", "PYTHONUTF8": "0",
                "PYTHONCOERCECLOCALE": "0"}


def test_entries_do_not_depend_on_the_locale(backend, tmp_path):
    """Under an ASCII locale, a program with a non-ASCII output label (and
    the C backend's em dash in its header comment) compiles in the first
    process and is served from disk in the second."""
    guest = tmp_path / "cache_guest.py"
    guest.write_text(textwrap.dedent(LABELLED_MODULE), encoding="utf-8")
    cache_root = tmp_path / "cache"
    cold = _run_worker(tmp_path, cache_root, backend, **ASCII_LOCALE)
    warm = _run_worker(tmp_path, cache_root, backend, **ASCII_LOCALE)
    assert not cold["hit"]
    assert warm["hit"] and warm["tier"] == "disk"
    assert warm["value"] == cold["value"]
