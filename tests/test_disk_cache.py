"""The persistent two-tier code cache (memory + disk).

Covers: tier attribution in ``JitReport`` (memory vs disk hits), cold-miss
-> warm-hit across *separate subprocesses*, invalidation when the guest
source changes on disk, and corrupted-entry detection/recovery.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

from repro import jit
from repro.jit import cache as code_cache
from repro.jit.engine import clear_code_cache

from tests.conftest import requires_cc
from tests.guestlib import ScaleAddSolver, Sweeper

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

    def validate_then_lose_the_race(meta, spath, opath):
        source, so_path = validate(meta, spath, opath)
        monkeypatch.setattr(code_cache, "_validate_entry", validate)
        code_cache._disk_put(cold.report.key_digest, meta,
                             source + "\n# rebuilt\n", None)
        return source, so_path

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


def _run_worker(guest_dir, cache_root, backend="py"):
    env = dict(os.environ)
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
        cc_root = str(tmp_path / "cc")
        cold = compile_probe(cache_root, cc_cache_dir=cc_root)
        warm = compile_probe(cache_root, cc_cache_dir=cc_root)
        assert not cold["cache_hit"]
        assert warm["cache_hit"] and warm["cache_tier"] == "disk"
        # the warm path never spawns the external compiler ...
        assert warm["backend_compile_s"] == 0.0
        assert warm["translate_s"] == 0.0
        assert warm["value"] == cold["value"]
        # ... and is at least 10x cheaper end to end
        assert cold["total_s"] >= 10 * warm["total_s"]
