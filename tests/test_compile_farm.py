"""The cross-process compile farm (file-lock single-flight, LRU disk tier,
warmup manifests) and the disk-cache race bugfixes that ride with it.

Covers: ≥4 *processes* released simultaneously onto one cold key produce
exactly one translate+compile (counted both via the per-entry metadata and
the per-process service counters), the disk tier never exceeds a
configured byte cap and evicts in least-recently-used order, warmup
manifests round-trip (write → ``repro cache warm`` → every later jit is a
disk hit), torn entries (payload missing, metadata incomplete) are
detected and dropped instead of hydrated, stale ``*.tmp`` orphans are
swept and counted, and concurrent drops/clears tolerate already-missing
files while keeping removal counts exact.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

from repro import jit
from repro.jit import cache as code_cache
from repro.jit import service
from repro.jit.engine import clear_code_cache
from repro.jit.locks import FileLock
from repro.jit.warmup import (
    ManifestEntry, ManifestError, load_manifest, warm, write_manifest,
)

from tests.conftest import requires_cc
from tests.guestlib import ScaleAddSolver, Sweeper

SRC_ROOT = str(Path(__file__).resolve().parents[1] / "src")


@pytest.fixture()
def farm_dir(tmp_path, monkeypatch):
    """A fresh cache directory with empty tiers and zeroed counters."""
    root = tmp_path / "farm-cache"
    monkeypatch.setenv("REPRO_CACHE_DIR", str(root))
    monkeypatch.delenv("REPRO_DISK_CACHE_MAX_MB", raising=False)
    clear_code_cache()
    service.reset()
    yield root
    service.reset()
    clear_code_cache()


# ---------------------------------------------------------------------------
# cross-process single-flight
# ---------------------------------------------------------------------------

#: prints READY, blocks on stdin until the parent releases the barrier,
#: then compiles the shared key and reports its JitReport + counters
_RACER = r"""
import json, sys, time
from repro.jit import cache, service
from repro.jit.engine import jit
from repro.library.cgsolve.config import make_solver

solver = make_solver(5, 5, precond="jacobi")  # warm the imports pre-barrier
print("READY", flush=True)
sys.stdin.readline()  # barrier: parent writes GO once every racer is ready
t0 = time.perf_counter()
code = jit(solver, "solve", 20, backend="py")
r = code.report
print(json.dumps({
    "first_result_s": time.perf_counter() - t0,
    "cache_hit": r.cache_hit,
    "cache_tier": r.cache_tier,
    "farm_dedup": r.farm_dedup,
    "farm_wait_s": r.farm_wait_s,
    "value": float(code.invoke().value),
    "stats": service.stats(),
    "disk_hits": cache.stats()["disk_hits"],
}))
"""


def _race_workers(n: int, cache_root: Path, extra_env=None) -> list[dict]:
    """Spawn ``n`` barrier-synchronized racers on one cold key."""
    env = dict(os.environ)
    env["REPRO_CACHE_DIR"] = str(cache_root)
    env["PYTHONPATH"] = f"{SRC_ROOT}{os.pathsep}{env.get('PYTHONPATH', '')}"
    env.update(extra_env or {})
    procs = [
        subprocess.Popen([sys.executable, "-c", _RACER],
                         stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                         stderr=subprocess.PIPE, text=True, env=env)
        for _ in range(n)
    ]
    for p in procs:  # wait for every racer to finish importing
        assert p.stdout.readline().strip() == "READY"
    for p in procs:  # release the barrier: all jit() calls race for real
        p.stdin.write("GO\n")
        p.stdin.flush()
    results = []
    for p in procs:
        out, err = p.communicate(timeout=300)
        assert p.returncode == 0, err[-4000:]
        results.append(json.loads(out.strip().splitlines()[-1]))
    return results


class TestCrossProcessSingleFlight:
    def test_four_plus_processes_one_compile(self, tmp_path):
        """5 simultaneous cold processes: exactly one translate+compile."""
        cache_root = tmp_path / "cache"
        results = _race_workers(5, cache_root)

        # counted via the per-process service counters ...
        total_compiles = sum(r["stats"]["compiles"] for r in results)
        assert total_compiles == 1, results
        # ... and via the per-entry metadata on disk
        (jpath,) = cache_root.glob("*.json")
        meta = json.loads(jpath.read_text())
        assert meta["compile_count"] == 1
        # every non-compiling worker was *served* (farm dedup after a lock
        # wait, or a plain disk hit if the leader finished first)
        served = [r for r in results if r["cache_hit"]]
        assert len(served) == 4
        assert len({r["value"] for r in results}) == 1
        # ... each by the disk tier, exactly once: hits are counted by the
        # process that made them, the shared entry is never rewritten
        assert sum(r["disk_hits"] for r in results) == 4
        assert json.loads(jpath.read_text()) == meta

    def test_farm_disabled_still_correct(self, tmp_path):
        """REPRO_FARM_LOCK_TIMEOUT_S=0: every loser of the entry lock
        times out at once and compiles uncoordinated — workers duplicate
        work but results agree and the disk tier still converges to one
        complete entry."""
        from repro.library.cgsolve.config import make_solver

        cache_root = tmp_path / "cache"
        cache_root.mkdir()
        # this process plays a compiler in mid-build and holds the key's
        # entry lock for the whole race: left to themselves the racers
        # only overlap when none of them finishes its 50 ms compile before
        # the next one reaches the lock, which on a loaded 2-CPU box is a
        # coin toss
        digest = jit(make_solver(5, 5, precond="jacobi"), "solve", 20,
                     backend="py").report.key_digest
        held = code_cache.entry_lock(digest, cache_root)
        assert held.acquire(timeout=0)
        try:
            results = _race_workers(4, cache_root,
                                    {"REPRO_FARM_LOCK_TIMEOUT_S": "0"})
        finally:
            held.release()
        assert len({r["value"] for r in results}) == 1
        assert sum(r["stats"]["compiles"] for r in results) >= 1
        assert sum(r["stats"]["farm_lock_timeouts"] for r in results) >= 1
        assert [p.name for p in cache_root.glob("*.json")] == [f"{digest}.json"]

    def test_waiter_reads_finished_entry_not_recompiles(self, farm_dir):
        """A process blocked on the entry lock serves the finished entry:
        simulate the other process with a held FileLock + a store."""
        app = Sweeper(ScaleAddSolver(0.75), 9)
        key_probe = jit(app, "run", 3, backend="py")  # populate the entry
        assert not key_probe.report.cache_hit
        code_cache.clear_memory()
        service.reset()
        # a second request now finds the entry on disk without compiling
        again = jit(Sweeper(ScaleAddSolver(0.75), 9), "run", 3, backend="py")
        assert again.report.cache_hit and again.report.cache_tier == "disk"
        assert service.stats()["compiles"] == 0


class TestFileLock:
    def test_exclusive_and_contended_accounting(self, tmp_path):
        path = tmp_path / "x.lock"
        a = FileLock(path)
        b = FileLock(path)
        assert a.acquire(timeout=0) and a.held
        assert not b.acquire(timeout=0.05)
        assert b.contended and b.waited_s > 0
        a.release()
        assert not a.held
        assert b.acquire(timeout=1.0)
        b.release()

    def test_release_is_idempotent(self, tmp_path):
        lock = FileLock(tmp_path / "y.lock")
        assert lock.acquire()
        lock.release()
        lock.release()
        assert lock.acquire(timeout=0)
        lock.release()


class TestFileLockRaces:
    """Regression tests for the three farm-lock races: the O_EXCL
    stale-break TOCTOU, the flock unlink/reopen split-brain, and the
    fixed-interval thundering-herd poll loop."""

    def test_break_stale_excl_removes_dead_holder(self, tmp_path,
                                                  monkeypatch):
        from repro.jit import locks

        monkeypatch.setattr(locks, "_fcntl", None)
        monkeypatch.setattr(locks, "_pid_alive", lambda pid: False)
        path = tmp_path / "k.lock"
        path.write_text("12345")  # dead holder's abandoned lock
        lk = FileLock(path)
        lk._break_stale_excl()
        assert not path.exists()
        assert lk.acquire(timeout=0)  # and the path is usable again
        lk.release()

    def test_break_stale_excl_toctou_guard(self, tmp_path, monkeypatch):
        """Between judging a lock stale and unlinking it, another waiter
        broke it and a third process re-created a fresh one — the unlink
        must be withheld or it destroys the live lock."""
        from repro.jit import locks

        monkeypatch.setattr(locks, "_fcntl", None)
        monkeypatch.setattr(locks, "_pid_alive", lambda pid: False)
        path = tmp_path / "k.lock"
        path.write_text("12345")
        lk = FileLock(path)
        real = lk._read_lock_info
        calls = {"n": 0}

        def raced():
            calls["n"] += 1
            info = real()
            if calls["n"] == 1:
                return info  # the staleness judgment sees the old lock
            # by re-verification time a fresh incarnation took the path
            return (os.getpid(), info[1] + 1)

        monkeypatch.setattr(lk, "_read_lock_info", raced)
        lk._break_stale_excl()
        assert calls["n"] == 2, "must re-read immediately before unlinking"
        assert path.exists(), "guard let a live re-created lock be unlinked"

    def test_flock_orphaned_inode_is_voided(self, tmp_path, monkeypatch):
        """A waiter whose open() raced an unlink+re-create (cache eviction
        dropping entry locks) must not count a flock on the orphaned inode
        as an acquisition — otherwise it and the newcomer on the fresh
        path are two simultaneous 'holders'."""
        from repro.jit import locks

        if locks._fcntl is None:
            pytest.skip("flock backend unavailable")
        path = tmp_path / "k.lock"
        real_open = os.open
        state = {"fired": False}

        def racy_open(p, flags, mode=0o777, **kw):
            fd = real_open(p, flags, mode, **kw)
            if not state["fired"] and str(p) == str(path):
                # between this open() and the flock(): eviction unlinks
                # the lock file and a newcomer re-creates the path
                state["fired"] = True
                os.unlink(path)
                os.close(real_open(str(path),
                                   os.O_CREAT | os.O_WRONLY, 0o644))
            return fd

        monkeypatch.setattr(os, "open", racy_open)
        b = FileLock(path)
        assert b.acquire(timeout=2.0)  # voided the orphan, retried, won
        assert state["fired"]
        # the acquisition is on the *live* path, so exclusivity holds:
        assert os.fstat(b._fd).st_ino == os.stat(path).st_ino
        c = FileLock(path)
        assert not c.acquire(timeout=0.05), "two holders: split-brain"
        b.release()

    def test_acquire_backs_off_exponentially_with_jitter(self, tmp_path,
                                                         monkeypatch):
        """The poll interval doubles from 1 ms to the 100 ms cap instead
        of hammering at a fixed 10 ms, and ``waited_s`` stays accurate."""
        from repro.jit import locks

        holder = FileLock(tmp_path / "busy.lock")
        assert holder.acquire(timeout=0)
        sleeps: list[float] = []
        clock = {"t": 0.0}
        monkeypatch.setattr(locks.time, "perf_counter",
                            lambda: clock["t"])

        def fake_sleep(s):
            sleeps.append(s)
            clock["t"] += s

        monkeypatch.setattr(locks.time, "sleep", fake_sleep)
        b = FileLock(tmp_path / "busy.lock")
        assert not b.acquire(timeout=2.0)
        holder.release()
        # a fixed 10 ms poll would need ~200 wakeups to cover 2 s
        assert 10 < len(sleeps) < 60, sleeps
        assert sleeps[0] <= locks._POLL_MIN_S
        assert max(sleeps) <= locks._POLL_MAX_S
        assert max(sleeps) > 10 * sleeps[0], "no growth: still fixed-rate"
        assert len(set(sleeps)) > 1, "no jitter: lockstep wakeups"
        assert b.waited_s == pytest.approx(2.0, abs=1e-6)


# ---------------------------------------------------------------------------
# LRU disk tier
# ---------------------------------------------------------------------------

def _compile_distinct(i: int, backend: str = "py"):
    """One cacheable program per ``i`` (the baked-in factor keys the
    shape digest, so every i is a distinct CacheKey)."""
    return jit(Sweeper(ScaleAddSolver(0.125 * (i + 1)), 8), "run", 2,
               backend=backend)


class TestLruDiskTier:
    def test_cap_is_enforced_on_store(self, farm_dir, monkeypatch):
        _compile_distinct(0)
        one_entry = code_cache.stats()["disk_bytes"]
        assert one_entry > 0
        # room for two entries (plus slack), not three
        cap_mb = (2 * one_entry + one_entry // 2) / (1024 * 1024)
        monkeypatch.setenv("REPRO_DISK_CACHE_MAX_MB", f"{cap_mb:.9f}")
        for i in range(1, 4):
            _compile_distinct(i)
            time.sleep(0.02)  # separate the last_used stamps
        st = code_cache.stats()
        assert st["disk_bytes"] <= int(cap_mb * 1024 * 1024)
        assert st["disk_entries"] == 2
        assert st["evictions"] >= 1
        # eviction-pressure telemetry: bytes reclaimed are tracked too
        assert st["bytes_evicted"] >= one_entry
        # the survivors are the most recently stored programs
        code_cache.clear_memory()
        assert _compile_distinct(3).report.cache_tier == "disk"

    def test_eviction_is_lru_by_hit_time(self, farm_dir):
        # recency is the commit marker's mtime: stamp program 0 as the
        # older of the two, so that untouched it would be the victim
        now = time.time()
        markers = []
        for i, age_s in ((0, 200.0), (1, 100.0)):
            digest = _compile_distinct(i).report.key_digest
            markers.append(Path(farm_dir) / f"{digest}.json")
            os.utime(markers[i], (now - age_s, now - age_s))
        before = markers[0].read_bytes()
        # touch program 0: a disk hit bumps the marker's mtime, not a byte
        # of its contents
        code_cache.clear_memory()
        assert _compile_distinct(0).report.cache_tier == "disk"
        assert markers[0].stat().st_mtime > markers[1].stat().st_mtime
        assert markers[0].read_bytes() == before
        one_entry = code_cache.stats()["disk_bytes"] // 2
        report = code_cache.evict(cap_bytes=one_entry + one_entry // 2)
        assert report["evicted"] == 1
        st = code_cache.stats()
        assert st["disk_entries"] == 1
        # program 0 (recently used) survived; program 1 was evicted
        code_cache.clear_memory()
        service.reset()
        assert _compile_distinct(0).report.cache_tier == "disk"
        assert not _compile_distinct(1).report.cache_hit

    @pytest.mark.parametrize("how", [
        pytest.param("chmod", marks=pytest.mark.skipif(
            os.geteuid() == 0, reason="root writes through permissions")),
        "utime-denied",  # what a non-owner of the entry gets from utime
    ])
    def test_hit_on_read_only_cache_dir_still_serves(self, farm_dir, how,
                                                     monkeypatch):
        """A cache directory this process may not write (a shared,
        pre-warmed farm) serves hits; the recency bump is best-effort."""
        cold = _compile_distinct(0)
        (jpath,) = Path(farm_dir).glob("*.json")
        before = jpath.read_bytes()
        if how == "chmod":
            os.chmod(farm_dir, 0o555)
            os.chmod(jpath, 0o444)
        else:
            def denied(*a, **kw):
                raise PermissionError("utime")
            monkeypatch.setattr(code_cache.os, "utime", denied)
        try:
            code_cache.clear_memory()
            again = _compile_distinct(0)
        finally:
            if how == "chmod":  # let pytest remove the directory
                os.chmod(farm_dir, 0o755)
        assert again.report.cache_tier == "disk"
        assert again.invoke().value == cold.invoke().value
        assert code_cache.stats()["torn_dropped"] == 0
        assert jpath.read_bytes() == before

    def test_eviction_skips_entries_being_written(self, farm_dir):
        _compile_distinct(0)
        (jpath,) = Path(farm_dir).glob("*.json")
        digest = jpath.name[: -len(".json")]
        writer = code_cache.entry_lock(digest)
        assert writer.acquire(timeout=0)
        try:
            report = code_cache.evict(cap_bytes=1)
            assert report["evicted"] == 0
            assert jpath.exists()
        finally:
            writer.release()
        assert code_cache.evict(cap_bytes=1)["evicted"] == 1

    def test_unbounded_by_default(self, farm_dir):
        for i in range(3):
            _compile_distinct(i)
        assert code_cache.stats()["disk_entries"] == 3
        assert code_cache.evict()["evicted"] == 0


# ---------------------------------------------------------------------------
# torn entries, tmp sweep, concurrent drops (the bugfix sweep)
# ---------------------------------------------------------------------------

class TestTornEntries:
    def test_missing_source_payload_dropped_not_hydrated(self, farm_dir):
        _compile_distinct(0)
        (spath,) = Path(farm_dir).glob("*.src")
        spath.unlink()
        code_cache.clear_memory()
        again = _compile_distinct(0)
        assert not again.report.cache_hit
        assert code_cache.stats()["torn_dropped"] >= 1

    @requires_cc
    def test_missing_shared_object_dropped_not_hydrated(self, farm_dir):
        cold = _compile_distinct(0, backend="c")
        (opath,) = Path(farm_dir).glob("*.so")
        opath.unlink()
        code_cache.clear_memory()
        again = _compile_distinct(0, backend="c")
        assert not again.report.cache_hit
        assert again.invoke().value == cold.invoke().value

    def test_incomplete_metadata_dropped(self, farm_dir):
        _compile_distinct(0)
        (jpath,) = Path(farm_dir).glob("*.json")
        meta = json.loads(jpath.read_text())
        del meta["sha_src"]
        jpath.write_text(json.dumps(meta))
        code_cache.clear_memory()
        assert not _compile_distinct(0).report.cache_hit

    def test_drop_skipped_while_writer_holds_lock(self, farm_dir, monkeypatch):
        """What looks torn mid-rewrite is left for the writer to finish."""
        # the recompile below must not block on our own held entry lock
        monkeypatch.setenv("REPRO_FARM_LOCK_TIMEOUT_S", "0.2")
        _compile_distinct(0)
        (spath,) = Path(farm_dir).glob("*.src")
        (jpath,) = Path(farm_dir).glob("*.json")
        digest = jpath.name[: -len(".json")]
        spath.unlink()  # now torn
        writer = code_cache.entry_lock(digest)
        assert writer.acquire(timeout=0)
        try:
            code_cache.clear_memory()
            assert not _compile_distinct(0).report.cache_hit
        finally:
            writer.release()
        # the json was NOT deleted out from under the "writer"; the
        # recompile above rewrote the entry in place (compile_count grew)
        meta = json.loads(jpath.read_text())
        assert meta["compile_count"] == 2


class TestTmpSweepAndDropRaces:
    def _fake_digest(self, i: int = 0) -> str:
        return f"{i:064x}"

    def test_stale_tmp_swept_and_counted(self, farm_dir):
        root = Path(farm_dir)
        root.mkdir(parents=True, exist_ok=True)
        stale = root / f"{self._fake_digest(1)}.src.tmp12345"
        fresh = root / f"{self._fake_digest(2)}.so.tmp99999"
        stale.write_bytes(b"dead writer debris")
        fresh.write_bytes(b"live writer, mid-copy")
        old = time.time() - 7200
        os.utime(stale, (old, old))
        before = code_cache.stats()
        assert before["tmp_files"] == 2
        report = code_cache.evict()
        assert report["tmp_swept"] == 1
        assert not stale.exists() and fresh.exists()
        assert code_cache.stats()["tmp_swept"] >= 1

    def test_clear_removes_tmp_and_locks_with_exact_count(self, farm_dir):
        _compile_distinct(0)
        _compile_distinct(1)
        root = Path(farm_dir)
        (root / f"{self._fake_digest(3)}.json.tmp777").write_bytes(b"x")
        assert len(list(root.glob("*.lock"))) >= 1
        assert code_cache.clear() == 2
        assert list(root.iterdir()) == []
        assert code_cache.clear() == 0

    def test_drop_entry_tolerates_concurrent_removal(self, farm_dir):
        _compile_distinct(0)
        root = Path(farm_dir)
        (jpath,) = root.glob("*.json")
        digest = jpath.name[: -len(".json")]
        assert code_cache._drop_entry(root, digest) is True
        # second dropper: files already gone — False, no exception
        assert code_cache._drop_entry(root, digest) is False
        assert code_cache._drop_entry(root, "f" * 64) is False


# ---------------------------------------------------------------------------
# warmup manifests
# ---------------------------------------------------------------------------

def _sample_entries():
    return [
        ManifestEntry(
            factory="repro.library.cgsolve.config:make_solver",
            factory_args=[5, 5], factory_kwargs={"precond": "jacobi"},
            method="solve", args=[20], backend="py"),
        ManifestEntry(
            factory="repro.library.montecarlo.config:make_pricer",
            factory_args=[200], method="run", args=[200], backend="py"),
    ]


class TestWarmupManifests:
    def test_round_trip_warm_then_all_hits(self, farm_dir, tmp_path):
        path = write_manifest(tmp_path / "hot.json", _sample_entries())
        assert [e.to_dict() for e in load_manifest(path)] == \
               [e.to_dict() for e in _sample_entries()]

        first = warm(path)
        assert first["compiled"] == 2 and first["hits"] == 0
        assert first["errors"] == []
        assert code_cache.stats()["disk_entries"] == 2

        # a cold process (simulated: empty memory tier) is all disk hits
        code_cache.clear_memory()
        service.reset()
        second = warm(path)
        assert second["compiled"] == 0 and second["hits"] == 2
        assert service.stats()["compiles"] == 0
        assert all(r["tier"] == "disk" for r in second["results"])

    def test_cli_warm_and_stats(self, farm_dir, tmp_path, capsys):
        from repro.__main__ import main

        path = write_manifest(tmp_path / "hot.json", _sample_entries()[:1])
        assert main(["cache", "warm", str(path), "--json"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["compiled"] == 1 and report["errors"] == []
        assert main(["cache", "stats", "--json"]) == 0
        st = json.loads(capsys.readouterr().out)
        assert st["disk_entries"] == 1
        assert main(["cache", "evict", "--cap-mb", "0.000001"]) == 0
        assert "evicted        : 1 entries" in capsys.readouterr().out

    def test_bad_entries_collected_not_raised(self, farm_dir, tmp_path):
        entries = [_sample_entries()[0],
                   ManifestEntry(factory="no.such.module:nope", method="run")]
        report = warm(write_manifest(tmp_path / "m.json", entries))
        assert report["compiled"] == 1
        assert len(report["errors"]) == 1

    def test_malformed_manifest_rejected(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        with pytest.raises(ManifestError):
            load_manifest(bad)
        bad.write_text(json.dumps({"v": 99, "entries": []}))
        with pytest.raises(ManifestError):
            load_manifest(bad)
        bad.write_text(json.dumps(
            {"v": 1, "entries": [{"factory": "no-colon", "method": "m"}]}))
        with pytest.raises(ManifestError):
            load_manifest(bad)
        from repro.__main__ import main

        assert main(["cache", "warm", str(bad)]) == 2
        assert main(["cache", "warm"]) == 2
