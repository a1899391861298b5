"""Cross-process file locks for the compile farm.

The in-process service layer (:mod:`repro.jit.service`) already collapses
N *threads* racing one ``CacheKey`` into a single translate+compile.  A
fleet of worker *processes* needs the same guarantee, and the only state
they share is the disk-cache directory — so the farm's mutual exclusion
lives there too, as one ``<digest>.lock`` file per cache key.

:class:`FileLock` takes ``fcntl.flock(LOCK_EX)`` on the lock file.  The
kernel releases the lock when the holder dies, so a crashed compiler can
never wedge the farm; there is no staleness protocol to get wrong.  POSIX
is not an extra requirement: ``import repro`` already registers a fork
handler with ``os.register_at_fork`` (:mod:`repro.mpi.launcher`).

The lock is acquired by *polling* with a short sleep rather than blocking
in the kernel: the caller gets a measurable ``waited_s`` (fed to the
service's ``farm_*`` counters) and a timeout (the farm degrades to a
duplicate compile rather than hanging a worker forever).  The poll interval backs
off exponentially with jitter (1 ms doubling to a 100 ms cap), so N
waiters parked on one long compile neither hammer the filesystem in
lockstep nor wake in a thundering herd when the leader releases.

Lock files are tiny, live next to the entries they guard, and are cleaned
up by ``cache.clear()``; an unlinked-but-held flock keeps protecting its
holder (the kernel tracks the inode, not the name).
"""

from __future__ import annotations

import fcntl
import os
import random
import time
from pathlib import Path
from typing import Optional

__all__ = ["FileLock"]

#: first retry delay for a busy lock (seconds); doubles per miss
_POLL_MIN_S = 0.001

#: retry-delay ceiling — waiters on a multi-second compile settle here
_POLL_MAX_S = 0.1


class FileLock:
    """An exclusive cross-process lock backed by one file.

    Usage::

        lock = FileLock(cache_dir / f"{digest}.lock")
        if lock.acquire(timeout=600.0):
            try:
                ...  # exactly one process runs this per lock path
            finally:
                lock.release()
        # lock.waited_s — seconds spent polling before acquisition

    ``acquire`` returns False on timeout or when the lock file cannot be
    opened (never raises); ``release`` is idempotent.  Also usable as a
    context manager (raises ``TimeoutError`` there, where a silent miss
    would skip the guarded block).
    """

    def __init__(self, path):
        self.path = Path(path)
        self.waited_s = 0.0
        self.contended = False  # another process held the lock first
        self.owner = str(os.getpid())  # this holder's line in the file
        self.last_owner = ""  # the holder's line, as read while waiting
        self._fd: Optional[int] = None

    @property
    def held(self) -> bool:
        """Whether this instance currently holds the lock."""
        return self._fd is not None

    def _try_once(self) -> bool:
        self.path.parent.mkdir(parents=True, exist_ok=True)
        fd = os.open(self.path, os.O_CREAT | os.O_RDWR, 0o644)
        try:
            fcntl.flock(fd, fcntl.LOCK_EX | fcntl.LOCK_NB)
        except OSError:
            try:  # empty while the holder is still writing its line
                self.last_owner = (os.pread(fd, 64, 0).decode(errors="replace")
                                   or self.last_owner)
            except OSError:
                pass
            os.close(fd)
            return False
        # Split-brain guard: between our open() and flock() the lock file
        # may have been unlinked (cache eviction drops entry locks) and
        # re-created by a newcomer.  We would then hold a flock on the
        # orphaned inode while the newcomer holds one on the live path —
        # two "holders".  Verify the fd still names the file at self.path;
        # if not, this acquisition is void: drop it and retry on the live
        # path.
        try:
            st_fd = os.fstat(fd)
            st_path = os.stat(self.path)
            current = (st_fd.st_dev == st_path.st_dev
                       and st_fd.st_ino == st_path.st_ino)
        except OSError:  # path vanished: we locked an orphan
            current = False
        if not current:
            os.close(fd)
            return False
        self._fd = fd
        try:  # the owner line is advisory (diagnostics only)
            os.ftruncate(fd, 0)
            os.write(fd, self.owner.encode())
        except OSError:
            pass
        return True

    def acquire(self, timeout: Optional[float] = None) -> bool:
        """Poll until the lock is held or ``timeout`` elapses.

        Returns True on acquisition; ``waited_s`` records the time spent
        polling (0.0 when the first try succeeded — i.e. no other process
        was compiling this key)."""
        if self._fd is not None:
            return True
        t0 = time.perf_counter()
        first = True
        delay = _POLL_MIN_S
        while True:
            try:
                if self._try_once():
                    self.waited_s = (time.perf_counter() - t0
                                     if self.contended else 0.0)
                    return True
            except OSError:
                # unwritable/odd cache dir: report failure, never raise —
                # the farm then degrades to an uncoordinated compile
                self.waited_s = time.perf_counter() - t0
                return False
            if first:
                first = False
                self.contended = True
            elapsed = time.perf_counter() - t0
            if timeout is not None and elapsed >= timeout:
                self.waited_s = elapsed
                return False
            # exponential backoff with jitter: N waiters parked on one
            # long compile desynchronize instead of polling in lockstep
            sleep_s = delay * random.uniform(0.5, 1.0)
            if timeout is not None:
                sleep_s = min(sleep_s, max(timeout - elapsed, 0.0))
            time.sleep(sleep_s)
            delay = min(delay * 2.0, _POLL_MAX_S)

    def release(self) -> None:
        """Drop the lock (idempotent; never raises)."""
        fd, self._fd = self._fd, None
        if fd is None:
            return
        try:
            os.close(fd)  # closes => flock released
        except OSError:
            pass

    def __enter__(self) -> "FileLock":
        if not self.acquire():
            raise TimeoutError(f"could not acquire {self.path}")
        return self

    def __exit__(self, *exc) -> None:
        self.release()
