"""Simulator calibration: native-callback entry overhead.

Translated C code reaches the simulated MPI/CUDA runtime through ctypes
callbacks.  The transition (ctypes thunk dispatch, GIL acquisition, Python
frame entry, buffer-view construction) costs ~5-15 µs of *host* CPU that
would not exist on a real machine, and it lands between a rank's last
compute instruction and the first line of the runtime op — i.e. it would be
mis-attributed to the rank's *compute* segment on the virtual clock.

Standard simulator practice is to calibrate the instrumentation cost and
deduct it.  ``callback_entry_overhead()`` measures the round-trip of a
representative callback (with a buffer-view build, like the communication
ops) once per process and caches it; the bridge deducts this constant at
every native runtime-op entry (clamped at zero, so under-estimation can
never create negative time).

The C code that calls back is the C library's own ``qsort``: its comparator
is a ctypes callback like any of the bridge's, so calibrating compiles
nothing and a fresh process builds no translation unit besides its program's.
"""

from __future__ import annotations

import ctypes as ct
import time

__all__ = ["callback_entry_overhead"]

_cached: float | None = None


def _measure() -> float:
    import numpy as np

    from repro.backends.cbackend.bridge import _view

    cmp_t = ct.CFUNCTYPE(ct.c_int, ct.c_void_p, ct.c_void_p)
    qsort = ct.CDLL(None).qsort
    qsort.argtypes = [ct.c_void_p, ct.c_size_t, ct.c_size_t, cmp_t]
    qsort.restype = None

    entries = []

    def cb(a, b):
        entries.append(_view(a, 1024, 1).shape)  # mimic a comm-op entry
        return 0  # all equal: nothing moves, ~n log n comparisons

    thunk = cmp_t(cb)
    # every element can head a 1024-float view
    buf = np.zeros(512 + 1024, dtype=np.float32)
    qsort(buf.ctypes.data, 64, buf.itemsize, thunk)  # warm up
    entries.clear()
    t0 = time.thread_time()
    qsort(buf.ctypes.data, 512, buf.itemsize, thunk)
    return (time.thread_time() - t0) / len(entries)


def callback_entry_overhead() -> float:
    """Calibrated per-callback transition cost (seconds), cached."""
    global _cached
    if _cached is None:
        _cached = _measure()
    return _cached
