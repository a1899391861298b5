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
"""

from __future__ import annotations

import ctypes as ct
import time

__all__ = ["callback_entry_overhead"]

_PROBE_SRC = r"""
#include <stdint.h>
typedef void (*wj_probe_cb)(void*, const void*, int64_t, int32_t,
                            int64_t, int64_t);
void wj_probe(wj_probe_cb cb, void* h, const void* p, int64_t count,
              int64_t k) {
    for (int64_t i = 0; i < k; i++)
        cb(h, p, count, 1, 0, 0);
}
"""

_cached: float | None = None


def _measure() -> float:
    from repro.backends.base import OptLevel
    from repro.backends.cbackend.build import (
        build_shared_object,
        compiler_available,
    )

    if not compiler_available():
        # pure-Python backends call the runtime directly; transition cost is
        # a fraction of a microsecond
        return 5e-7
    import numpy as np

    from repro.backends.cbackend.bridge import _view

    so_path, _ = build_shared_object(_PROBE_SRC, OptLevel.FULL)
    lib = ct.CDLL(str(so_path))
    cb_t = ct.CFUNCTYPE(
        None, ct.c_void_p, ct.c_void_p, ct.c_int64, ct.c_int32,
        ct.c_int64, ct.c_int64,
    )
    lib.wj_probe.argtypes = [cb_t, ct.c_void_p, ct.c_void_p, ct.c_int64,
                             ct.c_int64]
    lib.wj_probe.restype = None

    sink = []

    def cb(h, p, count, dt, a, b):
        sink.append(_view(p, count, dt).shape)  # mimic a comm-op entry
        sink.clear()

    thunk = cb_t(cb)
    buf = np.zeros(1024, dtype=np.float32)
    k = 2000
    lib.wj_probe(thunk, None, buf.ctypes.data, buf.shape[0], 200)  # warm up
    t0 = time.thread_time()
    lib.wj_probe(thunk, None, buf.ctypes.data, buf.shape[0], k)
    per_call = (time.thread_time() - t0) / k
    return per_call


def callback_entry_overhead() -> float:
    """Calibrated per-callback transition cost (seconds), cached."""
    global _cached
    if _cached is None:
        _cached = _measure()
    return _cached
