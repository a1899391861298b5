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
never create negative time).  The C side of the measurement is ``wj_probe``,
a symbol of every generated ``.so`` (``prelude.PRELUDE``): the bridge offers
each artifact it loads and the first one is measured through, so a fresh
process compiles no translation unit besides its program's.
"""

from __future__ import annotations

import ctypes as ct
import time

__all__ = ["callback_entry_overhead", "offer_probe"]

_probe_lib: ct.CDLL | None = None
_cached: float | None = None


def offer_probe(lib: ct.CDLL) -> None:
    """Keep the first translated artifact loaded to measure through."""
    global _probe_lib
    if _probe_lib is None:
        _probe_lib = lib


def _measure(lib: ct.CDLL) -> float:
    import numpy as np

    from repro.backends.cbackend.bridge import _view

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
        if _probe_lib is None:
            # nothing native is loaded: pure-Python backends call the
            # runtime directly; transition cost is a fraction of a microsecond
            return 5e-7
        _cached = _measure(_probe_lib)
    return _cached
