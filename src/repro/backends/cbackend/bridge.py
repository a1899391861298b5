"""ctypes bridge: load the compiled .so and run it.

The translated program sees the host only through the ``WjEnv`` callback
table (layout mirroring ``prelude.PRELUDE``'s ``WjEnv``).  What a native
call needs and no call changes lives in a **call frame** (:class:`_Frame`):
the callback table, one buffer per array slot (the rank's memory) with the
pointer/length vectors naming them, one buffer per ``wj.output`` label whose
length is known at translation (the output table ``WjEnv.h`` points to), the
snapshot buffer, the typed return cell, and the ``wj_entry`` argument tuple
pointing at all of them.  Each :class:`CCompiled` keeps its idle frames on a
free list; ``run`` takes one (building it on a miss), binds the rank's
``RuntimeEnv`` to it, deep-copies the host arrays into the slot buffers
(§3.1: they are never written), zeroes the snapshot buffer, calls, publishes
the output buffers the call wrote into ``env.outputs``, reads the return
value back out and puts the frame back — so a warm call builds nothing and
derives no pointer.  A frame serves one call at a time; rank threads and
concurrent invokes each hold their own.

A loaded shared object is a :class:`Library`: the ``CDLL`` and the symbols
every artifact of it binds, bound once.  The process keeps one per verified
``.so`` in a table keyed by the SHA-256 of its bytes (:func:`library`,
:func:`register`), so a disk refill of an entry whose library is loaded
re-binds instead of re-loading.  A library is only ever loaded from bytes
that were hashed: a cold build from its private build directory, a disk hit
from a copy named by the hash and written from the verified bytes into the
process's build root — never from the cache directory, whose file the
loader would read again after the hash, and whose name the dynamic loader
would answer with whatever library it mapped under that name before.

MPI payloads cross as zero-copy NumPy views over the C memory, so the
simulated communicator exchanges the *actual translated data* — this is what
lets tests bit-compare C-backend MPI runs against sequential references.
"""

from __future__ import annotations

import ctypes as ct
import errno
import os
import threading
from functools import lru_cache
from typing import Sequence

import numpy as np

from repro.backends.base import CompiledProgram, check_slots, slot_guard
from repro.backends.cbackend.build import _build_root
from repro.errors import BackendError, GuestRuntimeError
from repro.lang import types as _t
from repro.obs import trace as _trace

__all__ = ["CCompiled", "CopyError", "EmitResult", "Library", "WjEnvStruct",
           "WjOutStruct", "libraries", "library", "register"]

_DT_NP = {1: np.float32, 2: np.float64, 3: np.int32, 4: np.int64, 5: np.uint8}

# callback prototypes — order and signatures must match prelude's WjEnv
_FN_RANK = ct.CFUNCTYPE(ct.c_int64, ct.c_void_p)
_FN_SEND = ct.CFUNCTYPE(None, ct.c_void_p, ct.c_void_p, ct.c_int64, ct.c_int32, ct.c_int64, ct.c_int64)
_FN_RECV = _FN_SEND
_FN_SENDRECV = ct.CFUNCTYPE(
    None, ct.c_void_p, ct.c_void_p, ct.c_int64, ct.c_int64,
    ct.c_void_p, ct.c_int64, ct.c_int64, ct.c_int32, ct.c_int64,
)
_FN_VOID = ct.CFUNCTYPE(None, ct.c_void_p)
_FN_ALLRED = ct.CFUNCTYPE(ct.c_double, ct.c_void_p, ct.c_double)
_FN_ALLRED_ARR = ct.CFUNCTYPE(None, ct.c_void_p, ct.c_void_p, ct.c_int64, ct.c_int32)
_FN_BCAST = ct.CFUNCTYPE(None, ct.c_void_p, ct.c_void_p, ct.c_int64, ct.c_int32, ct.c_int64)
_FN_GATHER = ct.CFUNCTYPE(
    None, ct.c_void_p, ct.c_void_p, ct.c_int64, ct.c_void_p, ct.c_int64, ct.c_int32, ct.c_int64
)
_FN_WTIME = ct.CFUNCTYPE(ct.c_double, ct.c_void_p)
_FN_TRANSFER = ct.CFUNCTYPE(None, ct.c_void_p, ct.c_int64)
_FN_OUTPUT = ct.CFUNCTYPE(None, ct.c_void_p, ct.c_char_p, ct.c_void_p, ct.c_int64, ct.c_int32)


class WjEnvStruct(ct.Structure):
    """ctypes mirror of the prelude's WjEnv callback table."""

    _fields_ = [
        ("h", ct.c_void_p),
        ("mpi_rank", _FN_RANK),
        ("mpi_size", _FN_RANK),
        ("mpi_send", _FN_SEND),
        ("mpi_recv", _FN_RECV),
        ("mpi_sendrecv", _FN_SENDRECV),
        ("mpi_barrier", _FN_VOID),
        ("mpi_allreduce_sum", _FN_ALLRED),
        ("mpi_allreduce_sum_arr", _FN_ALLRED_ARR),
        ("mpi_bcast", _FN_BCAST),
        ("mpi_gather", _FN_GATHER),
        ("mpi_wtime", _FN_WTIME),
        ("kernel_begin", _FN_VOID),
        ("kernel_end", _FN_VOID),
        ("gpu_transfer", _FN_TRANSFER),
        ("output", _FN_OUTPUT),
    ]


class WjOutStruct(ct.Structure):
    """ctypes mirror of the prelude's WjOut: a frame's output buffers and
    their written flags, which ``WjEnv.h`` points to."""

    _fields_ = [
        ("p", ct.POINTER(ct.c_void_p)),
        ("set", ct.POINTER(ct.c_int64)),
    ]


_EMPTY = {dt: np.empty(0, dtype=np_dt) for dt, np_dt in _DT_NP.items()}

#: an output buffer up to this size is copied out when the call publishes
#: it; a larger one is handed over whole, so a large output is copied once,
#: at its ``wj.output`` site, and the frame allocates a fresh one when its
#: next call starts (by then the caller may have dropped an older output
#: whose memory it can reuse).  Handing over costs a fixed ~2 us (a new
#: buffer and its ``.ctypes.data``) against a copy's ~0.4 us plus its bytes;
#: the two cross between 56 and 96 KiB (EXPERIMENTS.md "warm invoke").
_HAND_OVER_BYTES = 1 << 16


@lru_cache(maxsize=4096)
def _char_array_type(nbytes: int):
    # creating a ctypes array *type* is expensive; sizes repeat heavily
    # (halo planes, blocks), so cache them
    return ct.c_char * nbytes


def _view(p, count, dt) -> np.ndarray:
    """Zero-copy NumPy view over translated-code memory."""
    dt = int(dt)
    count = int(count)
    if count == 0:
        return _EMPTY[dt]
    np_dt = _DT_NP[dt]
    buf = _char_array_type(count * np.dtype(np_dt).itemsize).from_address(p)
    return np.frombuffer(buf, dtype=np_dt)


class _Cell:
    """What a frame's callbacks read, held instead of the frame: ctypes
    thunks are invisible to the cycle collector, so a loop through them
    back to the frame would keep it and its slot buffers forever."""

    __slots__ = ("env", "error")

    def __init__(self):
        self.env = None      # the RuntimeEnv of the call in flight
        self.error = None    # first exception raised by a callback


def _make_env(cell: _Cell) -> tuple[WjEnvStruct, list]:
    """Build the callback table for one call frame, once.

    The thunks are bound to ``cell``, not to an environment: each callback
    reads the cell's current ``env`` (rebound by every ``run``), so one
    table serves every call that uses the frame.  The thunk list is
    returned so that the frame itself holds every callback native code may
    call, for as long as it may call it.

    Every callback goes through the one ``metered`` wrapper, which first
    notes the native→host transition so the calibrated instrumentation cost
    is deducted from the rank's compute segment (see repro.mpi.calibrate),
    which opens a ``runtime.callback`` span when tracing is on, and which
    records the first exception a callback raises: ctypes cannot unwind
    through C, so ``run`` re-raises it once ``wj_entry`` has returned, and
    the callbacks in between do nothing.
    """

    def metered(fn):
        name = fn.__name__

        def wrapped(h, *args):
            if cell.error is not None:
                return 0
            env = cell.env
            try:
                env.note_native_entry()
                if _trace.enabled():
                    with _trace.span("runtime.callback", callback=name):
                        return fn(env, *args)
                return fn(env, *args)
            except BaseException as exc:
                cell.error = exc
                return 0

        return wrapped

    def mpi_rank(env):
        return env.mpi_rank()

    def mpi_size(env):
        return env.mpi_size()

    def mpi_send(env, p, count, dt, dest, tag):
        env.mpi_send(_view(p, count, dt), dest, tag)

    def mpi_recv(env, p, count, dt, src, tag):
        env.mpi_recv(_view(p, count, dt), src, tag)

    def mpi_sendrecv(env, sp, sc, dest, rp, rc, src, dt, tag):
        env.mpi_sendrecv(_view(sp, sc, dt), dest, _view(rp, rc, dt), src, tag)

    def mpi_barrier(env):
        env.mpi_barrier()

    def mpi_allreduce_sum(env, v):
        return env.mpi_allreduce_sum(v)

    def mpi_allreduce_sum_arr(env, p, count, dt):
        env.mpi_allreduce_sum_array(_view(p, count, dt))

    def mpi_bcast(env, p, count, dt, root):
        env.mpi_bcast(_view(p, count, dt), root)

    def mpi_gather(env, p, count, out, outcount, dt, root):
        env.mpi_gather(_view(p, count, dt), _view(out, outcount, dt), root)

    def mpi_wtime(env):
        return env.mpi_wtime()

    def kernel_begin(env):
        env.kernel_begin()

    def kernel_end(env):
        env.kernel_end()

    def gpu_transfer(env, nbytes):
        env.gpu_transfer(nbytes)

    def output(env, label, p, count, dt):
        env.output(label.decode(), _view(p, count, dt))

    thunks = [
        _FN_RANK(metered(mpi_rank)),
        _FN_RANK(metered(mpi_size)),
        _FN_SEND(metered(mpi_send)),
        _FN_RECV(metered(mpi_recv)),
        _FN_SENDRECV(metered(mpi_sendrecv)),
        _FN_VOID(metered(mpi_barrier)),
        _FN_ALLRED(metered(mpi_allreduce_sum)),
        _FN_ALLRED_ARR(metered(mpi_allreduce_sum_arr)),
        _FN_BCAST(metered(mpi_bcast)),
        _FN_GATHER(metered(mpi_gather)),
        _FN_WTIME(metered(mpi_wtime)),
        _FN_VOID(metered(kernel_begin)),
        _FN_VOID(metered(kernel_end)),
        _FN_TRANSFER(metered(gpu_transfer)),
        _FN_OUTPUT(metered(output)),
    ]
    struct = WjEnvStruct(None, *thunks)
    return struct, thunks


class _Frame:
    """What one native call needs and no call changes: the callback table
    and its cell, one buffer per array slot with the pointer/length vectors
    naming them, the output table (one buffer per ``wj.output`` label of
    known length, their pointers and written flags), the snapshot buffer,
    the return cell and the ``wj_entry`` argument tuple that points at all
    of them.

    A frame serves one call at a time.  Between calls it sits on its
    artifact's free list holding neither an environment nor an error."""

    __slots__ = ("cell", "struct", "thunks", "bufs", "ptrs", "lens",
                 "out_labels", "out_specs", "out_bufs", "out_ptrs", "out_set",
                 "out", "out_missing", "snap", "ret", "args")

    def __init__(self, slots, outputs, snap_size: int, ret_ctype, iv, dv):
        self.cell = _Cell()
        self.struct, self.thunks = _make_env(self.cell)
        self.bufs = [np.empty(length, dtype) for length, dtype in slots]
        n = max(1, len(slots))
        self.ptrs = (ct.c_void_p * n)(*[b.ctypes.data for b in self.bufs])
        self.lens = (ct.c_int64 * n)(*[b.size for b in self.bufs])
        #: (buffer index, label) per output buffer ``publish`` hands over
        self.out_labels = tuple(enumerate([o[0] for o in outputs]))
        self.out_specs = [(length, _DT_NP[dt]) for _, length, dt in outputs]
        self.out_bufs: list = [None] * len(outputs)
        n = max(1, len(outputs))
        self.out_ptrs = (ct.c_void_p * n)()
        self.out_set = (ct.c_int64 * n)()
        self.out = WjOutStruct(self.out_ptrs, self.out_set)
        self.struct.h = ct.addressof(self.out)
        #: some output buffer is None: not yet allocated, or handed over
        self.out_missing = bool(outputs)
        self.snap = ct.create_string_buffer(max(1, snap_size))
        self.ret = ret_ctype()
        self.args = (
            ct.byref(self.struct),
            ct.c_void_p(ct.addressof(self.snap)),
            self.ptrs,
            self.lens,
            iv,
            dv,
            ct.c_void_p(ct.addressof(self.ret)),
        )

    def fill_outputs(self) -> None:
        """Allocate each output buffer the frame lacks (all of them on its
        first call, then those a call handed over)."""
        for k, (length, dtype) in enumerate(self.out_specs):
            if self.out_bufs[k] is None:
                buf = self.out_bufs[k] = np.empty(length, dtype)
                self.out_ptrs[k] = buf.ctypes.data
        self.out_missing = False

    def publish(self, env) -> int:
        """Hand each output buffer the call wrote to ``env``; returns how
        many.  A small buffer goes through ``env.output``, which copies it,
        like any other output; a large one is given away (``env.publish``)
        and the next call allocates its replacement.  Either way the frame
        never shares memory with a published array."""
        written, bufs = self.out_set, self.out_bufs
        published = 0
        for k, label in self.out_labels:
            if not written[k]:
                continue
            buf = bufs[k]
            if buf.nbytes > _HAND_OVER_BYTES:
                bufs[k] = None
                self.out_missing = True
                env.publish(label, buf)
            else:
                env.output(label, buf)
            published += 1
        return published


# the C type of the cell wj_entry writes its return value to (VOID entries
# get a cell too, so the argument tuple has one shape)
_RET_CTYPE = {
    _t.VOID: ct.c_int64,
    _t.F64: ct.c_double,
    _t.F32: ct.c_float,
    _t.I64: ct.c_int64,
    _t.I32: ct.c_int32,
    _t.BOOL: ct.c_int32,
}


class EmitResult:
    """Emitted source plus the runtime-initialization data the bridge needs
    (scalar tables, entry return type, array-slot layout).  Built by the
    emitter on a miss and from entry metadata on a disk hit, which is why
    it lives here and ``emit.py`` re-exports it.  A disk hit passes the
    verified source bytes undecoded (``CompiledProgram.source`` decodes)."""

    def __init__(self, source: "str | bytes", ivals: list[int],
                 dvals: list[float], entry_ret: _t.Type, array_slots: list,
                 uses_omp: bool = False, uses_dgemm: bool = False,
                 outputs: Sequence = ()):
        self.source = source
        self.ivals = ivals
        self.dvals = dvals
        self.entry_ret = entry_ret
        #: captured (length, dtype) per array slot; both key the cache
        self.slots = [(s.array.size, s.array.dtype) for s in array_slots]
        #: (label, length, dtype code) per frame-owned output buffer, in
        #: the emitted code's buffer order
        self.outputs = list(map(tuple, outputs))
        #: always None; read only by the benchmarks/ledger replay
        self.units = None
        #: the source contains `#pragma omp` loops / a wj_dgemm call site —
        #: the build adds -fopenmp / BLAS flags accordingly
        self.uses_omp = uses_omp
        self.uses_dgemm = uses_dgemm


class Library:
    """One loaded shared object and what every artifact of it binds, each
    bound once: ``wj_entry``, the value of ``wj_snap_size()`` with a zeroed
    snapshot of that size, and ``wj_oob_count_take`` (every build exports
    it; only a bounds-checked artifact reads it)."""

    __slots__ = ("path", "lib", "entry", "snap_size", "zeros", "oob_take")

    def __init__(self, path: str):
        self.path = path
        lib = self.lib = ct.CDLL(path)
        snap_size = lib["wj_snap_size"]
        snap_size.restype = ct.c_int64
        self.snap_size = int(snap_size())
        self.zeros = bytes(max(1, self.snap_size))
        # no argtypes: every argument is already a ctypes object of the
        # right C type (_Frame.args), and skipping the per-call conversion
        # checks halves the native call
        self.entry = lib["wj_entry"]
        self.entry.restype = None
        self.oob_take = lib["wj_oob_count_take"]
        self.oob_take.restype = ct.c_int64


#: SHA-256 of a ``.so``'s bytes -> its loaded :class:`Library`.  Rows are
#: never dropped: a library is never unloaded either
_LIBRARIES: dict[str, Library] = {}
_LIBRARIES_LOCK = threading.Lock()


class CopyError(OSError):
    """The verified bytes of a ``.so`` could not be put where this process
    loads libraries from: its build root is full, gone, or mounted
    ``noexec``.  A fault of the process, not of the bytes."""


def _copy(sha: str, payload: bytes) -> str:
    """Write ``payload`` to ``<build root>/<sha>.so`` and return that path;
    raises :class:`CopyError`, leaving no ``.tmp`` behind."""
    try:
        root = str(_build_root())
        if os.statvfs(root).f_flag & os.ST_NOEXEC:
            raise OSError(errno.EACCES, "build root is mounted noexec", root)
        path = os.path.join(root, sha + ".so")
        tmp = path + ".tmp"
        try:
            with open(tmp, "wb") as fh:
                fh.write(payload)
            os.replace(tmp, path)
        except OSError:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            raise
    except OSError as exc:
        raise CopyError(str(exc)) from exc
    return path


def library(sha: str, payload: bytes) -> Library:
    """The loaded library whose bytes hash to ``sha``; ``payload`` are those
    bytes, already verified by the caller.  On the first request for
    ``sha`` the library is loaded from a copy of ``payload`` named by
    ``sha`` in the process's private build root (:func:`_copy`), so what
    the loader maps is what was hashed; bytes that will not load raise
    ``OSError`` from the load."""
    row = _LIBRARIES.get(sha)
    if row is not None:
        return row
    with _LIBRARIES_LOCK:
        row = _LIBRARIES.get(sha)
        if row is None:
            row = _LIBRARIES[sha] = Library(_copy(sha, payload))
        return row


def register(sha: str, lib: Library) -> None:
    """File a library loaded from its build directory under ``sha``, the
    hash of the bytes the code cache stored for it (a row already filed
    under ``sha`` stays)."""
    with _LIBRARIES_LOCK:
        _LIBRARIES.setdefault(sha, lib)


def libraries() -> int:
    """How many verified libraries the table holds."""
    return len(_LIBRARIES)


class CCompiled(CompiledProgram):
    """A callable translated program: a :class:`Library` and the scalar
    tables and call frames of one emission."""

    def __init__(self, lib, emit: EmitResult, source, *,
                 bounds_checks: bool = False):
        # ``lib``: a Library, or the path of a fresh build to load one from
        if not isinstance(lib, Library):
            lib = Library(str(lib))
        self.library = lib
        self.emit_result = emit
        self.source = source
        self.bounds_checks = bounds_checks
        self._snap_size = lib.snap_size
        self._entry = lib.entry
        #: the out-of-bounds counter only a bounds-checked build reads
        self._oob_take = lib.oob_take if bounds_checks else None
        n_i = max(1, len(emit.ivals))
        n_d = max(1, len(emit.dvals))
        self._iv = (ct.c_int64 * n_i)(*(emit.ivals or [0]))
        self._dv = (ct.c_double * n_d)(*(emit.dvals or [0.0]))
        #: what every frame's slots and snapshot buffer start a call from:
        #: the (shape, dtype) an argument must have, and zeros
        self._guard = slot_guard(emit.slots)
        self._zeros = lib.zeros
        #: idle call frames; list.pop/append are atomic, so rank threads and
        #: concurrent invokes share it without a lock
        self._frames: list[_Frame] = []

    @property
    def so_path(self) -> str:
        """The file the library was loaded from."""
        return self.library.path

    @property
    def omp_max_threads(self) -> int:
        """``omp_get_max_threads()`` inside the loaded program, 0 when it
        has no parallel loop.  Read on demand: only a program with a
        parallel loop exports ``wj_omp_max_threads``, and a load probes no
        symbol it may lack."""
        try:
            fn = self.library.lib["wj_omp_max_threads"]
        except AttributeError:
            return 0
        fn.restype = ct.c_int64
        return int(fn())

    def _new_frame(self) -> _Frame:
        ret_ty = self.emit_result.entry_ret
        ret_ctype = _RET_CTYPE.get(ret_ty)
        if ret_ctype is None:
            raise BackendError(
                f"entry return type {ret_ty!r} cannot cross the C boundary"
            )
        return _Frame(self.emit_result.slots, self.emit_result.outputs,
                      self._snap_size, ret_ctype, self._iv, self._dv)

    def run(self, env, arrays: Sequence[np.ndarray]):
        try:
            frame = self._frames.pop()
        except IndexError:
            frame = self._new_frame()
        phase = _trace.phases("invoke.copy") if _trace.enabled() else None
        cell = frame.cell
        try:
            cell.env = env
            check_slots(self._guard, arrays)
            # the deep copy: C sees only these buffers, at captured lengths
            for buf, src in zip(frame.bufs, arrays):
                buf[...] = src
            if phase:
                phase.next("invoke.marshal")
            # generated code materializes into a zeroed snapshot buffer
            frame.snap.raw = self._zeros
            frame.ret.value = 0
            if frame.out_missing:
                frame.fill_outputs()
            if phase:
                phase.next("invoke.native")
            self._entry(*frame.args)
            if phase:
                phase.next("invoke.unmarshal")
            oob = self._oob_take() if self._oob_take is not None else 0
            if cell.error is not None:
                raise cell.error
            if oob:
                raise GuestRuntimeError(
                    f"{oob} out-of-bounds array access(es) in translated "
                    f"code (debug bounds checking)"
                )
            if frame.out_labels:
                published = frame.publish(env)
                if phase:
                    phase.set(outputs=published)
            ret_ty = self.emit_result.entry_ret
            if ret_ty is _t.VOID:
                return None
            value = frame.ret.value
            return bool(value) if ret_ty is _t.BOOL else value
        finally:
            # an idle frame pins neither the rank's environment (and through
            # it the RankContext and outputs) nor a callback's exception
            cell.env = cell.error = None
            self._frames.append(frame)
            if phase:
                phase.end()
