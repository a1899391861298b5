"""Two-tier translated-code cache: in-process memory + persistent disk.

The paper's Table 3 argues that WootinJ's 4–5 s JIT cost is acceptable
because it is *amortized* across invocations.  A process-local cache only
amortizes within one process; this module adds a second, on-disk tier so a
fresh process with a warm cache skips the translator *and* the external C
compiler entirely (the warm path never spawns gcc — it just reloads the
compiled shared object and replays the recorded emission metadata).  It
is the only artifact cache: the C build (:mod:`repro.backends.cbackend.build`)
runs the compiler on every call and leaves its ``.so`` in a directory that
lives as long as the process, so a C entry stores a copy of its own.

Cache keys are stable digests of everything that determines the translated
artifact:

* the guest **source text** of every reachable method (transitive closure
  over the ``@wootin`` registry starting from the receiver/argument classes,
  following base classes, subclasses — they shape vtables and finality —
  and class names referenced inside method bodies);
* the receiver and argument **shape digests** (these embed the recorded
  constant values the translator bakes in);
* the backend name, optimization level, bounds-check mode;
* the C compiler identification and the optimization level's compiler flags
  (for the C backend: an entry carries its own ``.so``), the host architecture,
  the Python ``major.minor`` with its bytecode magic (a py entry carries its
  own marshalled code object), and the framework version.

This replaces the old ``id(minfo)``-based key, which was neither stable
across processes nor safe against on-disk source edits.

Disk entries are written atomically (temp file + ``os.replace``) so
concurrent writers are safe, and every entry carries content hashes of its
payload files; corrupted or truncated entries are detected at load time,
dropped, and silently recompiled.

The disk tier is multi-process aware (it is the shared state of the
compile farm, see docs/COMPILE_FARM.md): the tier is size-capped with LRU
eviction (``REPRO_DISK_CACHE_MAX_MB``), writers can hold a per-entry
cross-process file lock (:mod:`repro.jit.locks`), and maintenance tolerates
concurrent workers evicting the same entry.  A disk *hit* is read-only: it
verifies the payload hashes and bumps the mtime of the entry's ``.json``
commit marker (``os.utime`` — that mtime is the entry's recency), but never
writes file contents, so N ranks hitting one key never race each other or a
concurrent rebuild of it.

This module is on the cache-hit path of a fresh process: it imports nothing
of the compile stack (IR, lowering, passes, emitters — DESIGN.md, "Import
layers"), and the knobs that key the cache are read through
:mod:`repro.env`.

Environment:

* ``REPRO_CACHE_DIR``   — disk-tier directory (default
  ``$XDG_CACHE_HOME/repro-wootinj`` or ``~/.cache/repro-wootinj``);
* ``REPRO_DISK_CACHE=0`` — disable the disk tier (memory tier stays on);
* ``REPRO_DISK_CACHE_MAX_MB`` — byte cap for the disk tier (0/unset =
  unbounded); exceeding it evicts least-recently-*used* entries on store.
"""

from __future__ import annotations

import hashlib
import importlib.util
import inspect
import json
import marshal
import os
import platform
import re
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

from repro import env as _env
from repro.frontend.shapes import ObjShape, Shape
from repro.jit.program import Program
from repro.lang import types as _t
from repro.obs.trace import span as _span

__all__ = [
    "CacheHit",
    "cache_dir",
    "clear",
    "clear_memory",
    "disk_cap_bytes",
    "disk_enabled",
    "entry_lock",
    "evict",
    "guest_source_digest",
    "key_config",
    "lookup",
    "program_key",
    "py_slot_decisions",
    "stats",
    "store",
]

#: 3: py artifacts carry their array-slot representation (``__list_slots``)
#: in the source; an older py entry has none and must never be hydrated
#: 4: the key covers the compiler flags (older entries could be served to a
#: process whose flag table had changed)
#: 5: a py entry carries its marshalled module code object (``.pyc``), so a
#: hit compiles nothing; an older py entry has none and is never hydrated
#: 6: a C entry's ``wj.output`` sites copy into call-frame buffers (the
#: ``outputs`` meta field); an older ``.so`` expects the old WjEnv contract
_FORMAT_VERSION = 6

#: the interpreter token of the key.  Marshal data written under another
#: bytecode format can crash the interpreter that loads it, so only the
#: format that wrote a py entry's ``.pyc`` may read it: the magic keys it
_PY_TOKEN = (f"{sys.version_info[0]}.{sys.version_info[1]}:"
             f"{importlib.util.MAGIC_NUMBER.hex()}")

#: entry-return-type name <-> singleton mapping (for disk serialization)
_RET_BY_NAME = {
    "void": _t.VOID,
    "boolean": _t.BOOL,
    "i32": _t.I32,
    "i64": _t.I64,
    "f32": _t.F32,
    "f64": _t.F64,
}
_NAME_BY_RET = {id(v): k for k, v in _RET_BY_NAME.items()}

_IDENT_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")

# -- memory tier -----------------------------------------------------------

#: guards the memory tier and its counters — ``jit()`` may be called from
#: many threads at once, so store/lookup must not interleave on a torn
#: dict/counter state.  The lock is reentrant because :func:`clear` calls
#: :func:`clear_memory`.
_TIER_LOCK = threading.RLock()

#: digest -> (program, compiled, meta)
_MEMORY: dict[str, tuple] = {}

#: in-process counters, reported by :func:`stats`
_COUNTERS = {"memory_hits": 0, "disk_hits": 0, "misses": 0, "stores": 0,
             "evictions": 0, "bytes_evicted": 0, "tmp_swept": 0,
             "torn_dropped": 0}

#: guest-source digest memo: (registry generation, sorted root qualnames)
_GUEST_DIGEST_MEMO: dict[tuple, tuple[str, bool]] = {}


# ---------------------------------------------------------------------------
# key composition
# ---------------------------------------------------------------------------

#: defining-file memo: path -> (mtime_ns, size, sha256, text)
_FILE_MEMO: dict[str, tuple[int, int, str, str]] = {}


def _class_file(info) -> Optional[str]:
    """Path of the module file that defines one guest class (None when the
    class has no readable source — e.g. defined interactively)."""
    try:
        mod = sys.modules.get(info.pycls.__module__)
        path = getattr(mod, "__file__", None) or inspect.getfile(info.pycls)
    except (OSError, TypeError):
        return None
    if not path or not os.path.isfile(path):
        return None
    return path


def _file_text_sha(path: str) -> tuple[str, str]:
    """``(sha256, text)`` of one source file, memoized by (mtime, size)."""
    st = os.stat(path)
    memo = _FILE_MEMO.get(path)
    if memo is not None and memo[0] == st.st_mtime_ns and memo[1] == st.st_size:
        return memo[2], memo[3]
    text = Path(path).read_text(encoding="utf-8", errors="replace")
    sha = hashlib.sha256(text.encode()).hexdigest()
    _FILE_MEMO[path] = (st.st_mtime_ns, st.st_size, sha, text)
    return sha, text


def _shape_classes(shape: Shape, out: list) -> None:
    if isinstance(shape, ObjShape):
        out.append(shape.cls)
        for fshape in shape.fields.values():
            _shape_classes(fshape, out)


def guest_source_digest(root_infos) -> tuple[str, bool]:
    """Digest of the guest source reachable from ``root_infos``.

    The closure starts from the root classes, follows base classes and
    subclasses (they shape vtables and finality), and pulls in any
    registered guest class whose name appears in an already-reachable
    defining file.  Source is hashed at *file* granularity — the whole
    defining module of each reachable class — which over-approximates the
    per-method closure (safe: edits can only invalidate, never miss) and
    keeps the warm path fast (one read+hash per file instead of a tokenize
    pass per method).

    Returns ``(hexdigest, persistable)`` — ``persistable`` is False when
    some reachable class's source cannot be read (the digest is then only
    unique within this process and must not be written to disk).
    """
    roots = sorted({info.qualname for info in root_infos})
    generation = len(_t.WOOTIN_CLASSES)
    memo_key = (generation, tuple(roots))
    cached = _GUEST_DIGEST_MEMO.get(memo_key)
    if cached is not None:
        return cached

    by_name: dict[str, list] = {}
    for info in _t.WOOTIN_CLASSES.values():
        by_name.setdefault(info.name, []).append(info)

    seen: dict[int, object] = {}
    files: dict[str, str] = {}  # path -> sha (None path handled separately)
    persistable = True
    nosource_markers: list[str] = []
    work = [i for i in _t.WOOTIN_CLASSES.values() if i.qualname in set(roots)]
    while work:
        info = work.pop()
        if id(info) in seen:
            continue
        seen[id(info)] = info
        work.extend(info.bases)
        work.extend(info.subclasses)
        path = _class_file(info)
        if path is None:
            persistable = False
            nosource_markers.append(f"<nosource:{info.qualname}:{id(info.pycls)}>")
            continue
        if path in files:
            continue
        try:
            sha, text = _file_text_sha(path)
        except OSError:
            persistable = False
            nosource_markers.append(f"<unreadable:{info.qualname}:{id(info.pycls)}>")
            continue
        files[path] = sha
        # any registered guest class named in this file joins the closure
        for ident in set(_IDENT_RE.findall(text)):
            for cand in by_name.get(ident, ()):
                if id(cand) not in seen:
                    work.append(cand)

    h = hashlib.sha256()
    for info in sorted(seen.values(), key=lambda i: i.qualname):
        h.update(info.qualname.encode())
        h.update(repr(sorted((f, repr(t)) for f, t in info.field_decls.items())).encode())
        h.update(repr(sorted(info.shared_fields)).encode())
        h.update(repr(sorted(b.qualname for b in info.bases)).encode())
        h.update(repr(sorted(s.qualname for s in info.subclasses)).encode())
        h.update(repr(sorted(info.methods)).encode())
    for sha in sorted(files.values()):
        h.update(sha.encode())
    for marker in sorted(nosource_markers):
        h.update(marker.encode())
    result = (h.hexdigest(), persistable)
    _GUEST_DIGEST_MEMO[memo_key] = result
    return result


_CC_VERSION_CACHE: Optional[str] = None


def _cc_version() -> str:
    global _CC_VERSION_CACHE
    if _CC_VERSION_CACHE is None:
        from repro.backends.cbackend.build import cc_version

        _CC_VERSION_CACHE = cc_version()
    return _CC_VERSION_CACHE


_FLAG_SETS: Optional[dict] = None  # build.FLAG_SETS itself, the live table


def _cc_flags(opt) -> str:
    global _FLAG_SETS
    if _FLAG_SETS is None:  # an import statement per key would cost 1 us
        from repro.backends.cbackend.build import FLAG_SETS

        _FLAG_SETS = FLAG_SETS
    return " ".join(_FLAG_SETS[opt])


@dataclass
class CacheKey:
    """A computed program key: the digest, whether it may hit disk, and the
    mid-end passes it was digested under (what a miss must run)."""

    digest: str
    persistable: bool
    passes: tuple = ()


def key_config(backend: str, opt) -> tuple:
    """The inputs of :func:`program_key` that live outside the object graph
    and can change while a process runs: the raw cache-keying knobs and the
    live flag string.  The rest (version, interpreter, machine, ``cc``) is
    fixed for the process, and the guest digest moves only with the class
    registry."""
    return _env.key_knobs(), _cc_flags(opt) if backend == "c" else ""


def program_key(minfo, recv_shape: ObjShape, arg_shapes, *, backend: str,
                opt, bounds_checks: bool = False) -> CacheKey:
    """Stable digest identifying one translated program (see module doc)."""
    import repro

    roots: list = [minfo.owner]
    _shape_classes(recv_shape, roots)
    for s in arg_shapes:
        _shape_classes(s, roots)
    guest, persistable = guest_source_digest(roots)
    passes = _env.pipeline_passes(opt, backend, bounds_checks)
    material = {
        "v": _FORMAT_VERSION,
        "repro": repro.__version__,
        "py": _PY_TOKEN,
        "machine": platform.machine(),
        "guest": guest,
        "method": f"{minfo.owner.qualname}.{minfo.name}",
        "recv": recv_shape.digest(),
        "args": [s.digest() for s in arg_shapes],
        "backend": backend,
        "opt": opt.value,
        # the mid-end configuration shapes the emitted artifact, so it MUST
        # key the cache: toggling REPRO_OPT_PASSES can never reuse a stale
        # artifact built under a different pass set
        "opt_passes": ",".join(passes),
        # likewise the parallel-loop configuration (REPRO_OMP /
        # REPRO_OMP_REDUCTIONS change the emitted pragmas) and the BLAS
        # build mode (REPRO_BLAS changes build flags for identical source)
        "omp": _env.omp_token(opt) if backend == "c" else "",
        "blas": _env.blas_token() if backend == "c" else "",
        "bounds": bool(bounds_checks),
        "cc": _cc_version() if backend == "c" else "",
        # a disk entry carries its own .so: an edit to the flag table must
        # not be served the artifact the old flags built
        "flags": _cc_flags(opt) if backend == "c" else "",
    }
    blob = json.dumps(material, sort_keys=True).encode()
    return CacheKey(hashlib.sha256(blob).hexdigest(), persistable, passes)


# ---------------------------------------------------------------------------
# disk tier
# ---------------------------------------------------------------------------

def _cache_root() -> str:
    """The disk-tier directory as a string: a hit joins file names to it
    without building a ``Path``."""
    env = os.environ.get("REPRO_CACHE_DIR")
    if env:
        return env
    base = (os.environ.get("XDG_CACHE_HOME")
            or os.path.join(os.path.expanduser("~"), ".cache"))
    return os.path.join(base, "repro-wootinj")


def cache_dir() -> Path:
    """The disk-tier directory (``REPRO_CACHE_DIR`` override honored)."""
    return Path(_cache_root())


def disk_enabled() -> bool:
    """Whether the persistent tier is active (``REPRO_DISK_CACHE=0`` off)."""
    return _env.env_flag("REPRO_DISK_CACHE", default=True)


def disk_cap_bytes() -> int:
    """The disk-tier byte cap (``REPRO_DISK_CACHE_MAX_MB``; 0 = unbounded)."""
    mb = _env.env_float("REPRO_DISK_CACHE_MAX_MB", 0.0)
    return int(mb * 1024 * 1024) if mb > 0 else 0


def _read(path: str) -> bytes:
    """One file's bytes: one open, one read.  A missing file raises."""
    with open(path, "rb") as fh:
        return fh.read()


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _atomic_write_bytes(path: str, data: bytes) -> None:
    tmp = f"{path}.tmp{os.getpid()}"
    with open(tmp, "wb") as fh:
        fh.write(data)
    os.replace(tmp, path)


def _entry_paths(root, digest: str) -> tuple[str, str, str, str]:
    """``.json`` (the commit marker), ``.src``, ``.so`` (C) and ``.pyc`` (py)
    of one entry, as strings."""
    base = os.path.join(root, digest)
    return base + ".json", base + ".src", base + ".so", base + ".pyc"


def entry_lock(digest: str, root: Optional[Path] = None):
    """The cross-process :class:`~repro.jit.locks.FileLock` guarding one
    entry — the compile farm's single-flight token (docs/COMPILE_FARM.md)."""
    from repro.jit.locks import FileLock

    return FileLock((root or cache_dir()) / f"{digest}.lock")


def _drop_entry(root, digest: str, *, if_free: bool = False,
                drop_lock: bool = False) -> bool:
    """Remove one entry's files; returns True iff *this caller* removed the
    ``.json`` commit marker (so concurrent droppers count each entry once).

    ``FileNotFoundError`` is expected under concurrency — two workers may
    evict the same digest — and never double-counts or raises.  With
    ``if_free`` the drop is skipped when another process holds the entry's
    write lock (it is mid-rewrite: what looked torn is being replaced)."""
    lock = None
    if if_free or drop_lock:
        lock = entry_lock(digest, Path(root))
        if not lock.acquire(timeout=0):
            return False
    try:
        removed_json = False
        paths = _entry_paths(root, digest)
        # json first: readers treat its absence as "no entry", so payload
        # files never vanish under a reader that already committed to them
        for p in paths:
            try:
                os.unlink(p)
            except OSError:  # FileNotFoundError included
                continue
            if p is paths[0]:
                removed_json = True
        if drop_lock and lock is not None:
            try:
                lock.path.unlink()
            except OSError:
                pass
        return removed_json
    finally:
        if lock is not None:
            lock.release()


def _validate_entry(meta: dict, spath: str, opath: str,
                    cpath: str) -> tuple[str, Optional[str], bytes]:
    """Check one entry's completeness + content hashes; returns
    ``(source, so_path, payload)`` — ``so_path`` is the ``.so`` path of a C
    entry (None for py), ``payload`` the verified ``.so`` or ``.pyc`` bytes
    — or raises KeyError/ValueError/OSError on a torn entry.  Each file is
    opened once; a missing one raises ``FileNotFoundError``.  Damaged
    marshal data can crash the interpreter and a damaged ``.so`` the
    process, so nothing loads a payload before its hash matched."""
    if meta["v"] != _FORMAT_VERSION:
        raise ValueError("format version mismatch")
    kind = meta["kind"]
    raw = _read(spath)
    if _sha256(raw) != meta["sha_src"]:
        raise ValueError("source hash mismatch")
    source = raw.decode("utf-8")
    if kind == "c":
        want, path = meta["sha_so"], opath
    elif kind == "py":
        want, path = meta["sha_pyc"], cpath
    else:
        raise ValueError(f"unknown entry kind {kind!r}")
    payload = _read(path)
    if _sha256(payload) != want:
        raise ValueError(f"payload hash mismatch ({kind})")
    return source, (opath if kind == "c" else None), payload


def _record_hit(jpath: str) -> None:
    """Mark the entry as just used: bump the commit marker's mtime, which is
    what LRU eviction orders by.  The read path never writes file
    *contents* — a reader holding old metadata cannot overwrite the marker
    a concurrent rebuild just published.  Best-effort: a read-only cache
    directory still serves, its entries only look colder."""
    try:
        os.utime(jpath)
    except OSError:
        pass


def _disk_hit(digest: str, snapshot, recv_shape, arg_shapes):
    """Serve one key from the disk tier: ``(program, compiled, meta)``, or
    None.  No commit marker is a plain miss.  Any other failure — unreadable
    or garbled marker, wrong format, missing or altered payload, an artifact
    that will not load — drops the entry (unless a concurrent writer holds
    its lock: then it is being replaced and the miss is momentary) and is a
    miss too.  Called with ``_TIER_LOCK`` held."""
    root = _cache_root()
    jpath, spath, opath, cpath = _entry_paths(root, digest)
    try:
        fh = open(jpath, "rb")
    except (FileNotFoundError, NotADirectoryError):
        return None
    with _span("cache.hydrate") as sp:
        try:
            with fh:
                meta = json.loads(fh.read().decode("utf-8"))
            source, so_path, payload = _validate_entry(meta, spath, opath,
                                                       cpath)
            program, compiled = _hydrate(meta, source, so_path, payload,
                                         snapshot, recv_shape, arg_shapes)
        except Exception:  # noqa: BLE001 - recompile on any damage
            sp.set(torn=True)
            if _drop_entry(root, digest, if_free=True):
                _COUNTERS["torn_dropped"] += 1
            return None
        sp.set(kind=meta["kind"], bytes=len(payload))
    _record_hit(jpath)
    return program, compiled, meta


def _disk_put(digest: str, meta: dict, source: str,
              so_path: Optional[str], pyc: Optional[bytes]) -> None:
    """Write one entry; best-effort (never fails compilation).

    Write order is the commit protocol: payloads first (``.src``, then the
    ``.so`` copy of a C entry or the ``.pyc`` bytes of a py one), the
    ``.json`` metadata **last** — its appearance is the single commit point,
    so a crash mid-write leaves only sweepable ``*.tmp`` orphans or payloads
    without a marker, never a marker naming payloads that are missing or
    stale.  Each file individually goes through a ``.tmp<pid>`` sibling +
    ``os.replace``.  Every file is written as bytes (the source as UTF-8),
    so an entry does not depend on the locale."""
    try:
        root = _cache_root()
        os.makedirs(root, exist_ok=True)
        jpath, spath, opath, cpath = _entry_paths(root, digest)
        prev_compiles = 0
        try:  # carry the per-entry compile count across rebuilds
            prev_compiles = int(json.loads(_read(jpath).decode("utf-8"))
                                .get("compile_count", 0))
        except (OSError, ValueError, AttributeError):
            pass
        raw = source.encode("utf-8")
        _atomic_write_bytes(spath, raw)
        meta = dict(meta)
        meta["v"] = _FORMAT_VERSION
        meta["sha_src"] = _sha256(raw)
        meta["created"] = time.time()
        meta["builder_pid"] = os.getpid()
        meta["compile_count"] = prev_compiles + 1
        if so_path is not None:
            so = _read(so_path)
            _atomic_write_bytes(opath, so)
            meta["sha_so"] = _sha256(so)
        if pyc is not None:
            _atomic_write_bytes(cpath, pyc)
            meta["sha_pyc"] = _sha256(pyc)
        # the json is written last: its presence marks a complete entry
        _atomic_write_bytes(jpath, json.dumps(meta, sort_keys=True).encode())
    except OSError:
        return
    _evict_if_needed()


# ---------------------------------------------------------------------------
# entry (de)hydration
# ---------------------------------------------------------------------------

def _meta_for(program: Program, compiled, report) -> dict:
    emit = getattr(compiled, "emit_result", None)
    meta = {
        "kind": "c" if emit is not None else "py",
        "backend": report.backend,
        "opt": report.opt,
        "n_specializations": report.n_specializations,
        "n_sites": report.n_call_sites,
        "uses_mpi": program.uses_mpi,
        "uses_gpu": program.uses_gpu,
        "opt_stats": dict(report.opt_stats),
        "build_stats": dict(report.build_stats),
        "bounds_checks": bool(getattr(compiled, "bounds_checks", False)),
    }
    if emit is not None:
        meta["ivals"] = list(emit.ivals)
        meta["dvals"] = list(emit.dvals)
        meta["entry_ret"] = _NAME_BY_RET[id(emit.entry_ret)]
        meta["outputs"] = [list(o) for o in emit.outputs]
    return meta


def _program_from_meta(meta: dict, snapshot, recv_shape, arg_shapes) -> Program:
    return Program(
        snapshot=snapshot,
        specializations=[],
        entry=None,
        recv_shape=recv_shape,
        arg_shapes=arg_shapes,
        n_sites=meta["n_sites"],
        uses_mpi=meta["uses_mpi"],
        uses_gpu=meta["uses_gpu"],
    )


def _hydrate(meta: dict, source: str, so_path: Optional[str],
             payload: bytes, snapshot, recv_shape, arg_shapes):
    """Rebuild (program, compiled) from a verified disk entry: dlopen its
    ``.so`` or unmarshal its ``.pyc`` bytes."""
    program = _program_from_meta(meta, snapshot, recv_shape, arg_shapes)
    if so_path is not None:
        from repro.backends.cbackend.bridge import CCompiled, EmitResult

        emit = EmitResult(
            source,
            list(meta["ivals"]),
            [float(v) for v in meta["dvals"]],
            _RET_BY_NAME[meta["entry_ret"]],
            snapshot.array_slots,
            outputs=meta["outputs"],
        )
        compiled = CCompiled(so_path, emit, source,
                             bounds_checks=meta["bounds_checks"])
    else:
        from repro.backends.pybackend.loader import _PyCompiled

        compiled = _PyCompiled(program, source,
                               bounds_checks=meta["bounds_checks"],
                               code=marshal.loads(payload))
    return program, compiled


# ---------------------------------------------------------------------------
# lookup / store
# ---------------------------------------------------------------------------

@dataclass
class CacheHit:
    """One cache hit: where it came from and the rebound artifacts."""

    tier: str                 # "memory" | "disk"
    program: Program
    compiled: object
    meta: dict


def lookup(key: CacheKey, *, snapshot, recv_shape, arg_shapes) -> Optional[CacheHit]:
    """Probe memory then disk; rebinds the program to the fresh snapshot."""
    with _TIER_LOCK:
        got = _MEMORY.get(key.digest)
        if got is not None:
            program, compiled, meta = got
            rebound = program.rebind(snapshot, recv_shape, arg_shapes)
            _COUNTERS["memory_hits"] += 1
            return CacheHit("memory", rebound, compiled, meta)
        if key.persistable and disk_enabled():
            got = _disk_hit(key.digest, snapshot, recv_shape, arg_shapes)
            if got is not None:
                _MEMORY[key.digest] = got
                _COUNTERS["disk_hits"] += 1
                return CacheHit("disk", *got)
        _COUNTERS["misses"] += 1
        return None


def store(key: CacheKey, program: Program, compiled, report) -> None:
    """Record a freshly-compiled program in both tiers."""
    meta = _meta_for(program, compiled, report)
    with _TIER_LOCK:
        _MEMORY[key.digest] = (program, compiled, meta)
        _COUNTERS["stores"] += 1
    if key.persistable and disk_enabled():
        so_path = getattr(compiled, "so_path", None)
        pyc = marshal.dumps(compiled.code) if meta["kind"] == "py" else None
        _disk_put(key.digest, meta, compiled.source, so_path, pyc)


# ---------------------------------------------------------------------------
# maintenance
# ---------------------------------------------------------------------------

_ENTRY_FILE_RE = re.compile(r"^[0-9a-f]{32,}\.(json|src|so|pyc)$")
_LOCK_FILE_RE = re.compile(r"^[0-9a-f]{32,}\.lock$")

#: age past which an orphaned ``*.tmp<pid>`` file is a crashed writer's
#: debris rather than a live writer mid-copy
_TMP_MAX_AGE_S = 3600.0


def _sweep_stale_tmp(root: Path) -> int:
    """Remove ``*.tmp<pid>`` orphans older than ``_TMP_MAX_AGE_S`` — the
    debris of writers that died between ``write`` and ``os.replace``.
    Young tmp files are left alone (their writer may still be alive
    mid-copy)."""
    swept = 0
    now = time.time()
    if not root.is_dir():
        return 0
    for p in root.iterdir():
        if ".tmp" not in p.name:
            continue
        try:
            if (now - p.stat().st_mtime) < _TMP_MAX_AGE_S:
                continue
            p.unlink()
        except OSError:  # vanished or unreadable: another sweeper got it
            continue
        swept += 1
    if swept:
        with _TIER_LOCK:
            _COUNTERS["tmp_swept"] += swept
    return swept


def _entry_infos(root: Path) -> list[dict]:
    """One dict per complete entry: digest, total bytes, last_used.

    ``last_used`` is the commit marker's mtime — set by the store that
    published it and bumped by every disk hit (:func:`_record_hit`).
    Entries whose ``.json`` cannot be read are skipped (a concurrent
    writer/evictor owns them right now)."""
    infos = []
    if not root.is_dir():
        return infos
    for jpath in root.iterdir():
        if not jpath.name.endswith(".json") or not _ENTRY_FILE_RE.match(jpath.name):
            continue
        digest = jpath.name[:-len(".json")]
        try:
            meta = json.loads(_read(jpath).decode("utf-8"))
            mtime = jpath.stat().st_mtime
        except (OSError, ValueError):
            continue
        n_bytes = 0
        for p in _entry_paths(root, digest):
            try:
                n_bytes += os.stat(p).st_size
            except OSError:
                pass
        infos.append({
            "digest": digest,
            "bytes": n_bytes,
            "kind": meta.get("kind", "?"),
            "last_used": mtime,
            "compile_count": int(meta.get("compile_count", 1)),
            "py_slots": meta.get("opt_stats", {}).get("py_slots"),
        })
    return infos


def py_slot_decisions() -> dict[str, dict]:
    """``{digest: {slot: "list" | "ndarray:<reason>"}}`` for every py entry
    on disk: the py backend's array-slot representation decisions
    (``JitReport.opt_stats["py_slots"]``), recovered from entry metadata
    alone — what ``repro jit stats`` prints."""
    return {i["digest"]: i["py_slots"] for i in _entry_infos(cache_dir())
            if i["py_slots"] is not None}


def evict(cap_bytes: Optional[int] = None) -> dict:
    """Shrink the disk tier to ``cap_bytes`` (default: the configured
    ``REPRO_DISK_CACHE_MAX_MB``) by dropping least-recently-used entries,
    and sweep stale tmp orphans.  Returns an eviction report.

    Entries another process is actively (re)writing — their file lock is
    held — are skipped this round.  ``cap_bytes == 0`` means unbounded:
    only the tmp sweep runs."""
    root = cache_dir()
    if cap_bytes is None:
        cap_bytes = disk_cap_bytes()
    swept = _sweep_stale_tmp(root)
    infos = _entry_infos(root)
    total = sum(i["bytes"] for i in infos)
    evicted = 0
    freed = 0
    if cap_bytes > 0 and total > cap_bytes:
        infos.sort(key=lambda i: (i["last_used"], i["digest"]))
        for info in infos:
            if total <= cap_bytes:
                break
            if not _drop_entry(root, info["digest"], if_free=True,
                               drop_lock=True):
                continue  # busy (being rewritten) or already gone
            with _TIER_LOCK:
                _MEMORY.pop(info["digest"], None)
            evicted += 1
            freed += info["bytes"]
            total -= info["bytes"]
    if evicted:
        with _TIER_LOCK:
            _COUNTERS["evictions"] += evicted
            _COUNTERS["bytes_evicted"] += freed
    return {
        "cap_bytes": cap_bytes,
        "evicted": evicted,
        "bytes_freed": freed,
        "tmp_swept": swept,
        "entries": len(infos) - evicted,
        "bytes": total,
    }


def _evict_if_needed() -> None:
    """Post-store hook: enforce the byte cap when one is configured."""
    if disk_cap_bytes() > 0:
        try:
            evict()
        except OSError:
            pass


def clear_memory() -> None:
    """Drop the in-process tier only (the disk tier survives)."""
    with _TIER_LOCK:
        _MEMORY.clear()


def clear() -> int:
    """Clear both tiers; returns the number of disk entries removed.

    The count is exact under concurrency: an entry only counts when *this*
    process unlinked its ``.json`` commit marker, so two workers clearing
    at once report counts that sum to the number of entries that existed.
    Lock files and ``*.tmp`` orphans (any age) are removed as well."""
    clear_memory()
    removed = 0
    root = cache_dir()
    if root.is_dir():
        for p in root.iterdir():
            entry = bool(_ENTRY_FILE_RE.match(p.name))
            if not (entry or _LOCK_FILE_RE.match(p.name)
                    or ".tmp" in p.name):
                continue
            try:
                p.unlink()
            except OSError:  # concurrent clear/evict took it: not ours
                continue
            if entry and p.suffix == ".json":
                removed += 1
    return removed


def stats() -> dict:
    """Both tiers' state: counters, entry counts, footprint, cap, hit-age."""
    root = cache_dir()
    infos = _entry_infos(root)
    n_bytes = 0
    n_tmp = 0
    if root.is_dir():
        for p in root.iterdir():
            if ".tmp" in p.name:
                n_tmp += 1
                continue
            if not _ENTRY_FILE_RE.match(p.name):
                continue
            try:
                n_bytes += p.stat().st_size
            except OSError:
                continue
    by_kind: dict[str, int] = {}
    for i in infos:
        by_kind[i["kind"]] = by_kind.get(i["kind"], 0) + 1
    now = time.time()
    ages = [max(0.0, now - i["last_used"]) for i in infos]
    with _TIER_LOCK:
        return {
            "dir": str(root),
            "disk_enabled": disk_enabled(),
            "disk_cap_bytes": disk_cap_bytes(),
            "memory_entries": len(_MEMORY),
            "disk_entries": len(infos),
            "disk_bytes": n_bytes,
            "disk_by_kind": by_kind,
            "hit_age_min_s": min(ages) if ages else None,
            "hit_age_max_s": max(ages) if ages else None,
            "tmp_files": n_tmp,
            **_COUNTERS,
        }
