"""Warmup manifests: precompile a deployment's hot keys before traffic.

The compile farm amortizes JIT cost across worker processes, but a fresh
deployment still pays one cold translate+compile per hot program the
first time a user asks for it.  A *warmup manifest* closes that window:
it records the ``program_key`` inputs of a deployment's hot programs —
how to build the receiver, which method to specialize, the recorded
arguments, backend and opt level — and ``repro cache warm manifest.json``
replays them against the shared disk tier, so every later worker starts
warm (``python -m repro cache warm``, see docs/COMPILE_FARM.md).

Manifest format (JSON)::

    {
      "v": 1,
      "entries": [
        {
          "factory": "repro.library.cgsolve.config:make_solver",
          "factory_args": [8, 8],
          "factory_kwargs": {"precond": "jacobi"},
          "method": "solve",
          "args": [50],
          "backend": "py",
          "opt": "full"
        }
      ]
    }

``factory`` is an importable ``module:callable`` returning the receiver;
``args`` are the invocation arguments whose recorded values the
translator bakes in (paper §3.1) — together these determine the cache
digest, which is why a manifest written on one machine warms any worker
with the same guest source and toolchain.  Warming goes through the full
service layer, so concurrent warmers on one host coordinate through the
compile farm's entry locks like any other workers.
"""

from __future__ import annotations

import importlib
import json
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Optional

__all__ = [
    "ManifestEntry",
    "ManifestError",
    "load_manifest",
    "warm",
    "write_manifest",
]

_MANIFEST_VERSION = 1


class ManifestError(ValueError):
    """A malformed manifest file or entry."""


@dataclass
class ManifestEntry:
    """One hot program: receiver recipe + specialization inputs."""

    factory: str                      # "module:callable" -> receiver
    method: str                       # guest method to specialize
    args: list = field(default_factory=list)
    factory_args: list = field(default_factory=list)
    factory_kwargs: dict = field(default_factory=dict)
    backend: str = "auto"
    opt: str = "full"

    @classmethod
    def from_dict(cls, raw: dict) -> "ManifestEntry":
        """Parse one manifest entry, validating the required fields."""
        if not isinstance(raw, dict):
            raise ManifestError(f"entry is not an object: {raw!r}")
        missing = [k for k in ("factory", "method") if not raw.get(k)]
        if missing:
            raise ManifestError(f"entry missing {missing}: {raw!r}")
        if ":" not in raw["factory"]:
            raise ManifestError(
                f"factory must be 'module:callable': {raw['factory']!r}")
        return cls(
            factory=raw["factory"],
            method=raw["method"],
            args=list(raw.get("args", [])),
            factory_args=list(raw.get("factory_args", [])),
            factory_kwargs=dict(raw.get("factory_kwargs", {})),
            backend=raw.get("backend", "auto"),
            opt=raw.get("opt", "full"),
        )

    def to_dict(self) -> dict:
        """The JSON shape of this entry (round-trips through from_dict)."""
        return {
            "factory": self.factory,
            "factory_args": list(self.factory_args),
            "factory_kwargs": dict(self.factory_kwargs),
            "method": self.method,
            "args": list(self.args),
            "backend": self.backend,
            "opt": self.opt,
        }

    @property
    def target(self) -> str:
        """Human-readable ``factory(...).method(args)`` label."""
        return f"{self.factory}(...).{self.method}{tuple(self.args)!r}"

    def build_receiver(self):
        """Import the factory and construct the receiver object."""
        mod_name, _, attr = self.factory.partition(":")
        try:
            mod = importlib.import_module(mod_name)
            fn = getattr(mod, attr)
        except (ImportError, AttributeError) as exc:
            raise ManifestError(f"cannot import {self.factory!r}: {exc}")
        return fn(*self.factory_args, **self.factory_kwargs)


def load_manifest(path) -> list[ManifestEntry]:
    """Parse a manifest file into entries (raises ManifestError)."""
    try:
        raw = json.loads(Path(path).read_text())
    except OSError as exc:
        raise ManifestError(f"cannot read manifest {path}: {exc}")
    except json.JSONDecodeError as exc:
        raise ManifestError(f"manifest {path} is not JSON: {exc}")
    if not isinstance(raw, dict) or raw.get("v") != _MANIFEST_VERSION:
        raise ManifestError(
            f"manifest {path}: expected object with v={_MANIFEST_VERSION}")
    entries = raw.get("entries")
    if not isinstance(entries, list):
        raise ManifestError(f"manifest {path}: 'entries' must be a list")
    return [ManifestEntry.from_dict(e) for e in entries]


def write_manifest(path, entries) -> Path:
    """Serialize entries to ``path`` (the load_manifest inverse)."""
    path = Path(path)
    payload = {
        "v": _MANIFEST_VERSION,
        "entries": [e.to_dict() for e in entries],
    }
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    return path


def warm(manifest, *,
         progress: Optional[Callable[[str], None]] = None) -> dict:
    """Precompile every manifest entry through the JIT service.

    ``manifest`` is a path or a list of :class:`ManifestEntry`.  Each
    entry is compiled independently: already-cached keys count as hits,
    failures are collected (not raised) so one bad entry cannot abort a
    deployment warmup.  Returns a report dict::

        {"entries": N, "compiled": n, "hits": n, "errors": [...],
         "elapsed_s": ..., "results": [{target, outcome, tier, ...}]}
    """
    from repro.backends.base import OptLevel
    from repro.jit.engine import jit

    entries = (load_manifest(manifest)
               if isinstance(manifest, (str, Path)) else list(manifest))
    t0 = time.perf_counter()
    results = []
    compiled = hits = 0
    errors: list[str] = []
    for entry in entries:
        say = progress or (lambda _msg: None)
        e0 = time.perf_counter()
        try:
            receiver = entry.build_receiver()
            code = jit(receiver, entry.method, *entry.args,
                       backend=entry.backend, opt=OptLevel(entry.opt))
        except Exception as exc:  # noqa: BLE001 - collect, keep warming
            errors.append(f"{entry.target}: {exc}")
            results.append({"target": entry.target, "outcome": "error",
                            "error": str(exc)})
            say(f"warm {entry.target}: ERROR {exc}")
            continue
        r = code.report
        if r.cache_hit:
            hits += 1
        else:
            compiled += 1
        results.append({
            "target": entry.target,
            "outcome": "hit" if r.cache_hit else "compiled",
            "tier": r.cache_tier,
            "backend": r.backend,
            "elapsed_s": time.perf_counter() - e0,
        })
        say(f"warm {entry.target}: "
            f"{'hit (' + r.cache_tier + ')' if r.cache_hit else 'compiled'} "
            f"[{r.backend}]")
    return {
        "entries": len(entries),
        "compiled": compiled,
        "hits": hits,
        "errors": errors,
        "elapsed_s": time.perf_counter() - t0,
        "results": results,
    }
