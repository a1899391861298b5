"""Shared environment-variable parsing, and the knobs that key the cache.

Every boolean knob in the framework (``REPRO_BOUNDS``, ``REPRO_TIERED``,
``REPRO_DISK_CACHE``, ``REPRO_TRACE``, ``REPRO_PAPER_SIZES``) historically
parsed its value with a slightly different ad-hoc expression —
``REPRO_BOUNDS`` notoriously treated ``"false"`` and ``"no"`` as *truthy*.
:func:`env_flag` is the single shared parser they all route through now.

Accepted spellings (case-insensitive, surrounding whitespace ignored):

* truthy — ``1``, ``true``, ``yes``, ``on``
* falsy  — ``0``, ``false``, ``no``, ``off``, and the empty string

An unset variable yields ``default``.  Any other value falls back to
``default`` as well, keeping typos from silently flipping a knob.

The second half of the module holds the readers of every knob that is part
of the JIT cache key — the mid-end pass set (``REPRO_OPT_PASSES``), the
OpenMP configuration (``REPRO_OMP``, ``REPRO_OMP_THREADS``,
``REPRO_OMP_REDUCTIONS``) and the BLAS build mode (``REPRO_BLAS``).  They
live here, in a module that imports nothing of the framework, so that
``repro.jit.cache.program_key`` can digest the configuration on a cache hit
without importing a single optimizer pass; ``repro.opt.pipeline`` and
``repro.opt.parallel`` re-export them for the code that acts on them (see
DESIGN.md, "Import layers").
"""

from __future__ import annotations

import os

__all__ = [
    "ANALYSIS_VERSION",
    "PASS_ORDER",
    "blas_enabled",
    "blas_token",
    "config_from_env",
    "env_flag",
    "env_float",
    "omp_enabled",
    "omp_reductions_enabled",
    "omp_threads",
    "omp_token",
    "pipeline_token",
]

_TRUTHY = frozenset({"1", "true", "yes", "on"})
_FALSY = frozenset({"0", "false", "no", "off", ""})


def env_flag(name: str, default: bool = False) -> bool:
    """Parse the boolean environment variable ``name``.

    ``default`` is returned when the variable is unset *or* holds an
    unrecognized spelling."""
    raw = os.environ.get(name)
    if raw is None:
        return default
    val = raw.strip().lower()
    if val in _TRUTHY:
        return True
    if val in _FALSY:
        return False
    return default


def env_float(name: str, default: float) -> float:
    """Parse the numeric environment variable ``name``.

    Same contract as :func:`env_flag`: unset, empty, or unparsable values
    yield ``default`` instead of raising — a typo in a tuning knob
    (``REPRO_DISK_CACHE_MAX_MB``, ``REPRO_FARM_LOCK_TIMEOUT_S``) must not
    crash a worker at import time."""
    raw = os.environ.get(name)
    if raw is None or not raw.strip():
        return default
    try:
        return float(raw.strip())
    except ValueError:
        return default


# ---------------------------------------------------------------------------
# knobs that key the cache: mid-end pass set (acted on by repro.opt.pipeline)
# ---------------------------------------------------------------------------

#: canonical pass order — inline first (splices callee bodies so every
#: later pass sees across former call boundaries), fold (exposes
#: constants), then licm (hoists before cse can bind block-local temps),
#: then cse, then dce (cleans up stores the earlier passes made dead),
#: and bce last (the range analysis profits from folded bounds and can
#: see through the __licm/__cse temps)
PASS_ORDER = ("inline", "fold", "licm", "cse", "dce", "bce")

# the flag spellings, except that an empty value means "the default set"
_ALL_SPELLINGS = _TRUTHY | {"", "all", "default"}
_NONE_SPELLINGS = _FALSY - {""} | {"none"}


def config_from_env() -> tuple:
    """The enabled passes per ``REPRO_OPT_PASSES``, in canonical order.

    Raises :class:`ValueError` for unknown pass names so a typo disables
    nothing silently."""
    raw = os.environ.get("REPRO_OPT_PASSES", "")
    val = raw.strip().lower()
    if val in _ALL_SPELLINGS:
        return PASS_ORDER
    if val in _NONE_SPELLINGS:
        return ()
    names = {n.strip() for n in val.split(",") if n.strip()}
    unknown = names - set(PASS_ORDER)
    if unknown:
        raise ValueError(
            f"REPRO_OPT_PASSES: unknown pass(es) {sorted(unknown)} "
            f"(available: {', '.join(PASS_ORDER)})"
        )
    return tuple(p for p in PASS_ORDER if p in names)


def pipeline_token(opt) -> str:
    """The cache-key component describing the *effective* mid-end
    configuration for optimization level ``opt`` (empty when the pipeline
    would not run at all)."""
    if getattr(opt, "value", opt) != "full":
        return ""
    return ",".join(config_from_env())


# ---------------------------------------------------------------------------
# knobs that key the cache: OpenMP loops and BLAS (repro.opt.parallel)
# ---------------------------------------------------------------------------

#: bumped whenever the loop-independence analysis or the emitted parallel
#: code changes, so cached artifacts from older analysis versions are
#: never reused
ANALYSIS_VERSION = 1


def omp_enabled() -> bool:
    """Whether ``REPRO_OMP`` asks for OpenMP parallel loops."""
    return env_flag("REPRO_OMP", False)


def omp_reductions_enabled() -> bool:
    """Whether float ``+``/``*`` reductions may be parallelized.

    An OpenMP ``reduction`` clause combines per-thread partials in an
    unspecified order; for floats that reassociates the sum/product and
    changes the result by rounding — breaking the repo-wide bit-exactness
    contract.  Like ``-ffast-math`` this is therefore opt-in
    (``REPRO_OMP_REDUCTIONS=1``).  Integer reductions and ``min``/``max``
    are order-independent and always eligible.
    """
    return env_flag("REPRO_OMP_REDUCTIONS", False)


def omp_threads():
    """The thread count baked into ``num_threads(...)`` clauses, from
    ``REPRO_OMP_THREADS``; None leaves the choice to the OpenMP runtime
    (``OMP_NUM_THREADS``)."""
    raw = os.environ.get("REPRO_OMP_THREADS", "").strip()
    if not raw:
        return None
    try:
        n = int(raw)
    except ValueError:
        return None
    return n if n > 0 else None


def omp_token(opt) -> str:
    """The cache-key component for the parallel configuration (empty when
    the analysis would not run at all, mirroring ``pipeline_token``)."""
    if getattr(opt, "value", opt) != "full" or not omp_enabled():
        return ""
    t = omp_threads()
    red = "on" if omp_reductions_enabled() else "off"
    return (f"omp:v{ANALYSIS_VERSION}:threads={'env' if t is None else t}"
            f":fred={red}")


def blas_enabled() -> bool:
    """Whether ``REPRO_BLAS`` asks for cblas_dgemm-backed ``wj.dgemm``."""
    return env_flag("REPRO_BLAS", False)


def blas_token() -> str:
    """Cache-key component for the BLAS build configuration: REPRO_BLAS
    changes build flags (``-DWJ_HAVE_CBLAS`` + link libs) for identical
    source, so it must key the artifact digest."""
    return "blas:on" if blas_enabled() else ""
