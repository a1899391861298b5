"""Shared environment-variable parsing, and the knobs that key the cache.

Every boolean knob in the framework (``REPRO_BOUNDS``,
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
OpenMP configuration (``REPRO_OMP``, ``REPRO_OMP_REDUCTIONS``) and the BLAS
build mode (``REPRO_BLAS``).  The thread count is not among them: OpenMP
reads its own ``OMP_NUM_THREADS`` when the program runs.  They
live here, in a module that imports nothing of the framework, so that
``repro.jit.cache.program_key`` can digest the configuration on a cache hit
without importing a single optimizer pass; ``repro.opt.pipeline`` and
``repro.opt.parallel`` re-export them for the code that acts on them (see
DESIGN.md, "Import layers").  :func:`request_env` reads them with
``$CC``/``$PATH`` in one call: what a cached ``jit()`` resolves its
configuration from.
"""

from __future__ import annotations

import os

__all__ = [
    "ANALYSIS_VERSION",
    "PASS_ORDER",
    "blas_enabled",
    "blas_token",
    "env_flag",
    "env_float",
    "omp_enabled",
    "omp_reductions_enabled",
    "omp_token",
    "passes_for",
    "pipeline_passes",
    "request_env",
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
    (``REPRO_DISK_CACHE_MAX_MB``) must not crash a worker at import
    time."""
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

# the C backend's own set: gcc inlines the ``static`` specializations and
# folds, hoists and deletes dead code itself, but it reloads a snapshot
# field inside a loop that cse binds to a local (docs/OPTIMIZER.md,
# "Which passes run where")
_C_PASSES = ("cse",)

# the flag spellings; an empty value means "the backend's own set"
_DEFAULT_SPELLINGS = {"", "default"}
_ALL_SPELLINGS = _TRUTHY | {"all"}
_NONE_SPELLINGS = _FALSY - {""} | {"none"}


def passes_for(backend: str, bounds_checks: bool = False) -> tuple:
    """The mid-end passes to run for ``backend``, in canonical order.

    ``REPRO_OPT_PASSES`` unset, empty or ``default`` picks the backend's
    own set: ``cse`` alone on C, every pass on py (it has no optimizer
    downstream).  C keeps every pass under bounds checks, where without
    ``bce`` and the passes that feed it the checks stay in the loops (the
    3-D stencil kernel runs 4.9x slower), and under ``REPRO_OMP=1``, where
    without inlining the stencil's parallel kernel runs 6-11 % slower and
    ``cc`` takes no less time (EXPERIMENTS.md, "cse alone under bounds
    checks and OpenMP").  ``1``/``all`` runs every pass on every backend,
    ``0``/``none`` none, and a comma list exactly those.

    Raises :class:`ValueError` for unknown pass names so a typo disables
    nothing silently."""
    raw = os.environ.get("REPRO_OPT_PASSES", "")
    val = raw.strip().lower()
    if val in _DEFAULT_SPELLINGS:
        if backend == "c" and not (bounds_checks or omp_enabled()):
            return _C_PASSES
        return PASS_ORDER
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


#: every knob :func:`repro.jit.cache.program_key` reads, directly or
#: through the backend's bounds-check flag
_KEY_KNOBS = ("REPRO_OPT_PASSES", "REPRO_OMP", "REPRO_OMP_REDUCTIONS",
              "REPRO_BLAS", "REPRO_BOUNDS")

#: the variables that pick the C compiler (``cbackend.build._find_cc``),
#: whose ``--version`` keys a C entry
CC_VARS = ("CC", "PATH")


def encoded_keys(names: tuple) -> tuple:
    """``names`` as the keys ``os.environ`` stores them under (see
    :func:`raw_values`)."""
    return tuple(map(getattr(os.environ, "encodekey", str), names))


def raw_values(names: tuple, keys: tuple) -> tuple:
    """The raw values of the variables ``names`` (None when unset), to
    compare with an earlier read; ``keys`` is ``encoded_keys(names)``.

    ``os.environ`` keeps its variables in ``_data`` under ``encodekey``
    keys; one ``os.environ.get`` costs ~1.8 us on a 2-vCPU x86-64 VM, a read
    of ``_data`` a tenth of that, and a warm ``jit()`` reads seven, in one
    call (:func:`request_env`)."""
    data = getattr(os.environ, "_data", None)
    if type(data) is dict:
        return tuple(map(data.get, keys))
    return tuple(map(os.environ.get, names))


_REQUEST_VARS = _KEY_KNOBS + CC_VARS
_REQUEST_KEYS = encoded_keys(_REQUEST_VARS)


def request_env() -> tuple:
    """The raw values (None when unset) of every variable a cached
    ``jit()`` request's configuration depends on: the knobs that key the
    cache, and ``$CC``/``$PATH``, which pick the compiler.  A backend and a
    key configuration resolved under one tuple are reused while it reads
    the same (``repro.jit.service``)."""
    return raw_values(_REQUEST_VARS, _REQUEST_KEYS)


def pipeline_passes(opt, backend: str, bounds_checks: bool = False) -> tuple:
    """The passes a build at optimization level ``opt`` on ``backend`` runs:
    :func:`passes_for` at ``FULL``, none at the comparator levels.  The
    cache key digests them (its ``opt_passes`` token) and carries them to
    the build of a miss."""
    if getattr(opt, "value", opt) != "full":
        return ()
    return passes_for(backend, bounds_checks)


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


def omp_token(opt) -> str:
    """The cache-key component for the parallel configuration (empty when
    the analysis would not run at all, mirroring ``pipeline_passes``)."""
    if getattr(opt, "value", opt) != "full" or not omp_enabled():
        return ""
    red = "on" if omp_reductions_enabled() else "off"
    return f"omp:v{ANALYSIS_VERSION}:fred={red}"


def blas_enabled() -> bool:
    """Whether ``REPRO_BLAS`` asks for cblas_dgemm-backed ``wj.dgemm``."""
    return env_flag("REPRO_BLAS", False)


def blas_token() -> str:
    """Cache-key component for the BLAS build configuration: REPRO_BLAS
    changes build flags (``-DWJ_HAVE_CBLAS`` + link libs) for identical
    source, so it must key the artifact digest."""
    return "blas:on" if blas_enabled() else ""
