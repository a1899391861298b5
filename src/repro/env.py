"""Shared environment-variable parsing.

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
"""

from __future__ import annotations

import os

__all__ = ["env_flag", "env_float"]

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
