"""Host-side semi-immutability: the seal a capture puts on a guest instance.

The paper folds every non-array field into a constant because Java's
``final`` stops *anyone* from rebinding it (§3.1, def. 3).  The coding
rules check guest code only; this module closes the host side.  When
:func:`repro.frontend.objectgraph.snapshot_args` finishes a capture without
error it seals every ``@wootin`` instance it visited.  From then on the
class-level guard refuses, with :class:`~repro.errors.NotSemiImmutable`:

* binding a name the instance does not have;
* rebinding a field unless both its current and its new value are
  ndarrays;
* deleting a field.

Rebinding an ndarray field to an ndarray stays legal (def. 3c — the double
buffer's ``swap``); it moves one process-wide :func:`epoch`, which is what
lets a sealed receiver's capture be reused until an array moves
(:mod:`repro.jit.service`).

Seal state lives in a side table keyed by ``id()``, never in the instance
``__dict__``: the capture walks ``vars(obj)``, ``copy.deepcopy`` and
``pickle`` carry the ``__dict__`` (a copy starts unsealed), and the table
must not keep an instance alive.  Each record holds a weak reference whose
callback drops the record while the instance is being freed, before its
``id()`` can be handed to a new object.

The guard is installed on a class the first time one of its instances is
sealed, not by ``@wootin``: a Python-level ``__setattr__`` triples the cost
of a constructor, and guests construct value objects in their hot loops
under CPython (EXPERIMENTS.md, "the seal").  Code that writes through
``object.__setattr__`` or ``vars(obj)`` is not stopped.
"""

from __future__ import annotations

import itertools
import weakref
from typing import Optional

import numpy as np

from repro.errors import NotSemiImmutable

__all__ = ["Seal", "epoch", "record", "seal"]


class Seal:
    """One sealed instance: a weak reference to it and the capture memo
    :mod:`repro.jit.service` keeps for it as a receiver."""

    __slots__ = ("ref", "memo")

    def __init__(self, ref: weakref.ref):
        self.ref = ref
        self.memo: dict = {}


#: id(instance) -> Seal, for live sealed instances only
_SEALS: dict[int, Seal] = {}

#: set after every legal array-field rebind of a sealed instance to a value
#: never used before.  No lock: ``next()`` on a count is atomic, and two
#: rebinds racing their writes can leave the older value, but never one a
#: capture read before either rebind
_EPOCHS = itertools.count(1)
_epoch = 0


def epoch() -> int:
    """Changes with every array-field rebind on a sealed instance.  Read it
    *before* a capture: an entry stamped with it is stale once it moved."""
    return _epoch


def record(obj) -> Optional[Seal]:
    """The seal record of ``obj``, or None when it is not sealed."""
    return _SEALS.get(id(obj))


def seal(obj) -> bool:
    """Seal one instance; False when it cannot be (no weak reference, or
    its class brings a ``__setattr__``/``__delattr__`` of its own)."""
    key = id(obj)
    if key in _SEALS:
        return True
    cls = type(obj)
    if not _guarded(cls):
        return False
    try:
        ref = weakref.ref(obj, lambda r, key=key: _drop(key, r))
    except TypeError:
        return False
    _SEALS[key] = Seal(ref)
    return True


def _drop(key: int, ref: weakref.ref) -> None:
    got = _SEALS.get(key)
    if got is not None and got.ref is ref:
        del _SEALS[key]


def _guarded(cls: type) -> bool:
    """Install the guard on ``cls`` unless it already runs it; refuse a
    class whose attribute hooks are its own."""
    if cls.__setattr__ is _sealed_setattr:
        return True
    if (cls.__setattr__ is not object.__setattr__
            or cls.__delattr__ is not object.__delattr__):
        return False
    cls.__setattr__ = _sealed_setattr
    cls.__delattr__ = _sealed_delattr
    return True


def _refuse(obj, name: str, what: str):
    cls = type(obj).__name__
    return NotSemiImmutable(
        f"{what} {cls}.{name} after jit() captured it; only an array field "
        f"may be rebound (to an array) once an instance is sealed",
        rule=0,
        where=f"{cls}.{name}",
    )


def _sealed_setattr(self, name: str, value) -> None:
    if id(self) not in _SEALS:
        object.__setattr__(self, name, value)
        return
    old = vars(self).get(name, _MISSING)
    if old is _MISSING:
        raise _refuse(self, name, "binding new field")
    if not (isinstance(old, np.ndarray) and isinstance(value, np.ndarray)):
        raise _refuse(self, name, "rebinding field")
    object.__setattr__(self, name, value)
    # after the store: a capture that read the epoch before this point
    # may have seen the old array, and its entry must go stale
    global _epoch
    _epoch = next(_EPOCHS)


def _sealed_delattr(self, name: str) -> None:
    if id(self) in _SEALS:
        raise _refuse(self, name, "deleting field")
    object.__delattr__(self, name)


_MISSING = object()
