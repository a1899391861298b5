"""The mid-end's integer domain, interval analysis over the CFG, and
bounds-check elimination.

:func:`evaluate` is the one integer evaluator of the mid-end: a value is
an affine form over symbols plus an interval (see "the integer domain"
below); this module's analysis and the loop parallelizer
(:mod:`repro.opt.parallel`) are its clients.

The analysis propagates integer value intervals for locals (with the
standard widening to keep loops finite) plus statically-known array
lengths, which come from two places:

* the captured object graph — snapshot arrays carry their element count
  in ``ArrayShape.length``, and lengths are part of the specialization
  digest, so they are genuine compile-time constants of this program;
* ``wj.zeros(elem, N)`` allocations with a constant size.

``bce_func`` then re-walks every block and marks each ``ArrayLoad`` /
``ArrayStore`` whose index interval provably lies in ``[0, len)`` with
``bounds_ok=True``; both backends skip the ``REPRO_BOUNDS`` guard for
marked accesses.  The proof is per-access and monotone — an access that
cannot be proven simply keeps its guard — so the pass never changes
observable behavior, it only removes provably-dead checks.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.backends.base import is_pure
from repro.frontend import ir
from repro.frontend.shapes import ArrayShape, PrimShape
from repro.lang import types as _t
from repro.opt.cfg.builder import (
    LoopBind, build_cfg, item_exprs,
)
from repro.opt.cfg.dataflow import DataflowAnalysis, solve

__all__ = ["Interval", "OPAQUE", "add", "bce_func", "evaluate", "scale"]

#: bounds this far out behave as infinite — keeps interval arithmetic
#: safely inside i64 (no translated-time wraparound can fake a proof)
_BIG = 1 << 62

#: widening kicks in after this many visits to one block
_WIDEN_AFTER = 3


@dataclass(frozen=True)
class Interval:
    """A closed integer interval; ``None`` bounds mean unbounded."""

    lo: Optional[int] = None
    hi: Optional[int] = None

    def is_top(self) -> bool:
        """True when nothing is known in either direction."""
        return self.lo is None and self.hi is None

    def clamp(self) -> "Interval":
        """Drop bounds too large to trust under i64 arithmetic."""
        lo = self.lo if self.lo is not None and -_BIG < self.lo < _BIG else None
        hi = self.hi if self.hi is not None and -_BIG < self.hi < _BIG else None
        return Interval(lo, hi)

    def hull(self, other: "Interval") -> "Interval":
        """Smallest interval containing both."""
        lo = (None if self.lo is None or other.lo is None
              else min(self.lo, other.lo))
        hi = (None if self.hi is None or other.hi is None
              else max(self.hi, other.hi))
        return Interval(lo, hi)

    def add(self, other: "Interval") -> "Interval":
        lo = (None if self.lo is None or other.lo is None
              else self.lo + other.lo)
        hi = (None if self.hi is None or other.hi is None
              else self.hi + other.hi)
        return Interval(lo, hi).clamp()

    def sub(self, other: "Interval") -> "Interval":
        lo = (None if self.lo is None or other.hi is None
              else self.lo - other.hi)
        hi = (None if self.hi is None or other.lo is None
              else self.hi - other.lo)
        return Interval(lo, hi).clamp()

    def neg(self) -> "Interval":
        return Interval(
            None if self.hi is None else -self.hi,
            None if self.lo is None else -self.lo,
        ).clamp()

    def mul(self, other: "Interval") -> "Interval":
        if None in (self.lo, self.hi, other.lo, other.hi):
            # partial-knowledge products only stay bounded in easy cases;
            # be conservative rather than enumerate sign combinations
            if (self.lo is not None and self.lo >= 0
                    and other.lo is not None and other.lo >= 0):
                return Interval(0, None)
            return TOP
        prods = [self.lo * other.lo, self.lo * other.hi,
                 self.hi * other.lo, self.hi * other.hi]
        return Interval(min(prods), max(prods)).clamp()

    def floordiv_const(self, d: int) -> "Interval":
        if d <= 0:
            return TOP
        lo = None if self.lo is None else self.lo // d
        hi = None if self.hi is None else self.hi // d
        return Interval(lo, hi).clamp()

    def mod_const(self, d: int) -> "Interval":
        if d <= 0:
            return TOP
        # Python % with a positive divisor is always in [0, d)
        if (self.lo is not None and self.hi is not None
                and 0 <= self.lo and self.hi < d):
            return Interval(self.lo, self.hi)
        return Interval(0, d - 1)

    def within(self, lo: int, hi: int) -> bool:
        """True when every value of the interval lies in ``[lo, hi]``."""
        return (self.lo is not None and self.hi is not None
                and self.lo >= lo and self.hi <= hi)


TOP = Interval()

_INT_TYPES = (_t.I32, _t.I64, _t.BOOL)


# ---------------------------------------------------------------------------
# the integer domain: an affine form over symbols plus an interval
# ---------------------------------------------------------------------------
#
# A value is ``(terms, rest)``: the expression equals ``sum(k * symbol for
# symbol, k in terms.items())`` plus some integer in the interval ``rest``.
# ``terms`` None means "not affine in the symbols"; ``rest`` then bounds the
# whole value.  Which locals are symbols is the client's choice (``local``):
# bounds-check elimination makes none, so a value is just its interval; the
# loop-independence analysis makes the loop variable and loop-invariant
# names symbols and gives inner loop variables their bounds, so ``rest`` of
# an array index is the footprint of one iteration.

OPAQUE = (None, TOP)


def _whole(value) -> Interval:
    """The interval of the whole value (``rest`` is only part of it when
    the value still has symbols)."""
    terms, rest = value
    return rest if not terms else TOP


def _combine(ta, tb, sign):
    if not tb:
        return ta
    out = dict(ta)
    for name, k in tb.items():
        k = out.get(name, 0) + sign * k
        if k:
            out[name] = k
        else:
            out.pop(name, None)
    return out


def add(a, b, sign=1):
    """``a + b`` (``a - b`` with ``sign=-1``)."""
    (ta, ra), (tb, rb) = a, b
    if ta is None or tb is None:
        terms = None  # only the whole values' intervals combine
        ra = TOP if ta else ra
        rb = TOP if tb else rb
    else:
        terms = _combine(ta, tb, sign)
    return terms, ra.add(rb) if sign > 0 else ra.sub(rb)


def scale(value, k: int):
    """``value * k`` for an integer constant ``k``."""
    terms, rest = value
    if terms:
        terms = {n: c * k for n, c in terms.items()} if k else {}
    return terms, rest.mul(Interval(k, k))


def _mul(a, b):
    if not a[0] and not b[0]:
        terms = None if a[0] is None or b[0] is None else a[0]
        return terms, a[1].mul(b[1])
    for value, other in ((a, b), (b, a)):
        k = other[1]
        if other[0] == {} and k.lo is not None and k.lo == k.hi:
            return scale(value, k.lo)
    return OPAQUE


def _point(v: int) -> Interval:
    return Interval(v, v) if -_BIG < v < _BIG else TOP


def _const_int(e: ir.Expr) -> Optional[int]:
    """The known value of an integer expression: a literal, or a constant
    shape on a side-effect-free expression (what fold materializes)."""
    if type(e) is ir.Const:
        v = e.value
        return v if type(v) is int else None
    sh = e.shape
    if (isinstance(sh, PrimShape) and type(sh.const) is int
            and e.ty in (_t.I32, _t.I64) and is_pure(e)):
        return sh.const
    return None


def evaluate(e: ir.Expr, local, lens=None, call=None):
    """``(terms, rest)`` of an integer-valued expression (see above).

    ``local(name)`` gives the value of a local and ``call(e)`` that of a
    ``Call`` (opaque without one); ``lens`` maps local array names to known
    lengths (for ``len()``)."""
    ty = e.ty
    if ty is not _t.I64 and ty is not _t.I32 and ty is not _t.BOOL:
        return OPAQUE
    cls = type(e)
    if cls is ir.LocalRef and e.shape.const is None:
        value = local(e.name)
        return value if ty is not _t.BOOL else (None, value[1])
    if cls is ir.BinOp:
        left = evaluate(e.left, local, lens, call)
        right = evaluate(e.right, local, lens, call)
        if e.op == "+" or e.op == "-":
            return add(left, right, 1 if e.op == "+" else -1)
        if e.op == "*":
            return _mul(left, right)
        d = _const_int(e.right)
        if e.op in ("//", "%") and d is not None and d > 0:
            whole = _whole(left)
            return None, (whole.floordiv_const(d) if e.op == "//"
                          else whole.mod_const(d))
        return OPAQUE
    if cls is ir.Const:
        v = int(e.value)  # an integer or a boolean
        return {} if ty is not _t.BOOL else None, _point(v)
    if cls is ir.LocalRef or cls is ir.FieldLoad or cls is ir.Cast:
        c = _const_int(e) if e.shape.const is not None else None
        if c is not None:  # what fold would materialize
            return {}, _point(c)
    if cls is ir.Cast:
        inner = evaluate(e.value, local, lens, call)
        # widening keeps the value; a narrowing cast may wrap
        return inner if e.to is _t.I64 else (inner[0], TOP)
    if cls is ir.Call and call is not None and ty is not _t.BOOL:
        return call(e)
    if cls is ir.ArrayLen:
        n = _known_length(e.arr, lens or {})
        return None, Interval(0, None) if n is None else Interval(n, n)
    if cls is ir.UnaryOp:
        if e.op == "-":
            terms, rest = evaluate(e.operand, local, lens, call)
            if terms:
                terms = {n: -k for n, k in terms.items()}
            return terms, rest.neg()
        return None, Interval(0, 1)  # not
    if cls is ir.Compare or cls is ir.BoolOp:
        return None, Interval(0, 1)
    return OPAQUE


# ---------------------------------------------------------------------------
# state: var intervals + known array lengths
# ---------------------------------------------------------------------------

# A state is ``(vars, lens)``: interval facts by local name and known
# array lengths by local name.  States are never mutated once built
# (transfer works on copies), so plain dicts compare and share safely.


def _join_states(a: tuple, b: tuple) -> tuple:
    (av, al), (bv, bl) = a, b
    vars_d = {}
    for name in av.keys() & bv.keys():
        j = av[name].hull(bv[name])
        if not j.is_top():
            vars_d[name] = j
    lens_d = {n: av_len for n, av_len in al.items()
              if bl.get(n) == av_len}
    return vars_d, lens_d


def _known_length(arr: ir.Expr, lens: dict) -> Optional[int]:
    """Statically-known element count of the array ``arr`` evaluates to."""
    shape = getattr(arr, "shape", None)
    if isinstance(shape, ArrayShape) and shape.length is not None:
        return shape.length
    if isinstance(arr, ir.LocalRef):
        return lens.get(arr.name)
    return None


def _facts(vars_d: dict):
    """The ``evaluate`` local over one point's interval facts: bce makes
    no symbols, so a local is just its interval."""
    return lambda name: (None, vars_d.get(name, TOP))


def _bind_interval(loop: ir.ForRange, local, lens_d: dict) -> Interval:
    """Interval of the loop variable over all iterations of ``loop``."""
    start = evaluate(loop.start, local, lens_d)[1]
    stop = evaluate(loop.stop, local, lens_d)[1]
    step = loop.step
    if step is None:
        step_iv = Interval(1, 1)
    else:
        step_iv = evaluate(step, local, lens_d)[1]
    if step_iv.lo is not None and step_iv.lo >= 1:
        # ascending: values in [start, stop-1]
        hi = None if stop.hi is None else stop.hi - 1
        return Interval(start.lo, hi).clamp()
    if step_iv.hi is not None and step_iv.hi <= -1:
        # descending: values in [stop+1, start]
        lo = None if stop.lo is None else stop.lo + 1
        return Interval(lo, start.hi).clamp()
    # unknown sign: hull of both cases
    asc_hi = None if stop.hi is None else stop.hi - 1
    desc_lo = None if stop.lo is None else stop.lo + 1
    return Interval(start.lo, asc_hi).hull(Interval(desc_lo, start.hi)).clamp()


class _RangeAnalysis(DataflowAnalysis):
    """Forward interval analysis over one function's CFG."""

    def boundary(self):
        return {}, {}

    def join(self, a, b):
        return _join_states(a, b)

    def transfer(self, block, state):
        vars_d, lens_d = dict(state[0]), dict(state[1])
        local = _facts(vars_d)
        for item in block.stmts:
            _transfer_item(item, vars_d, lens_d, local)
        return vars_d, lens_d

    def widen(self, old, new, visits):
        if visits <= _WIDEN_AFTER:
            return new
        (ov, ol), (nv, nl) = old, new
        widened = {}
        for name, niv in nv.items():
            oiv = ov.get(name)
            if oiv is None:
                continue  # new fact while widening: drop it (stabilize)
            lo = niv.lo if (oiv.lo is not None and niv.lo == oiv.lo) else None
            hi = niv.hi if (oiv.hi is not None and niv.hi == oiv.hi) else None
            if lo is not None or hi is not None:
                widened[name] = Interval(lo, hi)
        lens_d = {n: v for n, v in nl.items() if ol.get(n) == v}
        return widened, lens_d


def _transfer_item(item, vars_d: dict, lens_d: dict, local) -> None:
    """Update the fact dicts in place for one block item (``local`` reads
    ``vars_d``)."""
    if isinstance(item, LoopBind):
        loop = item.loop
        vars_d[loop.var] = _bind_interval(loop, local, lens_d)
        return
    if isinstance(item, (ir.LocalDecl, ir.Assign)):
        value = item.value
        # integer facts
        if value.ty in _INT_TYPES:
            iv = evaluate(value, local, lens_d)[1]
            if iv.is_top():
                vars_d.pop(item.name, None)
            else:
                vars_d[item.name] = iv
        else:
            vars_d.pop(item.name, None)
        # array-length facts
        n = _known_length(value, lens_d)
        if n is None and isinstance(value, ir.IntrinsicCall) \
                and value.key == "wj.zeros" and value.args:
            n = _const_int(value.args[0])
        if n is not None and n >= 0:
            lens_d[item.name] = n
        else:
            lens_d.pop(item.name, None)


# ---------------------------------------------------------------------------
# the BCE pass
# ---------------------------------------------------------------------------

def _mark_item(item, local, lens_d: dict) -> int:
    """Mark provably-in-bounds accesses reachable from ``item``."""
    n = 0
    for root in item_exprs(item):
        for e in ir.walk_exprs(root):
            if isinstance(e, ir.ArrayLoad) and not e.bounds_ok:
                length = _known_length(e.arr, lens_d)
                if length is not None and evaluate(
                        e.index, local, lens_d)[1].within(0, length - 1):
                    e.bounds_ok = True
                    n += 1
    if isinstance(item, ir.ArrayStore) and not item.bounds_ok:
        length = _known_length(item.arr, lens_d)
        if length is not None and evaluate(
                item.index, local, lens_d)[1].within(0, length - 1):
            item.bounds_ok = True
            n += 1
    return n


def bce_func(f: ir.FuncIR, ctx=None) -> int:
    """Bounds-check elimination: mark provably-in-bounds array accesses.

    Returns the number of accesses newly marked ``bounds_ok`` (the pass's
    rewrite count).
    """
    cfg = build_cfg(f)
    states = solve(cfg, _RangeAnalysis())
    n = 0
    for block in cfg.blocks:
        in_state = states[block.bid][0]
        if in_state is None:
            continue  # unreachable
        vars_d, lens_d = dict(in_state[0]), dict(in_state[1])
        local = _facts(vars_d)
        for item in block.stmts:
            n += _mark_item(item, local, lens_d)
            _transfer_item(item, vars_d, lens_d, local)
    return n
