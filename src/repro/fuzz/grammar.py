"""Structured guest-program generator for the differential fuzzer.

This module extracts the random-program idea from
``tests/test_differential_random.py`` into a library and widens the
grammar well past what that harness ever emitted: i64 arithmetic, while
loops with bounded counters, boolean operators, if/elif/else chains,
nested helper-call chains (helpers calling helpers), an ``Array(f64)``
constructor field with indexed loads *and* stores, scatter stores through
computed indices, nested for-loops with affine and non-affine (clamped)
index expressions, ``break``/``continue``, float ``//``/``%``/``**``, and
``int()``/``float()`` casts.

Programs are represented as an immutable :class:`ProgramSpec` — a genome
of per-block seeds and feature switches — and rendered to guest source by
a *pure function* of the spec.  That buys three properties the fuzzer
needs:

* **validity by construction** — every rendered program obeys the guest
  coding rules and the numeric-safety rules below, so any observed
  divergence is a compiler bug, never a generator bug;
* **cheap structural mutation** — mutating a block's seed, depth, or kind
  re-renders only that block; and
* **spec-level minimization** — dropping blocks/helpers or shrinking
  depths always yields another valid program.

Numeric safety (the "agree" in *bit-for-bit agreement* means the full 64
bits, so no program may reach inf/NaN or i64 overflow):

* f64 literals are exact binary fractions; division, ``//`` and ``%`` use
  nonzero power-of-two literal divisors; ``**`` only ever squares, or
  raises the constant field ``self.a`` (|a| ≤ 3, often negative) to a
  runtime exponent in {0, 1, 2, 3} — a folded negative base an emitter
  must parenthesize.
* the one non-finite value is the constant ``1e308 * 10.0`` (folds to
  ``inf``, which an emitter must be able to spell); it only ever bounds a
  ``min``/``max`` whose other operand is finite, so no result is inf/NaN.
* f64 locals are clamped to ±1000 after every assignment, helper returns
  are clamped to ±1024 inside the helper, so expression leaves stay small
  and a depth-4 tree of squarings tops out near 1e64 — far from overflow.
* i64 locals are clamped to ±8192, multiplication is by small literals
  only, ``//``/``%`` divisors are nonzero literals, so no i64 wrap-around
  (whose Python/C semantics differ) can occur.
* ``int()`` is applied to clamped f64 variables only; ``float()`` to
  clamped i64 variables only — both exact.
"""

from __future__ import annotations

import dataclasses
import random
from dataclasses import dataclass
from typing import Any

__all__ = [
    "BlockSpec",
    "Features",
    "FULL_FEATURES",
    "HEADER",
    "HelperSpec",
    "LEGACY_FEATURES",
    "ProgramSpec",
    "ctor_args",
    "host_step",
    "mutate",
    "random_spec",
    "render",
    "spec_from_dict",
    "spec_to_dict",
]

#: module header prepended to every rendered program
HEADER = "from repro import Array, f64, i64, wj, wootin\n\n\n"

#: class name used by every rendered program (one program per module)
CLASS_NAME = "FuzzGuest"

#: exact binary fractions: parsed identically by CPython and C strtod
_LITS = ["0.5", "-0.5", "1.5", "2.0", "0.25", "1.0", "3.0", "-1.25", "0.125"]
#: nonzero power-of-two divisors (exact, and defined for // and % too)
_DIVISORS = ["2.0", "4.0", "0.5", "8.0"]
#: small nonzero i64 literals (divisors and multipliers)
_ILITS = ["1", "2", "3", "5", "7", "-2", "-3", "9", "4"]

_BLOCK_KINDS = ("scalar", "for_arr", "scatter", "while", "if_chain",
                "nested")


@dataclass(frozen=True)
class Features:
    """Grammar switches.  ``LEGACY_FEATURES`` reproduces the shape of the
    original test-harness generator; ``FULL_FEATURES`` enables everything
    the fuzzer added on top."""

    i64_arith: bool = True
    while_loops: bool = True
    bool_ops: bool = True
    if_chains: bool = True
    helper_chains: bool = True
    data_field: bool = True
    scatter: bool = True
    break_continue: bool = True
    new_ops: bool = True
    nested_loops: bool = True


LEGACY_FEATURES = Features(i64_arith=False, while_loops=False,
                           bool_ops=False, if_chains=False,
                           helper_chains=False, data_field=False,
                           scatter=False, break_continue=False,
                           new_ops=False, nested_loops=False)
FULL_FEATURES = Features()


@dataclass(frozen=True)
class HelperSpec:
    """One helper method.  ``ty`` is ``"f"`` (f64) or ``"i"`` (i64);
    ``callees`` names helpers declared *after* this one (call chains are
    acyclic by construction)."""

    name: str
    ty: str
    seed: int
    depth: int
    nparams: int
    callees: tuple[str, ...] = ()


@dataclass(frozen=True)
class BlockSpec:
    """One statement block in the body of ``run``.  Rendering is a pure
    function of the fields, so blocks mutate independently."""

    kind: str
    seed: int
    depth: int = 3
    arms: int = 2
    use_break: bool = False
    use_continue: bool = False


@dataclass(frozen=True)
class ProgramSpec:
    """A complete generated guest program (genome form)."""

    seed: int
    n: int
    iters: int
    a: float
    b: float
    k: int | None
    data: tuple[float, ...] | None
    helpers: tuple[HelperSpec, ...]
    blocks: tuple[BlockSpec, ...]
    features: Features = FULL_FEATURES


# ---------------------------------------------------------------------------
# expression generation


def _fleaf(rng: random.Random, ctx: dict[str, Any]) -> str:
    pool = list(ctx["f_leaves"])
    if rng.random() < 0.4:
        return rng.choice(_LITS)
    return rng.choice(pool) if pool else rng.choice(_LITS)


def _ileaf(rng: random.Random, ctx: dict[str, Any]) -> str:
    pool = list(ctx["i_leaves"])
    if rng.random() < 0.4 or not pool:
        return rng.choice(_ILITS)
    return rng.choice(pool)


def _fexpr(rng: random.Random, ctx: dict[str, Any], depth: int,
           feats: Features) -> str:
    """One f64 expression of at most ``depth`` operator levels."""
    if depth <= 0 or rng.random() < 0.25:
        return _fleaf(rng, ctx)
    ops = ["+", "-", "*", "+", "-", "*", "/"]
    if feats.new_ops:
        ops += ["//", "%", "**", "abs", "min", "max", "cast", "cpow",
                "infclamp"]
    if ctx["f_calls"] and rng.random() < 0.3:
        name, nparams = rng.choice(ctx["f_calls"])
        args = ", ".join(_fexpr(rng, ctx, 1, feats) for _ in range(nparams))
        return f"{ctx['recv']}{name}({args})"
    op = rng.choice(ops)
    if op == "abs":
        return f"abs({_fexpr(rng, ctx, depth - 1, feats)})"
    if op in ("min", "max"):
        return (f"{op}({_fexpr(rng, ctx, depth - 1, feats)}, "
                f"{_fexpr(rng, ctx, depth - 1, feats)})")
    if op == "cast":
        return f"float({_ileaf(rng, ctx)})" if ctx["i_leaves"] else \
            _fleaf(rng, ctx)
    if op == "cpow" and ctx["i_leaves"]:
        return f"(self.a ** float(abs({_ileaf(rng, ctx)}) % 4))"
    left = _fexpr(rng, ctx, depth - 1, feats)
    if op == "infclamp":
        if rng.random() < 0.5:
            return f"min({left}, 1e308 * 10.0)"
        return f"max({left}, -(1e308 * 10.0))"
    if op == "cpow":  # no i64 leaf in scope to vary the exponent
        return f"({left} ** 2.0)"
    if op in ("/", "//", "%"):
        return f"({left} {op} {rng.choice(_DIVISORS)})"
    if op == "**":
        return f"({left} ** 2.0)"
    right = _fexpr(rng, ctx, depth - 1, feats)
    return f"({left} {op} {right})"


def _iexpr(rng: random.Random, ctx: dict[str, Any], depth: int,
           feats: Features) -> str:
    """One i64 expression; magnitudes stay far below 2**63 (leaves are
    clamped variables or small literals, multiplication is by literal)."""
    if depth <= 0 or rng.random() < 0.3:
        return _ileaf(rng, ctx)
    if ctx["i_calls"] and rng.random() < 0.3:
        name, nparams = rng.choice(ctx["i_calls"])
        args = ", ".join(_iexpr(rng, ctx, 1, feats) for _ in range(nparams))
        return f"{ctx['recv']}{name}({args})"
    op = rng.choice(["+", "-", "+", "-", "*", "//", "%", "neg", "min",
                     "max", "abs", "cast"])
    left = _iexpr(rng, ctx, depth - 1, feats)
    if op == "*":
        return f"({left} * {rng.choice(['2', '3', '5', '7', '9'])})"
    if op in ("//", "%"):
        return f"({left} {op} {rng.choice(_ILITS)})"
    if op == "neg":
        return f"(-{left})"
    if op == "abs":
        return f"abs({left})"
    if op in ("min", "max"):
        return f"{op}({left}, {_iexpr(rng, ctx, depth - 1, feats)})"
    if op == "cast":
        clamped = ctx["clamped_f"]
        if clamped:
            return f"int({rng.choice(clamped)})"
        return _ileaf(rng, ctx)
    right = _iexpr(rng, ctx, depth - 1, feats)
    return f"({left} {op} {right})"


def _bexpr(rng: random.Random, ctx: dict[str, Any], depth: int,
           feats: Features) -> str:
    """One boolean expression (comparisons, optionally and/or/not)."""
    if not feats.bool_ops or depth <= 0 or rng.random() < 0.5:
        if ctx["i_leaves"] and feats.i64_arith and rng.random() < 0.4:
            op = rng.choice(["<", "<=", ">", ">=", "==", "!="])
            return (f"{_iexpr(rng, ctx, 1, feats)} {op} "
                    f"{_iexpr(rng, ctx, 1, feats)}")
        op = rng.choice(["<", "<=", ">", ">=", "==", "!="])
        return (f"{_fexpr(rng, ctx, 1, feats)} {op} "
                f"{_fexpr(rng, ctx, 1, feats)}")
    kind = rng.randrange(3)
    if kind == 0:
        return (f"({_bexpr(rng, ctx, depth - 1, feats)} and "
                f"{_bexpr(rng, ctx, depth - 1, feats)})")
    if kind == 1:
        return (f"({_bexpr(rng, ctx, depth - 1, feats)} or "
                f"{_bexpr(rng, ctx, depth - 1, feats)})")
    return f"(not {_bexpr(rng, ctx, depth - 1, feats)})"


# ---------------------------------------------------------------------------
# statement rendering


class _Emitter:
    """Indentation-tracking line buffer."""

    def __init__(self) -> None:
        self.lines: list[str] = []
        self.indent = 0

    def put(self, text: str) -> None:
        self.lines.append("    " * self.indent + text if text else "")

    def block(self, header: str) -> "_IndentCtx":
        self.put(header)
        return _IndentCtx(self)


class _IndentCtx:
    def __init__(self, em: _Emitter) -> None:
        self.em = em

    def __enter__(self) -> None:
        self.em.indent += 1

    def __exit__(self, *exc: Any) -> None:
        self.em.indent -= 1


def _clamp_f(em: _Emitter, var: str) -> None:
    with em.block(f"if {var} > 1000.0:"):
        em.put(f"{var} = 1000.0")
    with em.block(f"if {var} < -1000.0:"):
        em.put(f"{var} = -1000.0")


def _clamp_i(em: _Emitter, var: str) -> None:
    with em.block(f"if {var} > 8192:"):
        em.put(f"{var} = 8192")
    with em.block(f"if {var} < -8192:"):
        em.put(f"{var} = -8192")


def _scalar_stmt(em: _Emitter, rng: random.Random, ctx: dict[str, Any],
                 depth: int, feats: Features) -> None:
    """One clamped assignment to a scalar local."""
    targets = ["x", "y"]
    if feats.i64_arith:
        targets.append("m")
    tgt = rng.choice(targets)
    if tgt == "m":
        em.put(f"m = {_iexpr(rng, ctx, depth, feats)}")
        _clamp_i(em, "m")
    else:
        em.put(f"{tgt} = {_fexpr(rng, ctx, depth, feats)}")
        _clamp_f(em, tgt)


def _base_ctx(spec: ProgramSpec, recv: str = "self.") -> dict[str, Any]:
    feats = spec.features
    f_leaves = ["x", "y", "self.a", "self.b"]
    i_leaves: list[str] = []
    clamped_f = ["x", "y"]
    if feats.i64_arith:
        i_leaves += ["m", "self.n"]
        if spec.k is not None:
            i_leaves.append("self.k")
        f_leaves.append("float(m)")
    f_calls = [(h.name, h.nparams) for h in spec.helpers if h.ty == "f"]
    i_calls = [(h.name, h.nparams) for h in spec.helpers if h.ty == "i"]
    return {"f_leaves": f_leaves, "i_leaves": i_leaves,
            "clamped_f": clamped_f, "f_calls": f_calls, "i_calls": i_calls,
            "recv": recv}


def _loop_ctx(ctx: dict[str, Any], spec: ProgramSpec) -> dict[str, Any]:
    """The base context widened with loop-local leaves."""
    out = dict(ctx)
    out["f_leaves"] = list(ctx["f_leaves"]) + ["arr[i]", "float(i)"]
    if spec.data is not None and spec.features.data_field:
        out["f_leaves"].append("self.data[i]")
    if spec.features.i64_arith:
        out["i_leaves"] = list(ctx["i_leaves"]) + ["i"]
    return out


def _emit_block(em: _Emitter, blk: BlockSpec, spec: ProgramSpec) -> None:
    feats = spec.features
    rng = random.Random(blk.seed)
    ctx = _base_ctx(spec)
    if blk.kind == "scalar":
        for _ in range(rng.randrange(1, 3)):
            _scalar_stmt(em, rng, ctx, blk.depth, feats)
        return
    if blk.kind == "if_chain":
        lctx = ctx
        with em.block(f"if {_bexpr(rng, lctx, 2, feats)}:"):
            _scalar_stmt(em, rng, lctx, blk.depth, feats)
        for _ in range(max(0, blk.arms - 2)):
            with em.block(f"elif {_bexpr(rng, lctx, 2, feats)}:"):
                _scalar_stmt(em, rng, lctx, blk.depth, feats)
        with em.block("else:"):
            _scalar_stmt(em, rng, lctx, blk.depth, feats)
        return
    if blk.kind == "while":
        bound = rng.randrange(1, 4)
        cond = f"w < {bound}"
        wctx = dict(ctx)
        wctx["i_leaves"] = list(ctx["i_leaves"]) + ["w"] \
            if feats.i64_arith else ctx["i_leaves"]
        if feats.bool_ops and rng.random() < 0.5:
            cond = f"{cond} and {_bexpr(rng, wctx, 1, feats)}"
        em.put("w = 0")
        with em.block(f"while {cond}:"):
            _scalar_stmt(em, rng, wctx, blk.depth, feats)
            if blk.use_break and feats.break_continue:
                with em.block(f"if {_bexpr(rng, wctx, 1, feats)}:"):
                    em.put("break")
            em.put("w = w + 1")
        return
    if blk.kind == "nested":
        # nested loops over the array, with affine (``arr[i + j]``) or
        # non-affine (min-clamped product) indexing — the affine form is
        # exactly what the mid-end's range analysis can prove in-bounds
        # (bounds-check elimination), the clamped form must keep its
        # check, and both must agree bit-for-bit across backends either
        # way.  The update is a contraction (0.5/0.25 factors), so array
        # values stay bounded across iterations.
        lctx = dict(_loop_ctx(ctx, spec))
        lctx["f_leaves"] = list(lctx["f_leaves"]) + ["float(j)"]
        if feats.i64_arith:
            lctx["i_leaves"] = list(lctx["i_leaves"]) + ["j"]
        affine = blk.seed % 2 == 0
        with em.block("for i in range(self.n - 2):"):
            with em.block("for j in range(3):"):
                em.put(f"x = {_fexpr(rng, lctx, blk.depth, feats)}")
                _clamp_f(em, "x")
                if affine:
                    em.put("arr[i + j] = x * 0.25 + arr[i + j] * 0.5")
                else:
                    em.put("arr[min(i * j, self.n - 1)] = x * 0.25")
        return
    if blk.kind == "scatter":
        lctx = _loop_ctx(ctx, spec)
        with em.block("for i in range(self.n):"):
            em.put(f"m = {_iexpr(rng, lctx, blk.depth, feats)}")
            _clamp_i(em, "m")
            em.put(f"x = {_fexpr(rng, lctx, blk.depth, feats)}")
            _clamp_f(em, "x")
            em.put("arr[m % self.n] = x")
        return
    # default: "for_arr" — the legacy update-loop shape, optionally with
    # continue/break, an inner conditional, and data-field stores.
    lctx = _loop_ctx(ctx, spec)
    rngsrc = "range(len(arr))" if rng.random() < 0.5 else "range(self.n)"
    store_data = (spec.data is not None and feats.data_field
                  and rng.random() < 0.3)
    with em.block(f"for i in {rngsrc}:"):
        if blk.use_continue and feats.break_continue:
            with em.block(f"if {_bexpr(rng, lctx, 1, feats)}:"):
                em.put("continue")
        em.put(f"x = {_fexpr(rng, lctx, blk.depth, feats)}")
        _clamp_f(em, "x")
        if rng.random() < 0.5:
            if feats.if_chains:
                with em.block(f"if {_bexpr(rng, lctx, 1, feats)}:"):
                    em.put(f"x = x * {rng.choice(_DIVISORS)}")
                with em.block("else:"):
                    em.put(f"x = x - {rng.choice(_LITS)}")
            else:
                with em.block(f"if x > {rng.choice(_LITS)}:"):
                    em.put(f"x = x * {rng.choice(_DIVISORS)}")
        target = "self.data[i]" if store_data else "arr[i]"
        em.put(f"{target} = x")
        if blk.use_break and feats.break_continue:
            with em.block(f"if {_bexpr(rng, lctx, 1, feats)}:"):
                em.put("break")


def _emit_helper(em: _Emitter, h: HelperSpec, spec: ProgramSpec) -> None:
    rng = random.Random(h.seed)
    feats = spec.features
    later = {c for c in h.callees}
    f_calls = [(o.name, o.nparams) for o in spec.helpers
               if o.name in later and o.ty == "f"]
    i_calls = [(o.name, o.nparams) for o in spec.helpers
               if o.name in later and o.ty == "i"]
    if h.ty == "f":
        params = [f"v{j}" for j in range(h.nparams)]
        sig = ", ".join(f"{p}: f64" for p in params)
        ctx = {"f_leaves": params + ["self.a", "self.b"], "i_leaves": [],
               "clamped_f": [], "f_calls": f_calls, "i_calls": [],
               "recv": "self."}
        body = _fexpr(rng, ctx, h.depth, feats)
        with em.block(f"def {h.name}(self, {sig}) -> f64:"):
            em.put(f"return max(-1024.0, min(1024.0, {body}))")
    else:
        params = [f"v{j}" for j in range(h.nparams)]
        sig = ", ".join(f"{p}: i64" for p in params)
        ctx = {"f_leaves": [], "i_leaves": params + ["self.n"],
               "clamped_f": [], "f_calls": [], "i_calls": i_calls,
               "recv": "self."}
        body = _iexpr(rng, ctx, h.depth, feats)
        with em.block(f"def {h.name}(self, {sig}) -> i64:"):
            em.put(f"return max(-8192, min(8192, {body}))")
    em.put("")


# ---------------------------------------------------------------------------
# program rendering


def render(spec: ProgramSpec) -> str:
    """Render the spec to a complete guest module (header included)."""
    feats = spec.features
    em = _Emitter()
    em.put("@wootin")
    with em.block(f"class {CLASS_NAME}:"):
        em.put("a: f64")
        em.put("b: f64")
        em.put("n: i64")
        ctor_params = ["a: f64", "b: f64", "n: i64"]
        ctor_body = ["self.a = a", "self.b = b", "self.n = n"]
        if spec.k is not None:
            em.put("k: i64")
            ctor_params.append("k: i64")
            ctor_body.append("self.k = k")
        if spec.data is not None and feats.data_field:
            em.put("data: Array(f64)")
            ctor_params.append("data: Array(f64)")
            ctor_body.append("self.data = data")
        em.put("")
        with em.block(f"def __init__(self, {', '.join(ctor_params)}):"):
            for line in ctor_body:
                em.put(line)
        em.put("")
        for h in spec.helpers:
            _emit_helper(em, h, spec)
        rng = random.Random(spec.seed)
        with em.block("def run(self, iters: i64) -> f64:"):
            em.put(f"x = {rng.choice(_LITS)}")
            em.put(f"y = {rng.choice(_LITS)}")
            if feats.i64_arith:
                em.put(f"m = {rng.randrange(1, 8)}")
            if any(b.kind == "while" for b in spec.blocks):
                em.put("w = 0")
            em.put("arr = wj.zeros(f64, self.n)")
            init_ctx = {"f_leaves": ["float(i)", "self.a", "self.b"],
                        "i_leaves": [], "clamped_f": [], "f_calls": [],
                        "i_calls": [], "recv": "self."}
            with em.block("for i in range(self.n):"):
                em.put(f"arr[i] = "
                       f"{_fexpr(rng, init_ctx, 2, LEGACY_FEATURES)}")
            with em.block("for it in range(iters):"):
                if not spec.blocks:
                    em.put("x = x + 0.5")
                    _clamp_f(em, "x")
                for blk in spec.blocks:
                    _emit_block(em, blk, spec)
            em.put("total = 0.0")
            with em.block("for i in range(self.n):"):
                em.put("total = total + arr[i]")
            if spec.data is not None and feats.data_field:
                with em.block("for i in range(self.n):"):
                    em.put("total = total + self.data[i] * 0.5")
            if feats.i64_arith:
                em.put("total = total + float(m) * 0.0078125")
            em.put("total = total + x * 0.0625 + y * 0.0625")
            em.put('wj.output("arr", arr)')
            if spec.data is not None and feats.data_field:
                em.put('wj.output("data", self.data)')
            em.put("return total")
    return HEADER + "\n".join(em.lines) + "\n"


def ctor_args(spec: ProgramSpec, *, swapped: bool = False) -> list[Any]:
    """Positional constructor arguments matching :func:`render`'s ctor.

    The data buffer is materialized fresh on every call so mutation by one
    differential leg can never leak into the next.  ``swapped`` reverses
    it: the array a ``"swap"`` host step rebinds the field to.
    """
    import numpy as np

    args: list[Any] = [spec.a, spec.b, spec.n]
    if spec.k is not None:
        args.append(spec.k)
    if spec.data is not None and spec.features.data_field:
        data = spec.data[:spec.n]
        args.append(np.array(data[::-1] if swapped else data,
                             dtype=np.float64))
    return args


def host_step(spec: ProgramSpec) -> str:
    """What the host does to the receiver after ``jit()``: ``"swap"``
    rebinds the ``Array(f64)`` field to the reversed data (legal; a fresh
    ``jit()`` must then agree with the interpreter on the swapped
    receiver), ``"rebind"`` sets the scalar field ``a`` (must raise
    ``NotSemiImmutable``).  A pure function of the spec: it draws nothing
    from the generator, so seeded runs produce the programs they always
    did."""
    if spec.data is not None and spec.features.data_field \
            and spec.seed % 2 == 0:
        return "swap"
    return "rebind"


# ---------------------------------------------------------------------------
# random generation and mutation


def _random_helpers(rng: random.Random, feats: Features) \
        -> tuple[HelperSpec, ...]:
    if not feats.helper_chains:
        if rng.random() < 0.5:
            return (HelperSpec("h0", "f", rng.randrange(1 << 30), 2, 1),)
        return ()
    names: list[HelperSpec] = []
    count = rng.randrange(0, 4)
    kinds = ["f", "f", "i"] if feats.i64_arith else ["f"]
    for j in range(count):
        ty = rng.choice(kinds)
        later = [h.name for h in names[j + 1:]]  # none yet; filled below
        names.append(HelperSpec(f"h{j}", ty, rng.randrange(1 << 30),
                                rng.randrange(1, 3),
                                rng.randrange(1, 3), tuple(later)))
    # wire call chains: helper j may call any helper declared after it
    out: list[HelperSpec] = []
    for j, h in enumerate(names):
        pool = [o.name for o in names[j + 1:]]
        callees = tuple(c for c in pool if rng.random() < 0.5)
        out.append(dataclasses.replace(h, callees=callees))
    return tuple(out)


def _random_block(rng: random.Random, feats: Features) -> BlockSpec:
    kinds = ["for_arr", "for_arr", "scalar"]
    if feats.while_loops:
        kinds.append("while")
    if feats.if_chains:
        kinds.append("if_chain")
    if feats.scatter and feats.i64_arith:
        kinds.append("scatter")
    if feats.nested_loops:
        kinds.append("nested")
    return BlockSpec(kind=rng.choice(kinds), seed=rng.randrange(1 << 30),
                     depth=rng.randrange(2, 5), arms=rng.randrange(2, 5),
                     use_break=rng.random() < 0.3,
                     use_continue=rng.random() < 0.3)


def random_spec(rng: random.Random,
                features: Features = FULL_FEATURES) -> ProgramSpec:
    """One fresh random program.  With ``LEGACY_FEATURES`` this matches
    the shape of the original 56-seed test-harness generator (single
    update loop, f64-only, no while/boolop/elif)."""
    feats = features
    n = rng.randrange(3, 9)
    if feats == LEGACY_FEATURES:
        blocks = tuple(_random_block(rng, feats)
                       for _ in range(rng.randrange(1, 3)))
    else:
        blocks = tuple(_random_block(rng, feats)
                       for _ in range(rng.randrange(1, 5)))
    return ProgramSpec(
        seed=rng.randrange(1 << 30),
        n=n,
        iters=rng.randrange(1, 4),
        a=rng.randrange(-24, 25) / 8.0,
        b=rng.randrange(-24, 25) / 8.0,
        k=rng.randrange(-9, 10) if feats.i64_arith and rng.random() < 0.5
        else None,
        data=tuple(rng.randrange(-16, 17) / 8.0 for _ in range(8))
        if feats.data_field and rng.random() < 0.5 else None,
        helpers=_random_helpers(rng, feats),
        blocks=blocks,
        features=feats,
    )


def mutate(rng: random.Random, spec: ProgramSpec) -> ProgramSpec:
    """One structural mutation.  Always yields a valid spec: rendering is
    a pure function of the spec, and every operator below maps valid
    specs to valid specs."""
    feats = spec.features
    ops = ["add_block", "replace_block", "bump_depth", "reseed_block",
           "reseed_prog", "resize", "toggle_flags"]
    if len(spec.blocks) > 1:
        ops.append("drop_block")
    if feats.data_field:
        ops.append("toggle_data")
    if feats.i64_arith:
        ops.append("toggle_k")
    op = rng.choice(ops)
    blocks = list(spec.blocks)
    if op == "add_block":
        blocks.insert(rng.randrange(len(blocks) + 1),
                      _random_block(rng, feats))
        return dataclasses.replace(spec, blocks=tuple(blocks))
    if op == "drop_block":
        blocks.pop(rng.randrange(len(blocks)))
        return dataclasses.replace(spec, blocks=tuple(blocks))
    if op == "replace_block" and blocks:
        blocks[rng.randrange(len(blocks))] = _random_block(rng, feats)
        return dataclasses.replace(spec, blocks=tuple(blocks))
    if op == "bump_depth" and blocks:
        j = rng.randrange(len(blocks))
        d = max(1, min(4, blocks[j].depth + rng.choice([-1, 1])))
        blocks[j] = dataclasses.replace(blocks[j], depth=d)
        return dataclasses.replace(spec, blocks=tuple(blocks))
    if op == "reseed_block" and blocks:
        j = rng.randrange(len(blocks))
        blocks[j] = dataclasses.replace(blocks[j],
                                        seed=rng.randrange(1 << 30))
        return dataclasses.replace(spec, blocks=tuple(blocks))
    if op == "toggle_flags" and blocks:
        j = rng.randrange(len(blocks))
        blocks[j] = dataclasses.replace(
            blocks[j], use_break=rng.random() < 0.5,
            use_continue=rng.random() < 0.5, arms=rng.randrange(2, 5))
        return dataclasses.replace(spec, blocks=tuple(blocks))
    if op == "resize":
        return dataclasses.replace(spec, n=rng.randrange(3, 9),
                                   iters=rng.randrange(1, 4))
    if op == "toggle_data":
        data = None if spec.data is not None else tuple(
            rng.randrange(-16, 17) / 8.0 for _ in range(8))
        return dataclasses.replace(spec, data=data)
    if op == "toggle_k":
        k = None if spec.k is not None else rng.randrange(-9, 10)
        return dataclasses.replace(spec, k=k)
    return dataclasses.replace(spec, seed=rng.randrange(1 << 30),
                               helpers=_random_helpers(rng, feats))


# ---------------------------------------------------------------------------
# (de)serialization — used by the corpus and for reproducer records


def spec_to_dict(spec: ProgramSpec) -> dict[str, Any]:
    """JSON-safe dict form of a spec (inverse of :func:`spec_from_dict`)."""
    d = dataclasses.asdict(spec)
    d["data"] = list(spec.data) if spec.data is not None else None
    d["helpers"] = [dataclasses.asdict(h) for h in spec.helpers]
    d["blocks"] = [dataclasses.asdict(b) for b in spec.blocks]
    d["features"] = dataclasses.asdict(spec.features)
    return d


def spec_from_dict(d: dict[str, Any]) -> ProgramSpec:
    """Rebuild a :class:`ProgramSpec` from its JSON dict form."""
    return ProgramSpec(
        seed=d["seed"], n=d["n"], iters=d["iters"], a=d["a"], b=d["b"],
        k=d["k"],
        data=tuple(d["data"]) if d["data"] is not None else None,
        helpers=tuple(HelperSpec(name=h["name"], ty=h["ty"], seed=h["seed"],
                                 depth=h["depth"], nparams=h["nparams"],
                                 callees=tuple(h["callees"]))
                      for h in d["helpers"]),
        blocks=tuple(BlockSpec(**b) for b in d["blocks"]),
        features=Features(**d["features"]),
    )
