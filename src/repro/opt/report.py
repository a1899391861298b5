"""Before/after report for the mid-end pass pipeline.

Translates the two demo programs the golden tests pin (the 3-D diffusion
stencil and the matmul) once with the mid-end disabled and once with the
configured pipeline, and reports, per program:

* IR statement counts before and after,
* emitted C statement counts (``;``-terminated lines; no C compiler is
  needed — the program is emitted, never built),
* per-pass rewrite totals and time.

Used by ``python -m repro opt report``.
"""

from __future__ import annotations

import os

from repro.opt.cfg.inline import _stmt_count

__all__ = ["collect", "render", "render_timings"]


def _demo_apps() -> dict:
    from repro.library.matmul import (
        CPULoop, OptimizedCalculator, SimpleOuterBody, make_matrix,
    )
    from repro.library.stencil import (
        EmptyContext, SineGen, StencilCPU3D, ThreeDIndexer,
    )
    from repro.library.stencil.config import make_dif3d_solver, make_grid3d

    stencil = StencilCPU3D(
        make_dif3d_solver(), make_grid3d(8, 8, 6), ThreeDIndexer(8, 8, 6),
        SineGen(8, 8, 4, 1), EmptyContext(),
    )
    ma, mb, mc = make_matrix(8), make_matrix(8), make_matrix(8)
    matmul = CPULoop(SimpleOuterBody(), OptimizedCalculator())
    return {
        "stencil": ("run", (2,), stencil),
        "matmul": ("start", (ma, mb, mc), matmul),
    }


def _count_ir_stmts(program) -> int:
    return sum(_stmt_count(spec.func_ir.body)
               for spec in program.specializations)


def _count_c_stmts(program) -> int:
    from repro.backends.base import OptLevel
    from repro.backends.cbackend.emit import CProgramEmitter

    source = CProgramEmitter(program, OptLevel.FULL).emit().source
    return sum(1 for line in source.splitlines()
               if line.strip().endswith(";"))


def _translate(method, call_args, app, passes_env):
    from repro import jit

    prev = os.environ.get("REPRO_OPT_PASSES")
    os.environ["REPRO_OPT_PASSES"] = passes_env
    try:
        return jit(app, method, *call_args, backend="py", use_cache=False)
    finally:
        if prev is None:
            del os.environ["REPRO_OPT_PASSES"]
        else:
            os.environ["REPRO_OPT_PASSES"] = prev


def collect() -> dict:
    """Translate each demo program with the mid-end off and on; returns
    ``{program: {"before": {...}, "after": {...}, "passes": {...}}}``."""
    from repro.opt.parallel import analyze_program

    out = {}
    for name, (method, call_args, app) in sorted(_demo_apps().items()):
        base = _translate(method, call_args, app, "0")
        opt = _translate(method, call_args, app, "1")
        plan = analyze_program(opt.program)
        stats = opt.report.opt_stats or {}
        out[name] = {
            "before": {
                "ir_stmts": _count_ir_stmts(base.program),
                "c_stmts": _count_c_stmts(base.program),
            },
            "after": {
                "ir_stmts": _count_ir_stmts(opt.program),
                "c_stmts": _count_c_stmts(opt.program),
            },
            "passes": stats.get("pipeline", {}),
            "bce": stats.get("bce", {}),
            "inline": stats.get("inline", {}),
            "parallel": {
                "loops_seen": plan.stats["loops_seen"],
                "loops_parallel": plan.stats["loops_parallel"],
                "loops_guarded": plan.stats["loops_guarded"],
                "reductions": plan.stats["reductions"],
                "functions": plan.stats["functions"],
            },
        }
    return out


def render(data: dict) -> str:
    """Human-readable table for :func:`collect`'s result (deterministic —
    timing columns are excluded so the output can be committed)."""
    lines = ["mid-end pass pipeline report", "=" * 28, ""]
    for name, d in sorted(data.items()):
        b, a = d["before"], d["after"]
        lines.append(f"{name}:")
        lines.append(
            f"  IR statements : {b['ir_stmts']:5d} -> {a['ir_stmts']:5d}  "
            f"({a['ir_stmts'] - b['ir_stmts']:+d})"
        )
        lines.append(
            f"  C statements  : {b['c_stmts']:5d} -> {a['c_stmts']:5d}  "
            f"({a['c_stmts'] - b['c_stmts']:+d})"
        )
        for pname, st in d["passes"].items():
            lines.append(
                f"  pass {pname:4s}     : {st['rewrites']:4d} rewrites "
                f"over {st['runs']} function(s)"
            )
        bce = d.get("bce") or {}
        if bce:
            lines.append(
                f"  bounds checks : {sum(bce.values()):5d} elided across "
                f"{len(bce)} function(s)"
            )
        inl = d.get("inline") or {}
        if inl:
            lines.append(
                f"  inlined calls : {sum(inl.values()):5d} across "
                f"{len(inl)} function(s)"
            )
        par = d.get("parallel")
        if par is not None:
            extra = ""
            if par["loops_guarded"]:
                extra += f", {par['loops_guarded']} guarded"
            if par["reductions"]:
                extra += f", {par['reductions']} reduction(s)"
            lines.append(
                f"  parallel loops: {par['loops_parallel']:5d} of "
                f"{par['loops_seen']} analyzed{extra}"
            )
        lines.append("")
    return "\n".join(lines)


def render_timings(data: dict) -> str:
    """Per-pass wall time of the same translations — pass plus its
    re-verification, in total and per IR statement the pipeline was given.
    Kept apart from :func:`render`, whose output is committed: a pass that
    starts to re-walk its input shows up here as a row growing faster than
    the statement count."""
    lines = ["per-pass wall time (one translate, incl. verify)", ""]
    for name, d in sorted(data.items()):
        n = d["before"]["ir_stmts"]
        lines.append(f"{name} ({n} IR statements):")
        for pname, st in d["passes"].items():
            ms = st["seconds"] * 1e3
            lines.append(f"  pass {pname:6s}: {ms:7.3f} ms  "
                         f"{ms * 1e3 / n:7.2f} us/stmt")
        total = sum(st["seconds"] for st in d["passes"].values()) * 1e3
        lines.append(f"  total      : {total:7.3f} ms  "
                     f"{total * 1e3 / n:7.2f} us/stmt")
        lines.append("")
    return "\n".join(lines)
