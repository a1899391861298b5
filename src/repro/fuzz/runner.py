"""Three-way differential execution of generated guest programs.

Every program is executed as: direct CPython interpretation (the
reference), then once per (backend, optimizer-mode) leg — by default the
Python and C backends with the mid-end pass pipeline both off and on,
using ``use_cache=False`` so translation and emission really run each
time; every leg's translated program also goes through the OpenMP
loop-independence analysis (no compiler needed).  All legs must agree
with the reference *bit for bit*, on the return value and on every
``wj.output`` array.

The frontend reads guest source through ``inspect``, so each program is
materialized as a real module file in a scratch directory and imported
under a unique name.
"""

from __future__ import annotations

import importlib
import os
import struct
import sys
import tempfile
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Sequence

from repro.fuzz.coverage import BranchCoverage
from repro.fuzz.grammar import CLASS_NAME, ProgramSpec, ctor_args, render

__all__ = ["DiffResult", "DiffRunner", "LegResult", "divergence_signature"]


@dataclass
class LegResult:
    """Outcome of one (backend, opt-mode) leg."""

    name: str
    bits: bytes | None = None
    value: float | None = None
    error: str | None = None


@dataclass
class DiffResult:
    """Outcome of one full differential run of one program."""

    source: str
    ok: bool = True
    reference: float | None = None
    crash: str | None = None
    legs: list[LegResult] = field(default_factory=list)
    divergent: list[str] = field(default_factory=list)
    new_arcs: int = 0
    spec: ProgramSpec | None = None


def divergence_signature(res: DiffResult) -> str | None:
    """A stable label for *how* a run failed (used by the minimizer to
    check a shrunken program still exhibits the same failure)."""
    if res.crash is not None:
        return "crash:" + res.crash.split(":", 1)[0]
    if res.divergent:
        return "diverge:" + ",".join(sorted(res.divergent))
    bad = sorted(leg.name for leg in res.legs if leg.error is not None)
    if bad:
        return "leg-error:" + ",".join(bad)
    return None


def _bits(value: float) -> bytes:
    return struct.pack("<d", float(value))


class DiffRunner:
    """Materialize, compile, and differentially execute guest programs."""

    def __init__(self, workdir: str | Path | None = None,
                 backends: Sequence[str] | None = None,
                 opt_modes: Sequence[str] = ("0", "1"),
                 coverage: BranchCoverage | None = None) -> None:
        if backends is None:
            from repro.backends.cbackend import compiler_available

            backends = ["py"] + (["c"] if compiler_available() else [])
        self.backends = list(backends)
        self.opt_modes = list(opt_modes)
        self.coverage = coverage
        self.workdir = Path(workdir) if workdir is not None else Path(
            tempfile.mkdtemp(prefix="repro_fuzz_"))
        self.workdir.mkdir(parents=True, exist_ok=True)
        self._counter = 0
        if str(self.workdir) not in sys.path:
            sys.path.insert(0, str(self.workdir))

    # -- program materialization -------------------------------------------

    def _import_program(self, source: str, class_name: str) -> Any:
        """Write the program to a real module file and import it."""
        self._counter += 1
        modname = f"_repro_fuzz_g{os.getpid()}_{self._counter}"
        (self.workdir / f"{modname}.py").write_text(source)
        importlib.invalidate_caches()
        mod = importlib.import_module(modname)
        return getattr(mod, class_name), modname

    # -- execution ---------------------------------------------------------

    def run_spec(self, spec: ProgramSpec) -> DiffResult:
        """Render and differentially execute one spec."""
        res = self.run_program(render(spec), lambda: ctor_args(spec),
                               "run", (spec.iters,))
        res.spec = spec
        return res

    def run_program(self, source: str, make_args: Callable[[], list],
                    method: str, method_args: Sequence[Any],
                    class_name: str = CLASS_NAME) -> DiffResult:
        """Differentially execute one guest program given as source text.

        ``make_args`` must build a *fresh* constructor-argument list on
        every call (array arguments are mutable and each leg must start
        from identical state).
        """
        import repro.rt as rt

        res = DiffResult(source=source)
        try:
            cls, modname = self._import_program(source, class_name)
        except Exception as exc:  # noqa: BLE001 - report, don't unwind
            res.ok = False
            res.crash = f"{type(exc).__name__}: import failed: {exc}"
            return res
        try:
            # reference: direct CPython interpretation of the guest method
            try:
                rt.current.reset()
                ref = float(getattr(cls(*make_args()), method)(*method_args))
                ref_outs = rt.current.take_outputs()
            except Exception as exc:  # noqa: BLE001
                res.ok = False
                res.crash = f"{type(exc).__name__}: interpreter: {exc}"
                return res
            res.reference = ref
            ref_bits = _bits(ref) + b"".join(
                ref_outs[k].tobytes() for k in sorted(ref_outs))
            saved = os.environ.get("REPRO_OPT_PASSES")
            try:
                for backend in self.backends:
                    for opt in self.opt_modes:
                        leg = self._run_leg(cls, make_args, method,
                                            method_args, backend, opt,
                                            sorted(ref_outs), res)
                        res.legs.append(leg)
                        if leg.error is not None:
                            res.ok = False
                        elif leg.bits != ref_bits:
                            res.ok = False
                            res.divergent.append(leg.name)
            finally:
                if saved is None:
                    os.environ.pop("REPRO_OPT_PASSES", None)
                else:
                    os.environ["REPRO_OPT_PASSES"] = saved
            return res
        finally:
            sys.modules.pop(modname, None)

    def _run_leg(self, cls: Any, make_args: Callable[[], list], method: str,
                 method_args: Sequence[Any], backend: str, opt: str,
                 out_labels: list[str], res: DiffResult) -> LegResult:
        from repro import jit
        from repro.opt.parallel import analyze_program

        leg = LegResult(name=f"{backend}/opt{opt}")
        os.environ["REPRO_OPT_PASSES"] = opt
        cov = self.coverage
        if cov is not None:
            cov.begin_run()
        try:
            code = jit(cls(*make_args()), method, *method_args,
                       backend=backend, use_cache=False)
            # the OpenMP loop verdicts: pure analysis, no compiler needed
            analyze_program(code.program)
        except Exception as exc:  # noqa: BLE001
            leg.error = f"{type(exc).__name__}: compile: {exc}"
            return leg
        finally:
            if cov is not None:
                res.new_arcs += len(cov.end_run())
        try:
            inv = code.invoke()
            leg.value = float(inv.value)
            leg.bits = _bits(leg.value) + b"".join(
                inv.output(label).tobytes() for label in out_labels)
        except Exception as exc:  # noqa: BLE001
            leg.error = f"{type(exc).__name__}: invoke: {exc}"
        return leg
