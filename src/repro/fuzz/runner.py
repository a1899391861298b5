"""Three-way differential execution of generated guest programs.

Every program is executed as: direct CPython interpretation (the
reference), then once per (backend, optimizer-mode) leg — by default the
Python and C backends with the mid-end pass pipeline off, with every pass
on, and with the backend's own pass set (the C default runs ``cse`` only;
a mode whose pass set a backend already ran is skipped), using
``use_cache=False`` so translation and emission really run each
time; every leg's translated program also goes through the OpenMP
loop-independence analysis (no compiler needed).  All legs must agree
with the reference *bit for bit*, on the return value and on every
``wj.output`` array.

A generated program then takes one host-mutation step per backend
(:func:`repro.fuzz.grammar.host_step`): after ``jit()`` the host either
rebinds the scalar field ``a``, which must raise ``NotSemiImmutable``, or
rebinds the array field, after which a fresh ``jit()`` must agree bit for
bit with the interpreter on the swapped receiver while the first artifact
still reads the array it recorded.  These legs (``<backend>/host-<step>``)
go through the cache tiers, memory only, so the capture memo of a sealed
receiver is what they attack.

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

from repro.env import env_flag, passes_for
from repro.fuzz.coverage import BranchCoverage
from repro.fuzz.grammar import (
    CLASS_NAME, ProgramSpec, ctor_args, host_step, render,
)

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
    #: the host-mutation legs, one per backend (generated programs only)
    host: list[LegResult] = field(default_factory=list)


def divergence_signature(res: DiffResult) -> str | None:
    """A stable label for *how* a run failed (used by the minimizer to
    check a shrunken program still exhibits the same failure)."""
    if res.crash is not None:
        return "crash:" + res.crash.split(":", 1)[0]
    if res.divergent:
        return "diverge:" + ",".join(sorted(res.divergent))
    bad = sorted(leg.name for leg in [*res.legs, *res.host]
                 if leg.error is not None)
    if bad:
        return "leg-error:" + ",".join(bad)
    return None


def _bits(value: float) -> bytes:
    return struct.pack("<d", float(value))


def _interpret(cls: Any, ctor_args: list, method: str,
               method_args: Sequence[Any]) -> tuple[float, dict]:
    """The reference: the guest method run directly under CPython;
    ``(value, wj.output arrays)``."""
    import repro.rt as rt

    rt.current.reset()
    value = float(getattr(cls(*ctor_args), method)(*method_args))
    return value, rt.current.take_outputs()


def _invoke_bits(code, out_labels: list[str]) -> bytes:
    """One invoke's value and outputs as the bytes legs are compared by."""
    inv = code.invoke()
    return _bits(float(inv.value)) + b"".join(
        inv.output(label).tobytes() for label in out_labels)


class DiffRunner:
    """Materialize, compile, and differentially execute guest programs."""

    def __init__(self, workdir: str | Path | None = None,
                 backends: Sequence[str] | None = None,
                 opt_modes: Sequence[str] = ("0", "1", "default"),
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
        """Render and differentially execute one spec, host step included."""
        res = self.run_program(
            render(spec), lambda: ctor_args(spec), "run", (spec.iters,),
            host=(host_step(spec), lambda: ctor_args(spec, swapped=True)))
        res.spec = spec
        return res

    def run_program(self, source: str, make_args: Callable[[], list],
                    method: str, method_args: Sequence[Any],
                    class_name: str = CLASS_NAME,
                    host: tuple[str, Callable[[], list]] | None = None,
                    ) -> DiffResult:
        """Differentially execute one guest program given as source text.

        ``make_args`` must build a *fresh* constructor-argument list on
        every call (array arguments are mutable and each leg must start
        from identical state).  ``host`` is ``(step, make_swapped_args)``
        for the host-mutation legs; ``make_swapped_args`` builds the
        constructor arguments whose last one is the array a ``"swap"``
        rebinds the field ``data`` to.
        """
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
                ref, ref_outs = _interpret(cls, make_args(), method,
                                           method_args)
            except Exception as exc:  # noqa: BLE001
                res.ok = False
                res.crash = f"{type(exc).__name__}: interpreter: {exc}"
                return res
            res.reference = ref
            ref_bits = _bits(ref) + b"".join(
                ref_outs[k].tobytes() for k in sorted(ref_outs))
            saved = os.environ.get("REPRO_OPT_PASSES")
            saved_disk = os.environ.get("REPRO_DISK_CACHE")
            try:
                for backend in self.backends:
                    seen = set()
                    for opt in self.opt_modes:
                        # a mode that spells a pass set already run on this
                        # backend (py's default is "1") would repeat a leg
                        os.environ["REPRO_OPT_PASSES"] = opt
                        passes = passes_for(backend, env_flag("REPRO_BOUNDS"))
                        if passes in seen:
                            continue
                        seen.add(passes)
                        leg = self._run_leg(cls, make_args, method,
                                            method_args, backend, opt,
                                            sorted(ref_outs), res)
                        res.legs.append(leg)
                        if leg.error is not None:
                            res.ok = False
                        elif leg.bits != ref_bits:
                            res.ok = False
                            res.divergent.append(leg.name)
                if host is not None:
                    # memory tier only: fuzz artifacts stay out of the
                    # user's disk cache
                    os.environ["REPRO_DISK_CACHE"] = "0"
                    self._host_legs(cls, make_args, method, method_args,
                                    host, ref_bits, sorted(ref_outs), res)
            finally:
                for knob, value in (("REPRO_OPT_PASSES", saved),
                                    ("REPRO_DISK_CACHE", saved_disk)):
                    if value is None:
                        os.environ.pop(knob, None)
                    else:
                        os.environ[knob] = value
            return res
        finally:
            sys.modules.pop(modname, None)

    def _run_leg(self, cls: Any, make_args: Callable[[], list], method: str,
                 method_args: Sequence[Any], backend: str, opt: str,
                 out_labels: list[str], res: DiffResult) -> LegResult:
        from repro import jit
        from repro.opt.parallel import analyze_program

        leg = LegResult(name=f"{backend}/opt{opt}")
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
            leg.bits = _invoke_bits(code, out_labels)
            leg.value = struct.unpack("<d", leg.bits[:8])[0]
        except Exception as exc:  # noqa: BLE001
            leg.error = f"{type(exc).__name__}: invoke: {exc}"
        return leg

    def _host_legs(self, cls: Any, make_args: Callable[[], list],
                   method: str, method_args: Sequence[Any],
                   host: tuple[str, Callable[[], list]], ref_bits: bytes,
                   out_labels: list[str], res: DiffResult) -> None:
        """One host-mutation leg per backend (see the module docstring)."""
        step, make_swapped = host
        want = ref_bits
        if step == "swap":
            try:
                value, outs = _interpret(cls, make_swapped(), method,
                                         method_args)
            except Exception as exc:  # noqa: BLE001
                res.ok = False
                res.crash = f"{type(exc).__name__}: interpreter: {exc}"
                return
            want = _bits(value) + b"".join(
                outs[k].tobytes() for k in out_labels)
        for backend in self.backends:
            leg = self._host_leg(cls, make_args, make_swapped, method,
                                 method_args, backend, step, ref_bits,
                                 out_labels)
            res.host.append(leg)
            if leg.error is not None:
                res.ok = False
            elif leg.bits != want:
                res.ok = False
                res.divergent.append(leg.name)

    def _host_leg(self, cls: Any, make_args: Callable[[], list],
                  make_swapped: Callable[[], list], method: str,
                  method_args: Sequence[Any], backend: str, step: str,
                  ref_bits: bytes, out_labels: list[str]) -> LegResult:
        from repro import jit
        from repro.errors import NotSemiImmutable

        leg = LegResult(name=f"{backend}/host-{step}")
        try:
            recv = cls(*make_args())
            first = jit(recv, method, *method_args, backend=backend)
            if step == "rebind":
                try:
                    recv.a = recv.a + 1.0
                except NotSemiImmutable:
                    pass
                else:
                    leg.error = "host: rebinding the scalar field a did not raise"
                    return leg
            else:
                recv.data = make_swapped()[-1]
            again = jit(recv, method, *method_args, backend=backend)
            if _invoke_bits(first, out_labels) != ref_bits:
                leg.error = ("host: the artifact from before the step no "
                             "longer reads its recorded arguments")
                return leg
            leg.bits = _invoke_bits(again, out_labels)
            leg.value = struct.unpack("<d", leg.bits[:8])[0]
        except Exception as exc:  # noqa: BLE001
            leg.error = f"{type(exc).__name__}: host {step}: {exc}"
        return leg
