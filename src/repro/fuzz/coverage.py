"""Host-side branch coverage over the translation pipeline.

The fuzzer's feedback signal: while a generated program is being lowered,
optimized, and emitted, a ``sys.settrace`` hook records *line arcs*
``(label, prev_line, line)`` inside a small set of tracked pipeline
modules — the frontend lowering pass, the mid-end optimizer, and both
backend emitters.  An arc is a dynamic (from, to) line transition, so
each taken side of every ``if``/loop in those files becomes a distinct
coverage point; a program that drives the pipeline through a new arc is
exercising compiler logic no earlier program reached and is worth
mutating further.

Tracing is scoped: the global tracer returns a local tracer only for code
objects whose filename is tracked, so untracked frames run at full speed.
"""

from __future__ import annotations

import sys
from typing import Any, Callable, Iterable

__all__ = ["Arc", "BranchCoverage", "default_tracked_files"]

#: one coverage point: (file label, previous line, current line);
#: previous line is -1 on function entry
Arc = tuple[str, int, int]


def default_tracked_files() -> dict[str, str]:
    """Map of absolute filename -> short label for the tracked pipeline
    stages (lowering, optimizer including the CFG mid-end and the loop
    parallelization analysis, and both backend emitters)."""
    import repro.backends.cbackend.emit as cemit
    import repro.backends.pybackend.emit as pyemit
    import repro.frontend.lower as lower
    import repro.opt.cfg.builder as cfg_builder
    import repro.opt.cfg.dataflow as cfg_dataflow
    import repro.opt.cfg.inline as cfg_inline
    import repro.opt.cfg.ranges as cfg_ranges
    import repro.opt.parallel as parallel
    import repro.opt.passes as passes

    return {
        lower.__file__: "lower",
        passes.__file__: "opt",
        cfg_builder.__file__: "cfg",
        cfg_dataflow.__file__: "cfg-df",
        cfg_ranges.__file__: "cfg-rng",
        cfg_inline.__file__: "cfg-inl",
        parallel.__file__: "par",
        cemit.__file__: "c-emit",
        pyemit.__file__: "py-emit",
    }


class BranchCoverage:
    """Cumulative arc-coverage collector over the tracked files.

    Use :meth:`begin_run`/:meth:`end_run` around each compilation; the
    return value of ``end_run`` is the set of arcs that run added to the
    cumulative total (the fuzzer's "interesting" signal).
    """

    def __init__(self, files: dict[str, str] | None = None) -> None:
        self.files = files if files is not None else default_tracked_files()
        self.arcs: set[Arc] = set()
        self._run_new: set[Arc] = set()
        self._prev_trace: Any = None

    # -- tracer ------------------------------------------------------------

    def _local_trace(self, label: str) -> Callable[..., Any]:
        state = {"prev": -1}

        def tracer(frame: Any, event: str, arg: Any) -> Any:
            if event == "line":
                arc = (label, state["prev"], frame.f_lineno)
                state["prev"] = frame.f_lineno
                if arc not in self.arcs:
                    self.arcs.add(arc)
                    self._run_new.add(arc)
            return tracer

        return tracer

    def _global_trace(self, frame: Any, event: str, arg: Any) -> Any:
        if event != "call":
            return None
        label = self.files.get(frame.f_code.co_filename)
        if label is None:
            return None
        return self._local_trace(label)

    # -- collection windows ------------------------------------------------

    def begin_run(self) -> None:
        """Start tracing (nested calls are not supported)."""
        self._run_new = set()
        self._prev_trace = sys.gettrace()
        sys.settrace(self._global_trace)

    def end_run(self) -> set[Arc]:
        """Stop tracing; return the arcs this run newly contributed."""
        sys.settrace(self._prev_trace)
        self._prev_trace = None
        new = self._run_new
        self._run_new = set()
        return new

    # -- reporting ---------------------------------------------------------

    def count(self) -> int:
        """Total distinct arcs seen so far."""
        return len(self.arcs)

    def by_file(self) -> dict[str, int]:
        """Arc counts per tracked-file label, sorted by label."""
        out: dict[str, int] = {}
        for label, _, _ in self.arcs:
            out[label] = out.get(label, 0) + 1
        return dict(sorted(out.items()))

    def merge(self, arcs: Iterable[Arc]) -> int:
        """Fold externally collected arcs in; return how many were new."""
        before = len(self.arcs)
        self.arcs.update(arcs)
        return len(self.arcs) - before
