"""Work-count gate for the translate path: no timing, only how often each
piece of work is done.

The translator's cost used to be repetition — a loop body lowered again
after the trial that proved its entry environment stable, a constructor
rule-checked at every ``NewObj``, the inliner rescanning its caller from
the top after every splice, a statement's effects recomputed at every
nesting depth.  Each test here spies on the function that does one such
piece of work and bounds how many times it runs.
"""

from __future__ import annotations

from collections import Counter

import numpy as np
import pytest

from repro import jit
from repro.backends.base import OptLevel
from repro.backends.cbackend.emit import CProgramEmitter
from repro.backends.pybackend import PyBackend
from repro.frontend import lower, rules, source
from repro.frontend.objectgraph import snapshot_args
from repro.jit.program import Program
from repro.jit.specialize import Specializer
from repro.lang.types import wootin_info
from repro.opt import PASS_ORDER, Pipeline, passes
from repro.opt.cfg import inline

from tests.guestlib_cost import Cell, NestWalker
from tests.test_translate_fingerprint import PROGRAMS


def _walker(n=3):
    return NestWalker(np.zeros(n * n * n), n)


def _lowered(receiver, method, args) -> Program:
    """The whole program lowered with the mid-end off, callees first — how
    ``benchmarks/ledger/traced.py`` starts its pass-by-pass replay."""
    minfo = wootin_info(type(receiver)).find_method(method)
    snapshot, recv_shape, arg_shapes = snapshot_args(receiver, args)
    program = Program(snapshot=snapshot, recv_shape=recv_shape,
                      arg_shapes=arg_shapes)
    program.entry = Specializer(program, pipeline=None).specialize(
        minfo, recv_shape, arg_shapes, device=False)
    return program


def test_each_guest_function_is_rule_checked_once_per_process(monkeypatch):
    checked = Counter()
    real = rules._check_banned_constructs

    def spy(src, tree, *, in_ctor):
        checked[src.func.__qualname__] += 1
        return real(src, tree, in_ctor=in_ctor)

    monkeypatch.setattr(rules, "_check_banned_constructs", spy)
    for cls in (Cell, NestWalker):  # as a process that never met them
        info = wootin_info(cls)
        rules._checked_classes.discard(id(info))
        for minfo in info.methods.values():
            source._CACHE.pop(minfo.func, None)
    for method in ("fill", "total", "fill"):
        jit(_walker(), method, backend="py", use_cache=False)
    # Cell.__init__ is met at a NewObj in two methods, in every kept and
    # discarded fixpoint trial, and once more through check_class
    assert checked == {name: 1 for name in (
        "Cell.__init__", "Cell.weight", "NestWalker.__init__",
        "NestWalker.index", "NestWalker.fill", "NestWalker.total")}


@pytest.mark.parametrize("method, lowerings", [
    # every first trial is stable, and the trial is the lowering (it used
    # to be lowered again at every level: 8)
    ("fill", 1),
    # each level's first trial meets ``acc`` as a constant and is thrown
    # away; its second is kept, and inner levels entered with the settled
    # ``acc`` need one: 1 + 1 + 1 discarded + 1 kept (it used to be 15)
    ("total", 4),
])
def test_loop_bodies_are_not_lowered_again_once_stable(
        monkeypatch, method, lowerings):
    lowered = Counter()
    real = lower.Lowerer._lower_stmt

    def spy(self, stmt, env, loop):
        if self.minfo.name == method:
            lowered[stmt.lineno] += 1
        return real(self, stmt, env, loop)

    monkeypatch.setattr(lower.Lowerer, "_lower_stmt", spy)
    code = jit(_walker(), method, backend="py", use_cache=False)
    # source lines of the method, top to bottom; the innermost statement is
    # the last one before ``return``
    counts = [lowered[line] for line in sorted(lowered)]
    assert counts[-2] == lowerings, counts
    assert counts[0] == counts[-1] == 1, counts
    assert code.report.n_call_sites == 2  # index and weight, once each


@pytest.mark.parametrize("name", ["diffusion-cpu-mpi", "nbody-48"])
def test_inliner_resumes_after_a_splice(monkeypatch, name):
    """One search per statement plus one per splice — not one scan of the
    whole caller per splice."""
    searches = Counter()
    real = inline._Inliner._find_call

    def spy(self, roots):
        searches[self.caller.symbol] += 1
        return real(self, roots)

    monkeypatch.setattr(inline._Inliner, "_find_call", spy)
    program = _lowered(*PROGRAMS[name]())
    spliced = 0
    for spec in program.specializations:
        n = inline.inline_func(spec.func_ir)
        spliced += n
        assert (searches[spec.func_ir.symbol]
                <= inline._stmt_count(spec.func_ir.body) + n), spec.func_ir.symbol
    assert spliced > 0


@pytest.mark.parametrize("pass_name", ["licm", "cse"])
def test_statement_effects_are_summarized_once_per_pass(monkeypatch,
                                                        pass_name):
    summarized = Counter()
    real = passes._Summary._summarize

    def spy(self, s):
        summarized[id(self), id(s)] += 1
        return real(self, s)

    monkeypatch.setattr(passes._Summary, "_summarize", spy)
    program = _lowered(*PROGRAMS["diffusion-cpu-mpi"]())
    seen = 0
    for spec in program.specializations:
        for name in PASS_ORDER[:PASS_ORDER.index(pass_name)]:
            Pipeline((name,)).run_func(spec.func_ir)
        summarized.clear()
        Pipeline((pass_name,)).run_func(spec.func_ir)
        seen += len(summarized)
        assert len({summary for summary, _ in summarized}) <= 1
        assert set(summarized.values()) <= {1}
        for name in PASS_ORDER[PASS_ORDER.index(pass_name) + 1:]:
            Pipeline((name,)).run_func(spec.func_ir)
    assert seen > 0


@pytest.mark.parametrize("name", ["diffusion-cpu-mpi", "cgsolve-4x4"])
def test_one_pipeline_per_pass_yields_the_same_program(name):
    """No pass may lean on state another pass left in the ``Pipeline``: the
    ledger's traced replay drives each pass through its own instance."""
    together = _lowered(*PROGRAMS[name]())
    whole = Pipeline(PASS_ORDER)
    for spec in together.specializations:
        whole.run_func(spec.func_ir)

    apart = _lowered(*PROGRAMS[name]())
    singles = {p: Pipeline((p,)) for p in PASS_ORDER}
    for spec in apart.specializations:
        for pipeline in singles.values():
            pipeline.run_func(spec.func_ir)

    for emit in (lambda p: PyBackend().compile(p, OptLevel.FULL).source,
                 lambda p: CProgramEmitter(p, OptLevel.FULL).emit().source):
        assert emit(apart) == emit(together)
    assert ({p: s.stats[p]["rewrites"] for p, s in singles.items()}
            == {p: st["rewrites"] for p, st in whole.stats.items()})
