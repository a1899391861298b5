"""The CFG mid-end: construction edge cases, interval arithmetic, the BCE
elide/retain decision table, the cross-method inliner (budgets, emitted-C
call sites, parallel no-regression), and a three-way differential over the
fuzzer's nested-loop block kind.
"""

from __future__ import annotations

import pytest

from repro import jit
from repro.frontend import ir
from repro.frontend.shapes import ArrayShape, PrimShape
from repro.lang import types as t
from repro.obs import metrics
from repro.opt import bce_func
from repro.opt.cfg.builder import CondEval, LoopBind, RangeEval, build_cfg
from repro.opt.cfg.ranges import Interval

from tests.conftest import requires_cc
from tests.guestlib import ScaleAddSolver, Sweeper


# ---------------------------------------------------------------------------
# hand-built IR helpers (same idiom as test_opt.py)
# ---------------------------------------------------------------------------

def ci(v):
    return ir.Const(v, t.I64)


def cf(v):
    return ir.Const(v, t.F64)


def ref(name, ty=t.I64):
    return ir.LocalRef(name, ty, PrimShape(ty))


def bi(op, left, right, res=t.I64):
    return ir.BinOp(op, left, right, res)


def aref(name, length=None):
    aty = t.ArrayType(t.F64)
    return ir.LocalRef(name, aty, ArrayShape(aty, length=length))


def func(body, params=(), param_ty=t.I64, ret=t.I64):
    return ir.FuncIR(
        symbol="test_fn", method=None, self_shape=None,
        param_names=list(params),
        param_shapes=[PrimShape(param_ty) for _ in params],
        ret_type=ret, ret_shape=PrimShape(ret), body=body,
    )


def afunc(body, length=8):
    """A function taking one f64-array parameter ``a`` of known length."""
    aty = t.ArrayType(t.F64)
    return ir.FuncIR(
        symbol="test_fn", method=None, self_shape=None,
        param_names=["a"],
        param_shapes=[ArrayShape(aty, length=length)],
        ret_type=t.I64, ret_shape=PrimShape(t.I64), body=body,
    )


def edges_by_kind(cfg):
    """``{kind: [(src, dst), ...]}`` over every edge in the graph."""
    out = {}
    for b in cfg.blocks:
        for e in b.succs:
            out.setdefault(e.kind, []).append((b.bid, e.dst))
    return out


def blocks_with(cfg, pred):
    return [b for b in cfg.blocks if any(pred(s) for s in b.stmts)]


# ---------------------------------------------------------------------------
# CFG construction
# ---------------------------------------------------------------------------

class TestCFGBuild:
    def test_straight_line_single_block(self):
        f = func([ir.LocalDecl("x", t.I64, ci(1)),
                  ir.Return(ref("x"))])
        cfg = build_cfg(f)
        ek = edges_by_kind(cfg)
        # the return block flows only into the synthetic exit
        assert ek["return"] == [(cfg.entry, cfg.exit)]
        assert cfg.blocks[cfg.entry].stmts[-1] is f.body[1]

    def test_blocks_share_statement_objects(self):
        st = ir.Assign("x", t.I64, ci(2))
        f = func([ir.LocalDecl("x", t.I64, ci(1)), st, ir.Return(ref("x"))])
        cfg = build_cfg(f)
        assert any(item is st for b in cfg.blocks for item in b.stmts)

    def test_if_produces_diamond(self):
        f = func([
            ir.If(ir.Compare("<", ref("x"), ci(0)),
                  [ir.Assign("x", t.I64, ci(1))],
                  [ir.Assign("x", t.I64, ci(2))]),
            ir.Return(ref("x")),
        ], params=("x",))
        cfg = build_cfg(f)
        ek = edges_by_kind(cfg)
        (cond_src, then_b), = ek["true"]
        (cond_src2, else_b), = ek["false"]
        assert cond_src == cond_src2 == cfg.entry
        # both arms join at the same block
        joins = {d for (s, d) in ek[""] if s in (then_b, else_b)}
        assert len(joins) == 1
        assert isinstance(cfg.blocks[cfg.entry].stmts[-1], CondEval)

    def test_elif_chain_nests_in_false_arm(self):
        f = func([
            ir.If(ir.Compare("<", ref("x"), ci(0)),
                  [ir.Assign("x", t.I64, ci(1))],
                  [ir.If(ir.Compare("<", ref("x"), ci(10)),
                         [ir.Assign("x", t.I64, ci(2))],
                         [ir.Assign("x", t.I64, ci(3))])]),
            ir.Return(ref("x")),
        ], params=("x",))
        cfg = build_cfg(f)
        conds = blocks_with(cfg, lambda s: isinstance(s, CondEval))
        assert len(conds) == 2
        ek = edges_by_kind(cfg)
        # the second condition is evaluated in the false-successor chain of
        # the first: it lies in the block the first "false" edge targets
        first_false = [d for (s, d) in ek["false"] if s == cfg.entry]
        assert first_false == [conds[1].bid]

    def test_for_range_structure(self):
        loop = ir.ForRange("i", ci(0), ci(4), None,
                           [ir.Assign("x", t.I64, bi("+", ref("x"), ref("i")))])
        f = func([ir.LocalDecl("x", t.I64, ci(0)), loop,
                  ir.Return(ref("x"))])
        cfg = build_cfg(f)
        # RangeEval sits in the preheader (entry block), LoopBind is the
        # first item of the body block
        assert isinstance(cfg.blocks[cfg.entry].stmts[-1], RangeEval)
        ek = edges_by_kind(cfg)
        (header, body), = ek["loop"]
        (header2, after), = ek["exit"]
        assert header == header2
        assert isinstance(cfg.blocks[body].stmts[0], LoopBind)
        assert cfg.blocks[body].stmts[0].loop is loop
        # the body flows back to the header
        assert (body, header) in ek["back"]

    def test_while_break_continue_targets(self):
        body = [
            ir.If(ref("p", t.BOOL), [ir.Break()], []),
            ir.If(ref("q", t.BOOL), [ir.Continue()], []),
            ir.Assign("x", t.I64, bi("+", ref("x"), ci(1))),
        ]
        f = func([ir.LocalDecl("x", t.I64, ci(0)),
                  ir.While(ir.Compare("<", ref("x"), ci(10)), body),
                  ir.Return(ref("x"))],
                 params=("p", "q"), param_ty=t.BOOL)
        cfg = build_cfg(f)
        ek = edges_by_kind(cfg)
        # locate the while header: the block whose CondEval originates from
        # the While statement
        headers = blocks_with(
            cfg, lambda s: isinstance(s, CondEval)
            and isinstance(s.origin, ir.While))
        assert len(headers) == 1
        header = headers[0].bid
        after = [d for (s, d) in ek["false"] if s == header]
        assert len(after) == 1
        # break jumps to the loop's after-block, continue to its header
        assert [d for (_, d) in ek["break"]] == after
        assert [d for (_, d) in ek["continue"]] == [header]
        assert all(d == header for (_, d) in ek["back"])

    def test_every_return_reaches_exit(self):
        f = func([
            ir.If(ref("p", t.BOOL), [ir.Return(ci(1))], []),
            ir.Return(ci(2)),
        ], params=("p",), param_ty=t.BOOL)
        cfg = build_cfg(f)
        ek = edges_by_kind(cfg)
        assert len(ek["return"]) == 2
        assert all(d == cfg.exit for (_, d) in ek["return"])

    def test_preds_are_sealed(self):
        f = func([ir.If(ref("p", t.BOOL), [], []), ir.Return(ci(0))],
                 params=("p",), param_ty=t.BOOL)
        cfg = build_cfg(f)
        for b in cfg.blocks:
            for e in b.succs:
                assert b.bid in cfg.blocks[e.dst].preds

    def test_rpo_starts_at_entry_and_respects_order(self):
        f = func([ir.ForRange("i", ci(0), ci(3), None,
                              [ir.Assign("x", t.I64, ref("i"))]),
                  ir.Return(ref("x"))])
        cfg = build_cfg(f)
        order = cfg.rpo()
        assert order[0] == cfg.entry
        pos = {bid: i for i, bid in enumerate(order)}
        ek = edges_by_kind(cfg)
        (header, body), = ek["loop"]
        (_, after), = ek["exit"]
        assert pos[header] < pos[body]
        assert pos[header] < pos[after]

    def test_block_counter_feeds_metrics(self):
        reg = metrics.registry()
        before = reg.counter("cfg.blocks").value
        cfg = build_cfg(func([ir.Return(ci(0))]))
        assert reg.counter("cfg.blocks").value == before + len(cfg.blocks)


# ---------------------------------------------------------------------------
# interval arithmetic
# ---------------------------------------------------------------------------

class TestInterval:
    def test_add_sub(self):
        a, b = Interval(0, 3), Interval(1, 2)
        assert a.add(b) == Interval(1, 5)
        assert a.sub(b) == Interval(-2, 2)

    def test_unbounded_propagates(self):
        assert Interval(0, None).add(Interval(1, 1)) == Interval(1, None)
        assert Interval(None, 5).sub(Interval(0, 1)) == Interval(None, 5)

    def test_mul_sign_cases(self):
        assert Interval(-2, 3).mul(Interval(-1, 4)) == Interval(-8, 12)
        # partial knowledge: nonneg x nonneg stays nonneg, else top
        assert Interval(0, None).mul(Interval(2, None)) == Interval(0, None)
        assert Interval(None, 1).mul(Interval(0, 2)).is_top()

    def test_mod_and_floordiv_const(self):
        assert Interval(None, None).mod_const(8) == Interval(0, 7)
        assert Interval(2, 5).mod_const(8) == Interval(2, 5)
        assert Interval(3, 17).floordiv_const(4) == Interval(0, 4)
        assert Interval(1, 2).mod_const(0).is_top()

    def test_neg_and_hull(self):
        assert Interval(1, 4).neg() == Interval(-4, -1)
        assert Interval(0, 2).hull(Interval(5, 7)) == Interval(0, 7)
        assert Interval(0, 2).hull(Interval(None, 7)) == Interval(None, 7)

    def test_clamp_drops_untrustworthy_bounds(self):
        big = 1 << 63
        assert Interval(-big, big).clamp() == Interval(None, None)

    def test_within_requires_both_bounds(self):
        assert Interval(0, 7).within(0, 7)
        assert not Interval(0, 8).within(0, 7)
        assert not Interval(0, None).within(0, 7)
        assert not Interval(None, 7).within(0, 7)


# ---------------------------------------------------------------------------
# BCE decision table
# ---------------------------------------------------------------------------

def _loop_load(start, stop, index, length=8, step=None):
    """for i in range(start, stop, step): tmp = a[index]"""
    load = ir.ArrayLoad(aref("a", length), index)
    f = afunc([
        ir.ForRange("i", start, stop, step,
                    [ir.LocalDecl("tmp", t.F64, load)]),
        ir.Return(ci(0)),
    ], length=length)
    return f, load


class TestBCE:
    def test_elides_canonical_len_bounded_loop(self):
        f, load = _loop_load(ci(0), ir.ArrayLen(aref("a", 8)), ref("i"))
        assert bce_func(f) == 1
        assert load.bounds_ok

    def test_elides_const_bounded_store(self):
        store = ir.ArrayStore(aref("a", 8), ref("i"), cf(0.0))
        f = afunc([ir.ForRange("i", ci(0), ci(8), None, [store]),
                   ir.Return(ci(0))])
        assert bce_func(f) == 1
        assert store.bounds_ok

    def test_elides_descending_loop(self):
        f, load = _loop_load(
            bi("-", ir.ArrayLen(aref("a", 8)), ci(1)), ci(-1),
            ref("i"), step=ci(-1))
        assert bce_func(f) == 1
        assert load.bounds_ok

    def test_elides_affine_nested_index(self):
        # for i in range(4): for j in range(4): a[i*4 + j] with len 16
        load = ir.ArrayLoad(aref("a", 16),
                            bi("+", bi("*", ref("i"), ci(4)), ref("j")))
        f = afunc([
            ir.ForRange("i", ci(0), ci(4), None, [
                ir.ForRange("j", ci(0), ci(4), None,
                            [ir.LocalDecl("tmp", t.F64, load)]),
            ]),
            ir.Return(ci(0)),
        ], length=16)
        assert bce_func(f) == 1
        assert load.bounds_ok

    def test_elides_local_zeros_allocation(self):
        # b = wj.zeros(f64, 8); for i in range(8): b[i] = 0.0 -- the length
        # fact comes from the allocation, not from a shape
        aty = t.ArrayType(t.F64)
        store = ir.ArrayStore(aref("b"), ref("i"), cf(0.0))
        f = func([
            ir.LocalDecl("b", aty,
                         ir.IntrinsicCall("wj.zeros", [ci(8)], aty)),
            ir.ForRange("i", ci(0), ci(8), None, [store]),
            ir.Return(ci(0)),
        ])
        assert bce_func(f) == 1
        assert store.bounds_ok

    def test_retains_off_by_one_stop(self):
        f, load = _loop_load(
            ci(0), bi("+", ir.ArrayLen(aref("a", 8)), ci(1)), ref("i"))
        assert bce_func(f) == 0
        assert not load.bounds_ok

    def test_retains_negative_start(self):
        f, load = _loop_load(ci(-1), ci(8), ref("i"))
        assert bce_func(f) == 0
        assert not load.bounds_ok

    def test_retains_unknown_length(self):
        f, load = _loop_load(ci(0), ci(8), ref("i"), length=None)
        assert bce_func(f) == 0
        assert not load.bounds_ok

    def test_retains_non_affine_index(self):
        # i % k with k unknown: non-constant divisor, the interval is top
        f, load = _loop_load(ci(1), ci(8), bi("%", ref("i"), ref("k")))
        assert bce_func(f) == 0
        assert not load.bounds_ok

    def test_retains_data_dependent_while_after_widening(self):
        # i = 0; while i < n: a[i]; i = i + 1 -- n is a parameter, the
        # widened interval for i loses its upper bound, so the check stays
        load = ir.ArrayLoad(aref("a", 8), ref("i"))
        aty = t.ArrayType(t.F64)
        f = ir.FuncIR(
            symbol="test_fn", method=None, self_shape=None,
            param_names=["a", "n"],
            param_shapes=[ArrayShape(aty, length=8), PrimShape(t.I64)],
            ret_type=t.I64, ret_shape=PrimShape(t.I64),
            body=[
                ir.LocalDecl("i", t.I64, ci(0)),
                ir.While(ir.Compare("<", ref("i"), ref("n")), [
                    ir.LocalDecl("tmp", t.F64, load),
                    ir.Assign("i", t.I64, bi("+", ref("i"), ci(1))),
                ]),
                ir.Return(ci(0)),
            ])
        assert bce_func(f) == 0
        assert not load.bounds_ok

    def test_retains_index_clobbered_inside_loop(self):
        # the loop variable is a sound bound, but a reassignment from an
        # unbounded value kills the fact before the access
        load = ir.ArrayLoad(aref("a", 8), ref("i"))
        f = ir.FuncIR(
            symbol="test_fn", method=None, self_shape=None,
            param_names=["a", "n"],
            param_shapes=[ArrayShape(t.ArrayType(t.F64), length=8),
                          PrimShape(t.I64)],
            ret_type=t.I64, ret_shape=PrimShape(t.I64),
            body=[
                ir.ForRange("i", ci(0), ci(8), None, [
                    ir.Assign("i", t.I64, ref("n")),
                    ir.LocalDecl("tmp", t.F64, load),
                ]),
                ir.Return(ci(0)),
            ])
        assert bce_func(f) == 0
        assert not load.bounds_ok

    def test_branch_join_takes_interval_hull(self):
        # i is [0,3] on one arm and [4,7] on the other: the join [0,7]
        # still proves the access
        load = ir.ArrayLoad(aref("a", 8), ref("i"))
        f = afunc([
            ir.LocalDecl("i", t.I64, ci(0)),
            ir.If(ref("p", t.BOOL),
                  [ir.Assign("i", t.I64, ci(3))],
                  [ir.Assign("i", t.I64, ci(7))]),
            ir.LocalDecl("tmp", t.F64, load),
            ir.Return(ci(0)),
        ])
        assert bce_func(f) == 1
        assert load.bounds_ok

    def test_idempotent_second_run_marks_nothing(self):
        f, load = _loop_load(ci(0), ci(8), ref("i"))
        assert bce_func(f) == 1
        assert bce_func(f) == 0  # already marked; rewrite count is fresh work
        assert load.bounds_ok

    def test_elision_feeds_metrics_counter(self):
        reg = metrics.registry()
        before = reg.counter("bce.checks_elided").value
        f, _ = _loop_load(ci(0), ci(8), ref("i"))
        bce_func(f)
        assert reg.counter("bce.checks_elided").value == before + 1


# ---------------------------------------------------------------------------
# the inliner, end to end through the pipeline
# ---------------------------------------------------------------------------

def _sweeper():
    return Sweeper(ScaleAddSolver(0.5), 16)


class TestInliner:
    def test_solver_call_inlined_and_stats_reported(self, monkeypatch):
        monkeypatch.setenv("REPRO_OPT_PASSES", "1")
        code = jit(_sweeper(), "run", 3, backend="py", use_cache=False)
        inl = code.report.opt_stats.get("inline") or {}
        assert sum(inl.values()) > 0

    @requires_cc
    def test_emitted_c_has_no_call_to_inlined_helper(self, monkeypatch):
        monkeypatch.setenv("REPRO_OPT_PASSES", "1")
        code = jit(_sweeper(), "run", 3, backend="c", use_cache=False)
        solve_syms = [spec.func_ir.symbol
                      for spec in code.program.specializations
                      if "solve" in spec.func_ir.symbol]
        assert solve_syms, "expected a specialized solve() helper"
        for sym in solve_syms:
            # call sites are `sym(env, ...)`; the (uncalled) definition
            # remains in the program, so match the call shape only
            assert f"{sym}(env," not in code.source

    def test_budget_zero_disables_inlining_bit_exactly(self, monkeypatch):
        monkeypatch.setenv("REPRO_OPT_PASSES", "1")
        base = jit(_sweeper(), "run", 3, backend="py", use_cache=False)
        base_val = base.invoke().value
        monkeypatch.setattr("repro.opt.cfg.inline._MAX_STMTS", 0)
        off = jit(_sweeper(), "run", 3, backend="py", use_cache=False)
        assert not (off.report.opt_stats.get("inline") or {})
        assert off.invoke().value == base_val

    @requires_cc
    def test_py_and_c_agree_with_cfg_passes_on(self, monkeypatch):
        monkeypatch.setenv("REPRO_OPT_PASSES", "1")
        py = jit(_sweeper(), "run", 4, backend="py", use_cache=False)
        c = jit(_sweeper(), "run", 4, backend="c", use_cache=False)
        assert py.invoke().value == c.invoke().value

    def test_parallel_analysis_no_regression(self, monkeypatch):
        from repro.opt.parallel import analyze_program

        monkeypatch.setenv("REPRO_OPT_PASSES", "fold,licm,cse,dce")
        sub = jit(_sweeper(), "run", 3, backend="py", use_cache=False)
        sub_n = analyze_program(sub.program).stats["loops_parallel"]
        monkeypatch.setenv("REPRO_OPT_PASSES", "1")
        full = jit(_sweeper(), "run", 3, backend="py", use_cache=False)
        full_n = analyze_program(full.program).stats["loops_parallel"]
        assert full_n >= sub_n


class TestBCEPipeline:
    def test_bce_stats_reported_for_guest_loops(self, monkeypatch):
        monkeypatch.setenv("REPRO_OPT_PASSES", "1")
        code = jit(_sweeper(), "run", 3, backend="py", use_cache=False)
        bce = code.report.opt_stats.get("bce") or {}
        assert sum(bce.values()) > 0

    def test_bounds_mode_value_unchanged_by_elision(self, monkeypatch):
        monkeypatch.setenv("REPRO_OPT_PASSES", "1")
        plain = jit(_sweeper(), "run", 3, backend="py", use_cache=False)
        plain_val = plain.invoke().value
        monkeypatch.setenv("REPRO_BOUNDS", "1")
        checked = jit(_sweeper(), "run", 3, backend="py", use_cache=False)
        assert checked.invoke().value == plain_val

    def test_off_path_reports_no_cfg_stats(self, monkeypatch):
        monkeypatch.setenv("REPRO_OPT_PASSES", "fold,licm,cse,dce")
        code = jit(_sweeper(), "run", 3, backend="py", use_cache=False)
        assert not (code.report.opt_stats.get("bce") or {})
        assert not (code.report.opt_stats.get("inline") or {})


# ---------------------------------------------------------------------------
# differential: the fuzzer's nested-loop block kind
# ---------------------------------------------------------------------------

class TestNestedFuzzDifferential:
    def test_affine_and_non_affine_nested_blocks(self, tmp_path):
        from repro.fuzz.grammar import BlockSpec, FULL_FEATURES, ProgramSpec
        from repro.fuzz.runner import DiffRunner

        # even seed renders the affine (provable) index, odd the
        # min()-clamped non-affine one; both must agree bit-for-bit across
        # interpreter / py / C with the optimizer off and on
        spec = ProgramSpec(
            seed=11, n=8, iters=3, a=0.5, b=1.5, k=None, data=None,
            helpers=(),
            blocks=(BlockSpec("nested", 2), BlockSpec("nested", 3)),
            features=FULL_FEATURES,
        )
        res = DiffRunner(workdir=tmp_path).run_spec(spec)
        assert res.ok, (res.crash, res.divergent)
        assert not res.divergent
