"""The mid-end optimizer: per-pass unit tests on hand-built IR, pipeline
configuration/verification behavior, cache-key interaction, and the
three-way (interpreter / unoptimized / optimized) differential checks.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import jit, jit4mpi
from repro.errors import BackendError, MpiError
from repro.frontend import ir
from repro.frontend.shapes import PrimShape
from repro.frontend.verify import verify_func
from repro.jit.engine import clear_code_cache
from repro.lang import types as t
from repro.opt import (
    PASS_ORDER,
    OptPassError,
    Pipeline,
    cse_func,
    dce_func,
    fold_func,
    licm_func,
    passes_for,
    pipeline_passes,
)

from tests.conftest import requires_cc
from tests.guestlib import (
    ControlFlow, FoldEdge, ScaleAddSolver, SwapBuf, SwapReader, Sweeper,
)
from tests.test_parallel import _stencil_app
from tests.test_translate_fingerprint import PROGRAMS


# ---------------------------------------------------------------------------
# hand-built IR helpers
# ---------------------------------------------------------------------------

def ci(v):
    return ir.Const(v, t.I64)


def cf(v):
    return ir.Const(v, t.F64)


def ref(name, ty=t.I64):
    return ir.LocalRef(name, ty, PrimShape(ty))


def bi(op, left, right, res=t.I64):
    return ir.BinOp(op, left, right, res)


def func(body, params=(), param_ty=t.I64, ret=t.I64):
    return ir.FuncIR(
        symbol="test_fn", method=None, self_shape=None,
        param_names=list(params),
        param_shapes=[PrimShape(param_ty) for _ in params],
        ret_type=ret, ret_shape=PrimShape(ret), body=body,
    )


# ---------------------------------------------------------------------------
# fold
# ---------------------------------------------------------------------------

class TestFold:
    def test_int_add_zero(self):
        f = func([ir.Return(bi("+", ref("x"), ci(0)))], params=("x",))
        assert fold_func(f, None) >= 1
        assert isinstance(f.body[0].value, ir.LocalRef)

    def test_float_add_zero_declined(self):
        # x + 0.0 is NOT the identity for floats: -0.0 + 0.0 == +0.0
        f = func([ir.Return(bi("+", ref("x", t.F64), cf(0.0), t.F64))],
                 params=("x",), param_ty=t.F64, ret=t.F64)
        fold_func(f, None)
        assert isinstance(f.body[0].value, ir.BinOp)

    def test_float_sub_zero_folds(self):
        f = func([ir.Return(bi("-", ref("x", t.F64), cf(0.0), t.F64))],
                 params=("x",), param_ty=t.F64, ret=t.F64)
        fold_func(f, None)
        assert isinstance(f.body[0].value, ir.LocalRef)

    def test_float_sub_negzero_declined(self):
        # x - (-0.0) is x + 0.0, which maps -0.0 to +0.0
        f = func([ir.Return(bi("-", ref("x", t.F64), cf(-0.0), t.F64))],
                 params=("x",), param_ty=t.F64, ret=t.F64)
        fold_func(f, None)
        assert isinstance(f.body[0].value, ir.BinOp)

    def test_mul_one_and_zero(self):
        f = func([
            ir.LocalDecl("a", t.I64, bi("*", ref("x"), ci(1))),
            ir.Return(bi("*", ref("x"), ci(0))),
        ], params=("x",))
        fold_func(f, None)
        assert isinstance(f.body[0].value, ir.LocalRef)
        final = f.body[1].value
        assert isinstance(final, ir.Const) and final.value == 0

    def test_const_compare_and_not(self):
        f = func([
            ir.LocalDecl("p", t.BOOL, ir.Compare("<", ci(1), ci(2))),
            ir.Return(ir.UnaryOp("not", ir.Const(True, t.BOOL), t.BOOL)),
        ], ret=t.BOOL)
        fold_func(f, None)
        assert f.body[0].value.value is True
        assert f.body[1].value.value is False

    def test_mixed_float_int_compare_declined(self):
        # folding int-vs-float comparisons risks re-rounding; left alone
        f = func([ir.Return(ir.Compare("<", ci(1), cf(1.5)))], ret=t.BOOL)
        fold_func(f, None)
        assert isinstance(f.body[0].value, ir.Compare)


# ---------------------------------------------------------------------------
# dce
# ---------------------------------------------------------------------------

class TestDce:
    def test_dead_pure_store_removed(self):
        f = func([
            ir.LocalDecl("dead", t.I64, bi("*", ref("x"), ci(7))),
            ir.Return(ref("x")),
        ], params=("x",))
        assert dce_func(f, None) >= 1
        assert len(f.body) == 1 and isinstance(f.body[0], ir.Return)

    def test_dead_impure_store_keeps_effect(self):
        call = ir.IntrinsicCall("math.sqrt", [cf(2.0)], t.F64)
        f = func([
            ir.LocalDecl("dead", t.F64, call),
            ir.Return(ref("x")),
        ], params=("x",))
        dce_func(f, None)
        assert isinstance(f.body[0], ir.ExprStmt)  # value kept for effects

    def test_const_if_spliced(self):
        f = func([
            ir.If(ir.Const(True, t.BOOL),
                  [ir.LocalDecl("y", t.I64, ref("x"))],
                  [ir.LocalDecl("y", t.I64, ci(0))]),
            ir.Return(ref("y")),
        ], params=("x",))
        dce_func(f, None)
        assert isinstance(f.body[0], ir.LocalDecl)
        assert isinstance(f.body[0].value, ir.LocalRef)

    def test_unreachable_tail_dropped(self):
        f = func([
            ir.Return(ref("x")),
            ir.LocalDecl("y", t.I64, ci(1)),
            ir.Return(ref("y")),
        ], params=("x",))
        dce_func(f, None)
        assert len(f.body) == 1

    def test_while_false_removed(self):
        f = func([
            ir.While(ir.Const(False, t.BOOL), [ir.LocalDecl("y", t.I64, ci(1))]),
            ir.Return(ref("x")),
        ], params=("x",))
        dce_func(f, None)
        assert len(f.body) == 1

    def test_zero_step_range_kept(self):
        # range(0, 4, 0) raises ValueError at run time — must survive
        loop = ir.ForRange("i", ci(0), ci(4), ci(0), [])
        f = func([loop, ir.Return(ref("x"))], params=("x",))
        dce_func(f, None)
        assert loop in f.body


# ---------------------------------------------------------------------------
# cse
# ---------------------------------------------------------------------------

class TestCse:
    def test_repeated_subexpression_shared(self):
        f = func([
            ir.LocalDecl("a", t.I64, bi("*", ref("x"), ref("x"))),
            ir.LocalDecl("b", t.I64, bi("*", ref("x"), ref("x"))),
            ir.Return(bi("+", ref("a"), ref("b"))),
        ], params=("x",))
        assert cse_func(f, None) == 1
        assert f.body[0].name.startswith("__cse")
        assert isinstance(f.body[1].value, ir.LocalRef)
        assert isinstance(f.body[2].value, ir.LocalRef)
        verify_func(f)  # temp is declared before both uses

    def test_reassignment_invalidates(self):
        f = func([
            ir.LocalDecl("x", t.I64, ref("p")),
            ir.LocalDecl("a", t.I64, bi("*", ref("x"), ref("x"))),
            ir.Assign("x", t.I64, bi("+", ref("x"), ci(1))),
            ir.LocalDecl("b", t.I64, bi("*", ref("x"), ref("x"))),
            ir.Return(bi("+", ref("a"), ref("b"))),
        ], params=("p",))
        assert cse_func(f, None) == 0
        assert not any(
            isinstance(s, ir.LocalDecl) and s.name.startswith("__cse")
            for s in f.body
        )

    def test_blocks_do_not_leak(self):
        # an expression first seen inside an If must not be reused outside
        f = func([
            ir.If(ir.Compare("<", ref("p"), ci(0)),
                  [ir.LocalDecl("a", t.I64, bi("*", ref("p"), ref("p")))],
                  []),
            ir.LocalDecl("b", t.I64, bi("*", ref("p"), ref("p"))),
            ir.Return(ref("b")),
        ], params=("p",))
        cse_func(f, None)
        assert isinstance(f.body[1].value, ir.BinOp)

    def test_field_swap_not_merged(self, backend):
        """The double-buffer regression: buf.front read before and after a
        swap made through a callee must load twice (3.0, not 2.0/4.0)."""
        def make():
            return SwapReader(SwapBuf(
                np.zeros(4, dtype=np.float32), np.zeros(4, dtype=np.float32),
            ))

        code = jit(make(), "run", 4, backend=backend, use_cache=False)
        assert code.invoke().value == 3.0


# ---------------------------------------------------------------------------
# licm
# ---------------------------------------------------------------------------

class TestLicm:
    def _loop_func(self, body_stmt):
        return func([
            ir.LocalDecl("acc", t.I64, ci(0)),
            ir.ForRange("i", ci(0), ci(10), None, [body_stmt]),
            ir.Return(ref("acc")),
        ], params=("n",))

    def test_invariant_hoisted(self):
        f = self._loop_func(
            ir.Assign("acc", t.I64, bi("*", ref("n"), ref("n"))))
        assert licm_func(f, None) == 1
        assert f.body[1].name.startswith("__licm")
        assert isinstance(f.body[2], ir.ForRange)
        assert isinstance(f.body[2].body[0].value, ir.LocalRef)
        verify_func(f)

    def test_loop_var_dependent_stays(self):
        f = self._loop_func(
            ir.Assign("acc", t.I64, bi("*", ref("i"), ref("i"))))
        assert licm_func(f, None) == 0

    def test_nonconst_divisor_stays(self):
        # n // m may fault; moving it would change *when* it faults only if
        # the divisor were provably nonzero — a plain local is not
        f = self._loop_func(
            ir.Assign("acc", t.I64, bi("//", ref("n"), ref("m"))))
        f.param_names.append("m")
        f.param_shapes.append(PrimShape(t.I64))
        assert licm_func(f, None) == 0

    def test_const_divisor_hoists(self):
        f = self._loop_func(
            ir.Assign("acc", t.I64, bi("//", ref("n"), ci(4))))
        assert licm_func(f, None) == 1

    def test_intrinsic_needs_proven_trip(self):
        # math.* raises on bad inputs under CPython semantics: hoisting out
        # of a maybe-zero-trip loop would introduce a fault — only a
        # provably entered (constant-range) loop allows it
        sqrt = ir.IntrinsicCall("math.sqrt", [ref("x", t.F64)], t.F64)
        const_loop = func([
            ir.LocalDecl("acc", t.F64, cf(0.0)),
            ir.ForRange("i", ci(0), ci(10), None,
                        [ir.Assign("acc", t.F64, sqrt)]),
            ir.Return(ref("acc", t.F64)),
        ], params=("x",), param_ty=t.F64, ret=t.F64)
        assert licm_func(const_loop, None) == 1

        sqrt2 = ir.IntrinsicCall("math.sqrt", [ref("x", t.F64)], t.F64)
        dyn_loop = func([
            ir.LocalDecl("acc", t.F64, cf(0.0)),
            ir.ForRange("i", ci(0), ref("n"), None,
                        [ir.Assign("acc", t.F64, sqrt2)]),
            ir.Return(ref("acc", t.F64)),
        ], params=("x", "n"), param_ty=t.F64, ret=t.F64)
        dyn_loop.param_shapes[1] = PrimShape(t.I64)
        assert licm_func(dyn_loop, None) == 0


# ---------------------------------------------------------------------------
# pipeline: config, verification, stats, cache key
# ---------------------------------------------------------------------------

class TestPipelineConfig:
    def test_spellings(self, monkeypatch):
        monkeypatch.delenv("REPRO_OMP", raising=False)
        # unset, empty or "default": the backend's own set
        for raw in (None, "", " Default "):
            if raw is None:
                monkeypatch.delenv("REPRO_OPT_PASSES", raising=False)
            else:
                monkeypatch.setenv("REPRO_OPT_PASSES", raw)
            assert passes_for("c") == ("cse",), raw
            assert passes_for("py") == PASS_ORDER, raw
            # bounds checks and OpenMP keep every pass on C
            assert passes_for("c", bounds_checks=True) == PASS_ORDER, raw
            monkeypatch.setenv("REPRO_OMP", "1")
            assert passes_for("c") == PASS_ORDER, raw
            monkeypatch.delenv("REPRO_OMP")
        for raw in ("1", "true", "ALL", "on"):
            monkeypatch.setenv("REPRO_OPT_PASSES", raw)
            for backend in ("c", "py"):
                assert passes_for(backend) == PASS_ORDER, (raw, backend)
        for raw in ("0", "false", "none", "OFF"):
            monkeypatch.setenv("REPRO_OPT_PASSES", raw)
            for backend in ("c", "py"):
                assert passes_for(backend, bounds_checks=True) == (), raw
        monkeypatch.setenv("REPRO_OPT_PASSES", "dce,fold")
        for backend in ("c", "py"):  # canonical order, on every backend
            assert passes_for(backend) == ("fold", "dce")

    def test_unknown_pass_rejected(self, monkeypatch):
        monkeypatch.setenv("REPRO_OPT_PASSES", "fold,typo")
        with pytest.raises(ValueError, match="typo"):
            passes_for("py")

    def test_token_only_at_full(self, monkeypatch):
        from repro.backends.base import OptLevel

        monkeypatch.setenv("REPRO_OPT_PASSES", "1")
        assert pipeline_passes(OptLevel.FULL, "c") == PASS_ORDER
        monkeypatch.delenv("REPRO_OPT_PASSES")
        monkeypatch.delenv("REPRO_OMP", raising=False)
        assert pipeline_passes(OptLevel.FULL, "c") == ("cse",)
        assert pipeline_passes(OptLevel.FULL, "c", True) == PASS_ORDER
        for lvl in (OptLevel.VIRTUAL, OptLevel.DEVIRT, OptLevel.NOVIRT):
            assert pipeline_passes(lvl, "c") == ()

    def test_broken_pass_raises_opt_pass_error(self, monkeypatch):
        from repro.opt import pipeline as pl

        def corrupt(f, ctx):
            f.body.insert(0, ir.ExprStmt(ref("ghost")))
            return 1

        monkeypatch.setitem(pl._PASS_FNS, "fold", corrupt)
        f = func([ir.Return(ref("x"))], params=("x",))
        with pytest.raises(OptPassError, match="fold"):
            Pipeline(("fold",)).run_func(f)

    def test_verify_func_catches_bad_ir(self):
        f = func([ir.ExprStmt(ref("ghost")), ir.Return(ref("x"))],
                 params=("x",))
        with pytest.raises(BackendError, match="ghost"):
            verify_func(f)


class TestPipelineIntegration:
    def test_stats_in_report(self, backend, monkeypatch):
        monkeypatch.setenv("REPRO_OPT_PASSES", "1")
        code = jit(Sweeper(ScaleAddSolver(0.5), 8), "run", 2,
                   backend=backend, use_cache=False)
        pl = code.report.opt_stats["pipeline"]
        assert set(pl) == set(PASS_ORDER)
        for st in pl.values():
            assert st["runs"] >= 1

    def test_no_stats_when_disabled(self, backend, monkeypatch):
        monkeypatch.setenv("REPRO_OPT_PASSES", "0")
        code = jit(Sweeper(ScaleAddSolver(0.5), 8), "run", 2,
                   backend=backend, use_cache=False)
        assert "pipeline" not in code.report.opt_stats

    def test_pass_config_in_cache_key(self, backend, monkeypatch, tmp_path):
        """Toggling REPRO_OPT_PASSES must never reuse a stale artifact."""
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cc"))
        for knob in ("REPRO_OMP", "REPRO_BOUNDS"):
            monkeypatch.delenv(knob, raising=False)
        clear_code_cache()

        def translate(n=9):
            return jit(Sweeper(ScaleAddSolver(0.5), n), "run", 2,
                       backend=backend)

        monkeypatch.setenv("REPRO_OPT_PASSES", "1")
        assert not translate().report.cache_hit
        assert translate().report.cache_hit

        monkeypatch.setenv("REPRO_OPT_PASSES", "fold,dce")
        assert not translate().report.cache_hit  # different pass set
        assert translate().report.cache_hit

        monkeypatch.setenv("REPRO_OPT_PASSES", "0")
        assert not translate().report.cache_hit  # pipeline off: third key
        assert translate().report.cache_hit

        # unset is the backend's own set: every pass on py, the same key as
        # "1"; cse alone on C, a key of its own whichever is built first
        own_is_all = backend == "py"
        monkeypatch.delenv("REPRO_OPT_PASSES")
        assert translate().report.cache_hit == own_is_all
        assert translate().report.cache_hit
        assert translate(10).report.cache_hit is False
        monkeypatch.setenv("REPRO_OPT_PASSES", "1")
        assert translate(10).report.cache_hit == own_is_all
        assert translate(10).report.cache_hit
        clear_code_cache()

    @requires_cc
    def test_c_runs_its_own_pass_set(self, monkeypatch):
        """C runs cse alone by default, and every pass under bounds checks
        and OpenMP, where cse alone costs kernel time (EXPERIMENTS.md, "cse
        alone under bounds checks and OpenMP")."""
        for knob in ("REPRO_OPT_PASSES", "REPRO_OMP", "REPRO_OMP_REDUCTIONS",
                     "REPRO_BOUNDS"):
            monkeypatch.delenv(knob, raising=False)

        def stats():
            return jit(_stencil_app(), "run", 2, backend="c",
                       use_cache=False).report.opt_stats

        assert set(stats()["pipeline"]) == {"cse"}
        monkeypatch.setenv("REPRO_BOUNDS", "1")
        assert set(stats()["pipeline"]) == set(PASS_ORDER)
        monkeypatch.delenv("REPRO_BOUNDS")
        monkeypatch.setenv("REPRO_OMP", "1")
        got = stats()
        assert set(got["pipeline"]) == set(PASS_ORDER)
        # the verdicts the six-pass pipeline gave before C had a set of
        # its own
        assert {k: got["parallel"][k] for k in (
            "loops_seen", "loops_parallel", "loops_guarded", "reductions",
        )} == {"loops_seen": 12, "loops_parallel": 5, "loops_guarded": 1,
               "reductions": 0}
        monkeypatch.setenv("REPRO_OPT_PASSES", "1")
        assert stats()["parallel"] == got["parallel"]
        # cse alone gives the loops left the same verdicts; the five fewer
        # are the inliner's copies of the fill and interior-sum loops in run()
        monkeypatch.setenv("REPRO_OPT_PASSES", "cse")
        assert {k: stats()["parallel"][k] for k in (
            "loops_seen", "loops_parallel", "loops_guarded", "reductions",
        )} == {"loops_seen": 7, "loops_parallel": 3, "loops_guarded": 1,
               "reductions": 0}

    @pytest.mark.parametrize("passes", ["0", "1", "cse"])
    def test_off_on_bit_identical(self, backend, monkeypatch, passes):
        monkeypatch.setenv("REPRO_OPT_PASSES", passes)
        sweep = jit(Sweeper(ScaleAddSolver(0.5), 16), "run", 3,
                    backend=backend, use_cache=False)
        assert sweep.invoke().value == Sweeper(ScaleAddSolver(0.5), 16).run(3)
        ctrl = jit(ControlFlow(), "collatz_steps", 27,
                   backend=backend, use_cache=False)
        assert ctrl.invoke().value == ControlFlow().collatz_steps(27)


@requires_cc
@pytest.mark.parametrize("name", sorted(PROGRAMS))
def test_c_own_pass_set_matches_every_pass(name, monkeypatch):
    """C's own pass set (cse alone) returns what the whole pipeline does,
    bit for bit, on every rank's value and output, for the thirteen
    fingerprint programs."""
    for knob in ("REPRO_OMP", "REPRO_BOUNDS"):
        monkeypatch.delenv(knob, raising=False)

    def run(passes):
        monkeypatch.setenv("REPRO_OPT_PASSES", passes)
        receiver, method, args = PROGRAMS[name]()
        # two ranks' partial sums meet in a fixed order; Fox needs a
        # square rank count, and four would not, so it runs on one
        nranks = 2 if "mpi" in name and "fox" not in name else 1
        res = jit4mpi(receiver, method, *args, backend="c",
                      use_cache=False).set4mpi(nranks).invoke()
        # "secs" is a wall-clock reading, not a result
        outputs = [{label: out.tobytes() for label, out in outs.items()
                    if label != "secs"} for outs in res.outputs]
        return np.asarray(res.returns, np.float64).tobytes(), outputs

    assert run("default") == run("1")


# ---------------------------------------------------------------------------
# _fold_binop guards
# ---------------------------------------------------------------------------

class TestFoldBinopGuards:
    def test_unit_guards(self):
        from repro.frontend.lower import _fold_binop

        assert _fold_binop("/", 1.0, 0, t.F64) is None
        assert _fold_binop("//", 7, 0, t.I64) is None
        assert _fold_binop("%", 7, 0, t.I64) is None
        assert _fold_binop("**", 2, -1, t.I64) is None  # 0.5 in an int slot
        assert _fold_binop("**", 2, -1, t.F64) == 0.5
        assert _fold_binop("**", 2, 4096, t.F64) is None  # huge literal

    def test_const_zero_divisor_faults_at_runtime(self):
        code = jit(FoldEdge(), "div_zero_f", 1.0, backend="py",
                   use_cache=False)
        with pytest.raises(MpiError, match="ZeroDivisionError"):
            code.invoke()
        code = jit(FoldEdge(), "div_zero_i", 7, backend="py",
                   use_cache=False)
        with pytest.raises(MpiError, match="ZeroDivisionError"):
            code.invoke()

    def test_negative_exponent_value(self, backend):
        code = jit(FoldEdge(), "pow_neg", backend=backend, use_cache=False)
        assert code.invoke().value == 0.5
