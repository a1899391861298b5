"""Every coding rule (paper §3.2) is enforced with the right diagnostics."""

import numpy as np
import pytest

from repro import jit
from repro.errors import CodingRuleViolation, LoweringError, NotSemiImmutable

from tests import guestlib_bad as bad
from tests.guestlib import MutualA, Recurser


def expect_rule(app, method, *args, rule=None, match=None):
    # twice: the checkers remember a verdict per class / function, and only
    # a pass may be remembered — a guest rejected once must be rejected again
    for attempt in ("first", "second"):
        with pytest.raises((CodingRuleViolation, LoweringError)) as exc_info:
            jit(app, method, *args, backend="py", use_cache=False)
        exc = exc_info.value
        if rule is not None:
            assert isinstance(exc, CodingRuleViolation), attempt
            assert exc.rule == rule, (
                f"{attempt} attempt: expected rule {rule}, got {exc.rule}: "
                f"{exc}")
        if match is not None:
            assert match in str(exc), attempt
    return exc


class TestExpressionRules:
    def test_rule7_ternary(self):
        expect_rule(bad.TernaryUser(), "run", 1, rule=7)

    def test_rule7_reference_equality(self):
        expect_rule(bad.RefEqUser(), "run", 1, rule=7)

    def test_rule8_try_except(self):
        expect_rule(bad.TryUser(), "run", 1, rule=8)

    def test_rule8_raise(self):
        expect_rule(bad.RaiseUser(), "run", 1, rule=8)

    def test_rule8_isinstance(self):
        expect_rule(bad.IsinstanceUser(), "run", 1, rule=8)

    def test_rule8_none_literal(self):
        expect_rule(bad.NoneUser(), "run", 1, rule=8)

    def test_rule8_lambda(self):
        expect_rule(bad.LambdaUser(), "run", 1, rule=8)

    def test_rule8_comprehension(self):
        expect_rule(bad.ComprehensionUser(), "run", 1, rule=8)

    def test_rule8_list_literal(self):
        expect_rule(bad.ListLiteralUser(), "run", 1, rule=8)

    def test_rule8_io(self):
        expect_rule(bad.PrintUser(), "run", 1, rule=8)

    def test_rule8_slicing(self):
        expect_rule(bad.SliceUser(), "run", np.zeros(4), rule=8)

    def test_rule8_nested_function(self):
        expect_rule(bad.NestedFuncUser(), "run", 1, rule=8)

    def test_default_parameter_values(self):
        expect_rule(bad.DefaultArgUser(), "run", 1, rule=8)


class TestParameterAndFieldRules:
    def test_rule3_parameter_reassignment(self):
        expect_rule(bad.ParamReassigner(), "run", 1, rule=3)

    def test_non_array_field_store(self):
        expect_rule(bad.ScalarFieldMutator(1.0), "run", rule=1,
                    match="array")

    def test_rule5_static_field_must_be_scalar(self):
        expect_rule(bad.BadStaticField(), "run", rule=5)

    def test_scalar_static_field_allowed(self):
        res = jit(bad.StaticArrayField(), "run", backend="py",
                  use_cache=False).invoke()
        assert res.value == 3


class TestConstructorRules:
    def test_ctor_branches_rejected(self):
        expect_rule(bad.CtorBranches(1), "get", rule=0)

    def test_ctor_method_call_rejected(self):
        # the decoration-time constructor still *runs* under CPython (it is
        # plain Python); the violation is reported at translation time
        expect_rule(bad.CtorCaller(2), "get", rule=0)

    def test_ctor_loop_rejected(self):
        expect_rule(bad.CtorLoop(3), "get", rule=0)


class TestRecursionRule:
    def test_rule6_direct_recursion(self):
        expect_rule(Recurser(), "run", 3, rule=6)

    def test_rule6_mutual_recursion(self):
        expect_rule(MutualA(), "ping", 3, rule=6)


class TestSnapshotRules:
    def test_recursive_object_graph_rejected(self):
        from repro import wootin
        from tests.guestlib import PairUser

        app = PairUser()
        app.loop = app  # make the graph recursive at runtime
        try:
            with pytest.raises(NotSemiImmutable):
                jit(app, "run", 1.0, 2.0, backend="py", use_cache=False)
        finally:
            del app.loop

    def test_unsupported_field_type_rejected(self):
        from repro.errors import JitError
        from tests.guestlib import PairUser

        app = PairUser()
        app.junk = {"not": "allowed"}
        try:
            with pytest.raises(JitError):
                jit(app, "run", 1.0, 2.0, backend="py", use_cache=False)
        finally:
            del app.junk

    def test_2d_array_rejected(self):
        from repro.errors import JitError
        from tests.guestlib import PairUser

        app = PairUser()
        app.grid2d = np.zeros((3, 3))
        try:
            with pytest.raises(JitError, match="1-D"):
                jit(app, "run", 1.0, 2.0, backend="py", use_cache=False)
        finally:
            del app.grid2d

    def test_declared_field_dtype_mismatch_rejected(self):
        from repro.errors import JitError
        from repro.library.stencil import FloatGridDblB

        g = FloatGridDblB(np.zeros(4, np.float64), np.zeros(4, np.float32))
        with pytest.raises(JitError, match="dtype"):
            jit(g, "swap", backend="py", use_cache=False)


class TestHostSeal:
    """A capture seals what it visited: the host can no longer rebind a
    field the translator folded into a constant (def. 3), while an array
    field stays rebindable to an array (def. 3c)."""

    def test_scalar_rebind_after_jit_raises(self, backend):
        from tests.guestlib import Scale

        s = Scale(0.5)
        code = jit(s, "run", 4, backend=backend)
        with pytest.raises(NotSemiImmutable) as err:
            s.a = 2.0
        assert err.value.where == "Scale.a"
        assert s.a == 0.5
        assert code.invoke().value == s.run(4) == 2.0

    def test_new_attribute_and_delete_on_sealed_instance_raise(self, backend):
        from tests.guestlib import Scale

        s = Scale(0.5)
        jit(s, "run", 4, backend=backend)
        with pytest.raises(NotSemiImmutable, match="Scale.extra"):
            s.extra = 1.0
        with pytest.raises(NotSemiImmutable, match="Scale.a"):
            del s.a
        assert vars(s) == {"a": 0.5}

    def test_unjitted_instance_stays_mutable(self):
        from tests.guestlib import Scale

        s = Scale(0.5)
        s.a = 2.0
        s.extra = 1
        del s.extra
        assert s.run(4) == 8.0

    def test_array_field_rebound_to_non_array_raises(self, backend):
        from tests.guestlib import SwapBuf, SwapPeek

        buf = SwapBuf(np.ones(4, np.float32), np.zeros(4, np.float32))
        jit(SwapPeek(buf), "run", backend=backend)
        with pytest.raises(NotSemiImmutable, match="SwapBuf.front"):
            buf.front = 1.0

    def test_swap_still_runs_under_cpython(self, backend):
        """``SwapBuf.swap`` rebinds array fields of a sealed instance."""
        from tests.guestlib import SwapBuf, SwapReader

        front, back = np.zeros(4, np.float32), np.zeros(4, np.float32)
        app = SwapReader(SwapBuf(front, back))
        code = jit(app, "run", 4, backend=backend)
        assert app.run(4) == 3.0
        assert app.buf.front is back and app.buf.back is front
        app.buf.swap()
        assert app.buf.front is front
        assert code.invoke().value == 3.0

    def test_recorded_arguments_survive_an_array_rebind(self, backend):
        """The paper's recorded arguments: a JitCode keeps reading the
        array it captured; a new ``jit()`` binds the one the field holds
        now."""
        from tests.guestlib import FrontSum, SwapBuf

        old, new = np.full(4, 1.0, np.float32), np.full(4, 2.0, np.float32)
        buf = SwapBuf(old, np.zeros(4, np.float32))
        app = FrontSum(buf)
        code = jit(app, "run", backend=backend)
        buf.front = new
        assert code.invoke().value == 4.0
        fresh = jit(app, "run", backend=backend)
        assert fresh.program.snapshot.array_slots[0].array is new
        assert fresh.invoke().value == 8.0 == app.run()


class TestStrictFinal:
    def test_local_of_non_leaf_class_rejected(self):
        from tests.guestlib_strictfinal import BaseHolder

        expect_rule(BaseHolder(), "run", rule=2)
