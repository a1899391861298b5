"""Differential testing: C backend vs Python backend vs interpreted guest.

Hypothesis drives array *data* through fixed compiled specializations (the
shapes — and hence the code cache keys — don't depend on array contents),
so each property runs hundreds of cases against two freshly-deep-copied
translated memory spaces plus the CPython interpretation of the same guest
method.  Python semantics (floor division, modulo sign, true division) must
hold identically everywhere.
"""

import math
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import jit
from repro.backends.cbackend import compiler_available

from tests.guestlib_diff import FloatOps, IntOps, Reducer

BACKENDS = ["py"] + (["c"] if compiler_available() else [])

ints = st.integers(min_value=-(10 ** 6), max_value=10 ** 6)
floats = st.floats(min_value=-1e6, max_value=1e6,
                   allow_nan=False, allow_infinity=False)


def run_backends(app, method, *args):
    """Run a guest method on every backend; return {backend: (value, out)}."""
    results = {}
    for backend in BACKENDS:
        res = jit(app, method, *args, backend=backend).invoke()
        out = res.outputs[0].get("out")
        results[backend] = (res.value, out)
    return results


class TestIntOps:
    @given(
        st.lists(st.tuples(ints, ints), min_size=1, max_size=16),
        st.integers(0, 7),
    )
    @settings(max_examples=60, deadline=None)
    def test_matches_python_semantics(self, pairs, op):
        if op in (3, 4):  # division ops: exclude zero divisors
            pairs = [(a, b if b != 0 else 7) for a, b in pairs]
        a = np.array([p[0] for p in pairs], dtype=np.int64)
        b = np.array([p[1] for p in pairs], dtype=np.int64)
        expected = {
            0: lambda x, y: x + y,
            1: lambda x, y: x - y,
            2: lambda x, y: x * y,
            3: lambda x, y: x // y,
            4: lambda x, y: x % y,
            5: min,
            6: max,
            7: lambda x, y: abs(x),
        }[op]
        ref = np.array(
            [expected(int(x), int(y)) for x, y in zip(a, b)], dtype=np.int64
        )
        for backend, (value, out) in run_backends(
            IntOps(), "apply", a, b, np.zeros_like(a), op
        ).items():
            assert value == len(a)
            assert np.array_equal(out, ref), (backend, op)


class TestFloatOps:
    @given(
        st.lists(st.tuples(floats, floats), min_size=1, max_size=16),
        st.integers(0, 7),
    )
    @settings(max_examples=60, deadline=None)
    def test_backends_agree(self, pairs, op):
        if op in (2, 3, 4):
            pairs = [(a, b if abs(b) > 1e-9 else 3.0) for a, b in pairs]
        a = np.array([p[0] for p in pairs])
        b = np.array([p[1] for p in pairs])
        outs = {}
        for backend, (value, out) in run_backends(
            FloatOps(), "apply", a, b, np.zeros_like(a), op
        ).items():
            outs[backend] = out
        baseline = outs[BACKENDS[0]]
        for backend, out in outs.items():
            np.testing.assert_allclose(out, baseline, rtol=1e-12, atol=1e-12,
                                       err_msg=f"{backend} op={op}")

    @given(st.lists(floats, min_size=1, max_size=32))
    @settings(max_examples=40, deadline=None)
    def test_python_mod_semantics(self, xs):
        """x % 3.0 and x // 2.5 must follow Python (sign of divisor) in C."""
        a = np.array(xs)
        b = np.full_like(a, -2.5)
        ref = np.array([x % -2.5 for x in xs])
        for backend, (_, out) in run_backends(
            FloatOps(), "apply", a, b, np.zeros_like(a), 3
        ).items():
            np.testing.assert_allclose(out, ref, rtol=1e-9, atol=1e-12,
                                       err_msg=backend)


class TestReductions:
    @given(st.lists(floats, min_size=1, max_size=64))
    @settings(max_examples=40, deadline=None)
    def test_sum(self, xs):
        a = np.array(xs)
        for backend in BACKENDS:
            res = jit(Reducer(), "total", a, backend=backend).invoke()
            assert res.value == pytest.approx(sum(xs), rel=1e-9, abs=1e-9)

    @given(st.lists(floats, min_size=1, max_size=64))
    @settings(max_examples=40, deadline=None)
    def test_count_positive(self, xs):
        a = np.array(xs)
        expected = sum(1 for x in xs if x > 0)
        for backend in BACKENDS:
            res = jit(Reducer(), "count_positive", a, backend=backend).invoke()
            assert res.value == expected

    @given(st.lists(floats, min_size=1, max_size=32))
    @settings(max_examples=40, deadline=None)
    def test_running_max(self, xs):
        a = np.array(xs)
        ref = np.maximum.accumulate(a)
        for backend in BACKENDS:
            res = jit(Reducer(), "running_max", a, np.zeros_like(a),
                      backend=backend).invoke()
            assert res.value == pytest.approx(max(xs))
            np.testing.assert_allclose(res.outputs[0]["out"], ref)


def _bits(v) -> bytes:
    return struct.pack("<d", float(v))


class TestFoldedConstants:
    """Snapshot scalars fold to literals in the emitted source; the spelling
    must survive every operand position (tests/guestlib_numeric.py)."""

    @pytest.mark.parametrize("method,want", [
        ("neg_pow_sum", 3.0),              # (-2)**0 + (-2)**1 + (-2)**2
        ("overflow", math.inf),            # 1e308 * 10.0 folds to +inf
        ("not_a_number", math.nan),        # inf - inf folds to nan
    ])
    def test_three_way(self, method, want):
        from tests.guestlib_numeric import FoldedConstants

        def same(a, b):  # the sign bit of a NaN is not part of the contract
            return _bits(a) == _bits(b) or (a != a and b != b)

        ref = getattr(FoldedConstants(-2.0, 1e308), method)(3)
        assert same(ref, want)
        for backend in BACKENDS:
            got = jit(FoldedConstants(-2.0, 1e308), method, 3,
                      backend=backend).invoke().value
            assert same(got, ref), (backend, got)


class TestListSlots:
    """The py backend's list-backed array slots against CPython and C, bit
    for bit, on the two f64/i64 class libraries."""

    def _three_way(self, make, method, arg, labels):
        import repro.rt as rt

        rt.current.reset()
        ref = getattr(make(), method)(arg)
        ref_outs = rt.current.take_outputs()
        for backend in BACKENDS:
            code = jit(make(), method, arg, backend=backend)
            if backend == "py":
                slots = code.report.opt_stats["py_slots"]
                assert slots and set(slots.values()) == {"list"}
            res = code.invoke()
            assert _bits(res.value) == _bits(ref), backend
            for label in labels:
                assert (res.output(label).tobytes()
                        == ref_outs[label].tobytes()), (backend, label)

    def test_nbody(self):
        from repro.library.nbody.config import make_system

        self._three_way(lambda: make_system(8), "run", 6, ("x", "y", "z"))

    def test_cgsolve(self):
        from repro.library.cgsolve.config import make_solver

        self._three_way(lambda: make_solver(5, 5), "solve", 40, ("x",))
