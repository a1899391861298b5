"""Runtime object-graph snapshots: aliasing, shapes, slots, coercion."""

import numpy as np
import pytest

from repro.frontend.objectgraph import snapshot_args
from repro.frontend.shapes import ArrayShape, ObjShape, PrimShape
from repro.lang import types as _t

from tests.guestlib import ScaleAddSolver, Sweeper
from tests.guestlib_numeric import Numerics


class TestCapture:
    def test_primitive_shapes_carry_values(self):
        snap, recv, args = snapshot_args(ScaleAddSolver(0.5), (3, 2.5, True))
        assert isinstance(recv, ObjShape)
        # declared f32 field coerces the Python float
        assert recv.fields["a"].ty is _t.F32
        assert recv.fields["a"].const == pytest.approx(0.5)
        assert [a.ty for a in args] == [_t.I64, _t.F64, _t.BOOL]
        assert [a.const for a in args] == [3, 2.5, True]

    def test_bool_not_captured_as_int(self):
        snap, _, args = snapshot_args(Numerics(), (True, False))
        assert args[0].ty is _t.BOOL and args[0].const is True

    def test_numpy_scalars(self):
        snap, _, args = snapshot_args(
            Numerics(), (np.int32(5), np.float32(1.5), np.float64(2.5))
        )
        assert args[0].ty is _t.I32 and args[0].const == 5
        assert args[1].ty is _t.F32 and args[1].const == pytest.approx(1.5)
        assert args[2].ty is _t.F64

    def test_array_slots_assigned_in_order(self):
        a = np.zeros(4, np.float32)
        b = np.zeros(8, np.float64)
        snap, _, args = snapshot_args(Numerics(), (a, b))
        assert isinstance(args[0], ArrayShape) and args[0].slot == 0
        assert isinstance(args[1], ArrayShape) and args[1].slot == 1
        assert snap.array_slots[0].array is a
        assert snap.array_slots[1].elem is _t.F64

    def test_aliasing_preserved(self):
        """The same NumPy array through two paths maps to one slot — the
        translated code sees one buffer, like the Java original."""
        a = np.zeros(4, np.float32)
        snap, _, args = snapshot_args(Numerics(), (a, a))
        assert args[0].slot == args[1].slot
        assert len(snap.array_slots) == 1

    def test_nested_objects_recorded_in_order(self):
        app = Sweeper(ScaleAddSolver(0.25), 8)
        snap, recv, _ = snapshot_args(app, ())
        paths = [p for p, _ in snap.objects]
        assert paths == ["self.solver", "self"]  # post-order discovery
        assert recv.fields["solver"].cls.name == "ScaleAddSolver"
        assert recv.fields["solver"].root_path == "self.solver"

    def test_non_contiguous_array_captured(self):
        """A strided view is a slot like any other (the backends copy it)."""
        a = np.zeros((4, 4), np.float32)[:, 0]
        snap, _, args = snapshot_args(Numerics(), (a,))
        assert args[0].slot == 0 and args[0].length == 4
        assert snap.array_slots[0].array is a

    def test_digest_stability(self):
        s1 = snapshot_args(Sweeper(ScaleAddSolver(0.5), 8), (2,))
        s2 = snapshot_args(Sweeper(ScaleAddSolver(0.5), 8), (2,))
        assert s1[1].digest() == s2[1].digest()
        s3 = snapshot_args(Sweeper(ScaleAddSolver(0.75), 8), (2,))
        assert s1[1].digest() != s3[1].digest()
