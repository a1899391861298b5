"""Simulated-MPI communicator: matching, collectives, virtual clocks."""

import threading
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import MpiError
from repro.mpi import Communicator, RankContext, mpirun
from repro.mpi.netmodel import LOCAL_NET, TSUBAME_NET


def run_ranks(n, body, **kw):
    return mpirun(n, body, net=kw.pop("net", LOCAL_NET), **kw)


class TestPointToPoint:
    def test_fifo_order_per_sender_tag(self):
        def body(ctx):
            if ctx.rank == 0:
                for v in (1.0, 2.0, 3.0):
                    ctx.comm.send(ctx, np.array([v]), 1, tag=9)
                return None
            out = np.zeros(1)
            got = []
            for _ in range(3):
                ctx.comm.recv(ctx, out, 0, tag=9)
                got.append(out[0])
            return got

        res = run_ranks(2, body)
        assert res.returns[1] == [1.0, 2.0, 3.0]

    def test_tags_do_not_cross(self):
        def body(ctx):
            if ctx.rank == 0:
                ctx.comm.send(ctx, np.array([1.0]), 1, tag=1)
                ctx.comm.send(ctx, np.array([2.0]), 1, tag=2)
                return None
            out = np.zeros(1)
            ctx.comm.recv(ctx, out, 0, tag=2)
            second = out[0]
            ctx.comm.recv(ctx, out, 0, tag=1)
            return (second, out[0])

        res = run_ranks(2, body)
        assert res.returns[1] == (2.0, 1.0)

    def test_send_to_self_rejected(self):
        def body(ctx):
            ctx.comm.send(ctx, np.zeros(1), ctx.rank, 0)

        with pytest.raises(MpiError):
            run_ranks(1, body)

    def test_rank_out_of_range(self):
        def body(ctx):
            ctx.comm.send(ctx, np.zeros(1), 5, 0)

        with pytest.raises(MpiError):
            run_ranks(2, body)

    def test_size_mismatch(self):
        def body(ctx):
            if ctx.rank == 0:
                ctx.comm.send(ctx, np.zeros(3), 1, 0)
                return
            out = np.zeros(5)
            ctx.comm.recv(ctx, out, 0, 0)

        with pytest.raises(MpiError, match="size mismatch"):
            run_ranks(2, body)

    def test_eager_ring_does_not_deadlock(self):
        def body(ctx):
            p = ctx.size
            out = np.zeros(2)
            ctx.comm.sendrecv(
                ctx, np.full(2, float(ctx.rank)), (ctx.rank + 1) % p,
                out, (ctx.rank - 1) % p, 3,
            )
            return out[0]

        res = run_ranks(6, body)
        assert res.returns == [(r - 1) % 6 for r in range(6)]

    def test_failed_rank_aborts_peers(self):
        def body(ctx):
            if ctx.rank == 0:
                raise RuntimeError("rank0 died")
            out = np.zeros(1)
            ctx.comm.recv(ctx, out, 0, 0)  # would block forever

        with pytest.raises(MpiError, match="rank 0 failed"):
            run_ranks(2, body)


class TestCollectives:
    @given(st.lists(st.floats(-1e6, 1e6), min_size=2, max_size=6))
    @settings(max_examples=20, deadline=None)
    def test_allreduce_sum_property(self, values):
        def body(ctx):
            return ctx.comm.allreduce_sum(ctx, values[ctx.rank])

        res = run_ranks(len(values), body)
        expected = sum(values)
        for got in res.returns:
            assert got == pytest.approx(expected, rel=1e-12, abs=1e-9)

    @pytest.mark.parametrize("order", [(0, 1, 2), (2, 0, 1)])
    def test_allreduce_sum_combines_in_rank_order(self, order):
        """The ranks arrive in ``order``; the sum is ((0 + v0) + v1) + v2
        either way.  In arrival order (2, 0, 1) it would be 1.0."""
        values = (1e16, 1.0, -1e16)

        def body(ctx):
            at = order.index(ctx.rank)
            ctx.release_token()  # the rank before this one must run
            while at:
                with ctx.comm._lock:
                    slot = ctx.comm._coll.get(0)
                    if slot is not None and order[at - 1] in slot.arrived:
                        break
                time.sleep(0.001)
            return ctx.comm.allreduce_sum(ctx, values[ctx.rank])

        res = run_ranks(3, body)
        assert res.returns == [0.0, 0.0, 0.0]

    def test_allreduce_sum_array(self):
        def body(ctx):
            data = np.full(4, float(ctx.rank + 1))
            ctx.comm.allreduce_sum_array(ctx, data)
            return data.copy()

        res = run_ranks(3, body)
        for got in res.returns:
            assert np.allclose(got, 1 + 2 + 3)

    def test_bcast(self):
        def body(ctx):
            data = np.arange(5.0) if ctx.rank == 2 else np.zeros(5)
            ctx.comm.bcast(ctx, data, root=2)
            return data.copy()

        res = run_ranks(4, body)
        for got in res.returns:
            assert np.allclose(got, np.arange(5.0))

    def test_gather(self):
        def body(ctx):
            data = np.full(2, float(ctx.rank))
            out = np.zeros(2 * ctx.size) if ctx.rank == 0 else np.zeros(0)
            if ctx.rank == 0:
                ctx.comm.gather(ctx, data, out, root=0)
                return out.copy()
            ctx.comm.gather(ctx, data, np.zeros(0), root=0)
            return None

        res = run_ranks(3, body)
        assert np.allclose(res.returns[0], [0, 0, 1, 1, 2, 2])

    def test_collective_kind_mismatch_detected(self):
        def body(ctx):
            if ctx.rank == 0:
                ctx.comm.barrier(ctx)
            else:
                ctx.comm.allreduce_sum(ctx, 1.0)

        with pytest.raises(MpiError):
            run_ranks(2, body)

    def test_barrier_synchronizes_clocks(self):
        def body(ctx):
            if ctx.rank == 0:
                x = 0.0
                for i in range(200000):
                    x += i * 0.5  # rank 0 computes longer
            ctx.clock.sync_cpu()
            before = ctx.clock.t
            ctx.comm.barrier(ctx)
            return (before, ctx.clock.t)

        res = run_ranks(2, body)
        t_after = [after for _, after in res.returns]
        # after the barrier both ranks sit at (max + barrier cost)
        assert t_after[0] == pytest.approx(t_after[1], rel=0.2)
        assert min(t_after) >= max(before for before, _ in res.returns)


class TestVirtualClock:
    def test_clock_monotonic_through_ops(self):
        def body(ctx):
            stamps = []
            for i in range(4):
                ctx.comm.barrier(ctx)
                ctx.clock.sync_cpu()
                stamps.append(ctx.clock.t)
            return stamps

        res = run_ranks(3, body)
        for stamps in res.returns:
            assert stamps == sorted(stamps)

    def test_recv_applies_lamport_max(self):
        def body(ctx):
            if ctx.rank == 0:
                x = 0.0
                for i in range(300000):
                    x += i * 0.5
                ctx.comm.send(ctx, np.zeros(8), 1, 0)
                ctx.clock.sync_cpu()
                return ctx.clock.t
            out = np.zeros(8)
            ctx.comm.recv(ctx, out, 0, 0)
            return ctx.clock.t

        res = run_ranks(2, body)
        sender_t, recv_t = res.returns[0], res.returns[1]
        # the receiver cannot complete before the (slow) sender sent
        assert recv_t >= sender_t * 0.5

    def test_comm_time_accounted(self):
        n = 1 << 18  # 2 MiB of f64: bandwidth term dwarfs local allocation

        def body(ctx):
            # the receiver must reach recv() with less measured compute than
            # the sender, or the model (correctly) overlaps the transfer with
            # local work and charges less than the full bandwidth term
            if ctx.rank == 0:
                data = np.zeros(n)
                ctx.comm.send(ctx, data, 1, 0)
            else:
                out = np.empty(n)
                ctx.comm.recv(ctx, out, 0, 0)
            return ctx.clock.comm_time

        res = run_ranks(2, body, net=TSUBAME_NET)
        # the receiver pays (most of) the bandwidth term
        assert res.returns[1] >= (n * 8) / TSUBAME_NET.bandwidth * 0.5

    def test_single_rank_runs_inline(self):
        main_thread = threading.current_thread()

        def body(ctx):
            return threading.current_thread() is main_thread

        assert run_ranks(1, body).returns[0] is True
