"""Small guest-language classes shared across tests.

Defined in a real module (not inside test functions) because the frontend
reads method source via ``inspect``.
"""

from __future__ import annotations

from repro import (
    Array,
    CudaConfig,
    MPI,
    boolean,
    cuda,
    dim3,
    f32,
    f64,
    foreign,
    global_kernel,
    i64,
    wj,
    wjmath,
    wootin,
)


@wootin
class Solver:
    """Dispatch interface."""

    def solve(self, v: f32, index: i64) -> f32:
        return v


@wootin
class ScaleAddSolver(Solver):
    a: f32

    def __init__(self, a: f32):
        self.a = a

    def solve(self, v: f32, index: i64) -> f32:
        return v * self.a + float(index)


@wootin
class SquareSolver(Solver):
    def __init__(self):
        pass

    def solve(self, v: f32, index: i64) -> f32:
        return v * v


@wootin
class Sweeper:
    """Composed application: applies a Solver over an array repeatedly."""

    solver: Solver
    n: i64

    def __init__(self, solver: Solver, n: i64):
        self.solver = solver
        self.n = n

    def run(self, iters: i64) -> f64:
        arr = wj.zeros(f32, self.n)
        for i in range(self.n):
            arr[i] = 1.0
        for it in range(iters):
            for i in range(self.n):
                arr[i] = self.solver.solve(arr[i], i)
        total = 0.0
        for i in range(self.n):
            total = total + arr[i]
        wj.output("arr", arr)
        return total


@wootin
class Pair:
    """Immutable dynamic object for inlining tests."""

    x: f64
    y: f64

    def __init__(self, x: f64, y: f64):
        self.x = x
        self.y = y

    def dot(self, other: "Pair") -> f64:
        return self.x * other.x + self.y * other.y

    def plus(self, other: "Pair") -> "Pair":
        return Pair(self.x + other.x, self.y + other.y)


@wootin
class PairUser:
    def __init__(self):
        pass

    def run(self, a: f64, b: f64) -> f64:
        p = Pair(a, b)
        q = Pair(b, a)
        s = p.plus(q)
        return s.dot(p)


@wootin
class ControlFlow:
    """Exercises if/while/for/break/continue/boolops/compares/casts."""

    def __init__(self):
        pass

    def collatz_steps(self, n0: i64) -> i64:
        n = n0
        steps = 0
        while n != 1:
            if n % 2 == 0:
                n = n // 2
            else:
                n = 3 * n + 1
            steps = steps + 1
            if steps > 10000:
                break
        return steps

    def classify(self, x: f64) -> i64:
        if x < 0.0:
            return -1
        if x == 0.0:
            return 0
        return 1

    def loop_tricks(self, n: i64) -> i64:
        total = 0
        for i in range(0, n, 2):
            if i == 4:
                continue
            if i > 12:
                break
            total = total + i
        for i in range(n, 0, -1):
            total = total + 1
        return total

    def bools(self, a: i64, b: i64) -> boolean:
        return (a < b and b < 100) or not (a == 0)

    def math_mix(self, x: f64) -> f64:
        return wjmath.sqrt(abs(x)) + min(x, 2.0) + max(x, -2.0) + x ** 2 + x % 3.0


@foreign("wj_test_clamp", csource="""
static double wj_test_clamp(double x, double lo, double hi) {
    return x < lo ? lo : (x > hi ? hi : x);
}
""")
def clampf(x: f64, lo: f64, hi: f64) -> f64:
    return lo if x < lo else (hi if x > hi else x)


@wootin
class FfiUser:
    def __init__(self):
        pass

    def run(self, x: f64) -> f64:
        return clampf(x * 2.0, -1.0, 1.0)


@wootin
class RingExchanger:
    """MPI point-to-point + collectives driver."""

    n: i64

    def __init__(self, n: i64):
        self.n = n

    def run(self, rounds: i64) -> f64:
        rank = MPI.rank()
        size = MPI.size()
        buf = wj.zeros(f64, self.n)
        recv = wj.zeros(f64, self.n)
        for i in range(self.n):
            buf[i] = float(rank)
        for r in range(rounds):
            if size > 1:
                MPI.sendrecv(buf, (rank + 1) % size, recv, (rank - 1) % size, 5)
                for i in range(self.n):
                    buf[i] = recv[i] + 1.0
        MPI.barrier()
        total = MPI.allreduce_sum(buf[0])
        wj.output("buf", buf)
        return total


@wootin
class RankStamp:
    """Every rank overwrites one recorded array with rank-dependent values
    and outputs it after a barrier, so the other rank has run in between:
    per-rank memory spaces keep the ranks apart."""

    data: Array(f64)

    def __init__(self, data: Array(f64)):
        self.data = data

    def run(self, k: i64) -> f64:
        rank = MPI.rank()
        for i in range(len(self.data)):
            self.data[i] = self.data[i] * float(k) + float(rank * 100 + i)
        MPI.barrier()
        wj.output("data", self.data)
        return self.data[0]


@wootin
class Saxpy:
    a: f32

    def __init__(self, a: f32):
        self.a = a

    @global_kernel
    def kernel(self, conf: CudaConfig, x: Array(f32), y: Array(f32)) -> None:
        i = cuda.bid_x() * cuda.bdim_x() + cuda.tid_x()
        y[i] = self.a * x[i] + y[i]

    def run(self, n: i64, block: i64) -> f64:
        x = wj.zeros(f32, n)
        y = wj.zeros(f32, n)
        for i in range(n):
            x[i] = float(i)
            y[i] = 1.0
        dx = cuda.copy_to_gpu(x)
        dy = cuda.copy_to_gpu(y)
        conf = CudaConfig(dim3(n // block, 1, 1), dim3(block, 1, 1))
        self.kernel(conf, dx, dy)
        back = cuda.copy_from_gpu(dy)
        total = 0.0
        for i in range(n):
            total = total + back[i]
        wj.output("y", back)
        cuda.free_gpu(dx)
        cuda.free_gpu(dy)
        return total


@wootin
class Recurser:
    def __init__(self):
        pass

    def run(self, n: i64) -> i64:
        return self.run(n - 1)


@wootin
class MutualA:
    def __init__(self):
        pass

    def ping(self, n: i64) -> i64:
        other = MutualB()
        return other.pong(n)


@wootin
class MutualB:
    def __init__(self):
        pass

    def pong(self, n: i64) -> i64:
        other = MutualA()
        return other.ping(n)


@wootin
class SwapBuf:
    """Double buffer: array-field mutation in ``swap`` is the one field
    store the semi-immutability rules permit."""

    front: Array(f32)
    back: Array(f32)

    def __init__(self, front: Array(f32), back: Array(f32)):
        self.front = front
        self.back = back

    def swap(self) -> None:
        tmp = self.front
        self.front = self.back
        self.back = tmp


@wootin
class SwapReader:
    """Reads ``buf.front`` before and after a swap made through a callee —
    an optimizer that merges the two loads miscompiles this to 2.0."""

    buf: SwapBuf

    def __init__(self, buf: SwapBuf):
        self.buf = buf

    def run(self, n: i64) -> f64:
        for i in range(n):
            self.buf.front[i] = 1.0
            self.buf.back[i] = 2.0
        a = self.buf.front[0]
        self.buf.swap()
        b = self.buf.front[0]
        total = 0.0
        total = total + a + b
        return total


@wootin
class SwapPeek:
    """Reads ``buf.front[0]``, then swaps: were the swapped snapshot to
    outlive its call, successive invokes would alternate."""

    buf: SwapBuf

    def __init__(self, buf: SwapBuf):
        self.buf = buf

    def run(self) -> f64:
        first = 0.0
        first = first + self.buf.front[0]
        self.buf.swap()
        return first


@wootin
class ShortRecv:
    """Rank 0 sends ``n`` elements that rank 1 receives into ``n + 1``: the
    communicator refuses the mismatch from inside a host callback."""

    n: i64

    def __init__(self, n: i64):
        self.n = n

    def run(self) -> f64:
        rank = MPI.rank()
        data = wj.zeros(f64, self.n)
        room = wj.zeros(f64, self.n + 1)
        if rank == 0:
            MPI.send(data, 1, 3)
        if rank == 1:
            MPI.recv(room, 0, 3)
        wj.output("room", room)
        return room[0]


@wootin
class FoldEdge:
    """Constant-folding edge cases (``_fold_binop`` regression guests)."""

    def __init__(self):
        pass

    def div_zero_f(self, x: f64) -> f64:
        zero = 0.0
        return x / zero

    def div_zero_i(self, n: i64) -> i64:
        z = 0
        return n // z

    def pow_neg(self) -> f64:
        return 2 ** -1


@wootin
class Scale:
    """One scalar field the translator folds into a constant: rebinding it
    after ``jit()`` would make the artifact disagree with the host."""

    a: f64

    def __init__(self, a: f64):
        self.a = a

    def run(self, n: i64) -> f64:
        return self.a * float(n)

    def sign(self, x: f64) -> f64:
        return x * self.a


@wootin
class FrontSum:
    """Sums ``buf.front``: which array a JitCode reads is visible in its
    result."""

    buf: SwapBuf

    def __init__(self, buf: SwapBuf):
        self.buf = buf

    def run(self) -> f64:
        total = 0.0
        for i in range(len(self.buf.front)):
            total = total + self.buf.front[i]
        return total


@wootin
class Tally:
    """A leaf class until a test registers a subclass of it: finality is
    part of the cache key, and the subclass is registered at run time."""

    n: i64

    def __init__(self, n: i64):
        self.n = n

    def run(self, k: i64) -> f64:
        return float(self.n * k)


@wootin
class OutputLater:
    """Outputs a recorded array and a constant-size local, then overwrites
    both in the same call; ``dup`` is written by two sites, the recorded
    array's last."""

    data: Array(f64)
    n: i64

    def __init__(self, data: Array(f64), n: i64):
        self.data = data
        self.n = n

    def run(self, scale: f64) -> f64:
        buf = wj.zeros(f64, self.n)
        for i in range(self.n):
            buf[i] = float(i) + 0.5
            self.data[i] = self.data[i] * scale
        wj.output("slot", self.data)
        wj.output("local", buf)
        wj.output("dup", buf)
        for i in range(self.n):
            buf[i] = -1.0
            self.data[i] = -2.0
        wj.output("dup", self.data)
        return buf[0] + self.data[0]


@wootin
class RuntimeLength:
    """``dyn`` has a length known only at run time (an element of a
    recorded array); ``mixed`` is written by a constant-size site and by
    ``dyn``'s, in the order ``static_last`` picks."""

    sizes: Array(i64)

    def __init__(self, sizes: Array(i64)):
        self.sizes = sizes

    def run(self, static_last: i64) -> f64:
        m = self.sizes[0]
        dyn = wj.zeros(f64, m)
        fixed = wj.zeros(f64, 3)
        for i in range(m):
            dyn[i] = float(i) * 0.25
        for i in range(3):
            fixed[i] = 7.0
        wj.output("dyn", dyn)
        if static_last > 0:
            wj.output("mixed", dyn)
            wj.output("mixed", fixed)
        else:
            wj.output("mixed", fixed)
            wj.output("mixed", dyn)
        return float(m)


@wootin
class RebindOutput:
    """Outputs a recorded array, rebinds its field to a new array of
    ``k`` elements and outputs it again: the field's recorded length no
    longer holds at the second site."""

    data: Array(f64)

    def __init__(self, data: Array(f64)):
        self.data = data

    def run(self, k: i64) -> f64:
        wj.output("before", self.data)
        self.data = wj.zeros(f64, k)
        for i in range(k):
            self.data[i] = 1.5
        wj.output("after", self.data)
        return float(len(self.data))


@wootin
class ShrinkThenRead:
    """Rebinds its array field to a shorter array, then reads five
    elements through the field: the length captured before the store must
    not prove those reads in bounds."""

    data: Array(f64)

    def __init__(self, data: Array(f64)):
        self.data = data

    def run(self, k: i64) -> f64:
        self.data = wj.zeros(f64, k)
        s = 0.0
        for i in range(5):
            s = s + self.data[i]
        return s


@wootin
class SwapThenSum:
    """Swaps its double buffer, then reads eight elements of the front: in
    bounds when both buffers hold eight, past the end when the back is
    shorter."""

    buf: SwapBuf

    def __init__(self, buf: SwapBuf):
        self.buf = buf

    def run(self) -> f64:
        self.buf.swap()
        total = 0.0
        for i in range(8):
            total = total + self.buf.front[i]
        return total
