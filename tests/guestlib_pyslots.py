"""Guests for the py backend's array-slot representation tests: which
snapshot arrays run as Python lists, and which must stay ndarrays."""

import numpy as np

from repro import (
    Array, CudaConfig, MPI, cuda, dim3, f32, f64, global_kernel, i64, wj,
    wootin,
)


@wootin
class SwapStencil:
    """Three-point f64 stencil over double buffers swapped by ``FieldStore``
    (so ``front``/``back`` cannot be bound in a prologue), weighted by a
    read-only coefficient array that no store rebinds."""

    front: Array(f64)
    back: Array(f64)
    w: Array(f64)

    def __init__(self, front: Array(f64), back: Array(f64), w: Array(f64)):
        self.front = front
        self.back = back
        self.w = w

    def swap(self) -> None:
        tmp = self.front
        self.front = self.back
        self.back = tmp

    def run(self, steps: i64) -> f64:
        n = len(self.front)
        for t in range(steps):
            for i in range(1, n - 1):
                self.back[i] = (self.w[0] * self.front[i - 1]
                                + self.w[1] * self.front[i]
                                + self.w[2] * self.front[i + 1])
            self.back[0] = self.front[0]
            self.back[n - 1] = self.front[n - 1]
            self.swap()
        total = 0.0
        for i in range(n):
            total = total + self.front[i] * self.front[i]
        wj.output("front", self.front)
        return total


def make_swap_stencil() -> SwapStencil:
    n = 12
    return SwapStencil(np.linspace(0.0, 1.0, n) ** 2, np.zeros(n),
                       np.array([0.25, 0.5, 0.25]))


@wootin
class HaloSlots:
    """``edge`` crosses ``MPI.sendrecv``; ``inner`` is only ever indexed."""

    edge: Array(f64)
    ghost: Array(f64)
    inner: Array(f64)

    def __init__(self, edge: Array(f64), ghost: Array(f64),
                 inner: Array(f64)):
        self.edge = edge
        self.ghost = ghost
        self.inner = inner

    def run(self, rounds: i64) -> f64:
        rank = MPI.rank()
        size = MPI.size()
        for r in range(rounds):
            for i in range(len(self.edge)):
                self.edge[i] = self.inner[i] + float(rank)
            MPI.sendrecv(self.edge, (rank + 1) % size,
                         self.ghost, (rank - 1) % size, 7)
            for i in range(len(self.inner)):
                self.inner[i] = self.inner[i] * 0.5 + self.ghost[i]
        total = 0.0
        for i in range(len(self.inner)):
            total = total + self.inner[i]
        wj.output("inner", self.inner)
        return total


@wootin
class GemmSlots:
    """``a``/``b``/``c`` reach ``wj.dgemm``; ``scale`` is only indexed."""

    a: Array(f64)
    b: Array(f64)
    c: Array(f64)
    scale: Array(f64)

    def __init__(self, a: Array(f64), b: Array(f64), c: Array(f64),
                 scale: Array(f64)):
        self.a = a
        self.b = b
        self.c = c
        self.scale = scale

    def run(self, n: i64) -> f64:
        wj.dgemm(self.a, self.b, self.c, n, n, n)
        total = 0.0
        for i in range(n * n):
            total = total + self.c[i] * self.scale[i % n]
        return total


@wootin
class KernelSlots:
    """``x`` is a kernel-launch argument; ``bias`` is only indexed."""

    x: Array(f64)
    bias: Array(f64)

    def __init__(self, x: Array(f64), bias: Array(f64)):
        self.x = x
        self.bias = bias

    @global_kernel
    def double(self, conf: CudaConfig, x: Array(f64)) -> None:
        i = cuda.bid_x() * cuda.bdim_x() + cuda.tid_x()
        x[i] = x[i] * 2.0

    def run(self, n: i64) -> f64:
        self.double(CudaConfig(dim3(n // 2, 1, 1), dim3(2, 1, 1)), self.x)
        total = 0.0
        for i in range(n):
            total = total + self.x[i] + self.bias[i]
        return total


@wootin
class MixedSlots:
    """One slot per representation rule: f64 and i64 run as lists, f32 stays
    an ndarray (its rounding lives in the NumPy scalar), an empty i64 list
    still comes back as an int64 array, ``cold`` is never indexed in a
    loop."""

    xs: Array(f64)
    ks: Array(i64)
    hs: Array(f32)
    none: Array(i64)
    cold: Array(f64)

    def __init__(self, xs: Array(f64), ks: Array(i64), hs: Array(f32),
                 none: Array(i64), cold: Array(f64)):
        self.xs = xs
        self.ks = ks
        self.hs = hs
        self.none = none
        self.cold = cold

    def run(self, n: i64) -> f64:
        total = self.cold[0]
        for i in range(n):
            self.xs[i] = self.xs[i] / 3.0 + float(self.ks[i])
            self.ks[i] = self.ks[i] * 3 - i
            self.hs[i] = self.hs[i] / 3.0
            total = total + self.xs[i] + self.hs[i]
        for i in range(len(self.none)):
            total = total + float(self.none[i])
        wj.output("xs", self.xs)
        wj.output("ks", self.ks)
        wj.output("hs", self.hs)
        wj.output("none", self.none)
        return total


def make_mixed() -> MixedSlots:
    return MixedSlots(np.arange(5.0), np.arange(5, dtype=np.int64),
                      np.arange(5, dtype=np.float32),
                      np.zeros(0, dtype=np.int64), np.ones(3))


@wootin
class MergedEscape:
    """The array sent is ``a`` or ``b`` by a runtime test: its slot is
    unknown where it escapes, so no slot may become a list."""

    a: Array(f64)
    b: Array(f64)

    def __init__(self, a: Array(f64), b: Array(f64)):
        self.a = a
        self.b = b

    def run(self, n: i64) -> f64:
        total = 0.0
        for i in range(n):
            total = total + self.a[i] - self.b[i]
        pick = self.a
        if total > 0.0:
            pick = self.b
        MPI.bcast(pick, 0)
        return total + pick[0]


@wootin
class ZeroDivisor:
    """Divides by an element read from an array (docs/OPTIMIZER.md: the one
    semantic edge of list slots)."""

    xs: Array(f64)

    def __init__(self, xs: Array(f64)):
        self.xs = xs

    def run(self, n: i64) -> f64:
        total = 0.0
        for i in range(n):
            total = total + 1.0 / self.xs[i]
        return total


@wootin
class OutOfRange:
    """Indexes a list slot below zero, where a bare Python list (like
    NumPy) would silently wrap around."""

    xs: Array(f64)

    def __init__(self, xs: Array(f64)):
        self.xs = xs

    def run(self, n: i64) -> f64:
        total = 0.0
        for i in range(n + 1):
            total = total + self.xs[i - 2]
        return total
