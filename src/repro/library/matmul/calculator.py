"""Inner multiplication kernels (``InnerBody`` components).

The inner kernel is a swappable feature: the naive ijk order, the
cache-friendlier ikj order, a one-thread-per-element GPU kernel, and a
shared-memory tiled GPU kernel.  All of them speak to data exclusively
through the :class:`~repro.library.matmul.matrix.Matrix` interface (or raw
arrays on the device side), so the dispatch cost the comparators measure is
the per-element ``get``/``put`` method call — exactly the paper's "abstraction
is not free" setup.
"""

from __future__ import annotations

from repro.cuda import CudaConfig, cuda, dim3
from repro.lang import Array, f64, global_kernel, i64, shared, wj, wootin
from repro.library.matmul.matrix import Matrix, SimpleMatrix


@wootin
class InnerBody:
    """Interface: ``c += a @ b`` over Matrix components (abstract)."""

    def __init__(self):
        pass

    def multiply_add(self, a: Matrix, b: Matrix, c: Matrix) -> None:
        pass


@wootin
class SimpleCalculator(InnerBody):
    """Textbook ijk triple loop."""

    def __init__(self):
        super().__init__()

    def multiply_add(self, a: Matrix, b: Matrix, c: Matrix) -> None:
        n = a.size()
        for i in range(n):
            for j in range(n):
                acc = 0.0
                for k in range(n):
                    acc = acc + a.get(i, k) * b.get(k, j)
                c.put(i, j, c.get(i, j) + acc)


@wootin
class OptimizedCalculator(InnerBody):
    """ikj loop order: streams rows of ``b`` (unit stride), hoists
    ``a[i,k]`` — the hand-optimization the paper's OptimizedCalculator
    performs."""

    def __init__(self):
        super().__init__()

    def multiply_add(self, a: Matrix, b: Matrix, c: Matrix) -> None:
        n = a.size()
        for i in range(n):
            for k in range(n):
                aik = a.get(i, k)
                for j in range(n):
                    c.put(i, j, c.get(i, j) + aik * b.get(k, j))


@wootin
class GpuCalculator(InnerBody):
    """GPU inner kernel: one logical thread per output element."""

    def __init__(self):
        super().__init__()

    @global_kernel
    def mm_kernel(
        self,
        conf: CudaConfig,
        a: Array(f64),
        b: Array(f64),
        c: Array(f64),
        n: i64,
    ) -> None:
        j = cuda.tid_x()
        i = cuda.bid_x()
        acc = 0.0
        for k in range(n):
            acc = acc + a[i * n + k] * b[k * n + j]
        c[i * n + j] = c[i * n + j] + acc

    def multiply_add(self, a: Matrix, b: Matrix, c: Matrix) -> None:
        n = a.size()
        da = cuda.copy_to_gpu(a.raw())
        db = cuda.copy_to_gpu(b.raw())
        dc = cuda.copy_to_gpu(c.raw())
        conf = CudaConfig(dim3(n, 1, 1), dim3(n, 1, 1))
        self.mm_kernel(conf, da, db, dc, n)
        res = cuda.copy_from_gpu(dc)
        craw = c.raw()
        nn = n * n
        for i in range(nn):
            craw[i] = res[i]
        cuda.free_gpu(da)
        cuda.free_gpu(db)
        cuda.free_gpu(dc)
        wj.free(res)


@wootin
class TiledGpuCalculator(InnerBody):
    """Shared-memory tiled GPU kernel (the paper's ``@Shared`` feature).

    Uses ``cuda.sync_threads()``, so it runs on the Python simulated device
    (cooperative per-block threads) and the Python backend; the C backend
    rejects barriers — see DESIGN.md §7.  ``n`` must be a multiple of the
    tile edge.
    """

    tile: i64
    asub: shared(Array(f64))
    bsub: shared(Array(f64))

    def __init__(self, tile: i64, asub: Array(f64), bsub: Array(f64)):
        super().__init__()
        self.tile = tile
        self.asub = asub
        self.bsub = bsub

    @global_kernel
    def mm_kernel(
        self,
        conf: CudaConfig,
        a: Array(f64),
        b: Array(f64),
        c: Array(f64),
        n: i64,
    ) -> None:
        t = self.tile
        tx = cuda.tid_x()
        ty = cuda.tid_y()
        row = cuda.bid_y() * t + ty
        col = cuda.bid_x() * t + tx
        acc = 0.0
        for ph in range(n // t):
            self.asub[ty * t + tx] = a[row * n + ph * t + tx]
            self.bsub[ty * t + tx] = b[(ph * t + ty) * n + col]
            cuda.sync_threads()
            for k in range(t):
                acc = acc + self.asub[ty * t + k] * self.bsub[k * t + tx]
            cuda.sync_threads()
        c[row * n + col] = c[row * n + col] + acc

    def multiply_add(self, a: Matrix, b: Matrix, c: Matrix) -> None:
        n = a.size()
        t = self.tile
        da = cuda.copy_to_gpu(a.raw())
        db = cuda.copy_to_gpu(b.raw())
        dc = cuda.copy_to_gpu(c.raw())
        conf = CudaConfig(dim3(n // t, n // t, 1), dim3(t, t, 1))
        self.mm_kernel(conf, da, db, dc, n)
        res = cuda.copy_from_gpu(dc)
        craw = c.raw()
        nn = n * n
        for i in range(nn):
            craw[i] = res[i]
        cuda.free_gpu(da)
        cuda.free_gpu(db)
        cuda.free_gpu(dc)
        wj.free(res)


@wootin
class BlasCalculator(InnerBody):
    """Lowers the whole multiply to one ``wj.dgemm`` intrinsic call.

    When the C backend was built with a detected CBLAS (``REPRO_BLAS=1``),
    the call becomes ``cblas_dgemm``; otherwise it is the prelude's
    bit-exact fallback loop nest (same accumulation order as the Python
    reference).  Square matrices only — ``Matrix.size()`` is the shared
    edge.
    """

    def __init__(self):
        super().__init__()

    def multiply_add(self, a: Matrix, b: Matrix, c: Matrix) -> None:
        n = a.size()
        wj.dgemm(a.raw(), b.raw(), c.raw(), n, n, n)


def make_calculator() -> InnerBody:
    """The default inner kernel, honouring ``REPRO_BLAS``.

    ``REPRO_BLAS=1`` selects :class:`BlasCalculator` (dgemm lowering);
    otherwise the hand-optimized ikj loop nest.  A plain factory, not
    translated code — component selection happens at guest-construction
    time, like the paper's application wiring.
    """
    from repro.env import blas_enabled

    if blas_enabled():
        return BlasCalculator()
    return OptimizedCalculator()


@wootin
class BlockedCalculator(InnerBody):
    """Cache-blocked ikj kernel: tiles of edge ``bs`` keep the working set
    in cache — a further InnerBody feature point (the paper's library is
    meant to grow exactly this way, §6)."""

    bs: i64

    def __init__(self, bs: i64):
        super().__init__()
        self.bs = bs

    def multiply_add(self, a: Matrix, b: Matrix, c: Matrix) -> None:
        n = a.size()
        bs = self.bs
        for i0 in range(0, n, bs):
            for k0 in range(0, n, bs):
                for j0 in range(0, n, bs):
                    imax = min(i0 + bs, n)
                    kmax = min(k0 + bs, n)
                    jmax = min(j0 + bs, n)
                    for i in range(i0, imax):
                        for k in range(k0, kmax):
                            aik = a.get(i, k)
                            for j in range(j0, jmax):
                                c.put(i, j, c.get(i, j) + aik * b.get(k, j))
