"""Hand-written C reference kernels (the paper's *C* comparator).

"implements the same algorithm as the WootinJ equivalence but without
considering code reuse or modularity of components" (§4) — flat loops over
raw pointers, compiled by the same compiler at the same optimization level
as the FULL translation, loaded once and called through ctypes.
"""

from __future__ import annotations

import ctypes as ct
from functools import lru_cache

import numpy as np

from repro.backends.base import OptLevel
from repro.backends.cbackend.build import build_shared_object

__all__ = ["diff3d_sweep", "diff3d_interior_sum", "mm_ikj", "fill_sine"]

_C_SOURCE = r"""
#include <stdint.h>
#include <math.h>

void diff3d_sweep(const float* src, float* dst,
                  int64_t nx, int64_t ny, int64_t nz,
                  float cc, float cw, float ch, float cd) {
    int64_t pl = nx * ny;
    for (int64_t z = 1; z < nz - 1; z++)
        for (int64_t y = 1; y < ny - 1; y++)
            for (int64_t x = 1; x < nx - 1; x++) {
                int64_t i = x + nx * (y + ny * z);
                dst[i] = cc * src[i]
                       + cw * (src[i - 1] + src[i + 1])
                       + ch * (src[i - nx] + src[i + nx])
                       + cd * (src[i - pl] + src[i + pl]);
            }
}

double diff3d_interior_sum(const float* a,
                           int64_t nx, int64_t ny, int64_t nz) {
    double total = 0.0;
    for (int64_t z = 1; z < nz - 1; z++)
        for (int64_t y = 1; y < ny - 1; y++)
            for (int64_t x = 1; x < nx - 1; x++)
                total += a[x + nx * (y + ny * z)];
    return total;
}

void fill_sine(float* a, int64_t nx, int64_t ny, int64_t nzl,
               int64_t nranks, int64_t rank) {
    double pi = 3.141592653589793;
    int64_t nzg = nzl * nranks;
    for (int64_t z = 0; z < nzl + 2; z++) {
        int64_t gz = rank * nzl + z - 1;
        for (int64_t y = 0; y < ny; y++)
            for (int64_t x = 0; x < nx; x++)
                a[x + nx * (y + ny * z)] = (float)(
                    sin(pi * (x + 1.0) / (nx + 1.0))
                  * sin(pi * (y + 1.0) / (ny + 1.0))
                  * sin(pi * (gz + 1.0) / (nzg + 1.0)));
    }
}

void mm_ikj(const double* a, const double* b, double* c, int64_t n) {
    for (int64_t i = 0; i < n; i++)
        for (int64_t k = 0; k < n; k++) {
            double aik = a[i * n + k];
            for (int64_t j = 0; j < n; j++)
                c[i * n + j] += aik * b[k * n + j];
        }
}
"""


@lru_cache(maxsize=1)
def _lib() -> ct.CDLL:
    so_path, _ = build_shared_object(_C_SOURCE, OptLevel.FULL)
    lib = ct.CDLL(str(so_path))
    f32p = np.ctypeslib.ndpointer(np.float32, flags="C_CONTIGUOUS")
    f64p = np.ctypeslib.ndpointer(np.float64, flags="C_CONTIGUOUS")
    i64 = ct.c_int64
    lib.diff3d_sweep.argtypes = [f32p, f32p, i64, i64, i64,
                                 ct.c_float, ct.c_float, ct.c_float, ct.c_float]
    lib.diff3d_sweep.restype = None
    lib.diff3d_interior_sum.argtypes = [f32p, i64, i64, i64]
    lib.diff3d_interior_sum.restype = ct.c_double
    lib.fill_sine.argtypes = [f32p, i64, i64, i64, i64, i64]
    lib.fill_sine.restype = None
    lib.mm_ikj.argtypes = [f64p, f64p, f64p, i64]
    lib.mm_ikj.restype = None
    return lib


def diff3d_sweep(src, dst, nx, ny, nz, cc, cw, ch, cd) -> None:
    """One 7-point Jacobi sweep of the hand-written C kernel."""
    _lib().diff3d_sweep(src, dst, nx, ny, nz, cc, cw, ch, cd)


def diff3d_interior_sum(a, nx, ny, nz) -> float:
    """Sum of the interior cells (checksum), in C."""
    return float(_lib().diff3d_interior_sum(a, nx, ny, nz))


def fill_sine(a, nx, ny, nzl, nranks, rank) -> None:
    """SineGen-equivalent initial data, in C (bit-compatible fields)."""
    _lib().fill_sine(a, nx, ny, nzl, nranks, rank)


def mm_ikj(a, b, c, n) -> None:
    """c += a @ b over flat row-major buffers (ikj order), in C."""
    _lib().mm_ikj(a, b, c, n)
