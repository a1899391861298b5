"""Simulation configuration + host-side construction helpers.

The composition helpers are *host* code (they build the composed object the
paper's Listing 2 builds in ``main``); only the composed object itself is
guest code.
"""

from __future__ import annotations

import numpy as np

from repro.lang import i64, wootin
from repro.library.stencil.grid import FloatGridDblB
from repro.library.stencil.solver import Dif3DSolver


@wootin
class SimulationConfig:
    """Run parameters carried by the composed application object."""

    steps: i64

    def __init__(self, steps: i64):
        self.steps = steps


def diffusion_coefficients(
    kappa: float = 0.1, dt: float = 0.1, dx: float = 1.0
) -> tuple[float, float, float, float]:
    """Explicit-Euler 7-point diffusion coefficients (stable for the
    defaults: ``6*kappa*dt/dx^2 = 0.06 < 1``)."""
    c = kappa * dt / (dx * dx)
    cc = 1.0 - 6.0 * c
    return cc, c, c, c


def make_dif3d_solver(kappa: float = 0.1, dt: float = 0.1, dx: float = 1.0) -> Dif3DSolver:
    """Compose a 3-D diffusion solver from physical parameters."""
    cc, cw, ch, cd = diffusion_coefficients(kappa, dt, dx)
    return Dif3DSolver(cc, cw, ch, cd)


def make_grid3d(nx: int, ny: int, nz_alloc: int) -> FloatGridDblB:
    """Allocate a zeroed double-buffered grid of ``nx*ny*nz_alloc`` cells
    (``nz_alloc`` includes the two halo/boundary planes)."""
    n = nx * ny * nz_alloc
    return FloatGridDblB(
        np.zeros(n, dtype=np.float32), np.zeros(n, dtype=np.float32)
    )
