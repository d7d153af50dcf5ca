"""Finite-difference and averaging operators, plus the quadratized nonlinearity.

All spatial operators are forward differences (or the 5-point Laplacian built
from them) with the boundary mode resolved per grid: periodic grids wrap,
Dirichlet-exact grids read supplied edge values at the high boundary.  Reads
one node below the pinned low edge never occur in the schemes; centered
outputs on that ring are zeroed and documented as not meaningful.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .grid import Boundary, Grid


@dataclass(frozen=True)
class BoundaryValues:
    """Field values on the virtual high edges of a Dirichlet-exact grid.

    ``right`` holds values at ``(x_hi, y_j2)`` for every row, ``top`` at
    ``(x_j1, y_hi)`` for every column.  The 5-point stencil never reads the
    ``(x_hi, y_hi)`` corner.
    """

    right: np.ndarray  # shape (n2,)
    top: np.ndarray    # shape (n1,)

    @staticmethod
    def zeros(grid: Grid) -> "BoundaryValues":
        return BoundaryValues(np.zeros(grid.n2), np.zeros(grid.n1))


def _bv(grid: Grid, bv: BoundaryValues | None) -> BoundaryValues:
    return BoundaryValues.zeros(grid) if bv is None else bv


def shift_x_plus(grid: Grid, U: np.ndarray, bv: BoundaryValues | None = None) -> np.ndarray:
    """Neighbor field ``U[j1+1, j2]`` with the boundary mode resolving ``j1 = n1``."""
    if grid.boundary is Boundary.PERIODIC:
        return np.roll(U, -1, axis=1)
    out = np.empty_like(U)
    out[:, :-1] = U[:, 1:]
    out[:, -1] = _bv(grid, bv).right
    return out


def shift_y_plus(grid: Grid, U: np.ndarray, bv: BoundaryValues | None = None) -> np.ndarray:
    if grid.boundary is Boundary.PERIODIC:
        return np.roll(U, -1, axis=0)
    out = np.empty_like(U)
    out[:-1, :] = U[1:, :]
    out[-1, :] = _bv(grid, bv).top
    return out


def delta_x(grid: Grid, U: np.ndarray, bv: BoundaryValues | None = None) -> np.ndarray:
    """Forward x-difference ``(U[j1+1] - U[j1]) / h1``."""
    grid.check_field(U)
    return (shift_x_plus(grid, U, bv) - U) / grid.h1


def delta_y(grid: Grid, U: np.ndarray, bv: BoundaryValues | None = None) -> np.ndarray:
    """Forward y-difference ``(U[j2+1] - U[j2]) / h2``; identically zero in 1D mode."""
    grid.check_field(U)
    return (shift_y_plus(grid, U, bv) - U) / grid.h2


def laplacian(
    grid: Grid, U: np.ndarray, bv: BoundaryValues | None = None, out: np.ndarray | None = None
) -> np.ndarray:
    """5-point Laplacian (3-point in 1D), written into ``out`` when given.

    ``out`` (a C-contiguous float field on ``grid`` that does not overlap
    ``U``) receives the result and is returned; otherwise a new field is.
    Slice views do all the work, so no temporary field is allocated.  Each
    axis stores or adds its neighbor sum and then subtracts ``U`` twice,
    which maps constants to exactly zero; in 2D the x-part is scaled by
    ``h2^2/h1^2`` before the y-part joins it and the sum is divided by
    ``h2^2``.  The x-neighbor sum runs along the flattened field, which reads
    contiguous memory; the two edge columns, whose flat neighbors lie in
    other rows, are redone after it.

    In 1D mode the y-term is skipped: both y-neighbors are the node itself.
    On Dirichlet-exact grids the high-edge neighbors are read from ``bv``
    (zeros when None) and the pinned low-edge ring of the output is zeroed:
    the steppers never evaluate the equation there.
    """
    U = grid.check_field(U)
    if out is None:
        out = np.empty(grid.shape)
    else:
        grid.check_field(out, "out")
        if np.may_share_memory(out, U):
            raise ValueError("out must not overlap U")
        if not out.flags.c_contiguous:
            raise ValueError("out must be C-contiguous")
    periodic = grid.boundary is Boundary.PERIODIC
    if not periodic:
        bv = _bv(grid, bv)

    Uf = U.reshape(-1)
    np.add(Uf[2:], Uf[:-2], out=out.reshape(-1)[1:-1])
    np.add(U[:, 0] if periodic else bv.right, U[:, -2], out=out[:, -1])
    if periodic:
        np.add(U[:, 1], U[:, -1], out=out[:, 0])
    else:
        out[:, 0] = U[:, 1]  # the pinned ring: its low neighbor reads as zero
    out -= U
    out -= U
    if grid.is_1d:
        out /= grid.h1**2
        return out

    out *= grid.h2**2 / grid.h1**2
    out[1:-1] += U[2:]
    out[1:-1] += U[:-2]
    out[-1] += U[0] if periodic else bv.top
    out[-1] += U[-2]
    out[0] += U[1]
    if periodic:
        out[0] += U[-1]
    out -= U
    out -= U
    out /= grid.h2**2
    if not periodic:
        out[0, :] = 0.0
        out[:, 0] = 0.0
    return out


def h1_norm(grid: Grid, U: np.ndarray) -> float:
    """Discrete H1 norm ``sqrt(l2(U)^2 + l2(dx U)^2 + l2(dy U)^2)``; zero edge data."""
    return float(
        np.sqrt(
            grid.l2(U) ** 2
            + grid.l2(delta_x(grid, U)) ** 2
            + grid.l2(delta_y(grid, U)) ** 2
        )
    )


def extrapolate_half_step(u_n: np.ndarray, u_nm1: np.ndarray) -> np.ndarray:
    """Second-order prediction at the half step: ``(3*u_n - u_nm1) / 2``."""
    return 1.5 * u_n - 0.5 * u_nm1


def time_average(u_np1: np.ndarray, u_n: np.ndarray) -> np.ndarray:
    """Two-level average ``(u_np1 + u_n) / 2``."""
    return 0.5 * (u_np1 + u_n)


def _require_finite(x) -> np.ndarray:
    x = np.asarray(x, dtype=float)
    if not np.all(np.isfinite(x)):
        raise ValueError("non-finite input")
    return x


def coupling(x) -> np.ndarray:
    """Coupling coefficient ``sin(x) / sqrt(2 - cos(x))`` between wave and auxiliary fields.

    The radicand is at least 1, so the closed form is well conditioned for all
    finite arguments; the value is globally bounded by 1.
    """
    x = _require_finite(x)
    return np.sin(x) / np.sqrt(2.0 - np.cos(x))


def coupling_prime(x) -> np.ndarray:
    """First derivative of :func:`coupling`; globally bounded by 3/2."""
    x = _require_finite(x)
    p = 2.0 - np.cos(x)
    return np.cos(x) / np.sqrt(p) - np.sin(x) ** 2 / (2.0 * p**1.5)


def coupling_second(x) -> np.ndarray:
    """Second derivative of :func:`coupling`; globally bounded by 5/2."""
    x = _require_finite(x)
    p = 2.0 - np.cos(x)
    return -coupling(x) - 3.0 * np.sin(2.0 * x) / (4.0 * p**1.5) + 3.0 * np.sin(x) ** 3 / (4.0 * p**2.5)
