"""Finite-difference and averaging operators, plus the quadratized nonlinearity.

All spatial operators are forward differences (or the 5-point Laplacian built
from them) with the boundary mode resolved in :func:`_high_edge`: periodic
grids wrap, Dirichlet-exact grids read supplied edge values at the high
boundary.  Reads one node below the pinned low edge never occur in the
schemes; centered outputs on that ring are zeroed and documented as not
meaningful.
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


def _high_edge(grid: Grid, U: np.ndarray, bv: BoundaryValues | None, axis: int):
    """The 1-D line read one node past the high edge along ``axis``.

    The first line of ``U`` when periodic, else ``bv.right`` (x) or
    ``bv.top`` (y), or a read-only line of zeros when ``bv`` is None.
    """
    if grid.boundary is Boundary.PERIODIC:
        return U[:, 0] if axis == 1 else U[0]
    if bv is None:
        return np.broadcast_to(0.0, U.shape[1 - axis])
    return bv.right if axis == 1 else bv.top


def zero_pinned_ring(grid: Grid, U: np.ndarray) -> np.ndarray:
    """Zero the pinned low-edge ring (row 0 and column 0) of ``U`` in place; returns ``U``.

    Only on Dirichlet-exact grids, whose ring holds known edge data rather
    than unknowns; fields on periodic grids are returned unchanged.
    """
    if grid.boundary is Boundary.DIRICHLET_EXACT:
        U[0] = 0.0
        U[:, 0] = 0.0
    return U


def x_neighbour_sum(grid: Grid, U: np.ndarray, bv: BoundaryValues | None,
                    out: np.ndarray) -> np.ndarray:
    """``U[j1+1] + U[j1-1]`` at every node, stored into ``out`` and returned.

    The sum runs along the flattened field, which reads contiguous memory;
    the two edge columns, whose flat neighbours lie in other rows, are redone
    after it.  On Dirichlet-exact grids the pinned low column reads zero past
    the edge.  ``out`` is a C-contiguous field that does not overlap ``U``.
    """
    Uf = U.reshape(-1)
    np.add(Uf[2:], Uf[:-2], out=out.reshape(-1)[1:-1])
    np.add(_high_edge(grid, U, bv, 1), U[:, -2], out=out[:, -1])
    if grid.boundary is Boundary.PERIODIC:
        np.add(U[:, 1], U[:, -1], out=out[:, 0])
    else:
        out[:, 0] = U[:, 1]
    return out


def add_y_neighbour_sum(grid: Grid, U: np.ndarray, bv: BoundaryValues | None,
                        out: np.ndarray) -> None:
    """Add ``U[j2+1] + U[j2-1]`` at every node into ``out``; the edges read as along x.

    Not for 1D grids, where both y-neighbours are the node itself.
    """
    out[1:-1] += U[2:]
    out[1:-1] += U[:-2]
    out[-1] += _high_edge(grid, U, bv, 0)
    out[-1] += U[-2]
    out[0] += U[1]
    if grid.boundary is Boundary.PERIODIC:
        out[0] += U[-1]


def _out_field(grid: Grid, U: np.ndarray, out: np.ndarray | None,
               name: str = "out") -> np.ndarray:
    """``out`` checked as a C-contiguous float field on ``grid`` apart from ``U``, or a new field.

    The one ``out`` check of the operators and :meth:`SystemOperator.apply
    <sinegordon.linear_solver.SystemOperator.apply>`, and the check of
    :func:`~sinegordon.linear_solver.pcg_solve`'s start field ``x``; ``U`` is
    their input, and ``name`` the argument's name in the errors.
    """
    if out is None:
        return np.empty(grid.shape)
    grid.check_field(out, name)
    if out.dtype != float:
        raise ValueError(f"{name} must be a float field")
    if np.may_share_memory(out, U):
        raise ValueError(f"{name} must not overlap its input")
    if not out.flags.c_contiguous:
        raise ValueError(f"{name} must be C-contiguous")
    return out


def delta_x(grid: Grid, U: np.ndarray, bv: BoundaryValues | None = None,
            out: np.ndarray | None = None) -> np.ndarray:
    """Forward x-difference ``(U[j1+1] - U[j1]) / h1``, into ``out`` when given.

    ``out`` is a C-contiguous float field on the grid that does not overlap
    ``U``; without it a new field is returned.  As in
    :func:`x_neighbour_sum`, the difference runs along the flattened field
    and the high-edge column is redone after it.
    """
    U = grid.check_field(U)
    out = _out_field(grid, U, out)
    Uf = U.reshape(-1)
    np.subtract(Uf[1:], Uf[:-1], out=out.reshape(-1)[:-1])
    np.subtract(_high_edge(grid, U, bv, 1), U[:, -1], out=out[:, -1])
    out /= grid.h1
    return out


def delta_y(grid: Grid, U: np.ndarray, bv: BoundaryValues | None = None,
            out: np.ndarray | None = None) -> np.ndarray:
    """Forward y-difference ``(U[j2+1] - U[j2]) / h2``, into ``out`` as :func:`delta_x`.

    Identically zero in 1D mode on periodic grids.
    """
    U = grid.check_field(U)
    out = _out_field(grid, U, out)
    np.subtract(U[1:], U[:-1], out=out[:-1])
    np.subtract(_high_edge(grid, U, bv, 0), U[-1], out=out[-1])
    out /= grid.h2
    return out


def laplacian(
    grid: Grid, U: np.ndarray, bv: BoundaryValues | None = None, out: np.ndarray | None = None
) -> np.ndarray:
    """5-point Laplacian (3-point in 1D), written into ``out`` when given.

    ``out`` (a C-contiguous float field on ``grid`` that does not overlap
    ``U``) receives the result and is returned; otherwise a new field is.
    The neighbour sums write into ``out`` through slice views, so no
    temporary field is allocated.  Each axis stores or adds its neighbour sum
    and then subtracts ``U`` twice, which maps constants to exactly zero; in
    2D the x-part is scaled by ``h2^2/h1^2`` before the y-part joins it and
    the sum is divided by ``h2^2``.

    In 1D mode the y-term is skipped: both y-neighbors are the node itself.
    On Dirichlet-exact grids the high-edge neighbors are read from ``bv``
    (zeros when None) and the pinned low-edge ring of the output is zeroed:
    the steppers never evaluate the equation there.
    """
    U = grid.check_field(U)
    out = _out_field(grid, U, out)
    x_neighbour_sum(grid, U, bv, out)
    out -= U
    out -= U
    if grid.is_1d:
        out /= grid.h1**2
        return out

    out *= grid.h2**2 / grid.h1**2
    add_y_neighbour_sum(grid, U, bv, out)
    out -= U
    out -= U
    out /= grid.h2**2
    return zero_pinned_ring(grid, out)


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


def coupling(x, out: np.ndarray | None = None) -> np.ndarray:
    """Coupling coefficient ``sin(x) / sqrt(2 - cos(x))`` between wave and auxiliary fields.

    Evaluated on the half-angle tangent ``t = tan(x/2)``, through the exact
    identities ``sin x = 2t/(1 + t^2)`` and ``2 - cos x = (1 + 3t^2)/(1 + t^2)``:

        coupling(x) = 2t / sqrt((1 + t^2)(1 + 3t^2)) = t / sqrt(1/4 + t^2 (1 + 3t^2/4))

    One tangent costs about a third of a sine or a cosine.  Near odd
    multiples of pi, ``t`` grows large and the value tends to 0 like
    ``2/(sqrt(3) |t|)``; ``|tan|`` of a finite double stays far below the
    1e77 at which ``t^4`` would overflow, so no guard is needed.  The value
    is globally bounded by 1.

    The result is written into ``out`` (a float array of ``x``'s shape, which
    may be ``x`` itself) and returned; without ``out`` a new array is
    returned, or a scalar for scalar input.  Raises ``ValueError`` on
    non-finite input.
    """
    x = _require_finite(x)
    t = _coupling(x, np.empty_like(x) if out is None else out)
    return t if out is not None or t.ndim else t[()]


def _coupling(x: np.ndarray, out: np.ndarray) -> np.ndarray:
    """:func:`coupling` of a float array already known to be finite, into ``out``.

    Skips the finiteness pass, for callers whose input is built from
    validated fields; ``out`` may be ``x``.
    """
    t = np.multiply(x, 0.5, out=out)
    np.tan(t, out=t)
    radicand = np.multiply(t, t, out=np.empty_like(t))
    radicand *= 0.75
    radicand += 1.0
    radicand *= t
    radicand *= t
    radicand += 0.25
    t /= np.sqrt(radicand, out=radicand)
    return t


def one_minus_cos(x: np.ndarray, out: np.ndarray, scratch: np.ndarray) -> np.ndarray:
    """``1 - cos x`` as ``2t^2 / (1 + t^2)`` with ``t = tan(x/2)``, into ``out`` through ``scratch``.

    An exact identity, evaluated with one tangent and free of the
    cancellation of ``1 - cos x`` near ``x = 0``.  ``out`` may be ``x``;
    ``scratch`` is a third field.
    """
    t_sq = np.multiply(x, 0.5, out=out)
    np.tan(t_sq, out=t_sq)
    t_sq *= t_sq
    t_sq /= np.add(t_sq, 1.0, out=scratch)
    t_sq *= 2.0
    return t_sq


def sin_cos(x: np.ndarray, sin_out: np.ndarray, cos_out: np.ndarray, scale: float) -> None:
    """``scale * sin x`` into ``sin_out`` and ``scale * cos x`` into ``cos_out``, from one tangent.

    With ``t = tan(x/2)``, the exact identities ``sin x = 2t/(1 + t^2)`` and
    ``cos x = 2/(1 + t^2) - 1`` take one tangent instead of a sine and a
    cosine; ``scale`` enters as ``2 scale`` and ``- scale``, in no extra pass.
    Both are accurate to a few ulps of ``scale`` in absolute terms (``cos``
    loses relative accuracy near its zeros, where it cancels), and ``x = 0``
    gives exactly 0 and ``scale``.  ``x`` may be either output field.
    """
    t = np.multiply(x, 0.5, out=sin_out)
    np.tan(t, out=t)
    q = np.multiply(t, t, out=cos_out)
    q += 1.0
    np.divide(2.0 * scale, q, out=q)
    t *= q
    q -= scale
