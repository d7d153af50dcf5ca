"""Rectangular meshes and discrete norms.

Fields on a grid are plain ``numpy`` arrays of shape ``(n2, n1)``: the second
axis runs along x, the first along y, so flattening in C order enumerates
nodes with j2 outermost and j1 innermost.  In 1D mode the y axis collapses to
``n2 = 1`` with unit extent, which makes every y-difference vanish and reduces
the discrete measure ``h1*h2`` to ``h1``.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from functools import cached_property

import numpy as np


class Boundary(enum.Enum):
    """How stencil reads past the last node are resolved."""

    PERIODIC = "periodic"
    DIRICHLET_EXACT = "dirichlet-exact"


@dataclass(frozen=True)
class Grid:
    """Uniform rectangular mesh with nodes at ``(x_lo + j1*h1, y_lo + j2*h2)``.

    Node indices run over ``0 <= j1 < n1``, ``0 <= j2 < n2``; the high edges
    ``x_hi``/``y_hi`` are not nodes.  Under periodic boundaries they are
    identified with the low edges; under Dirichlet-exact boundaries the low
    edges are pinned in-array nodes and reads at the high edges resolve to
    externally supplied boundary values.

    Node counts need not be even; nothing in the discrete operators or the
    time steppers requires evenness.
    """

    x_lo: float
    x_hi: float
    y_lo: float
    y_hi: float
    n1: int
    n2: int
    boundary: Boundary

    def __post_init__(self):
        if self.x_hi <= self.x_lo:
            raise ValueError(f"x extent must be positive, got [{self.x_lo}, {self.x_hi}]")
        if self.y_hi <= self.y_lo:
            raise ValueError(f"y extent must be positive, got [{self.y_lo}, {self.y_hi}]")
        if self.n1 < 2:
            raise ValueError(f"n1 must be at least 2, got {self.n1}")
        if self.n2 < 1:
            raise ValueError(f"n2 must be 1 (1D mode) or at least 2, got {self.n2}")
        if self.boundary is Boundary.DIRICHLET_EXACT and self.n2 == 1:
            raise ValueError("Dirichlet-exact boundaries require a 2D grid (n2 >= 2)")

    @property
    def h1(self) -> float:
        return (self.x_hi - self.x_lo) / self.n1

    @property
    def h2(self) -> float:
        return (self.y_hi - self.y_lo) / self.n2

    @property
    def shape(self) -> tuple[int, int]:
        return (self.n2, self.n1)

    @property
    def num_nodes(self) -> int:
        return self.n1 * self.n2

    @property
    def cell_area(self) -> float:
        return self.h1 * self.h2

    @property
    def is_1d(self) -> bool:
        return self.n2 == 1

    @cached_property
    def x(self) -> np.ndarray:
        return self.x_lo + np.arange(self.n1) * self.h1

    @cached_property
    def y(self) -> np.ndarray:
        return self.y_lo + np.arange(self.n2) * self.h2

    @property
    def meshgrid(self) -> tuple[np.ndarray, np.ndarray]:
        """Coordinate arrays ``(X, Y)`` of shape ``(n2, n1)``, built on each access.

        Only sampling reads them (initial data, exact solutions), so they are
        not kept: two fields for the life of the grid cost more than a rebuild.
        """
        return np.meshgrid(self.x, self.y)

    def check_field(self, U: np.ndarray, name: str = "field") -> np.ndarray:
        """Validate that ``U`` is a field on this grid; returns ``U``."""
        U = np.asarray(U)
        if U.shape != self.shape:
            raise ValueError(f"{name} has shape {U.shape}, expected {self.shape}")
        return U

    # Inner products, CG's included, are one BLAS dot over the raveled fields:
    # one pass, no product field.  Its rounding depends on the BLAS build and
    # thread count (OpenBLAS splits dots of more than 10,000 nodes across its
    # threads), so results repeat bit for bit on one machine, numpy/BLAS build
    # and BLAS thread count.  np.einsum would not depend on the thread count,
    # but keeps only about two thirds of the saving over a product field and
    # np.sum.  Energy sums in diagnostics keep np.sum.
    def inner(self, U: np.ndarray, V: np.ndarray) -> float:
        """Discrete inner product ``h1*h2 * sum(U*V)``."""
        U = self.check_field(U)
        V = self.check_field(V)
        return self.cell_area * float(np.dot(np.ravel(U), np.ravel(V)))

    def l2(self, U: np.ndarray) -> float:
        """Discrete L2 norm ``sqrt(<U, U>)``."""
        return float(np.sqrt(self.inner(U, U)))

    def linf(self, U: np.ndarray) -> float:
        """Max-norm over nodes."""
        self.check_field(U)
        return float(np.max(np.abs(U)))


def make_grid(
    x_lo: float,
    x_hi: float,
    y_lo: float | None = None,
    y_hi: float | None = None,
    n1: int = 2,
    n2: int = 1,
    boundary: Boundary = Boundary.PERIODIC,
) -> Grid:
    """Build a grid; omit the y range in 1D mode (``n2 = 1``) for unit extent."""
    if n2 == 1:
        if y_lo is None:
            y_lo = 0.0
        if y_hi is None:
            y_hi = y_lo + 1.0
    if y_lo is None or y_hi is None:
        raise ValueError("y_lo and y_hi are required for 2D grids")
    return Grid(float(x_lo), float(x_hi), float(y_lo), float(y_hi), int(n1), int(n2), boundary)

