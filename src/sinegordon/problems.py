"""The experiment library: initial data, domains, and exact solutions.

Each factory returns an immutable :class:`Problem`.  The test suite checks
that every exact solution reproduces its initial data and satisfies the PDE.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .grid import Boundary, Grid, make_grid
from .operators import BoundaryValues


@dataclass(frozen=True)
class Problem:
    """Initial-value problem descriptor on a rectangle.

    ``f`` and ``g`` are the initial field and velocity as functions of
    ``(x, y)``; ``exact`` (optional) the solution as ``(x, y, t)``;
    ``exact_v`` (optional) its time derivative for velocity-error reporting.
    ``display_transform`` maps the field as the paper draws it (the soliton
    experiments plot ``sin(u/2)``); ``mirror_axes`` names the domain midlines
    the drawn field is reflected across.
    """

    name: str
    x_lo: float
    x_hi: float
    y_lo: float
    y_hi: float
    dim: int
    boundary: Boundary
    f: Callable
    g: Callable
    exact: Callable | None = None
    exact_v: Callable | None = None
    display_transform: Callable | None = None
    mirror_axes: tuple[str, ...] = ()

    def grid(self, n1: int, n2: int | None = None) -> Grid:
        """Mesh the problem domain; ``n2`` defaults to ``n1`` in 2D, 1 in 1D."""
        if self.dim == 1:
            if n2 not in (None, 1):
                raise ValueError(f"{self.name} is one-dimensional; n2 must be 1")
            return make_grid(self.x_lo, self.x_hi, n1=n1, n2=1, boundary=self.boundary)
        if n2 is None:
            n2 = n1  # make_grid rejects an n1 below 2
        elif n2 < 2:
            raise ValueError(f"{self.name} is two-dimensional; n2 must be at least 2")
        return make_grid(self.x_lo, self.x_hi, self.y_lo, self.y_hi,
                         n1=n1, n2=n2, boundary=self.boundary)

    def sample_exact(self, grid: Grid, t: float) -> np.ndarray:
        if self.exact is None:
            raise ValueError(f"problem {self.name!r} has no exact solution")
        X, Y = grid.meshgrid
        return np.asarray(self.exact(X, Y, t), dtype=float)

    def display(self, U: np.ndarray) -> np.ndarray:
        """``U`` as the paper draws it: the display transform, then the mirror."""
        if self.display_transform is not None:
            U = self.display_transform(U)
        if "x" in self.mirror_axes:
            U = U[:, ::-1]
        if "y" in self.mirror_axes:
            U = U[::-1, :]
        return U


class DirichletBoundary:
    """Per-time-level boundary data for Dirichlet-exact runs.

    Supplies virtual values on the high edges and pins the in-array low
    edges from the problem's exact solution.
    """

    def __init__(self, problem: Problem, grid: Grid):
        if problem.exact is None:
            raise ValueError("Dirichlet-exact runs need an exact solution")
        if grid.boundary is not Boundary.DIRICHLET_EXACT:
            raise ValueError("grid does not use Dirichlet-exact boundaries")
        self.problem = problem
        self.grid = grid

    def values(self, t: float) -> BoundaryValues:
        g = self.grid
        right = np.asarray(self.problem.exact(g.x_hi, g.y, t), dtype=float)
        top = np.asarray(self.problem.exact(g.x, g.y_hi, t), dtype=float)
        return BoundaryValues(right=right, top=top)

    def pin(self, U: np.ndarray, t: float) -> np.ndarray:
        """Overwrite the pinned low edges of ``U`` (in place) with exact values."""
        g = self.grid
        U[0, :] = self.problem.exact(g.x, g.y_lo, t)
        U[:, 0] = self.problem.exact(g.x_lo, g.y, t)
        return U


def _sin_half(u):
    return np.sin(0.5 * u)


def double_pole_1d() -> Problem:
    """1D double-pole solution: starts from rest with velocity 4*sech(x)."""

    def f(x, y):
        return np.zeros_like(np.asarray(x, dtype=float))

    def g(x, y):
        return 4.0 / np.cosh(x)

    def exact(x, y, t):
        return 4.0 * np.arctan(t / np.cosh(x))

    def exact_v(x, y, t):
        s = 1.0 / np.cosh(x)
        return 4.0 * s / (1.0 + (t * s) ** 2)

    return Problem("double-pole-1d", -20.0, 20.0, 0.0, 1.0, 1, Boundary.PERIODIC,
                   f, g, exact=exact, exact_v=exact_v)


def line_kink_2d() -> Problem:
    """2D traveling line kink on [-7, 7]^2 with exact Dirichlet boundary data."""

    def f(x, y):
        return 4.0 * np.arctan(np.exp(x + y))

    def g(x, y):
        s = np.asarray(x, dtype=float) + y
        return -4.0 * np.exp(s) / (1.0 + np.exp(2.0 * s))

    def exact(x, y, t):
        return 4.0 * np.arctan(np.exp(x + y - t))

    def exact_v(x, y, t):
        s = np.asarray(x, dtype=float) + y - t
        return -4.0 * np.exp(s) / (1.0 + np.exp(2.0 * s))

    return Problem("line-kink-2d", -7.0, 7.0, -7.0, 7.0, 2, Boundary.DIRICHLET_EXACT,
                   f, g, exact=exact, exact_v=exact_v)


def circular_ring() -> Problem:
    """Circular ring soliton released from rest on [-14, 14]^2."""

    def f(x, y):
        return 4.0 * np.arctan(np.exp(3.0 - np.sqrt(x**2 + y**2)))

    def g(x, y):
        return np.zeros_like(np.asarray(x, dtype=float))

    return Problem("ring", -14.0, 14.0, -14.0, 14.0, 2, Boundary.PERIODIC,
                   f, g, display_transform=_sin_half)


def elliptical_breather() -> Problem:
    """Elliptical breather released from rest on [-7, 7]^2."""

    def f(x, y):
        rho = 0.866 * np.sqrt((x - y) ** 2 / 3.0 + (x + y) ** 2 / 2.0)
        return 4.0 * np.arctan(2.0 / np.cosh(rho))

    def g(x, y):
        return np.zeros_like(np.asarray(x, dtype=float))

    return Problem("breather", -7.0, 7.0, -7.0, 7.0, 2, Boundary.PERIODIC,
                   f, g, display_transform=_sin_half)


def _expanding_ring_fg():
    def phase(x, y):
        return (4.0 - np.sqrt((x + 3.0) ** 2 + (y + 7.0) ** 2)) / 0.436

    def f(x, y):
        return 4.0 * np.arctan(np.exp(phase(x, y)))

    def g(x, y):
        return 4.13 / np.cosh(phase(x, y))

    return f, g


def two_ring_collision() -> Problem:
    """Expanding ring on [-30, 10] x [-21, 7]; output mirrors across the midlines."""
    f, g = _expanding_ring_fg()
    return Problem("collide2", -30.0, 10.0, -21.0, 7.0, 2, Boundary.PERIODIC,
                   f, g, display_transform=_sin_half, mirror_axes=("x", "y"))


def four_ring_collision() -> Problem:
    """Expanding ring on [-30, 10]^2; output mirrors across the midlines."""
    f, g = _expanding_ring_fg()
    return Problem("collide4", -30.0, 10.0, -30.0, 10.0, 2, Boundary.PERIODIC,
                   f, g, display_transform=_sin_half, mirror_axes=("x", "y"))


PROBLEMS: dict[str, Callable[[], Problem]] = {
    "double-pole-1d": double_pole_1d,
    "line-kink-2d": line_kink_2d,
    "ring": circular_ring,
    "breather": elliptical_breather,
    "collide2": two_ring_collision,
    "collide4": four_ring_collision,
}


def get_problem(name: str) -> Problem:
    try:
        return PROBLEMS[name]()
    except KeyError:
        raise KeyError(f"unknown problem {name!r}; available: {sorted(PROBLEMS)}") from None

