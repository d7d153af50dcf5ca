"""Matrix-free implicit-step operator and its Jacobi-preconditioned CG solver.

The operator ``A = I - (tau^2/4) * Lap + (tau^2/8) * diag(d)^2`` is symmetric
positive definite with spectrum bounded below by 1, so the step solve can
never fail for definiteness reasons; CG with the exact (matrix-free) Jacobi
diagonal converges in a handful of iterations at the time-step/mesh ratios the
experiments use.

Both boundary modes share the operator and the solver.  On Dirichlet-exact
grids the unknowns are the interior nodes: the caller lifts the known edge
data into the right-hand side and passes fields that are zero on the pinned
low-edge ring, and the solve keeps them zero there.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .grid import Grid
from .operators import laplacian


class NumericalError(RuntimeError):
    """A run failed numerically: divergence, non-convergence, or non-finite values."""


class NonConvergenceError(NumericalError):
    """Raised when an iterative solve fails to reach its tolerance."""


@dataclass(frozen=True)
class SolveReport:
    iterations: int
    final_residual: float
    converged: bool


@dataclass(frozen=True)
class SystemOperator:
    """The implicit-step system ``A = I - (tau^2/4)*Lap + (tau^2/8)*diag(d)^2``.

    ``d`` is the coupling coefficient evaluated at the predicted half-step
    field, one value per node.  The Laplacian reads zeros past the high edges
    of a Dirichlet-exact grid and zeroes the pinned low-edge ring of its
    output, so there ``A`` maps fields that are zero on the ring to fields
    that are zero on it: the system of the interior unknowns with homogeneous
    edge data.
    """

    grid: Grid
    tau: float
    d: np.ndarray

    def __post_init__(self):
        self.grid.check_field(self.d, "d")
        if self.tau < 0:
            raise ValueError("tau must be nonnegative")

    def apply(self, w: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        """Full-field application ``coef*w - (tau^2/4)*Lap(w)``, ``coef = 1 + (tau^2/8)*d^2``.

        The Laplacian is written into ``out`` (a float field on the grid that
        does not overlap ``w``), which is then updated in place and returned;
        without ``out`` a new field is returned.  ``coef*w`` is the one
        temporary field.
        """
        self.grid.check_field(w, "w")
        out = laplacian(self.grid, w, out=out)
        out *= -0.25 * self.tau * self.tau
        out += self._coef * w
        return out

    def apply_interior(self, w: np.ndarray) -> np.ndarray:
        """``apply`` to the interior unknowns of ``w``, reading its pinned ring as zero.

        The solver does not need it (its fields are already zero on the ring);
        it gives the interior block for fields whose ring holds edge data.
        """
        return self.apply(np.where(self.grid.interior_mask, w, 0.0))

    def diagonal(self) -> np.ndarray:
        """Exact matrix diagonal, used as the Jacobi preconditioner.

        The y-Laplacian contributes nothing in 1D mode because both neighbors
        wrap onto the node itself.
        """
        t2 = self.tau * self.tau
        diag = self._coef + 0.5 * t2 / self.grid.h1**2
        if self.grid.n2 > 1:
            diag = diag + 0.5 * t2 / self.grid.h2**2
        return diag

    @cached_property
    def _coef(self) -> np.ndarray:
        """The identity-plus-coupling part ``1 + (tau^2/8)*d^2``, once per operator."""
        t2 = self.tau * self.tau
        return 1.0 + 0.125 * t2 * (self.d * self.d)

    @cached_property
    def _jacobi(self) -> np.ndarray:
        """:meth:`diagonal`, computed once per operator for every solve on it."""
        return self.diagonal()


def default_max_iter(grid: Grid) -> int:
    """10 * sqrt(node count), bounding pathological solves."""
    return max(10, int(10 * np.sqrt(grid.num_nodes)))


def pcg_solve(
    op: SystemOperator,
    rhs: np.ndarray,
    tol: float = 1e-14,
    max_iter: int | None = None,
    x0: np.ndarray | None = None,
    callback=None,
) -> tuple[np.ndarray, SolveReport]:
    """Solve ``op @ x = rhs`` by Jacobi-preconditioned CG on the grid inner product.

    Stops when ``l2(rhs - A x) <= tol * max(1, l2(rhs))`` and raises
    :class:`NonConvergenceError` after ``max_iter`` iterations (default
    :func:`default_max_iter`).  ``callback`` receives the live iterate after
    each update, for convergence-history tests; the solve keeps updating that
    array in place, so copy it to keep it.

    The work fields (residual, preconditioned residual, search direction, its
    image under ``op`` and one product buffer for the inner products) are
    allocated once per solve and updated in place.  Inner products are
    ``np.sum`` over the product buffer, whose fixed pairwise order keeps
    repeated runs bit-identical.

    On Dirichlet-exact grids ``rhs`` and ``x0`` must be zero on the pinned
    low-edge ring; the caller moves the known boundary contributions into
    ``rhs``.  ``op`` and the Jacobi step (``diag >= 1``) keep a zero ring
    zero, so every iterate and the solution are zero there as well.
    """
    grid = op.grid
    grid.check_field(rhs, "rhs")
    if tol <= 0:
        raise ValueError("tol must be positive")
    if max_iter is None:
        max_iter = default_max_iter(grid)
    diag = op._jacobi
    prod = np.empty(grid.shape)

    def inner(a, b):
        np.multiply(a, b, out=prod)
        return grid.cell_area * np.sum(prod)

    def norm(w):
        return float(np.sqrt(inner(w, w)))

    target = tol * max(1.0, norm(rhs))
    if x0 is None:
        x = np.zeros(grid.shape)
        r = np.array(rhs, dtype=float)
    else:
        x = np.array(x0, dtype=float)
        r = op.apply(x)
        np.subtract(rhs, r, out=r)
    res = norm(r)
    if res <= target:
        return x, SolveReport(0, res, True)

    z = r / diag
    p = z.copy()
    Ap = np.empty(grid.shape)
    rz = inner(r, z)
    for k in range(1, max_iter + 1):
        op.apply(p, out=Ap)
        alpha = rz / inner(p, Ap)
        x += np.multiply(p, alpha, out=prod)
        r -= np.multiply(Ap, alpha, out=prod)
        res = norm(r)
        if callback is not None:
            callback(x)
        if not np.isfinite(res):
            raise NonConvergenceError(f"non-finite residual at iteration {k}")
        if res <= target:
            return x, SolveReport(k, res, True)
        np.divide(r, diag, out=z)
        rz_new = inner(r, z)
        p *= rz_new / rz
        p += z
        rz = rz_new
    raise NonConvergenceError(
        f"CG did not reach {target:.3e} within {max_iter} iterations (residual {res:.3e})"
    )
