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

The solver's work fields and the matvec's scratch field come from one
workspace per grid shape (the most recent shape only), kept across solves,
so a step faults in no fresh pages for them.  Every solution and every
``apply`` without ``out`` is a new array that shares no memory with it.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

from .grid import Boundary, Grid
# Unused here; perfbench traces `sinegordon.linear_solver.laplacian`.
from .operators import laplacian  # noqa: F401


class NumericalError(RuntimeError):
    """A run failed numerically: divergence, non-convergence, or non-finite values."""


class NonConvergenceError(NumericalError):
    """Raised when an iterative solve fails to reach its tolerance."""


@dataclass(frozen=True)
class SolveReport:
    iterations: int
    final_residual: float
    converged: bool


@lru_cache(maxsize=1)
def _workspace(shape: tuple[int, int]) -> tuple[np.ndarray, ...]:
    """Four work fields of one grid shape: CG's ``r``, ``p``, ``q`` and the product buffer.

    Kept for the most recent shape only.  The product buffer doubles as the
    scratch field of :meth:`SystemOperator.apply`, which never runs while an
    inner product still needs it.
    """
    return tuple(np.empty(shape) for _ in range(4))


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
        """``A w`` in neighbour-sum form ``w + (e*w - bx*Sx(w) - by*Sy(w))``.

        ``e = (tau^2/8)*d^2 + 2*bx + 2*by`` is the diagonal less the identity,
        ``bx = tau^2/(4 h1^2)``, ``by = tau^2/(4 h2^2)``, and ``Sx``/``Sy`` sum
        the two x-/y-neighbours (the y-term vanishes in 1D mode, where both
        y-neighbours are the node itself and ``e`` holds no y-part).  The
        identity is added last and exactly, so the term in brackets maps
        constants (where ``d = 0``, on a square mesh) to exactly zero: a
        rounded diagonal would act as ``(1 + eps) I`` and drift the energy.
        On Dirichlet-exact grids reads past the high edges are zero and the
        pinned low-edge ring of the result is zeroed, as in
        :func:`~sinegordon.operators.laplacian`.

        The result is written into ``out`` (a float field on the grid that
        does not overlap ``w``) and returned; without ``out`` a new field is
        returned.  The neighbour sums go through the workspace's scratch
        field, so no temporary field is allocated.
        """
        grid = self.grid
        w = grid.check_field(w, "w")
        if out is None:
            out = np.empty(grid.shape)
        else:
            grid.check_field(out, "out")
            if np.may_share_memory(out, w):
                raise ValueError("out must not overlap w")
        s = _workspace(grid.shape)[3]
        periodic = grid.boundary is Boundary.PERIODIC
        t2 = self.tau * self.tau
        bx = 0.25 * t2 / grid.h1**2

        # x-neighbour sums along the flattened field, which reads contiguous
        # memory; the two edge columns, whose flat neighbours lie in other
        # rows, are redone after it.
        wf = w.reshape(-1)
        np.add(wf[2:], wf[:-2], out=s.reshape(-1)[1:-1])
        if periodic:
            np.add(w[:, 0], w[:, -2], out=s[:, -1])
            np.add(w[:, 1], w[:, -1], out=s[:, 0])
        else:
            s[:, -1] = w[:, -2]
            s[:, 0] = w[:, 1]
        if grid.is_1d:
            s *= bx
        else:
            by = 0.25 * t2 / grid.h2**2
            if bx != by:
                s *= bx / by
            s[1:-1] += w[2:]
            s[1:-1] += w[:-2]
            s[-1] += w[-2]
            s[0] += w[1]
            if periodic:
                s[-1] += w[0]
                s[0] += w[-1]
            s *= by
        np.multiply(self._excess, w, out=out)
        out -= s
        out += w
        if not periodic:
            out[0, :] = 0.0
            out[:, 0] = 0.0
        return out

    def apply_interior(self, w: np.ndarray) -> np.ndarray:
        """``apply`` to the interior unknowns of ``w``, reading its pinned ring as zero.

        The solver does not need it (its fields are already zero on the ring);
        it gives the interior block for fields whose ring holds edge data.
        """
        return self.apply(np.where(self.grid.interior_mask, w, 0.0))

    def diagonal(self) -> np.ndarray:
        """Exact matrix diagonal ``1 + e``, used as the Jacobi preconditioner."""
        return self._excess + 1.0

    @cached_property
    def _excess(self) -> np.ndarray:
        """The diagonal less the identity, ``(tau^2/8)*d^2 + 2*bx + 2*by``, once per operator.

        The y-Laplacian contributes nothing in 1D mode because both neighbors
        wrap onto the node itself.
        """
        t2 = self.tau * self.tau
        e = self.d * self.d
        e *= 0.125 * t2
        e += 0.5 * t2 / self.grid.h1**2
        if self.grid.n2 > 1:
            e += 0.5 * t2 / self.grid.h2**2
        return e

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
    array in place, so copy it to keep it.  ``callback`` must not start
    another solve on a grid of the same shape: that solve would overwrite the
    work fields of this one.

    The work fields (residual ``r``, search direction ``p``, its image ``q``
    under ``op``, and one product buffer for the inner products) are the
    per-shape workspace, kept across solves and updated in place; once ``r``
    is updated ``q`` is dead and holds the preconditioned residual.  The
    iterate ``x`` is a new array, which the solve returns: the caller owns
    it.  Inner products are ``np.sum`` over the product buffer, whose fixed
    pairwise order keeps repeated runs bit-identical.

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
    r, p, q, prod = _workspace(grid.shape)

    def inner(a, b):
        np.multiply(a, b, out=prod)
        return grid.cell_area * np.sum(prod)

    def norm(w):
        return float(np.sqrt(inner(w, w)))

    target = tol * max(1.0, norm(rhs))
    if x0 is None:
        x = np.zeros(grid.shape)
        np.copyto(r, rhs)
    else:
        x = np.array(x0, dtype=float)
        op.apply(x, out=r)
        np.subtract(rhs, r, out=r)
    res = norm(r)
    if res <= target:
        return x, SolveReport(0, res, True)

    np.divide(r, diag, out=q)
    np.copyto(p, q)
    rz = inner(r, q)
    for k in range(1, max_iter + 1):
        op.apply(p, out=q)
        alpha = rz / inner(p, q)
        x += np.multiply(p, alpha, out=prod)
        r -= np.multiply(q, alpha, out=prod)
        res = norm(r)
        if callback is not None:
            callback(x)
        if not np.isfinite(res):
            raise NonConvergenceError(f"non-finite residual at iteration {k}")
        if res <= target:
            return x, SolveReport(k, res, True)
        np.divide(r, diag, out=q)
        rz_new = inner(r, q)
        p *= rz_new / rz
        p += q
        rz = rz_new
    raise NonConvergenceError(
        f"CG did not reach {target:.3e} within {max_iter} iterations (residual {res:.3e})"
    )
