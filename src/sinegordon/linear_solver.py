"""Matrix-free implicit-step operator and its preconditioned CG solver.

The operator ``A = I - (tau^2/4) * Lap + (tau^2/8) * diag(d)^2`` is symmetric
positive definite with spectrum bounded below by 1, so the step solve can
never fail for definiteness reasons.

The preconditioner is chosen per operator from its grid and ``tau`` alone, so
both schemes always get the same class of solver on one configuration:

- Periodic 2D grids with ``tau^2 (1/h1^2 + 1/h2^2) >= 0.5`` (``tau/h >= 0.5``
  on square meshes) use the *spectral* preconditioner ``P``: the exact
  inverse of the circulant ``I - (tau^2/4) Lap``, applied by a real 2D FFT
  (T. F. Chan's optimal circulant for ``d = 0``).  Since ``|d| <= 1`` the
  preconditioned spectrum lies in ``[1, 1 + tau^2/8]``, so a solve takes a
  few iterations at any ``tau/h``.
- Every other grid (1D, Dirichlet-exact, or small ``tau/h``) uses the exact
  *Jacobi* diagonal, which wins there: an FFT pair costs more than the few
  cheap iterations it saves.  It is computed once per operator, on the
  Jacobi path alone.

Where ``d`` is None or identically zero (the ep-fds operator), ``A`` is the
circulant that ``P`` inverts exactly, so a spectral solve is direct: ``x = P
rhs``, checked by one true residual.  That is CG's first step from zero (with
an exact ``P`` its step length is 1), so it is reported as one iteration, and
it ignores the start field.  Should its true residual miss the target, CG goes
on from ``x``.  The path is chosen by the matrix, not by how the operator was
built: ``d=None`` and ``d=zeros`` solve bit-identically.

On large steps, ``tau^2 (1/h1^2 + 1/h2^2) >= 0.5`` (``tau^2/h1^2`` in 1D: the
rule that selects the spectral path), a solve on either path accepts its
result only after checking the true residual ``rhs - A x``, and reports it.
Once the recursive residual meets the target, one ``op.apply`` recomputes the
true one.  If that misses the target, it replaces the recursive residual and
the search restarts from it (``p = z``); a replaced residual that no longer
decreases means the solve has stagnated above the target.
``numpy.fft`` is imported on first use of the spectral path only, so Jacobi
runs never load it.

Both boundary modes share the operator and the solver.  On Dirichlet-exact
grids the unknowns are the interior nodes: the caller moves the known edge
data into the right-hand side and passes fields that are zero on the pinned
low-edge ring, and the solve keeps them zero there.

The solver's work fields and the matvec's scratch field come from one
workspace per grid shape (the most recent shape only), kept across solves,
so a step faults in no fresh pages for them.  The workspace's fourth buffer,
the scratch field, also holds the complex ``rfft2`` half-spectrum of the
spectral preconditioner, since the scratch field is idle while the transform
runs; the spectral symbol is kept for the most recent ``(grid, tau)``.  Every
solution without a start field and every ``apply`` without ``out`` is a new
array that shares no memory with them.

The solver knows no tolerance of its own: each caller passes the absolute
residual target its step needs (see :mod:`~sinegordon.schemes`).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache, partial

import numpy as np

from .grid import Boundary, Grid
# `laplacian` is unused here; perfbench traces `sinegordon.linear_solver.laplacian`.
from .operators import (_out_field, add_y_neighbour_sum, laplacian,  # noqa: F401
                        x_neighbour_sum, zero_pinned_ring)


class NumericalError(RuntimeError):
    """A run failed numerically: divergence, non-convergence, or non-finite values."""


class NonConvergenceError(NumericalError):
    """Raised when an iterative solve fails to reach its target."""


@dataclass(frozen=True)
class SolveReport:
    """One CG solve: its iterations, final residual and preconditioner.

    ``preconditioner`` is ``"jacobi"`` or ``"spectral"``.  On large steps
    (see the module docstring) ``final_residual`` is the true residual
    ``l2(rhs - A x)``, on either path.
    """

    iterations: int
    final_residual: float
    converged: bool
    preconditioner: str


@lru_cache(maxsize=1)
def _workspace(shape: tuple[int, int]) -> tuple[np.ndarray, ...]:
    """CG's ``r``, ``p`` and ``q``, a scratch field and the ``rfft2`` half-spectrum of a shape.

    Kept for the most recent shape only.  The scratch field takes the
    products of CG's two axpys and the neighbour sums of
    :meth:`SystemOperator.apply`; inner products need no field.  It is dead
    whenever the spectral preconditioner runs, so it shares one buffer of
    ``max(n2*n1, 2*n2*(n1//2 + 1))`` floats with the complex half-spectrum
    of shape ``(n2, n1//2 + 1)``, which that preconditioner transforms in.
    No solve reads what an earlier one left in these fields, so the steps
    borrow them between solves.
    """
    n2, n1 = shape
    half = (n2, n1 // 2 + 1)
    buf = np.empty(max(n2 * n1, 2 * half[0] * half[1]))
    scratch = buf[:n2 * n1].reshape(shape)
    spectrum = buf[:2 * half[0] * half[1]].view(complex).reshape(half)
    return np.empty(shape), np.empty(shape), np.empty(shape), scratch, spectrum


# Spectral above this value of tau^2 (1/h1^2 + 1/h2^2), Jacobi below.  Whole
# li-leps steps on ring with the path forced, median ms of a run's first 30
# steps (CG iterations per step in brackets), single runs on a shared 2-core
# host at one BLAS thread:
#
#   grid  tau/h  Jacobi       spectral
#   200²  0.071   2.74 (4.0)   3.62 (2.0)
#   200²  0.25    3.64 (7.0)   4.82 (3.0)
#   200²  0.5     4.67 (11.0)  5.05 (3.5)
#   320²  0.071   7.10 (4.0)   8.72 (2.0)
#   320²  0.25    9.70 (7.0)  10.83 (3.0)
#   320²  0.5    12.10 (10.7)  8.83 (3.0)
#
# ep-fds' direct sweeps cost less from tau/h 0.25 at 200², but below this
# value they drift more than its Jacobi sweeps, so one value serves both.
# In 1D the FFT lost or tied up to tau/h 4, so 1D grids stay on Jacobi.  The
# same value marks the large steps whose solves check their true residual.
_LARGE_STEP_RATIO = 0.5


def _is_large_step(grid: Grid, tau: float) -> bool:
    """Whether ``tau^2 (1/h1^2 + 1/h2^2)`` (``tau^2/h1^2`` in 1D) reaches 0.5."""
    inv_h_sq = 1.0 / grid.h1**2
    if not grid.is_1d:
        inv_h_sq += 1.0 / grid.h2**2
    return tau * tau * inv_h_sq >= _LARGE_STEP_RATIO


def _is_spectral(grid: Grid, tau: float) -> bool:
    """Whether solves on ``(grid, tau)`` use the spectral preconditioner."""
    return grid.boundary is Boundary.PERIODIC and not grid.is_1d and _is_large_step(grid, tau)


@lru_cache(maxsize=1)
def _spectral(shape: tuple[int, int], h1: float, h2: float, tau: float) -> np.ndarray:
    """Symbol of ``(I - (tau^2/4) Lap)^-1`` over the ``rfft2`` half-spectrum.

    The periodic 5-point Laplacian has eigenvalues ``-lam`` with ``lam =
    (4/h1^2) sin^2(pi k1/n1) + (4/h2^2) sin^2(pi k2/n2)``.  The symbol is real,
    of shape ``(n2, n1//2 + 1)``.  Kept for the most recent grid and ``tau``,
    which both schemes share.  The key is plain values: a ``Grid`` key would
    keep that grid and its cached arrays alive after its run.
    """
    n2, n1 = shape
    k1 = np.arange(n1 // 2 + 1)
    k2 = np.arange(n2)[:, None]
    lam = (4.0 / h1**2) * np.sin(np.pi * k1 / n1) ** 2
    lam = lam + (4.0 / h2**2) * np.sin(np.pi * k2 / n2) ** 2
    return 1.0 / (1.0 + 0.25 * tau * tau * lam)


def _spectral_solve(symbol: np.ndarray, r: np.ndarray, out: np.ndarray) -> np.ndarray:
    """``(I - (tau^2/4) Lap)^-1 r`` into ``out``, through the workspace's half-spectrum.

    Allocates nothing: the real and imaginary parts are scaled by the real
    symbol separately (a float-by-complex product would allocate a casting
    buffer), and the inverse transform runs as a full FFT along y in place
    and a real one along x into ``out``, since ``irfft2`` ignores ``out``.
    The half-spectrum shares memory with the workspace's scratch field, so
    neither ``r`` nor ``out`` may be that field.
    """
    c = _workspace(r.shape)[4]
    fft = np.fft
    fft.rfft2(r, out=c)
    c.real *= symbol
    c.imag *= symbol
    fft.ifft(c, axis=0, out=c)
    fft.irfft(c, n=r.shape[1], axis=1, out=out)
    return out


@dataclass(frozen=True)
class SystemOperator:
    """The implicit-step system ``A = I - (tau^2/4)*Lap + (tau^2/8)*diag(d)^2``.

    ``d`` is the coupling coefficient evaluated at the predicted half-step
    field, one value per node; None means ``d = 0`` (the ep-fds system), which
    needs no field.  The Laplacian reads zeros past the high edges of a
    Dirichlet-exact grid and zeroes the pinned low-edge ring of its output, so
    there ``A`` maps fields that are zero on the ring to fields that are zero
    on it: the system of the interior unknowns with homogeneous edge data.
    """

    grid: Grid
    tau: float
    d: np.ndarray | None = None

    def __post_init__(self):
        if self.d is not None:
            self.grid.check_field(self.d, "d")
        if not 0 <= self.tau < np.inf:
            raise ValueError(f"tau must be finite and nonnegative, got {self.tau}")

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

        The result is written into ``out`` (a C-contiguous float field on the
        grid that does not overlap ``w``) and returned; without ``out`` a new
        field is returned.  The neighbour sums are the kernels of
        :mod:`~sinegordon.operators`, written into the workspace's scratch
        field, so no temporary field is allocated.
        """
        grid = self.grid
        w = grid.check_field(w, "w")
        out = _out_field(grid, w, out)
        s = x_neighbour_sum(grid, w, None, _workspace(grid.shape)[3])
        t2 = self.tau * self.tau
        bx = 0.25 * t2 / grid.h1**2
        if grid.is_1d:
            s *= bx
        else:
            by = 0.25 * t2 / grid.h2**2
            if bx != by:
                s *= bx / by
            add_y_neighbour_sum(grid, w, None, s)
            s *= by
        np.multiply(self._excess, w, out=out)
        out -= s
        out += w
        return zero_pinned_ring(grid, out)

    def apply_interior(self, w: np.ndarray) -> np.ndarray:
        """``apply`` to the interior unknowns of ``w``, reading its pinned ring as zero.

        The solver does not need it (its fields are already zero on the ring);
        it gives the interior block for fields whose ring holds edge data.
        """
        return self.apply(zero_pinned_ring(self.grid, np.array(w, dtype=float)))

    def diagonal(self) -> np.ndarray | float:
        """Exact matrix diagonal ``1 + e``, the Jacobi preconditioner; a float without ``d``."""
        return self._excess + 1.0

    @cached_property
    def _excess(self) -> np.ndarray | float:
        """The diagonal less the identity, ``(tau^2/8)*d^2 + 2*bx + 2*by``, once per operator.

        The y-Laplacian contributes nothing in 1D mode because both neighbors
        wrap onto the node itself.  Without ``d`` it is the float ``2*bx + 2*by``.
        """
        t2 = self.tau * self.tau
        if self.d is None:
            e = 0.0
        else:
            e = self.d * self.d
            e *= 0.125 * t2
        e += 0.5 * t2 / self.grid.h1**2
        if not self.grid.is_1d:
            e += 0.5 * t2 / self.grid.h2**2
        return e

    @cached_property
    def _jacobi(self) -> np.ndarray | float:
        """:meth:`diagonal`, computed on the first Jacobi solve and kept for every later one."""
        return self.diagonal()


def pcg_solve(
    op: SystemOperator,
    rhs: np.ndarray,
    target: float,
    x: np.ndarray | None = None,
) -> tuple[np.ndarray, SolveReport]:
    """Solve ``op @ x = rhs`` by preconditioned CG on the grid inner product.

    The preconditioner, the direct start of d-free spectral solves and the
    true-residual check of large steps follow the module docstring; the
    report names the preconditioner.  The solve stops when ``l2(rhs - A x)
    <= target``, judged on the recursively updated residual, and on large
    steps on the true one as well.

    Given ``x`` (a C-contiguous float field on the grid that does not overlap
    ``rhs``), the solve starts from it, iterates in place and returns it.
    Without ``x`` it starts from zero, whose residual is ``rhs`` itself (no
    matvec), in a new array, which the caller owns.  Neither ``rhs`` nor
    ``x`` may be a field of the workspace, which holds CG's ``r``, ``p`` and
    ``q``.

    :class:`NonConvergenceError` is raised, naming the true and the recursive
    residual, when a large step's true residual stagnates above the target;
    it is raised too when the residual turns non-finite, and after ``10 *
    sqrt(node count)`` iterations (at least 10).  A right-hand side whose norm
    is not finite raises :class:`NumericalError` before any iteration, and a
    ``target`` that is not finite and positive raises ``ValueError``.

    On Dirichlet-exact grids ``rhs`` and ``x`` must be zero on the pinned
    low-edge ring; the caller moves the known boundary contributions into
    ``rhs``.  ``op`` and the Jacobi step (``diag >= 1``) keep a zero ring
    zero, so every iterate and the solution are zero there as well.
    """
    grid = op.grid
    grid.check_field(rhs, "rhs")
    if not 0 < target < np.inf:
        raise ValueError(f"target must be finite and positive, got {target}")
    cap = max(10, int(10 * np.sqrt(grid.num_nodes)))
    spectral = _is_spectral(grid, op.tau)
    if spectral:
        name = "spectral"
        precondition = partial(_spectral_solve, _spectral(grid.shape, grid.h1, grid.h2, op.tau))
    else:
        name, diag = "jacobi", op._jacobi

        def precondition(r, out):
            return np.divide(r, diag, out=out)
    check_true = _is_large_step(grid, op.tau)
    r, p, q, prod, _ = _workspace(grid.shape)

    def true_residual():
        op.apply(x, out=q)
        np.subtract(rhs, q, out=r)
        return grid.l2(r)

    rhs_norm = grid.l2(rhs)
    if not np.isfinite(rhs_norm):
        raise NumericalError(f"right-hand side has non-finite l2 norm {rhs_norm}")
    start = 0
    warm = x is not None
    # A new x comes after the Jacobi diagonal on the heap, so the diagonal,
    # freed when the solve returns, is reused by the next step instead of
    # being trimmed from the heap top and faulted in again: 4 minor faults
    # per li-leps step on ring 200² with x allocated here, 136 with x first.
    x = _out_field(grid, rhs, x, "x")
    if spectral and (op.d is None or not op.d.any()):
        # P is the exact inverse of A: CG's first step from zero, alpha = 1
        precondition(rhs, x)
        start = 1
        res = true_residual()
    elif warm:
        res = true_residual()
    else:
        # A 0 is exactly zero, so the zero start's residual is rhs: no matvec
        x.fill(0.0)
        np.copyto(r, rhs)
        res = rhs_norm
    replaced = res
    if res <= target:
        return x, SolveReport(start, res, True, name)

    precondition(r, q)
    np.copyto(p, q)
    rz = grid.inner(r, q)
    for k in range(start + 1, cap + 1):
        op.apply(p, out=q)
        alpha = rz / grid.inner(p, q)
        x += np.multiply(p, alpha, out=prod)
        r -= np.multiply(q, alpha, out=prod)
        res = grid.l2(r)
        if not np.isfinite(res):
            raise NonConvergenceError(f"non-finite residual at iteration {k}")
        restart = False
        if res <= target:
            if not check_true:
                return x, SolveReport(k, res, True, name)
            recursive = res
            res = true_residual()
            if res <= target:
                return x, SolveReport(k, res, True, name)
            if not res < replaced:
                raise NonConvergenceError(
                    f"CG stagnated at iteration {k}: true residual {res:.3e} "
                    f"(recursive {recursive:.3e}) no longer decreases and misses {target:.3e}"
                )
            replaced = res
            restart = True
        precondition(r, q)
        rz_new = grid.inner(r, q)
        if restart:
            np.copyto(p, q)
        else:
            p *= rz_new / rz
            p += q
        rz = rz_new
    raise NonConvergenceError(
        f"CG did not reach {target:.3e} within {cap} iterations (residual {res:.3e})"
    )
