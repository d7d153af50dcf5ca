"""Time integrators.

``li-leps`` is the production scheme: a linearly implicit, local
energy-preserving three-level method for the quadratized system

    du/dt = v
    dv/dt = Lap(u) - coupling(u) * r
    dr/dt = (coupling(u) / 2) * v

with ``r = sqrt(2 - cos u)`` at t = 0.  Each step eliminates ``v`` and ``r``
and solves one symmetric positive definite system for the new field;
velocity and auxiliary variable then follow pointwise, which keeps the
per-node discrete energy balance exact.

``ep-fds`` is the fully implicit two-level energy-preserving comparison
scheme built on the discrete variational derivative of ``1 - cos``; it
conserves the original (non-quadratized) discrete energy exactly and is
solved by fixed-point iteration with an inner CG solve per sweep.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Sequence

import numpy as np

from .grid import Boundary, Grid
from .linear_solver import (NumericalError, SolveReport, SystemOperator,
                            pcg_solve)
from .operators import BoundaryValues, coupling, extrapolate_half_step, laplacian
from .problems import DirichletBoundary, Problem


@dataclass(frozen=True)
class SchemeState:
    """One time level: field ``u``, velocity ``v``, auxiliary ``r``, edge data ``bv``.

    ``u_prev`` is the previous level, absent only before the first step; the
    regular step needs it for the half-step extrapolation.  ``r`` equals
    ``sqrt(2 - cos u)`` at t = 0 and is evolved, not recomputed, afterwards.
    ``bv`` holds the edge values at ``t`` on Dirichlet-exact grids (None on
    periodic ones), evaluated once per level for its energy and next step.
    """

    grid: Grid
    t: float
    u: np.ndarray
    v: np.ndarray
    r: np.ndarray
    u_prev: np.ndarray | None = None
    bv: BoundaryValues | None = None

    def __post_init__(self):
        for name in ("u", "v", "r"):
            arr = getattr(self, name)
            self.grid.check_field(arr, name)
            if not np.all(np.isfinite(arr)):
                raise NumericalError(f"non-finite values in {name} at t={self.t}")
        if self.u_prev is not None:
            self.grid.check_field(self.u_prev, "u_prev")
        if (self.bv is None) == (self.grid.boundary is Boundary.DIRICHLET_EXACT):
            raise ValueError("a Dirichlet-exact state must carry its edge values bv, "
                             "a periodic state none")


@dataclass(frozen=True)
class TimeGrid:
    """Uniform time mesh: ``m`` steps of size ``tau`` reaching ``T = m * tau``."""

    tau: float
    m: int

    def __post_init__(self):
        if self.tau <= 0:
            raise ValueError("tau must be positive")
        if self.m < 0:
            raise ValueError("step count must be nonnegative")

    @property
    def T(self) -> float:
        return self.m * self.tau

    @staticmethod
    def from_final_time(tau: float, T: float) -> "TimeGrid":
        """Requires ``tau`` to divide ``T`` to round-off."""
        if tau <= 0:
            raise ValueError("tau must be positive")
        m = int(round(T / tau))
        if abs(m * tau - T) > 1e-9 * max(1.0, abs(T)):
            raise ValueError(f"tau={tau} does not divide T={T}")
        return TimeGrid(tau, m)


def init_state(problem: Problem, grid: Grid) -> SchemeState:
    """Sample initial data on the grid; the auxiliary field starts at ``sqrt(2 - cos u)``."""
    X, Y = grid.meshgrid
    u = np.broadcast_to(np.asarray(problem.f(X, Y), dtype=float), grid.shape).copy()
    v = np.broadcast_to(np.asarray(problem.g(X, Y), dtype=float), grid.shape).copy()
    for name, arr in (("f", u), ("g", v)):
        if not np.all(np.isfinite(arr)):
            raise NumericalError(f"sampling initial {name} produced non-finite values")
    r = np.sqrt(2.0 - np.cos(u))
    dirichlet = grid.boundary is Boundary.DIRICHLET_EXACT
    bv = DirichletBoundary(problem, grid).values(0.0) if dirichlet else None
    return SchemeState(grid, 0.0, u, v, r, bv=bv)


def _lift(
    state: SchemeState, tau: float, bc: DirichletBoundary | None, rhs: np.ndarray
) -> tuple[np.ndarray | None, BoundaryValues | None, np.ndarray, np.ndarray]:
    """Dirichlet lifting of the step solve from ``state``.

    On Dirichlet-exact grids the new level is ``known + w``: ``known`` holds
    the exact values on the pinned low-edge ring and zeros inside, and ``w``
    solves the step system on the interior unknowns.  Returns ``known``, the
    new level's edge values ``bv`` (their one evaluation), ``rhs`` plus the
    edge contribution ``(tau^2/4) Lap(known)``, and the initial guess
    ``state.u``, the last two zeroed on the ring as :func:`pcg_solve`
    requires.  Periodic grids (``bc`` None) get ``(None, None, rhs,
    state.u)`` back untouched.  ``bc`` must be given exactly when ``state``
    carries edge values.
    """
    if (bc is None) != (state.bv is None):
        raise ValueError("a Dirichlet-exact state steps with a bc, a periodic one without")
    if bc is None:
        return None, None, rhs, state.u
    grid = state.grid
    t_new = state.t + tau
    t2 = tau * tau
    known = bc.pin(np.zeros(grid.shape), t_new)
    bv = bc.values(t_new)
    rhs = rhs + 0.25 * t2 * laplacian(grid, known, bv)
    interior = grid.interior_mask
    return known, bv, np.where(interior, rhs, 0.0), np.where(interior, state.u, 0.0)


def _li_advance(
    state: SchemeState,
    tau: float,
    d: np.ndarray,
    bc: DirichletBoundary | None,
    cg_tol: float,
    cg_max_iter: int | None,
    report_sink: list | None,
) -> SchemeState:
    """Shared body of the first and regular steps; ``d`` is the frozen coupling field."""
    grid = state.grid
    if tau <= 0:
        raise ValueError("tau must be positive")
    u, v, r = state.u, state.v, state.r
    t_new = state.t + tau
    t2 = tau * tau

    rhs = (u + tau * v + 0.25 * t2 * laplacian(grid, u, state.bv)
           + 0.125 * t2 * (d * d) * u - 0.5 * t2 * d * r)
    known, bv, rhs, x0 = _lift(state, tau, bc, rhs)
    w, report = pcg_solve(SystemOperator(grid, tau, d), rhs, tol=cg_tol,
                          max_iter=cg_max_iter, x0=x0)
    if report_sink is not None:
        report_sink.append(report)
    u_new = w if known is None else known + w

    v_new = 2.0 * (u_new - u) / tau - v
    r_new = r + 0.5 * d * (u_new - u)
    return SchemeState(grid, t_new, u_new, v_new, r_new, u_prev=u, bv=bv)


def li_leps_step(
    state: SchemeState,
    tau: float,
    bc: DirichletBoundary | None = None,
    cg_tol: float = 1e-14,
    cg_max_iter: int | None = None,
    report_sink: list | None = None,
) -> SchemeState:
    """Regular three-level step; the coupling is frozen at the extrapolated half step."""
    if state.u_prev is None:
        raise ValueError("li_leps_step needs the previous level; take li_leps_first_step first")
    d = coupling(extrapolate_half_step(state.u, state.u_prev))
    return _li_advance(state, tau, d, bc, cg_tol, cg_max_iter, report_sink)


def li_leps_first_step(
    state: SchemeState,
    tau: float,
    bc: DirichletBoundary | None = None,
    cg_tol: float = 1e-14,
    cg_max_iter: int | None = None,
    report_sink: list | None = None,
) -> SchemeState:
    """Bootstrap step at level 0: the coupling is frozen at the current field."""
    if state.u_prev is not None:
        raise ValueError("first step must start from level 0 (no previous level)")
    d = coupling(state.u)
    return _li_advance(state, tau, d, bc, cg_tol, cg_max_iter, report_sink)


def _cos_quotient(u_new: np.ndarray, u_old: np.ndarray) -> np.ndarray:
    """Difference quotient ``(cos(u_old) - cos(u_new)) / (u_new - u_old)``.

    Evaluated through ``sin(mid) * sin(half)/half`` (an exact identity), which
    is free of cancellation for any level separation.  Where the levels differ
    by less than 1e-8 the sine ratio is replaced by its limit 1, i.e. the
    quotient becomes sin of the midpoint; the substitution error is
    O(threshold^2) and below resolution anyway.
    """
    half = 0.5 * (u_new - u_old)
    small = np.abs(half) < 5e-9
    ratio = np.where(small, 1.0, np.sin(half) / np.where(small, 1.0, half))
    return np.sin(0.5 * (u_new + u_old)) * ratio


@lru_cache(maxsize=1)
def _constant_operator(grid: Grid, tau: float) -> SystemOperator:
    """The ep-fds system ``I - (tau^2/4) Lap``, shared by every step of a run."""
    return SystemOperator(grid, tau, np.zeros(grid.shape))


def ep_fds_step(
    state: SchemeState,
    tau: float,
    fp_tol: float = 1e-14,
    fp_max: int = 50,
    bc: DirichletBoundary | None = None,
    cg_tol: float = 1e-14,
    cg_max_iter: int | None = None,
    report_sink: list | None = None,
) -> SchemeState:
    """Fully implicit two-level energy-preserving step.

    Solves, by fixed-point iteration on the nonlinear quotient,

        [I - (tau^2/4) Lap] u_new = u + tau v + (tau^2/4) Lap u - (tau^2/2) Q(u_new, u)

    with ``Q`` the difference quotient of ``1 - cos``; each sweep is one CG
    solve.  Conserves the original discrete energy exactly.  The auxiliary
    field of the returned state is recomputed as ``sqrt(2 - cos u)`` (this
    scheme carries no auxiliary variable of its own).
    """
    grid = state.grid
    if tau <= 0:
        raise ValueError("tau must be positive")
    u, v = state.u, state.v
    t_new = state.t + tau
    t2 = tau * tau
    op = _constant_operator(grid, tau)

    base = u + tau * v + 0.25 * t2 * laplacian(grid, u, state.bv)
    known, bv, base, u0 = _lift(state, tau, bc, base)

    # The sweeps run on the solve's unknowns: the quotient of two fields that
    # are zero on the pinned ring is zero there too, so every right-hand side
    # keeps the zero ring the solve requires.
    #
    # Convergence is judged on the nonlinear-residual contribution of the
    # lagged quotient, not on iterate differences: warm-started CG can
    # limit-cycle at round-off while the equation is already satisfied.  The
    # linear part of the residual is controlled by the CG contract itself, so
    # once the quotient lag drops below tolerance the solved equation holds to
    # the sum of the two tolerances.
    target = fp_tol * max(1.0, grid.l2(base))
    w = u0
    quotient = _cos_quotient(w, u0)
    for _ in range(fp_max):
        rhs = base - 0.5 * t2 * quotient
        w, report = pcg_solve(op, rhs, tol=cg_tol, max_iter=cg_max_iter, x0=w)
        if report_sink is not None:
            report_sink.append(report)
        new_quotient = _cos_quotient(w, u0)
        lag = 0.5 * t2 * grid.l2(new_quotient - quotient)
        quotient = new_quotient
        if lag <= target:
            break
    else:
        raise NumericalError(f"fixed-point iteration did not converge within {fp_max} sweeps")

    u_new = w if known is None else known + w
    v_new = 2.0 * (u_new - u) / tau - v
    r_new = np.sqrt(2.0 - np.cos(u_new))
    return SchemeState(grid, t_new, u_new, v_new, r_new, u_prev=u, bv=bv)


SCHEMES = ("li-leps", "ep-fds")


@dataclass
class RunResult:
    state: SchemeState
    scheme: str
    steps: int
    wall_seconds: float
    cg_iterations: int
    cg_iterations_max: int
    fp_sweeps: int


def run(
    problem: Problem,
    grid: Grid,
    time_grid: TimeGrid,
    scheme: str = "li-leps",
    recorders: Sequence[Callable[[int, SchemeState], None]] = (),
    cg_tol: float = 1e-14,
    cg_max_iter: int | None = None,
    fp_tol: float = 1e-14,
    fp_max: int = 50,
) -> RunResult:
    """Integrate from t = 0 for ``time_grid.m`` steps.

    Recorders are called with ``(step_index, state)`` after initialization and
    after every step; they filter their own cadence.  The reported wall time
    covers the stepping work only, not recorder evaluation, so scheme costs
    compare cleanly.
    """
    if scheme not in SCHEMES:
        raise ValueError(f"unknown scheme {scheme!r}; expected one of {SCHEMES}")
    bc = DirichletBoundary(problem, grid) if grid.boundary is Boundary.DIRICHLET_EXACT else None
    state = init_state(problem, grid)
    for rec in recorders:
        rec(0, state)

    reports: list[SolveReport] = []
    fp_sweeps = 0
    wall = 0.0
    for k in range(1, time_grid.m + 1):
        tic = time.perf_counter()
        if scheme == "li-leps":
            if state.u_prev is None:
                state = li_leps_first_step(state, time_grid.tau, bc=bc, cg_tol=cg_tol,
                                           cg_max_iter=cg_max_iter, report_sink=reports)
            else:
                state = li_leps_step(state, time_grid.tau, bc=bc, cg_tol=cg_tol,
                                     cg_max_iter=cg_max_iter, report_sink=reports)
        else:
            before = len(reports)
            state = ep_fds_step(state, time_grid.tau, fp_tol=fp_tol, fp_max=fp_max, bc=bc,
                                cg_tol=cg_tol, cg_max_iter=cg_max_iter, report_sink=reports)
            fp_sweeps += len(reports) - before
        wall += time.perf_counter() - tic
        for rec in recorders:
            rec(k, state)

    return RunResult(
        state=state,
        scheme=scheme,
        steps=time_grid.m,
        wall_seconds=wall,
        cg_iterations=sum(r.iterations for r in reports),
        cg_iterations_max=max((r.iterations for r in reports), default=0),
        fp_sweeps=fp_sweeps,
    )
