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
solved by fixed-point iteration with an inner linear solve per sweep.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Sequence

import numpy as np

from .grid import Boundary, Grid
from .linear_solver import (CG_TOL, NumericalError, SolveReport, SystemOperator,
                            _workspace, pcg_solve)
from .operators import (BoundaryValues, extrapolate_half_step, laplacian, one_minus_cos, sin_cos,
                        zero_pinned_ring)
# The steps read only validated fields, so they take operators.coupling's
# kernel, which skips the finiteness pass; perfbench traces it by this name.
from .operators import _coupling as coupling
from .problems import DirichletBoundary, Problem


@dataclass(frozen=True)
class SchemeState:
    """One time level: field ``u``, velocity ``v``, auxiliary ``r`` and its edge data.

    ``u_prev`` is li-leps' previous level, absent only before its first
    step; the regular step needs it for the half-step extrapolation.  ep-fds
    is two-level, and its levels carry none.  ``r`` equals
    ``sqrt(2 - cos u)`` at t = 0 and is evolved, not recomputed, afterwards.
    On Dirichlet-exact grids ``bc`` is the problem's edge-data source, handed
    on from level to level, and ``bv`` the edge values at ``t``, evaluated
    once per level for its energy and next step; periodic states carry
    neither.  ``u``, ``v``, ``r`` and ``u_prev`` are checked finite on
    construction, so the steps read only validated fields.  ``reports`` are
    the CG solves of the step that produced this level (one for li-leps, one
    per fixed-point sweep for ep-fds, none at t = 0).
    """

    grid: Grid
    t: float
    u: np.ndarray
    v: np.ndarray
    r: np.ndarray
    u_prev: np.ndarray | None = None
    bc: DirichletBoundary | None = None
    bv: BoundaryValues | None = None
    reports: tuple[SolveReport, ...] = ()

    def __post_init__(self):
        for name in ("u", "v", "r", "u_prev"):
            arr = getattr(self, name)
            if arr is None:
                continue
            self.grid.check_field(arr, name)
            if not np.all(np.isfinite(arr)):
                raise NumericalError(f"non-finite values in {name} at t={self.t}")
        if self.grid.boundary is Boundary.DIRICHLET_EXACT:
            ok = self.bv is not None and self.bc is not None and self.bc.grid == self.grid
        else:
            ok = self.bv is None and self.bc is None
        if not ok:
            raise ValueError("a Dirichlet-exact state must carry bc (for its grid) and bv, "
                             "a periodic state neither")


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
    if grid.boundary is not Boundary.DIRICHLET_EXACT:
        return SchemeState(grid, 0.0, u, v, r)
    bc = DirichletBoundary(problem, grid)
    return SchemeState(grid, 0.0, u, v, r, bc=bc, bv=bc.values(0.0))


def _lift(
    state: SchemeState, tau: float, rhs: np.ndarray, scratch: np.ndarray
) -> tuple[np.ndarray | None, BoundaryValues | None, np.ndarray]:
    """Dirichlet lifting of the step solve from ``state``, through ``state.bc``.

    On Dirichlet-exact grids the new level is ``known + w``: ``known`` holds
    the exact values on the pinned low-edge ring and zeros inside, and ``w``
    solves the step system on the interior unknowns.  Adds the edge
    contribution ``(tau^2/4) Lap(known)`` to ``rhs`` in place (through
    ``scratch``) and zeroes ``rhs`` on the ring, as :func:`pcg_solve`
    requires.  Returns ``known``, the new level's edge values ``bv`` (their
    one evaluation) and the initial guess: ``state.u`` zeroed on the ring, a
    new field.  Periodic states (``bc`` None) leave ``rhs`` untouched and get
    ``(None, None, state.u)`` back.
    """
    bc = state.bc
    if bc is None:
        return None, None, state.u
    grid = state.grid
    t_new = state.t + tau
    t2 = tau * tau
    known = bc.pin(np.zeros(grid.shape), t_new)
    bv = bc.values(t_new)
    laplacian(grid, known, bv, out=scratch)
    scratch *= 0.25 * t2
    rhs += scratch
    zero_pinned_ring(grid, rhs)
    return known, bv, zero_pinned_ring(grid, state.u.copy())


def _explicit_part(state: SchemeState, tau: float) -> np.ndarray:
    """``u + tau v + (tau^2/4) Lap u`` of ``state`` in a new field.

    Both schemes' right-hand sides start from it; the one Laplacian of the
    step reads ``state.bv``.  ``u + tau v`` is formed in the CG workspace's
    scratch field, idle until the step's solve starts.  The workspace is
    taken after the new field is allocated: a run's first step may allocate
    the workspace, and the other order left ring-paper's ``perfbench`` peak
    RSS higher (35.11 against 35.06 MB, a shared 2-core host).
    """
    grid = state.grid
    out = laplacian(grid, state.u, state.bv)
    out *= 0.25 * (tau * tau)
    s = np.multiply(state.v, tau, out=_workspace(grid.shape)[3])
    s += state.u
    out += s
    return out


def _li_advance(state: SchemeState, tau: float, d: np.ndarray, cg_tol: float) -> SchemeState:
    """Shared body of the first and regular steps; ``d`` is the frozen coupling field.

    The right-hand side ``u + tau v + (tau^2/4) Lap u + (tau^2/8) d^2 u -
    (tau^2/2) d r`` is assembled in place in the new level's ``v`` field,
    which is free until the solve returns, through the CG workspace's scratch
    field, idle until the solve starts.  The new level's ``r`` is allocated
    after the solve, and both updates start from the one difference
    ``u_new - u``.
    """
    grid = state.grid
    if tau <= 0:
        raise ValueError("tau must be positive")
    u, v, r = state.u, state.v, state.r
    t_new = state.t + tau
    t2 = tau * tau

    rhs = _explicit_part(state, tau)
    s = np.multiply(d, d, out=_workspace(grid.shape)[3])
    s *= 0.125 * t2
    s *= u
    rhs += s
    np.multiply(d, 0.5 * t2, out=s)
    s *= r
    rhs -= s
    known, bv, x0 = _lift(state, tau, rhs, s)
    u_new, report = pcg_solve(SystemOperator(grid, tau, d), rhs, tol=cg_tol, x0=x0)
    if known is not None:
        u_new += known

    v_new = np.subtract(u_new, u, out=rhs)
    r_new = np.multiply(d, 0.5)
    r_new *= v_new
    r_new += r
    v_new *= 2.0
    v_new /= tau
    v_new -= v
    return SchemeState(grid, t_new, u_new, v_new, r_new, u_prev=u, bc=state.bc, bv=bv,
                       reports=(report,))


def li_leps_step(state: SchemeState, tau: float, cg_tol: float = CG_TOL) -> SchemeState:
    """Regular three-level step; the coupling is frozen at the extrapolated half step.

    Reads only ``state`` (its fields, previous level and edge data), whose
    fields its construction checked finite, so the coupling skips that check;
    the new level carries its one CG report in ``reports``.
    """
    if state.u_prev is None:
        raise ValueError("li_leps_step needs the previous level; take li_leps_first_step first")
    d = extrapolate_half_step(state.u, state.u_prev)
    return _li_advance(state, tau, coupling(d, d), cg_tol)


def li_leps_first_step(state: SchemeState, tau: float, cg_tol: float = CG_TOL) -> SchemeState:
    """Bootstrap step at level 0: the coupling is frozen at the current field.

    Like :func:`li_leps_step`, it reads only ``state``.
    """
    if state.u_prev is not None:
        raise ValueError("first step must start from level 0 (no previous level)")
    d = coupling(state.u, np.empty(state.grid.shape))
    return _li_advance(state, tau, d, cg_tol)


def _cos_quotient(
    u_new: np.ndarray, u_old: np.ndarray, sin_old: np.ndarray, cos_old: np.ndarray,
    out: np.ndarray, scratch: np.ndarray, scratch2: np.ndarray,
) -> np.ndarray:
    """Difference quotient ``Q = (cos(u_old) - cos(u_new)) / (u_new - u_old)``, into ``out``.

    With ``h = u_new - u_old`` and the half-angle tangent ``t = tan(h/2)``,
    ``1 - cos h = 2t^2/(1 + t^2)`` and ``sin h = 2t/(1 + t^2)`` turn the
    quotient exactly into

        Q = 2t / (h (1 + t^2)) * (cos(u_old) t + sin(u_old)),

    which takes one tangent per call, given ``sin_old`` and ``cos_old`` (sin
    and cos of ``u_old``), and has no cancellation at any ``h``: ``2t/h``
    tends to 1 as ``h`` does.  Where ``h == 0`` it is ``sin_old`` exactly,
    the quotient's limit.  ``out``, ``scratch`` and ``scratch2`` are distinct
    fields that overlap no input.
    """
    half = np.subtract(u_new, u_old, out=scratch)
    half *= 0.5
    t = np.tan(half, out=out)
    np.multiply(t, t, out=scratch2)
    scratch2 += 1.0
    half *= scratch2
    numerator = np.multiply(cos_old, t, out=scratch2)
    numerator += sin_old
    numerator *= t
    same = half == 0.0
    np.copyto(half, 1.0, where=same)
    np.copyto(numerator, sin_old, where=same)
    return np.divide(numerator, half, out=out)


# Default cap on ep-fds' fixed-point sweeps per step; the sweeps stop on the
# run's one tolerance, cg_tol.
FP_MAX = 50


@lru_cache(maxsize=1)
def _sweep_fields(shape: tuple[int, int]) -> tuple[np.ndarray, ...]:
    """The ep-fds sweeps' two work fields, sin and cos of the old level.

    Kept across steps, for the most recent grid shape only.
    """
    return np.empty(shape), np.empty(shape)


def ep_fds_step(
    state: SchemeState,
    tau: float,
    fp_max: int = FP_MAX,
    cg_tol: float = CG_TOL,
) -> SchemeState:
    """Fully implicit two-level energy-preserving step.

    Solves, by fixed-point iteration on the nonlinear quotient,

        [I - (tau^2/4) Lap] u_new = u + tau v + (tau^2/4) Lap u - (tau^2/2) Q(u_new, u)

    with ``Q`` the difference quotient of ``1 - cos`` (see :func:`_cos_quotient`);
    each sweep is one :func:`pcg_solve`, warm-started from the last sweep's
    solution and solved in place in the new level's ``u`` field, a copy of
    the old level's.  On the spectral path (periodic 2D large steps) that
    solve is direct, one FFT solve and one true-residual check, since the
    preconditioner inverts this constant operator exactly; there the warm
    start goes unused.  The first sweep lags the quotient at its
    limit ``Q(u, u) = sin u``.

    ``cg_tol`` stops both iterations: each sweep's solve meets it, and the
    sweeps stop once the lag ``l2(rhs_next - rhs)`` between two sweeps'
    right-hand sides, which is ``(tau^2/2) l2(Q_new - Q_old)`` up to one
    rounding of ``base``, is within ``cg_tol * max(1, l2(base))``, ``base``
    being the quotient-free part of the right-hand side, or raise after
    ``fp_max`` sweeps.  The step equation then holds to about twice
    ``cg_tol``; it conserves the original discrete energy exactly, so the
    computed energy drifts with ``cg_tol`` and the step count.  The
    auxiliary field of the returned state is recomputed as ``sqrt(2 - cos
    u) = sqrt(1 + 2t^2/(1 + t^2))`` with ``t = tan(u/2)`` (this scheme
    carries no auxiliary variable of its own).
    Reads only ``state``; the new level carries one CG report per sweep in
    ``reports`` and, the scheme being two-level, no ``u_prev``.
    """
    grid = state.grid
    if tau <= 0:
        raise ValueError("tau must be positive")
    u, v = state.u, state.v
    t_new = state.t + tau
    t2 = tau * tau
    op = SystemOperator(grid, tau)

    # The constant part of the right-hand side lives in the new level's v
    # field until the sweeps end, and the sweep's right-hand side in its r
    # field.  Each new quotient, and the next right-hand side formed from
    # it, go into the CG work field p; its scratch and the lag difference
    # borrow two more.  All three are idle between solves.
    sin_old, cos_old = _sweep_fields(grid.shape)
    r_new = np.empty(grid.shape)
    base = v_new = _explicit_part(state, tau)
    known, bv, u0 = _lift(state, tau, base, r_new)
    rhs_next, scratch, scratch2 = _workspace(grid.shape)[1:4]

    # The sweeps run on the solve's unknowns: the quotient of two fields that
    # are zero on the pinned ring is zero there too, so every right-hand side
    # keeps the zero ring the solve requires.
    #
    # Convergence is judged on the nonlinear-residual contribution of the
    # lagged quotient, not on iterate differences: warm-started CG can
    # limit-cycle at round-off while the equation is already satisfied.  The
    # linear part of the residual is controlled by the CG contract itself, so
    # once the quotient lag drops below the same tolerance the solved
    # equation holds to twice it.
    #
    # Every sweep solves in place in the new level's u field, starting from
    # the last sweep's solution; the quotients keep reading u0.
    target = cg_tol * max(1.0, grid.l2(base))
    sin_cos(u0, sin_old, cos_old)
    rhs = np.multiply(sin_old, 0.5 * t2, out=r_new)
    np.subtract(base, rhs, out=rhs)
    u_new = u0.copy()
    reports = []
    for _ in range(fp_max):
        reports.append(pcg_solve(op, rhs, tol=cg_tol, x0=u_new, out=u_new)[1])
        _cos_quotient(u_new, u0, sin_old, cos_old, rhs_next, scratch, scratch2)
        rhs_next *= 0.5 * t2
        np.subtract(base, rhs_next, out=rhs_next)
        lag = grid.l2(np.subtract(rhs_next, rhs, out=scratch))
        if lag <= target:
            break
        np.copyto(rhs, rhs_next)
    else:
        last = f" (last lag {lag:.3e}, target {target:.3e})" if reports else ""
        raise NumericalError(
            f"fixed-point iteration did not converge within {fp_max} sweeps{last}")

    if known is not None:
        u_new += known
    np.subtract(u_new, u, out=v_new)
    v_new *= 2.0
    v_new /= tau
    v_new -= v
    one_minus_cos(u_new, r_new, scratch)
    r_new += 1.0
    np.sqrt(r_new, out=r_new)
    return SchemeState(grid, t_new, u_new, v_new, r_new, bc=state.bc, bv=bv,
                       reports=tuple(reports))


# The production scheme comes first: every run without a scheme takes it.
SCHEMES = ("li-leps", "ep-fds")


@dataclass
class RunResult:
    state: SchemeState
    wall_seconds: float
    cg_iterations: int
    cg_iterations_max: int
    fp_sweeps: int
    preconditioner: str | None  # of the run's solves; None when it took no step


def run(
    problem: Problem,
    grid: Grid,
    time_grid: TimeGrid,
    scheme: str = SCHEMES[0],
    recorders: Sequence[Callable[[int, SchemeState], None]] = (),
    cg_tol: float = CG_TOL,
    fp_max: int = FP_MAX,
) -> RunResult:
    """Integrate from t = 0 for ``time_grid.m`` steps.

    Recorders are called with ``(step_index, state)`` after initialization and
    after every step; they filter their own cadence and may read the step's
    CG reports from ``state.reports``.  The solver totals of the result sum
    those reports.  The reported wall time covers the stepping work only, not
    recorder evaluation, so scheme costs compare cleanly.  A
    :class:`NumericalError` from a step is re-raised as the same type, its
    message prefixed with the step index and the ``t`` of the level it was
    producing.

    ``cg_tol`` is the run's one tolerance: every linear solve meets it and
    ep-fds' fixed point stops on it (see :func:`ep_fds_step`); ``fp_max``
    caps ep-fds' sweeps per step.
    """
    if scheme not in SCHEMES:
        raise ValueError(f"unknown scheme {scheme!r}; expected one of {SCHEMES}")
    state = init_state(problem, grid)
    for rec in recorders:
        rec(0, state)

    reports: list[SolveReport] = []
    fp_sweeps = 0
    wall = 0.0
    for k in range(1, time_grid.m + 1):
        tic = time.perf_counter()
        try:
            if scheme == "ep-fds":
                state = ep_fds_step(state, time_grid.tau, fp_max=fp_max, cg_tol=cg_tol)
                fp_sweeps += len(state.reports)
            elif state.u_prev is None:
                state = li_leps_first_step(state, time_grid.tau, cg_tol=cg_tol)
            else:
                state = li_leps_step(state, time_grid.tau, cg_tol=cg_tol)
        except NumericalError as exc:
            raise type(exc)(f"step {k}, t={state.t + time_grid.tau:g}: {exc}") from exc
        wall += time.perf_counter() - tic
        reports.extend(state.reports)
        for rec in recorders:
            rec(k, state)

    return RunResult(
        state=state,
        wall_seconds=wall,
        cg_iterations=sum(r.iterations for r in reports),
        cg_iterations_max=max((r.iterations for r in reports), default=0),
        fp_sweeps=fp_sweeps,
        preconditioner=reports[0].preconditioner if reports else None,
    )
