"""Time integrators.

``li-leps`` is the production scheme: a linearly implicit, local
energy-preserving three-level method for the quadratized system

    du/dt = v
    dv/dt = Lap(u) - coupling(u) * r
    dr/dt = (coupling(u) / 2) * v

with ``r = sqrt(2 - cos u)`` at t = 0.  Each step eliminates ``v`` and ``r``
and solves one symmetric positive definite system for the increment ``u_new
- u``; velocity and auxiliary variable then follow pointwise, which keeps the
per-node discrete energy balance exact.

``ep-fds`` is the fully implicit two-level energy-preserving comparison
scheme built on the discrete variational derivative of ``1 - cos``; it
conserves the original (non-quadratized) discrete energy exactly.  Each step
solves for its increment by fixed-point iteration with an inner linear solve
per sweep, from an O(tau^4) start, with stops relative to the increment and
early sweeps solved only as tightly as the next sweep can use.

Both schemes and both boundary modes share one path: the increment's
explicit part ``b0`` (:func:`_base`), which holds the known edge data of
Dirichlet-exact grids, and the new level built from the solved increment
(:func:`_new_level`).  Each scheme adds only its right-hand side's nonlinear
term and its ``r``.
"""

from __future__ import annotations

import math
import sys
import time
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Sequence

import numpy as np

from .grid import Boundary, Grid
from .linear_solver import (NumericalError, SolveReport, SystemOperator, _is_large_step,
                            _workspace, pcg_solve)
from .operators import (BoundaryValues, extrapolate_half_step, laplacian, one_minus_cos, sin_cos,
                        zero_pinned_ring)
# The steps read only validated fields, so they take operators.coupling's
# kernel, which skips the finiteness pass; perfbench traces it by this name.
from .operators import _coupling as coupling
from .problems import DirichletBoundary, Problem

# The run's one tolerance, which each step turns into the absolute target of
# its solves: li-leps in _li_advance, ep-fds in ep_fds_step.
CG_TOL = 1e-14

# Default cap on ep-fds' fixed-point sweeps per step.
FP_MAX = 50


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


def _check_tau(tau: float) -> None:
    """Reject a step size that is not finite and positive."""
    if not 0 < tau < math.inf:
        raise ValueError(f"tau must be finite and positive, got {tau}")


@dataclass(frozen=True)
class TimeGrid:
    """Uniform time mesh: ``m`` steps of size ``tau`` reaching ``T = m * tau``."""

    tau: float
    m: int

    def __post_init__(self):
        _check_tau(self.tau)
        if self.m < 0:
            raise ValueError("step count must be nonnegative")

    @property
    def T(self) -> float:
        return self.m * self.tau

    @staticmethod
    def from_final_time(tau: float, T: float) -> "TimeGrid":
        """Requires ``tau`` to divide ``T`` to round-off."""
        _check_tau(tau)
        if not math.isfinite(T / tau):
            raise ValueError(f"T={T} / tau={tau} is not finite")
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


def _base(state: SchemeState, tau: float) -> tuple[np.ndarray, np.ndarray, BoundaryValues | None]:
    """The increment's explicit part ``b0``, which both schemes' right-hand sides start from.

    On periodic grids ``b0 = tau (v + (tau/2) Lap u)``.  On Dirichlet-exact
    grids ``b0 = tau v + (tau^2/4) (Lap u + Lap pinned)``, zeroed on the
    pinned ring, where ``pinned`` is ``u`` with the new level's edge data on
    its ring and each Laplacian reads its own level's edge values past the
    high edges: ``b0`` then holds every contribution of the known edge data,
    and the increment solves the system of the unknowns with zero edge data.
    Returns ``b0`` (a new field), ``pinned`` (``u`` itself on periodic grids)
    and the new level's edge values (their one evaluation; None on periodic
    grids).
    """
    grid, u, bc = state.grid, state.u, state.bc
    b0 = laplacian(grid, u, state.bv, out=np.empty(grid.shape))
    if bc is None:
        pinned, bv = u, None
        b0 *= 0.5 * tau
    else:
        t_new = state.t + tau
        pinned, bv = bc.pin(u.copy(), t_new), bc.values(t_new)
        b0 += laplacian(grid, pinned, bv, out=_workspace(grid.shape)[3])
        b0 *= 0.25 * tau
    b0 += state.v
    b0 *= tau
    return zero_pinned_ring(grid, b0), pinned, bv


def _new_level(state: SchemeState, tau: float, d: np.ndarray | None, base: tuple,
               delta: np.ndarray, r_new: np.ndarray, reports: tuple) -> SchemeState:
    """The level one step from ``state`` reaches with the increment ``delta``, built in place.

    ``base`` is the step's :func:`_base`.  ``delta`` (zero on the pinned
    ring) becomes ``u_new = u + delta``, which takes the new edge data on the
    ring; ``b0``'s field becomes ``v_new = 2 (u_new - u) / tau - v``, with
    ``u_new - u`` taken as ``delta`` off the ring and as the edge data's
    change on it.  ``r_new`` receives li-leps' ``r + (d/2) (u_new - u)``
    given its coupling field ``d``, else (``d`` None) ep-fds' ``sqrt(2 - cos
    u_new)``: that scheme carries no auxiliary variable, and its levels,
    two-level, carry no ``u_prev``.
    """
    u, v = state.u, state.v
    b0, pinned, bv = base
    rings = () if state.bc is None else (np.s_[0], np.s_[:, 0])
    for ring in rings:
        np.subtract(pinned[ring], u[ring], out=delta[ring])
    v_new = np.multiply(delta, 2.0 / tau, out=b0)
    v_new -= v
    if d is not None:
        np.multiply(d, 0.5, out=r_new)
        r_new *= delta
        r_new += state.r
    u_new = delta
    u_new += u
    for ring in rings:
        u_new[ring] = pinned[ring]
    if d is None:
        one_minus_cos(u_new, r_new, _workspace(u.shape)[3])
        r_new += 1.0
        np.sqrt(r_new, out=r_new)
    return SchemeState(state.grid, state.t + tau, u_new, v_new, r_new,
                       u_prev=None if d is None else u, bc=state.bc, bv=bv, reports=reports)


def _li_advance(state: SchemeState, tau: float, d: np.ndarray, cg_tol: float) -> SchemeState:
    """Shared body of the first and regular steps; ``d`` is the frozen coupling field.

    Solves ``A delta = b0 - (tau^2/2) d r``, ``A = I - (tau^2/4) Lap +
    (tau^2/8) d^2``, for the increment ``delta = u_new - u`` of the unknowns,
    from zero, to ``cg_tol * max(1, l2(rhs), l2(u))``, ``u`` over the
    unknowns: the new level's scale.  The right-hand side is formed in
    ``b0``'s field, through the CG workspace's scratch field, idle until the
    solve starts.
    """
    grid = state.grid
    _check_tau(tau)
    base = _base(state, tau)
    s = np.multiply(d, 0.5 * tau * tau, out=_workspace(grid.shape)[3])
    s *= state.r
    rhs = base[0]
    rhs -= s
    zero_pinned_ring(grid, rhs)
    unknowns = state.u if state.bc is None else zero_pinned_ring(grid, state.u.copy())
    target = cg_tol * max(1.0, grid.l2(rhs), grid.l2(unknowns))
    delta, report = pcg_solve(SystemOperator(grid, tau, d), rhs, target)
    return _new_level(state, tau, d, base, delta, np.empty(grid.shape), (report,))


def li_leps_step(state: SchemeState, tau: float, cg_tol: float = CG_TOL) -> SchemeState:
    """Regular three-level step; the coupling is frozen at the extrapolated half step.

    Reads only ``state`` (its fields, previous level and edge data), whose
    fields its construction checked finite, so the coupling skips that check;
    the new level carries its one CG report in ``reports``.
    """
    if state.u_prev is None:
        raise ValueError("li_leps_step needs the previous level; take li_leps_first_step first")
    # d is the one new field: 0.5 u_prev and the coupling's radicand go into
    # the CG workspace's scratch field, idle until the solve starts.
    scratch = _workspace(state.grid.shape)[3]
    d = extrapolate_half_step(state.u, state.u_prev, np.empty(state.grid.shape), scratch)
    return _li_advance(state, tau, coupling(d, d, scratch), cg_tol)


def li_leps_first_step(state: SchemeState, tau: float, cg_tol: float = CG_TOL) -> SchemeState:
    """Bootstrap step at level 0: the coupling is frozen at the current field.

    Like :func:`li_leps_step`, it reads only ``state``.
    """
    if state.u_prev is not None:
        raise ValueError("first step must start from level 0 (no previous level)")
    shape = state.grid.shape
    d = coupling(state.u, np.empty(shape), _workspace(shape)[3])
    return _li_advance(state, tau, d, cg_tol)


def _cos_quotient(
    delta: np.ndarray, sin_old: np.ndarray, cos_old: np.ndarray,
    out: np.ndarray, scratch: np.ndarray, scratch2: np.ndarray,
) -> np.ndarray:
    """Difference quotient ``Q = (cos(u) - cos(u + delta)) / delta`` of an increment, into ``out``.

    With ``h = delta`` and the half-angle tangent ``t = tan(h/2)``,
    ``1 - cos h = 2t^2/(1 + t^2)`` and ``sin h = 2t/(1 + t^2)`` turn the
    quotient exactly into

        Q = 2t / (h (1 + t^2)) * (cos(u) t + sin(u)),

    which takes one tangent per call, given ``sin_old`` and ``cos_old`` (sin
    and cos of ``u``), and has no cancellation at any ``h``: ``2t/h`` tends
    to 1 as ``h`` does.  The quotient is linear in the pair, so ``sin_old``
    and ``cos_old`` may come scaled by one factor, which scales ``Q``.
    Where ``t^2`` underflows to zero (``|h|`` below about 3e-162, ``h == 0``
    included) it is ``sin_old`` exactly, the quotient's limit, which it
    meets there to within ``|h|/2``; the formula would lose the bits of a
    subnormal ``t``.  ``out``, ``scratch`` and ``scratch2`` are distinct
    fields that overlap no input.
    """
    half = np.multiply(delta, 0.5, out=scratch)
    t = np.tan(half, out=out)
    t_sq = np.multiply(t, t, out=scratch2)
    limit = t_sq == 0.0
    t_sq += 1.0
    half *= t_sq
    numerator = np.multiply(cos_old, t, out=scratch2)
    numerator += sin_old
    numerator *= t
    np.copyto(half, 1.0, where=limit)
    np.copyto(numerator, sin_old, where=limit)
    return np.divide(numerator, half, out=out)


# The floor of ep-fds' stop, the smallest normal float: a rest state, whose
# increment and sine are zero, still gets a positive target.  (np.finfo
# would cost 0.13 MB of peak RSS on its first call.)
_TINY = sys.float_info.min


@lru_cache(maxsize=1)
def _sweep_fields(shape: tuple[int, int]) -> tuple[np.ndarray, ...]:
    """The ep-fds sweeps' two work fields, sin and cos of the old level times ``tau^2/2``.

    Kept across steps, for the most recent grid shape only.
    """
    return np.empty(shape), np.empty(shape)


def ep_fds_step(
    state: SchemeState,
    tau: float,
    fp_max: int = FP_MAX,
    cg_tol: float = CG_TOL,
) -> SchemeState:
    """Fully implicit two-level energy-preserving step, solved for its increment.

    Solves ``u_new = u + tau v + (tau^2/2) [Lap (u + u_new)/2 - Q]``, ``Q``
    the difference quotient of ``1 - cos`` (:func:`_cos_quotient`), for
    ``delta = u_new - u`` (interior nodes only on Dirichlet-exact grids) by
    fixed-point sweeps, each one :func:`pcg_solve` of

        A delta = b0 - (tau^2/2) Q(delta),    A = I - (tau^2/4) Lap,

    ``b0`` being the increment's explicit part.  The start, the inexact
    early sweeps and the stop are described in the README.  Below the
    large-step ratio each sweep after the first starts from the last
    solve's residual plus the change of right-hand side, so a step applies
    ``A`` once beyond its CG iterations.  With ``target =
    cg_tol * max(l2(b0), (tau^2/2) l2(sin u))``, at least the smallest normal
    float, the returned level satisfies

        l2(A delta - b0 + (tau^2/2) Q(delta)) <= 2 target,

    or the step raises :class:`NumericalError` after ``fp_max`` sweeps.
    Returns ``u_new``, ``v_new = 2 (u_new - u) / tau - v`` and ``r =
    sqrt(2 - cos u_new)`` (recomputed: the scheme carries no auxiliary
    variable); reads only ``state``.  The new level carries one CG report
    per sweep and, two-level, no ``u_prev``.
    """
    grid = state.grid
    _check_tau(tau)
    u, v = state.u, state.v
    t2 = tau * tau
    op = SystemOperator(grid, tau)

    # No field beyond the two levels and the work fields: b0 lives in the
    # new level's v until the sweeps end, the sweep's right-hand side in its
    # r, and delta in its u.  Each new quotient, and the next right-hand
    # side formed from it, go into the CG work field p; its scratch and the
    # lag difference borrow two more.  All three are idle between solves;
    # CG's r is not, since each sweep's start residual is chained in it.
    sin_s, cos_s = _sweep_fields(grid.shape)
    r_new = rhs = np.empty(grid.shape)
    base = _base(state, tau)
    b0 = base[0]
    chained, work, scratch, scratch2 = _workspace(grid.shape)[:4]

    # The start.  Every sweep keeps delta zero on the pinned ring: there both
    # Q(0) and the scaled sine, zeroed, are zero, so every right-hand side
    # keeps the zero ring the solve requires.
    sin_cos(u, sin_s, cos_s, scale=0.5 * t2)
    zero_pinned_ring(grid, sin_s)
    delta = laplacian(grid, v, out=np.empty(grid.shape))
    delta *= 0.5 * t2
    delta -= np.multiply(cos_s, v, out=work)
    delta *= 0.5 * tau
    delta += b0
    delta -= sin_s
    zero_pinned_ring(grid, delta)

    target = max(cg_tol * max(grid.l2(b0), grid.l2(sin_s)), _TINY)
    q = _cos_quotient(delta, sin_s, cos_s, work, scratch, scratch2)
    lag = grid.l2(np.subtract(q, sin_s, out=scratch))
    np.subtract(b0, q, out=rhs)
    # The sweep map's contraction bound; only a contraction lets a sweep stop
    # short of the target.
    contraction = 0.25 * t2
    # Below the large-step ratio a solve stops on its recursive residual and
    # leaves it in CG's r, so each later sweep's start residual is that plus
    # the change of right-hand side: no matvec.  Large steps take the true
    # one, which their stagnation rule compares against.
    chain = not _is_large_step(grid, tau)
    start = None
    reports = []
    res_prev = math.inf  # the last solve's residual; delta* came from no solve
    for _ in range(fp_max):
        goal = max(target, contraction * lag) if contraction < 1.0 else target
        report = pcg_solve(op, rhs, goal, delta, residual=start)[1]
        reports.append(report)
        res = report.final_residual
        # The next lag is at most contraction * l2(delta - delta_prev), and
        # ||A^-1|| <= 1 bounds that change by lag + res + res_prev: when the
        # bound meets the target, the lag need not be taken.
        if goal == target and contraction * (lag + res + res_prev) <= target:
            break
        res_prev = res
        rhs_next = _cos_quotient(delta, sin_s, cos_s, work, scratch, scratch2)
        np.subtract(b0, rhs_next, out=rhs_next)
        lag = grid.l2(np.subtract(rhs_next, rhs, out=scratch))
        if goal == target and lag <= target:
            break
        if chain:
            start = np.add(chained, scratch, out=chained)
        np.copyto(rhs, rhs_next)
    else:
        last = f" (last lag {lag:.3e}, target {target:.3e})" if reports else ""
        raise NumericalError(
            f"fixed-point iteration did not converge within {fp_max} sweeps{last}")

    return _new_level(state, tau, None, base, delta, r_new, tuple(reports))


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

    ``cg_tol`` is the run's one tolerance: each step scales it into the
    absolute targets of its solves, and ep-fds' fixed point stops on it (see
    :func:`ep_fds_step`); ``fp_max`` caps ep-fds' sweeps per step.
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
