"""Conservation diagnostics and error norms.

The production scheme satisfies a per-node balance for the modified
(quadratized) energy density: the forward time difference of the density
equals a discrete flux divergence, at every node and every step, on periodic
grids.  Summing the balance over the grid telescopes the flux away, which is
the global conservation statement.  For li-leps pairs the balance written
with the original density ``1 - cos(u)`` in place of ``r^2`` does not hold to
round-off; its residual shrinks at second order under mesh refinement and
serves as the discriminating control.  ep-fds pairs satisfy that
original-density balance to round-off, since ep-fds conserves the original
energy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .grid import Boundary
from .operators import delta_x, delta_y, h1_norm, one_minus_cos, time_average
from .problems import Problem
from .schemes import SchemeState


def _kinetic_and_gradient_density(state: SchemeState) -> tuple[np.ndarray, np.ndarray]:
    """``v^2/2 + (dx u)^2/2 + (dy u)^2/2`` per node, and the spare field it was built through.

    The differences read ``state.bv``.  Built in place in two new fields, in
    the order the closed form reads, so the density is the same bit for bit.
    """
    g = state.grid
    density = np.multiply(state.v, state.v, out=np.empty(g.shape))
    density *= 0.5
    scratch = np.empty(g.shape)
    for delta in (delta_x, delta_y):
        diff = delta(g, state.u, state.bv, out=scratch)
        diff *= diff
        diff *= 0.5
        density += diff
    return density, scratch


def local_energy_density(state: SchemeState) -> np.ndarray:
    """Modified energy density ``v^2/2 + (dx u)^2/2 + (dy u)^2/2 + r^2`` per node."""
    density, r_sq = _kinetic_and_gradient_density(state)
    density += np.multiply(state.r, state.r, out=r_sq)
    return density


def original_energy_density(state: SchemeState) -> np.ndarray:
    """Original density with ``1 - cos(u)`` in place of ``r^2``."""
    density, scratch = _kinetic_and_gradient_density(state)
    density += one_minus_cos(state.u, scratch, np.empty(state.grid.shape))
    return density


def _flux_divergence(state_n: SchemeState, state_np1: SchemeState) -> np.ndarray:
    """Discrete divergence of the energy flux between two consecutive levels.

    The flux product takes the time-averaged forward difference one node
    upwind of the time-averaged velocity (wrapping, as the balance is checked
    on periodic grids only), which is exactly the pattern the per-node
    balance requires.
    """
    g = state_n.grid
    atv = time_average(state_np1.v, state_n.v)
    atdx = time_average(delta_x(g, state_np1.u), delta_x(g, state_n.u))
    atdy = time_average(delta_y(g, state_np1.u), delta_y(g, state_n.u))
    px = np.roll(atdx, 1, axis=1) * atv
    py = np.roll(atdy, 1, axis=0) * atv
    return delta_x(g, px) + delta_y(g, py)


def _law_residual(density, state_n: SchemeState, state_np1: SchemeState,
                  tau: float) -> np.ndarray:
    """Per-node residual of the energy balance written with ``density``."""
    if state_n.grid is not state_np1.grid and state_n.grid != state_np1.grid:
        raise ValueError("states live on different grids")
    if state_n.grid.boundary is not Boundary.PERIODIC:
        raise ValueError("the per-node balance is defined on periodic grids only")
    if abs((state_np1.t - state_n.t) - tau) > 1e-9 * max(1.0, abs(tau)):
        raise ValueError("states are not consecutive levels separated by tau")
    ddens = (density(state_np1) - density(state_n)) / tau
    return ddens - _flux_divergence(state_n, state_np1)


def local_law_residual(state_n: SchemeState, state_np1: SchemeState, tau: float) -> np.ndarray:
    """Per-node residual of the modified energy balance; round-off for li-leps pairs."""
    return _law_residual(local_energy_density, state_n, state_np1, tau)


def original_law_residual(state_n: SchemeState, state_np1: SchemeState, tau: float) -> np.ndarray:
    """Residual of the balance written with the original density; round-off for ep-fds pairs only."""
    return _law_residual(original_energy_density, state_n, state_np1, tau)


def _energies(state: SchemeState) -> tuple[float, float]:
    """Total modified and original energy, through two work fields.

    The modified total sums :func:`local_energy_density`.  The original one
    sums the kinetic-plus-gradient density and ``1 - cos u`` apart, so that
    the second can be built in the first one's field.
    """
    density, scratch = _kinetic_and_gradient_density(state)
    kinetic_gradient = np.sum(density)
    density += np.multiply(state.r, state.r, out=scratch)
    modified = np.sum(density)
    potential = np.sum(one_minus_cos(state.u, density, scratch))
    area = state.grid.cell_area
    return area * float(modified), area * float(kinetic_gradient + potential)


def global_energy_modified(state: SchemeState) -> float:
    """Total modified energy; conserved exactly by li-leps on periodic grids."""
    return state.grid.cell_area * float(np.sum(local_energy_density(state)))


def global_energy_original(state: SchemeState) -> float:
    """Total original energy; conserved exactly by ep-fds on periodic grids."""
    return _energies(state)[1]


@dataclass(frozen=True)
class EnergyRecord:
    t: float
    e_modified: float
    e_original: float
    deviation: float


class EnergyRecorder:
    """Collects energy records every ``every`` steps (step 0 included).

    Both energies share one kinetic-plus-gradient density ``v^2/2 + (dx u)^2/2
    + (dy u)^2/2``, built in place; the modified energy adds ``r^2`` per node,
    the original one ``1 - cos u = 2t^2/(1 + t^2)`` with ``t = tan(u/2)``.  A
    record takes two work fields, and its totals equal
    :func:`global_energy_modified` and :func:`global_energy_original` bit for
    bit.  Dirichlet-exact states carry their own edge values, which the
    energies read.
    """

    def __init__(self, every: int = 1):
        if every < 1:
            raise ValueError("cadence must be at least 1")
        self.every = every
        self.records: list[EnergyRecord] = []
        self._e0: float | None = None

    def __call__(self, step: int, state: SchemeState) -> None:
        if step % self.every:
            return
        e_mod, e_orig = _energies(state)
        if self._e0 is None:
            self._e0 = e_mod
        dev = abs(e_mod - self._e0) / abs(self._e0) if self._e0 != 0 else abs(e_mod - self._e0)
        self.records.append(EnergyRecord(state.t, e_mod, e_orig, dev))


@dataclass(frozen=True)
class ErrorReport:
    """Norms of the numerical error against an exact solution at one time."""

    l2: float
    linf: float
    h1: float
    v_l2: float | None = None
    r_l2: float | None = None


def error_vs_exact(state: SchemeState, problem: Problem) -> ErrorReport:
    """Error norms at ``state.t``.

    On Dirichlet-exact grids the error field vanishes on the boundary, so its
    differences use zero edge data.  Velocity error is reported when the
    problem supplies an exact velocity; the auxiliary error compares against
    ``sqrt(2 - cos(exact))``.
    """
    g = state.grid
    exact_u = problem.sample_exact(g, state.t)
    err = state.u - exact_u
    v_l2 = None
    if problem.exact_v is not None:
        X, Y = g.meshgrid
        v_l2 = g.l2(state.v - np.asarray(problem.exact_v(X, Y, state.t), dtype=float))
    return ErrorReport(l2=g.l2(err), linf=g.linf(err), h1=h1_norm(g, err), v_l2=v_l2,
                       r_l2=g.l2(state.r - np.sqrt(2.0 - np.cos(exact_u))))


def convergence_orders(rows) -> list[float]:
    """Observed orders ``log2(err_k / err_{k+1})`` for a halving ``(h, tau)`` ladder.

    ``rows`` is a sequence of ``(h, tau, error)``; consecutive rows must halve
    both mesh parameters.
    """
    rows = list(rows)
    if len(rows) < 2:
        raise ValueError("need at least two rows")
    orders = []
    for (h0, t0, e0), (h1, t1, e1) in zip(rows, rows[1:]):
        if abs(h0 / h1 - 2.0) > 1e-9 or abs(t0 / t1 - 2.0) > 1e-9:
            raise ValueError(f"rows do not halve (h, tau): ({h0}, {t0}) -> ({h1}, {t1})")
        if e0 == 0 or e1 == 0:
            raise ValueError(f"an error of 0 has no order: ({h0}, {t0}, {e0}) -> ({h1}, {t1}, {e1})")
        orders.append(math.log2(e0 / e1))
    return orders
