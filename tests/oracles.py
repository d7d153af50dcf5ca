"""Independent oracles used by the test suite.

Everything here is deliberately naive: python loops, index arithmetic, and
dense linear algebra.  None of it shares code paths with the library's
vectorized operators or matrix-free solver, so agreement is meaningful.  The
two probes at the end check a problem's exact solution by finite
differences of the closed form alone.  ``peak_fields`` measures memory in
the unit the solver's memory model counts: float fields of one grid.
``interior_mask`` marks a grid's unknowns, for fields that must be zero on a
Dirichlet grid's pinned ring.  ``coupling_prime`` and ``coupling_second`` are
the coupling's derivatives in closed form, which the bound and
finite-difference checks of the coupling read.  ``ep_fds_step_residual`` is
the residual of ep-fds' step equation, built from a loop Laplacian.
"""

import math
import sys
import tracemalloc

import numpy as np


def peak_fields(fn, shape):
    """Peak memory that ``fn()`` allocates, in float64 fields of ``shape``.

    Traced by ``tracemalloc`` from the call on, so memory live before it
    does not count; numpy reports its array buffers to ``tracemalloc``.
    """
    tracemalloc.start()
    try:
        fn()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return peak / (8 * math.prod(shape))


def brute_force_inner(grid, U, V):
    """Plain python double loop for the weighted inner product."""
    total = 0.0
    for j2 in range(grid.n2):
        for j1 in range(grid.n1):
            total += U[j2, j1] * V[j2, j1]
    return grid.h1 * grid.h2 * total


def interior_mask(grid):
    """True where the steppers solve for unknowns, False on a Dirichlet grid's pinned ring.

    The ring is the low edges ``j1 == 0`` and ``j2 == 0``; every node of a
    periodic grid is an unknown.
    """
    mask = np.ones((grid.n2, grid.n1), dtype=bool)
    if grid.boundary.value == "dirichlet-exact":
        mask[0, :] = False
        mask[:, 0] = False
    return mask


def dense_laplacian_periodic(grid):
    """Dense 5-point periodic Laplacian assembled by index arithmetic."""
    n1, n2 = grid.n1, grid.n2
    n = n1 * n2
    L = np.zeros((n, n))

    def idx(j1, j2):
        return (j2 % n2) * n1 + (j1 % n1)

    for j2 in range(n2):
        for j1 in range(n1):
            row = idx(j1, j2)
            L[row, idx(j1 + 1, j2)] += 1.0 / grid.h1**2
            L[row, idx(j1 - 1, j2)] += 1.0 / grid.h1**2
            L[row, row] += -2.0 / grid.h1**2
            L[row, idx(j1, j2 + 1)] += 1.0 / grid.h2**2
            L[row, idx(j1, j2 - 1)] += 1.0 / grid.h2**2
            L[row, row] += -2.0 / grid.h2**2
    return L


def dense_system_matrix(grid, tau, d):
    """Dense version of I - (tau^2/4)*Lap + (tau^2/8)*diag(d)^2 on a periodic grid."""
    n = grid.n1 * grid.n2
    L = dense_laplacian_periodic(grid)
    D2 = np.diag(np.asarray(d).ravel() ** 2)
    return np.eye(n) - 0.25 * tau**2 * L + 0.125 * tau**2 * D2


def coupled_step_dense(grid, u, v, r, d, tau):
    """One step of the coupled three-field system solved densely.

    Unknowns (u+, v+, r+) satisfy
        (u+ - u)/tau = (v+ + v)/2
        (v+ - v)/tau = Lap (u+ + u)/2 - d (r+ + r)/2
        (r+ - r)/tau = (d/2) (v+ + v)/2
    """
    n = grid.n1 * grid.n2
    L = dense_laplacian_periodic(grid)
    I = np.eye(n)
    Z = np.zeros((n, n))
    dd = np.asarray(d).ravel()
    uf, vf, rf = (np.asarray(w).ravel() for w in (u, v, r))
    A = np.block([
        [I / tau, -I / 2.0, Z],
        [-L / 2.0, I / tau, np.diag(dd) / 2.0],
        [Z, -np.diag(dd) / 4.0, I / tau],
    ])
    rhs = np.concatenate([
        uf / tau + vf / 2.0,
        vf / tau + L @ uf / 2.0 - dd * rf / 2.0,
        rf / tau + dd * vf / 4.0,
    ])
    sol = np.linalg.solve(A, rhs)
    shape = grid.shape
    return sol[:n].reshape(shape), sol[n:2 * n].reshape(shape), sol[2 * n:].reshape(shape)


def naive_laplacian(grid, U, edge=None):
    """5-point Laplacian by index arithmetic, python loops.

    Periodic grids wrap.  On Dirichlet grids only the unknowns (``j1, j2 >=
    1``) are filled, the pinned ring stays zero, and reads one node past the
    high edges take ``edge = (right, top)``, zeros when None.  In 1D mode
    both y-neighbours wrap onto the node itself, so the y-term vanishes.
    """
    n1, n2 = grid.n1, grid.n2
    periodic = grid.boundary.value == "periodic"
    right, top = (np.zeros(n2), np.zeros(n1)) if edge is None else edge
    mask = interior_mask(grid)

    def at(j1, j2):
        if periodic:
            return U[j2 % n2, j1 % n1]
        if j1 == n1:
            return right[j2]
        if j2 == n2:
            return top[j1]
        return U[j2, j1]

    out = np.zeros((n2, n1))
    for j2 in range(n2):
        for j1 in range(n1):
            if mask[j2, j1]:
                out[j2, j1] = ((at(j1 + 1, j2) - 2.0 * U[j2, j1] + at(j1 - 1, j2)) / grid.h1**2
                               + (at(j1, j2 + 1) - 2.0 * U[j2, j1] + at(j1, j2 - 1)) / grid.h2**2)
    return out


def ep_fds_step_residual(state, new, tau, cg_tol):
    """``(l2(A delta - b0 + (tau^2/2) Q(delta)), target)`` of an ep-fds step ``state -> new``.

    The step equation in increment form, on the unknowns: ``A = I -
    (tau^2/4) Lap`` with zero edge data, ``b0 = tau v + (tau^2/2) Lap u``
    plus, on Dirichlet grids, ``(tau^2/4) Lap`` of the edge data's change,
    and ``Q(delta) = (cos u - cos(u + delta))/delta``, taken as ``sin(u +
    delta/2) sinc(delta/2)``.  ``delta`` is read from the velocities,
    ``(tau/2)(v + v_new)``, which the step sets exactly from it; ``u_new -
    u`` would carry the rounding of ``u``.  ``target = cg_tol * max(l2(b0),
    (tau^2/2) l2(sin u))``, both on the unknowns, at least the smallest
    normal float.
    """
    grid = state.grid
    mask = interior_mask(grid)
    c = 0.5 * tau * tau

    def l2(U):
        return math.sqrt(brute_force_inner(grid, U, U))

    delta = np.where(mask, 0.5 * tau * (state.v + new.v), 0.0)
    b0 = tau * state.v
    if state.bv is None:
        b0 = b0 + c * naive_laplacian(grid, state.u)
    else:
        edge_change = (new.bv.right - state.bv.right, new.bv.top - state.bv.top)
        ring_change = np.where(mask, 0.0, new.u - state.u)
        b0 = (b0 + c * naive_laplacian(grid, state.u, (state.bv.right, state.bv.top))
              + 0.5 * c * naive_laplacian(grid, ring_change, edge_change))
    b0 = np.where(mask, b0, 0.0)
    a_delta = delta - 0.5 * c * naive_laplacian(grid, delta)
    quotient = np.sin(state.u + 0.5 * delta) * np.sinc(delta / (2.0 * np.pi))
    residual = np.where(mask, a_delta - b0 + c * quotient, 0.0)
    sin_scale = c * l2(np.where(mask, np.sin(state.u), 0.0))
    target = max(cg_tol * max(l2(b0), sin_scale), sys.float_info.min)
    return l2(residual), target


def li_leps_step_residual(state, new, tau, cg_tol):
    """``(l2(A u_new - rhs), target)`` of a li-leps step ``state -> new``, in absolute form.

    The step system on the unknowns, ``A u_new = u + tau v + (tau^2/4) Lap u
    + (tau^2/8) d^2 u - (tau^2/2) d r`` with ``A = I - (tau^2/4) Lap +
    (tau^2/8) d^2``, where each Laplacian reads its own level's edge data on
    a Dirichlet grid (its field's ring and that level's high-edge values),
    and ``d = sin(w) / sqrt(2 - cos w)`` at ``w = (3 u - u_prev)/2``, or at
    ``u`` on a first step.  ``target = cg_tol * max(1, l2(rhs - A pinned),
    l2(u))``, all on the unknowns, ``pinned`` being ``u`` with the new edge
    data on its ring: the step's stop, scaled by its increment's right-hand
    side and its field.
    """
    grid = state.grid
    mask = interior_mask(grid)
    c = 0.25 * tau * tau
    w = state.u if state.u_prev is None else 1.5 * state.u - 0.5 * state.u_prev
    d = np.sin(w) / np.sqrt(2.0 - np.cos(w))
    old_edge = None if state.bv is None else (state.bv.right, state.bv.top)
    new_edge = None if new.bv is None else (new.bv.right, new.bv.top)

    def l2(U):
        U = np.where(mask, U, 0.0)
        return math.sqrt(brute_force_inner(grid, U, U))

    def system(U):
        return U - c * naive_laplacian(grid, U, new_edge) + 0.5 * c * d * d * U

    rhs = (state.u + tau * state.v + c * naive_laplacian(grid, state.u, old_edge)
           + 0.5 * c * d * d * state.u - 2.0 * c * d * state.r)
    pinned = np.where(mask, state.u, new.u)
    target = cg_tol * max(1.0, l2(rhs - system(pinned)), l2(state.u))
    return l2(system(new.u) - rhs), target


def centered_derivative(fn, x, h=1e-4):
    """Second-order centered first derivative."""
    return (fn(x + h) - fn(x - h)) / (2.0 * h)


def _finite(x):
    x = np.asarray(x, dtype=float)
    if not np.all(np.isfinite(x)):
        raise ValueError("non-finite input")
    return x


def coupling_prime(x):
    """First derivative of the coupling ``sin x / sqrt(2 - cos x)``; bounded by 3/2."""
    x = _finite(x)
    p = 2.0 - np.cos(x)
    return np.cos(x) / np.sqrt(p) - np.sin(x) ** 2 / (2.0 * p**1.5)


def coupling_second(x):
    """Second derivative of the coupling; bounded by 5/2."""
    x = _finite(x)
    p = 2.0 - np.cos(x)
    return (-np.sin(x) / np.sqrt(p) - 3.0 * np.sin(2.0 * x) / (4.0 * p**1.5)
            + 3.0 * np.sin(x) ** 3 / (4.0 * p**2.5))


def centered_second(fn, x, h=1e-4):
    return (fn(x + h) - 2.0 * fn(x) + fn(x - h)) / h**2


def pointwise_density(state):
    """Per-node modified energy density by the direct formula, python loops."""
    g = state.grid
    out = np.empty(g.shape)
    for j2 in range(g.n2):
        for j1 in range(g.n1):
            dxu = (state.u[j2, (j1 + 1) % g.n1] - state.u[j2, j1]) / g.h1
            dyu = (state.u[(j2 + 1) % g.n2, j1] - state.u[j2, j1]) / g.h2
            out[j2, j1] = (0.5 * state.v[j2, j1] ** 2 + 0.5 * dxu**2 + 0.5 * dyu**2
                           + state.r[j2, j1] ** 2)
    return out


def check_initial_consistency(p, n_probe=9):
    """exact(x,y,0) must equal f and its 6th-order time derivative must equal g."""
    xs = np.linspace(p.x_lo, p.x_hi, n_probe)
    ys = np.linspace(p.y_lo, p.y_hi, n_probe) if p.dim == 2 else np.zeros(n_probe)
    X, Y = np.meshgrid(xs, ys)
    f_err = np.max(np.abs(p.exact(X, Y, 0.0) - p.f(X, Y)))
    dt = 5e-3
    # 6th-order central first derivative at t = 0
    w = np.array([-1.0, 9.0, -45.0, 0.0, 45.0, -9.0, 1.0]) / (60.0 * dt)
    du = sum(wk * p.exact(X, Y, k * dt) for wk, k in zip(w, range(-3, 4)))
    g_err = np.max(np.abs(du - p.g(X, Y)))
    if f_err > 1e-12 or g_err > 1e-12:
        raise ValueError(
            f"{p.name}: exact solution inconsistent with initial data "
            f"(|f| mismatch {f_err:.2e}, |g| mismatch {g_err:.2e})"
        )


def pde_residual_probe(problem, n_samples=100, seed=0, dt=1e-3, dx=1e-3):
    """Max |u_tt - Lap(u) + sin(u)| of the exact solution at random samples.

    Uses 4th-order central second-difference probes in each direction; the
    sampling avoids the domain edges so all probe points stay interior.
    """
    if problem.exact is None:
        raise ValueError("problem has no exact solution")
    rng = np.random.default_rng(seed)
    pad_x = 0.05 * (problem.x_hi - problem.x_lo)
    xs = rng.uniform(problem.x_lo + pad_x, problem.x_hi - pad_x, n_samples)
    if problem.dim == 2:
        pad_y = 0.05 * (problem.y_hi - problem.y_lo)
        ys = rng.uniform(problem.y_lo + pad_y, problem.y_hi - pad_y, n_samples)
    else:
        ys = np.zeros(n_samples)
    ts = rng.uniform(0.1, 1.0, n_samples)

    w2 = np.array([-1.0, 16.0, -30.0, 16.0, -1.0]) / 12.0

    def second(fn, h):
        return sum(wk * fn(k) for wk, k in zip(w2, range(-2, 3))) / h**2

    u = problem.exact(xs, ys, ts)
    utt = second(lambda k: problem.exact(xs, ys, ts + k * dt), dt)
    uxx = second(lambda k: problem.exact(xs + k * dx, ys, ts), dx)
    res = utt - uxx + np.sin(u)
    if problem.dim == 2:
        uyy = second(lambda k: problem.exact(xs, ys + k * dx, ts), dx)
        res = res - uyy
    return float(np.max(np.abs(res)))
