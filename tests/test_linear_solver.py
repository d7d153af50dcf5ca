import numpy as np
import pytest

from sinegordon import (Boundary, NonConvergenceError, NumericalError, SystemOperator,
                        coupling, get_problem, make_grid, pcg_solve)

from sinegordon.linear_solver import SolveReport, _spectral, _spectral_solve, _workspace
from sinegordon.schemes import CG_TOL, _base, init_state

from oracles import dense_system_matrix, interior_mask, peak_fields


def target_of(grid, rhs, tol=CG_TOL):
    """The absolute target ``tol * max(1, l2(rhs))``: the run's tolerance scaled to ``rhs``."""
    return tol * max(1.0, grid.l2(rhs))


def random_operator(grid, tau, seed=0):
    rng = np.random.default_rng(seed)
    d = coupling(rng.uniform(-np.pi, np.pi, size=grid.shape))
    return SystemOperator(grid, tau, d)


def test_zero_tau_is_identity():
    g = make_grid(0, 1, 0, 1, n1=8, n2=8)
    rng = np.random.default_rng(1)
    op = SystemOperator(g, 0.0, rng.normal(size=g.shape))
    w = rng.normal(size=g.shape)
    np.testing.assert_array_equal(op.apply(w), w)


def test_spike_stencil_arithmetic():
    g = make_grid(0, 4, n1=4)
    op = SystemOperator(g, 2.0, np.zeros(g.shape))
    w = np.array([[1.0, 0.0, 0.0, 0.0]])
    np.testing.assert_array_equal(op.apply(w), [[3.0, -1.0, 0.0, -1.0]])


def test_apply_writes_into_out():
    for g in (make_grid(0, 1, 0, 2, n1=6, n2=5), make_grid(0, 3, n1=7),
              get_problem("line-kink-2d").grid(9, 7)):
        op = random_operator(g, 0.7, seed=21)
        w = np.random.default_rng(22).normal(size=g.shape)
        buf = np.full(g.shape, np.nan)
        assert op.apply(w, out=buf) is buf
        np.testing.assert_array_equal(buf, op.apply(w))


@pytest.mark.parametrize("ratio", [0.07, 14.0])
@pytest.mark.parametrize("grid", [
    make_grid(0, 1, 0, 1, n1=2, n2=2), make_grid(0, 1, 0, 2, n1=2, n2=5),
    make_grid(0, 1, 0, 2, n1=9, n2=7), make_grid(0, 1, n1=7),
], ids=["2x2", "2x5", "9x7", "1d-7"])
def test_apply_matches_dense_matrix(grid, ratio):
    tau = ratio * grid.h1
    op = random_operator(grid, tau, seed=31)
    w = np.random.default_rng(32).normal(size=grid.shape)
    ref = (dense_system_matrix(grid, tau, op.d) @ w.ravel()).reshape(grid.shape)
    np.testing.assert_allclose(op.apply(w), ref, rtol=0, atol=1e-13 * np.max(np.abs(ref)))


@pytest.mark.parametrize("tau", [0.01, 0.3, 5.0])
@pytest.mark.parametrize("grid", [make_grid(0, 1, 0, 1, n1=8, n2=8), make_grid(0, 1, n1=8)],
                         ids=["square", "1d"])
def test_apply_maps_constants_exactly_where_d_vanishes(grid, tau):
    # A rounded diagonal acting as (1 + eps) I would drift the conserved energy
    op = SystemOperator(grid, tau, np.zeros(grid.shape))
    for c in (0.3, 1.7, -2.9, 2 * np.pi):
        w = np.full(grid.shape, c)
        np.testing.assert_array_equal(op.apply(w), w)


def test_apply_symmetric_positive_definite_small():
    g = make_grid(0, 1, 0, 1, n1=8, n2=8)
    op = random_operator(g, 0.05, seed=2)
    rng = np.random.default_rng(3)
    w = rng.normal(size=g.shape)
    v = rng.normal(size=g.shape)
    assert g.inner(op.apply(w), w) >= g.inner(w, w)
    lhs = g.inner(op.apply(w), v)
    rhs = g.inner(w, op.apply(v))
    assert lhs == pytest.approx(rhs, rel=1e-13)


@pytest.mark.parametrize("shape", [(4, 4), (12, 12), (12, 7)])
def test_dense_assembly_spd(shape):
    n1, n2 = shape
    g = make_grid(0, 1, 0, 1, n1=n1, n2=n2)
    op = random_operator(g, 0.1, seed=n1 + n2)
    n = g.num_nodes
    A = np.zeros((n, n))
    for j in range(n):
        e = np.zeros(n)
        e[j] = 1.0
        A[:, j] = op.apply(e.reshape(g.shape)).ravel()
    assert np.max(np.abs(A - A.T)) <= 1e-13 * np.max(np.abs(A))
    eigs = np.linalg.eigvalsh(0.5 * (A + A.T))
    assert eigs.min() >= 1.0 - 1e-12
    # matrix-free application matches the independent dense assembly
    A_oracle = dense_system_matrix(g, 0.1, op.d)
    assert np.max(np.abs(A - A_oracle)) <= 1e-12


def test_diagonal_matches_dense():
    g = make_grid(0, 1, 0, 2, n1=6, n2=5)
    op = random_operator(g, 0.2, seed=9)
    A = dense_system_matrix(g, 0.2, op.d)
    np.testing.assert_allclose(op.diagonal().ravel(), np.diag(A), rtol=1e-13)
    # the Jacobi path keeps the diagonal's reciprocal, a float without d
    np.testing.assert_array_equal(op._jacobi, 1.0 / op.diagonal())
    bare = SystemOperator(g, 0.2)
    assert bare._jacobi == 1.0 / bare.diagonal()


def count_diagonals(monkeypatch):
    calls = []
    diagonal = SystemOperator.diagonal
    monkeypatch.setattr(SystemOperator, "diagonal",
                        lambda self: calls.append(self) or diagonal(self))
    return calls


def count_applies(monkeypatch):
    calls = []
    apply = SystemOperator.apply
    monkeypatch.setattr(SystemOperator, "apply",
                        lambda self, w, out=None: calls.append(self) or apply(self, w, out=out))
    return calls


def test_diagonal_computed_once_per_operator(monkeypatch):
    g = make_grid(0, 1, 0, 1, n1=8, n2=8)
    op = random_operator(g, 0.01, seed=3)
    calls = count_diagonals(monkeypatch)
    rng = np.random.default_rng(4)
    for _ in range(3):
        rhs = rng.normal(size=g.shape)
        assert pcg_solve(op, rhs, target_of(g, rhs))[1].preconditioner == "jacobi"
    assert len(calls) == 1


def test_spectral_solves_compute_no_diagonal(monkeypatch):
    g = make_grid(0, 1, 0, 1, n1=8, n2=8)
    op = random_operator(g, 0.1, seed=3)
    calls = count_diagonals(monkeypatch)
    rng = np.random.default_rng(4)
    for _ in range(3):
        rhs = rng.normal(size=g.shape)
        assert pcg_solve(op, rhs, target_of(g, rhs))[1].preconditioner == "spectral"
    assert calls == []


@pytest.mark.parametrize("grid,tau", [
    (make_grid(0, 1, 0, 2, n1=9, n2=7), 0.01), (make_grid(0, 1, 0, 2, n1=9, n2=7), 0.5),
    (make_grid(0, 3, n1=7), 0.3), (get_problem("line-kink-2d").grid(9, 7), 2.0),
], ids=["jacobi-9x7", "spectral-9x7", "1d-7", "dirichlet-9x7"])
def test_operator_without_d_matches_zero_d(grid, tau):
    bare, zero = SystemOperator(grid, tau), SystemOperator(grid, tau, np.zeros(grid.shape))
    rng = np.random.default_rng(45)
    w, rhs = np.where(interior_mask(grid), rng.normal(size=(2, *grid.shape)), 0.0)
    np.testing.assert_array_equal(bare.apply(w), zero.apply(w))
    x, report = pcg_solve(bare, rhs, target_of(grid, rhs))
    x0, report0 = pcg_solve(zero, rhs, target_of(grid, rhs))
    np.testing.assert_array_equal(x, x0)
    assert report == report0
    # the diagonal does not depend on the boundary mode
    assert isinstance(bare.diagonal(), float)
    assert np.all(np.diag(dense_system_matrix(grid, tau, np.zeros(grid.shape)))
                  == bare.diagonal())


def test_repeat_solve_allocates_at_most_two_fields():
    g = make_grid(0, 1, 0, 1, n1=64, n2=48)
    op = random_operator(g, 0.3, seed=26)
    rng = np.random.default_rng(27)
    rhs, x0 = rng.normal(size=g.shape), rng.normal(size=g.shape)
    target = target_of(g, rhs)
    _, report = pcg_solve(op, rhs, target, x0.copy())  # warm-up: the workspace and the diagonal
    assert report.iterations >= 2
    assert peak_fields(lambda: pcg_solve(op, rhs, target, x0.copy()), g.shape) <= 2


@pytest.mark.parametrize("tau", [0.01, 0.2], ids=["jacobi", "spectral"])
def test_warm_solve_allocates_only_its_result(tau):
    # ring-paper's 200^2 mesh; inner products write no product field, so the
    # returned x is the only field a warm solve allocates
    g = make_grid(-14, 14, -14, 14, n1=200, n2=200)
    op = random_operator(g, tau, seed=30)
    rhs = np.random.default_rng(31).normal(size=g.shape)
    target = target_of(g, rhs)
    _, report = pcg_solve(op, rhs, target)  # warm-up: the workspace and the preconditioner
    assert report.iterations >= 2
    assert peak_fields(lambda: pcg_solve(op, rhs, target), g.shape) <= 1.05


def test_results_share_no_memory_with_the_workspace():
    g = make_grid(0, 1, 0, 2, n1=9, n2=7)
    op = random_operator(g, 0.5, seed=28)
    rng = np.random.default_rng(29)
    rhs, x0, w = (rng.normal(size=g.shape) for _ in range(3))
    target = target_of(g, rhs)
    results = [pcg_solve(op, rhs, target)[0], pcg_solve(op, rhs, target, x0.copy())[0],
               op.apply(w)]
    work = _workspace(g.shape)
    for res in results:
        for field in (*work, rhs, x0, w):
            assert not np.shares_memory(res, field)


def test_alternating_shapes_solve_as_in_reverse_order():
    ops = [random_operator(make_grid(0, 1, 0, 1, n1=12, n2=10), 0.4, seed=33),
           random_operator(make_grid(0, 3, n1=40), 0.4, seed=34)]
    rng = np.random.default_rng(35)
    solves = [(op, rng.normal(size=op.grid.shape), rng.normal(size=op.grid.shape))
              for _ in range(3) for op in ops]

    def solve_all(order):
        x = {}
        for i in order:
            op, rhs, x0 = solves[i]
            x[i] = pcg_solve(op, rhs, target_of(op.grid, rhs), x0.copy())[0]
        return x

    forward = solve_all(range(len(solves)))
    backward = solve_all(reversed(range(len(solves))))
    for i in forward:
        np.testing.assert_array_equal(forward[i], backward[i])


def test_manufactured_solution_recovered():
    g = make_grid(0, 1, 0, 1, n1=16, n2=16)
    op = random_operator(g, 0.05, seed=4)
    rng = np.random.default_rng(5)
    x_star = rng.normal(size=g.shape)
    rhs = op.apply(x_star)
    x, report = pcg_solve(op, rhs, target_of(g, rhs))
    assert report.converged
    assert g.l2(x - x_star) <= 1e-12


def test_zero_rhs_zero_iterations():
    g = make_grid(0, 1, 0, 1, n1=8, n2=8)
    op = random_operator(g, 0.1, seed=6)
    x, report = pcg_solve(op, np.zeros(g.shape), CG_TOL)
    assert report.iterations == 0
    assert np.all(x == 0.0)


def test_identity_system_converges_in_one_iteration():
    g = make_grid(0, 1, 0, 1, n1=8, n2=8)
    rng = np.random.default_rng(7)
    op = SystemOperator(g, 0.0, np.zeros(g.shape))
    rhs = rng.normal(size=g.shape)
    x, report = pcg_solve(op, rhs, target_of(g, rhs))
    assert report.iterations <= 1
    np.testing.assert_allclose(x, rhs, rtol=0, atol=1e-14)


def test_residual_contract():
    g = make_grid(0, 1, 0, 1, n1=20, n2=20)
    op = random_operator(g, 0.08, seed=8)
    rng = np.random.default_rng(9)
    rhs = rng.normal(size=g.shape)
    x, report = pcg_solve(op, rhs, target_of(g, rhs, 1e-14))
    res = g.l2(rhs - op.apply(x))
    assert res <= 1e-14 * max(1.0, g.l2(rhs))
    # the recurrence residual tracks the true one up to round-off drift
    assert report.final_residual == pytest.approx(res, rel=0.2, abs=1e-16)


def test_dirichlet_solve_stays_on_interior_unknowns():
    g = get_problem("line-kink-2d").grid(9, 7)
    assert g.boundary is Boundary.DIRICHLET_EXACT
    op = random_operator(g, 2.0, seed=15)
    interior = interior_mask(g)
    rng = np.random.default_rng(16)
    rhs = np.where(interior, rng.normal(size=g.shape), 0.0)
    x0 = np.where(interior, rng.normal(size=g.shape), 0.0)
    x, report = pcg_solve(op, rhs, target_of(g, rhs), x0)
    assert report.converged and report.iterations >= 2
    assert np.all(x[~interior] == 0.0)
    # CG's residual, search direction and its image stayed on the unknowns too
    for field in _workspace(g.shape)[:3]:
        assert np.all(field[~interior] == 0.0)
    # the interior block of the operator, assembled column by column
    unknowns = np.flatnonzero(interior)
    A = np.empty((unknowns.size, unknowns.size))
    for col, j in enumerate(unknowns):
        e = np.zeros(g.num_nodes)
        e[j] = 1.0
        Ae = op.apply(e.reshape(g.shape))
        assert np.all(Ae[~interior] == 0.0)
        A[:, col] = Ae.ravel()[unknowns]
    x_dense = np.linalg.solve(A, rhs.ravel()[unknowns])
    np.testing.assert_allclose(x.ravel()[unknowns], x_dense, rtol=0, atol=1e-12)


def test_apply_interior_ignores_the_pinned_ring():
    g = get_problem("line-kink-2d").grid(9, 7)
    op = random_operator(g, 2.0, seed=17)
    interior = interior_mask(g)
    w = np.random.default_rng(18).normal(size=g.shape)
    out = op.apply_interior(w)
    assert np.all(out[~interior] == 0.0)
    np.testing.assert_array_equal(out, op.apply(np.where(interior, w, 0.0)))
    p = make_grid(0, 1, 0, 2, n1=6, n2=5)
    op = random_operator(p, 0.4, seed=19)
    w = np.random.default_rng(20).normal(size=p.shape)
    np.testing.assert_array_equal(op.apply_interior(w), op.apply(w))


def test_error_energy_norm_decreases_monotonically():
    # Tighter tolerances stop later on one deterministic iterate sequence, so
    # the A-norm error of the returned solutions must not grow down the ladder.
    g = make_grid(0, 1, 0, 1, n1=10, n2=10)
    rhs = np.random.default_rng(11).normal(size=g.shape)
    for tau, preconditioner in ((0.3, "spectral"), (0.01, "jacobi")):
        op = random_operator(g, tau, seed=10)
        A = dense_system_matrix(g, tau, op.d)
        x_star = np.linalg.solve(A, rhs.ravel()).reshape(g.shape)
        history, iterations = [], []
        for tol in 10.0 ** -np.arange(1, 15):
            x, report = pcg_solve(op, rhs, target_of(g, rhs, tol))
            assert report.preconditioner == preconditioner
            e = x - x_star
            history.append(np.sqrt(g.inner(op.apply(e), e)))
            iterations.append(report.iterations)
        assert iterations[-1] > iterations[0] and history[-1] < history[0]
        for prev, cur in zip(history, history[1:]):
            assert cur <= prev + 1e-14


def test_non_convergence_raises():
    # 1D Jacobi CG at tau/h 16 needs more than its 10 * sqrt(400) iterations
    g = make_grid(0, 40, n1=400)
    op = random_operator(g, 16 * g.h1, seed=12)
    rhs = np.random.default_rng(13).normal(size=g.shape)
    with pytest.raises(NonConvergenceError, match=r"did not reach .* within 200 iterations"):
        pcg_solve(op, rhs, target_of(g, rhs))


def test_true_residual_floor_above_the_target_raises_stagnation(monkeypatch):
    # li-leps' first system on double-pole-1d n 3200 at tau/h 32: the recursive
    # residual meets the 1e-14 target at iterations 411, 452 and 489, but the
    # true residual misses it each time and replaces it for a restart.  At
    # iteration 525 the true residual (3.44e-13, recursive 9.58e-15) no longer
    # decreases: the solve raises on the stagnation rule at its round-off
    # floor, well before its 565-iteration cap.
    p = get_problem("double-pole-1d")
    g = p.grid(3200)
    tau = 32 * g.h1
    state = init_state(p, g)
    d = coupling(state.u)
    rhs = _base(state, tau)[0] - 0.5 * tau * tau * d * state.r
    calls = count_applies(monkeypatch)
    with pytest.raises(NonConvergenceError, match=r"stagnated at iteration \d+: true residual"):
        pcg_solve(SystemOperator(g, tau, d), rhs, 1e-14)
    assert len(calls) < 565


def test_non_finite_or_nonpositive_tau_and_tol_rejected():
    # the solve's tolerance is its absolute target
    g = make_grid(0, 1, 0, 1, n1=8, n2=8)
    rhs = np.random.default_rng(67).normal(size=g.shape)
    for bad in (-0.1, np.nan, np.inf):
        with pytest.raises(ValueError, match="tau"):
            SystemOperator(g, bad)
    op = random_operator(g, 0.1, seed=68)
    for bad in (0.0, -1e-14, np.nan, np.inf):
        with pytest.raises(ValueError, match="target"):
            pcg_solve(op, rhs, bad)


def test_grid_mismatch_rejected():
    g = make_grid(0, 1, 0, 1, n1=8, n2=8)
    op = random_operator(g, 0.1, seed=14)
    with pytest.raises(ValueError):
        op.apply(np.zeros((3, 3)))
    with pytest.raises(ValueError):
        pcg_solve(op, np.zeros((3, 3)), CG_TOL)


@pytest.mark.parametrize("grid", [
    make_grid(0, 1, 0, 2, n1=9, n2=7), make_grid(0, 1, 0, 2, n1=2, n2=5),
    make_grid(0, 1, 0, 2, n1=12, n2=10), make_grid(0, 1, 0, 2, n1=64, n2=48),
], ids=["9x7", "2x5", "12x10", "64x48"])
def test_spectral_preconditioner_inverts_the_constant_operator(grid):
    tau = 2.0 * grid.h1
    op0 = SystemOperator(grid, tau, np.zeros(grid.shape))
    w = np.random.default_rng(40).normal(size=grid.shape)
    spectral = _spectral(grid.shape, grid.h1, grid.h2, tau)
    out = _spectral_solve(spectral, op0.apply(w), np.empty(grid.shape))
    assert grid.l2(out - w) <= 1e-13 * grid.l2(w)


def test_spectral_solve_matches_dense_oracle():
    g = make_grid(0, 1, 0, 1, n1=12, n2=10)
    tau = 3.0 * g.h1
    op = random_operator(g, tau, seed=41)
    rhs = np.random.default_rng(42).normal(size=g.shape)
    x, report = pcg_solve(op, rhs, target_of(g, rhs))
    assert report.preconditioner == "spectral" and report.converged
    x_dense = np.linalg.solve(dense_system_matrix(g, tau, op.d), rhs.ravel())
    np.testing.assert_allclose(x.ravel(), x_dense, rtol=0, atol=1e-12)


def test_spectral_solve_stops_when_the_true_residual_stagnates(monkeypatch):
    # The recursive residual keeps falling far below 1e-17; the true one
    # stalls at round-off, so the solve must fail instead of reporting it.
    g = make_grid(0, 1, 0, 1, n1=32, n2=32)
    op = random_operator(g, 0.1, seed=43)
    rhs = np.random.default_rng(44).normal(size=g.shape)
    calls = count_applies(monkeypatch)
    with pytest.raises(NonConvergenceError, match=r"true residual .*recursive"):
        pcg_solve(op, rhs, target_of(g, rhs, 1e-17))
    assert 0 < len(calls) <= 32  # a matvec per iteration and per true residual; the cap is 320


@pytest.mark.parametrize("with_zero_d", [False, True], ids=["no-d", "zero-d"])
@pytest.mark.parametrize("grid", [
    make_grid(0, 1, 0, 2, n1=9, n2=7), make_grid(0, 1, 0, 2, n1=64, n2=48),
], ids=["9x7", "64x48"])
def test_d_free_spectral_solve_is_one_exact_step(grid, with_zero_d, monkeypatch):
    # Without d the spectral preconditioner is A's exact inverse: the solve
    # returns P rhs, checked by one true residual, whatever start it is given.
    tau = 2.0 * grid.h1
    op = SystemOperator(grid, tau, np.zeros(grid.shape) if with_zero_d else None)
    rng = np.random.default_rng(46)
    rhs, x0 = rng.normal(size=(2, *grid.shape))
    direct = _spectral_solve(_spectral(grid.shape, grid.h1, grid.h2, tau), rhs,
                             np.empty(grid.shape))
    calls = count_applies(monkeypatch)
    x, report = pcg_solve(op, rhs, target_of(grid, rhs))
    assert len(calls) == 1
    np.testing.assert_array_equal(x, direct)
    assert report == SolveReport(1, grid.l2(rhs - op.apply(x)), True, "spectral")
    for start in (x0, -x0):
        x_start, report_start = pcg_solve(op, rhs, target_of(grid, rhs), start)
        np.testing.assert_array_equal(x_start, x)
        assert report_start == report


@pytest.mark.parametrize("grid,tau,d", [
    (make_grid(-14, 14, -14, 14, n1=40, n2=40), 0.05, None),  # ring-paper's tau/h, 0.07
    (make_grid(0, 3, n1=40), 0.3, None),                       # 1D, tau/h 4
    (get_problem("line-kink-2d").grid(9, 7), 2.0, None),       # Dirichlet-exact
    (make_grid(0, 1, 0, 2, n1=9, n2=7), 0.5, 0.3),             # spectral, d != 0
], ids=["ring-paper", "1d", "dirichlet", "spectral-with-d"])
def test_other_solves_start_from_x0(grid, tau, d):
    # Only d-free spectral solves skip their start: every other solve started
    # from its own solution returns it after no iteration.
    op = SystemOperator(grid, tau, None if d is None else np.full(grid.shape, d))
    x_star = np.where(interior_mask(grid), np.random.default_rng(47).normal(size=grid.shape),
                      0.0)
    rhs = op.apply(x_star)
    x, report = pcg_solve(op, rhs, target_of(grid, rhs), x_star.copy())
    assert report.preconditioner == ("jacobi" if d is None else "spectral")
    assert report.iterations == 0 and report.final_residual == 0.0
    np.testing.assert_array_equal(x, x_star)


def test_d_free_spectral_solve_missing_its_target_continues_cg(monkeypatch):
    # At 1e-17 the direct solution misses the target: CG goes on from it until
    # its true residual stagnates at round-off, and the solve fails.
    g = make_grid(0, 1, 0, 1, n1=32, n2=32)
    op = SystemOperator(g, 0.1)
    rhs = np.random.default_rng(48).normal(size=g.shape)
    assert pcg_solve(op, rhs, target_of(g, rhs))[1].iterations == 1
    calls = count_applies(monkeypatch)
    with pytest.raises(NonConvergenceError, match=r"true residual .*recursive"):
        pcg_solve(op, rhs, target_of(g, rhs, 1e-17))
    assert 1 < len(calls) <= 32  # a matvec per iteration and per true residual; the cap is 320


@pytest.mark.parametrize("grid,tau,with_d", [
    (make_grid(-14, 14, -14, 14, n1=40, n2=40), 0.05, True),  # Jacobi
    (make_grid(0, 1, 0, 2, n1=12, n2=10), 0.3, True),         # spectral CG
    (make_grid(0, 1, 0, 2, n1=12, n2=10), 0.3, False),        # direct spectral
], ids=["jacobi", "spectral-cg", "direct"])
def test_solve_into_x0_runs_in_place_and_bit_identical(grid, tau, with_d):
    # the given start field is the one returned, solved in place
    op = random_operator(grid, tau, seed=60) if with_d else SystemOperator(grid, tau)
    rng = np.random.default_rng(61)
    rhs, x0 = rng.normal(size=(2, *grid.shape))
    target = target_of(grid, rhs)
    expected, expected_report = pcg_solve(op, rhs, target, x0.copy())
    x, report = pcg_solve(op, rhs, target, x0)
    assert x is x0
    np.testing.assert_array_equal(x, expected)
    assert report == expected_report
    assert report.iterations >= 1


@pytest.mark.parametrize("grid,tau,with_d", [
    (make_grid(-14, 14, -14, 14, n1=40, n2=40), 0.05, True),  # Jacobi
    (make_grid(0, 1, 0, 2, n1=12, n2=10), 0.3, True),         # spectral CG
    (make_grid(0, 1, 0, 2, n1=12, n2=10), 0.3, False),        # direct spectral
], ids=["jacobi", "spectral-cg", "direct"])
def test_absolute_target_below_the_relative_stop_is_met(grid, tau, with_d):
    # ||rhs|| = 1e3 and a target a tenth of CG_TOL * ||rhs||: the solve meets
    # the absolute target, not one scaled by ||rhs||
    op = random_operator(grid, tau, seed=70) if with_d else SystemOperator(grid, tau)
    rhs = np.random.default_rng(71).normal(size=grid.shape)
    rhs *= 1e3 / grid.l2(rhs)
    target = 0.1 * CG_TOL * grid.l2(rhs)
    x, report = pcg_solve(op, rhs, target)
    assert report.final_residual <= target
    assert grid.l2(rhs - op.apply(x)) <= target


def test_out_must_be_a_float_field_apart_from_rhs():
    # pcg_solve's start field x is checked as every out field is
    g = make_grid(0, 1, 0, 1, n1=8, n2=8)
    op = random_operator(g, 0.1, seed=62)
    rhs = np.random.default_rng(63).normal(size=g.shape)
    for bad, match in [(np.empty((8, 7)), "shape"), (rhs, "overlap"), (rhs[::-1], "overlap"),
                       (np.empty(g.shape, dtype=np.float32), "float"),
                       (np.empty((8, 16))[:, ::2], "contiguous")]:
        with pytest.raises(ValueError, match=rf"^x .*{match}"):
            pcg_solve(op, rhs, target_of(g, rhs), bad)
        with pytest.raises(ValueError, match=match):
            op.apply(rhs, out=bad)


@pytest.mark.parametrize("with_x0", [False, True], ids=["zero-start", "x0"])
@pytest.mark.parametrize("tau", [0.01, 0.1], ids=["jacobi", "spectral"])
@pytest.mark.parametrize("bad", [np.inf, np.nan], ids=["inf", "nan"])
def test_non_finite_rhs_raises(bad, tau, with_x0, monkeypatch):
    g = make_grid(0, 1, 0, 1, n1=8, n2=8)
    op = SystemOperator(g, tau, np.full(g.shape, 0.5))
    rng = np.random.default_rng(64)
    rhs, x0 = rng.normal(size=(2, *g.shape))
    rhs[3, 5] = bad
    calls = count_applies(monkeypatch)
    with pytest.raises(NumericalError, match="right-hand side"):
        pcg_solve(op, rhs, CG_TOL, x0 if with_x0 else None)
    assert calls == []


@pytest.mark.parametrize("with_x0", [False, True], ids=["zero-start", "x0"])
@pytest.mark.parametrize("tau", [0.01, 0.1], ids=["jacobi", "spectral"])
def test_non_finite_operator_raises_at_the_first_iteration(tau, with_x0):
    # one NaN in d poisons A p, and with it the first recursive residual
    g = make_grid(0, 1, 0, 1, n1=8, n2=8)
    d = np.full(g.shape, 0.5)
    d[3, 5] = np.nan
    rng = np.random.default_rng(65)
    rhs, x0 = rng.normal(size=(2, *g.shape))
    with pytest.raises(NonConvergenceError, match="^non-finite residual at iteration 1$"):
        pcg_solve(SystemOperator(g, tau, d), rhs, CG_TOL, x0 if with_x0 else None)


@pytest.mark.parametrize("grid,tau,with_d,preconditioner", [
    (make_grid(0, 1, 0, 1, n1=8, n2=8), 0.01, True, "jacobi"),
    (make_grid(0, 3, n1=40), 0.4, True, "jacobi"),
    (make_grid(0, 1, 0, 1, n1=8, n2=8), 0.1, True, "spectral"),
    (make_grid(0, 1, 0, 1, n1=8, n2=8), 0.1, False, "spectral"),
], ids=["jacobi", "jacobi-large-1d", "spectral-cg", "direct"])
def test_zero_start_equals_zero_x0(grid, tau, with_d, preconditioner, monkeypatch):
    # Without x the start's residual is rhs itself, which saves the matvec of
    # A 0; the direct solve ignores x and takes the same one matvec either way.
    op = random_operator(grid, tau, seed=65) if with_d else SystemOperator(grid, tau)
    rhs = np.random.default_rng(66).normal(size=grid.shape)
    target = target_of(grid, rhs)
    calls = count_applies(monkeypatch)
    x, report = pcg_solve(op, rhs, target)
    applies = len(calls)
    x_zero, report_zero = pcg_solve(op, rhs, target, np.zeros(grid.shape))
    np.testing.assert_array_equal(x, x_zero)
    assert report == report_zero
    assert report.preconditioner == preconditioner
    assert len(calls) - applies == applies + (1 if with_d else 0)
