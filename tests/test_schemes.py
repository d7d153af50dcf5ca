import gc
import math
import re
import weakref

import numpy as np
import pytest

from sinegordon import (NonConvergenceError, NumericalError, SchemeState, SystemOperator,
                        TimeGrid, Boundary, coupling, ep_fds_step, error_vs_exact, get_problem,
                        global_energy_original, init_state, li_leps_first_step,
                        li_leps_step, make_grid, run)
from sinegordon import schemes
from sinegordon.diagnostics import EnergyRecorder
from sinegordon.linear_solver import _workspace
from sinegordon.operators import BoundaryValues, extrapolate_half_step
from sinegordon.problems import DirichletBoundary, Problem
from sinegordon.schemes import SCHEMES

from oracles import (coupled_step_dense, ep_fds_step_residual, interior_mask,
                     li_leps_step_residual)


def rest_state(grid):
    return SchemeState(grid, 0.0, np.zeros(grid.shape), np.zeros(grid.shape),
                       np.ones(grid.shape))


def random_state(grid, seed, with_prev=False):
    rng = np.random.default_rng(seed)
    u = rng.normal(size=grid.shape)
    v = rng.normal(size=grid.shape)
    r = rng.normal(size=grid.shape)
    u_prev = rng.normal(size=grid.shape) if with_prev else None
    return SchemeState(grid, 0.0, u, v, r, u_prev=u_prev)


def perturbed_state(problem, n, seed, rng):
    """A random state on the unit square (``problem`` None), or ``problem``'s
    start with normal noise on ``u`` and ``v`` off the pinned ring."""
    if problem is None:
        return random_state(make_grid(0, 1, 0, 1, n1=n[0], n2=n[1]), seed)
    p = get_problem(problem)
    g = p.grid(*n)
    start = init_state(p, g)
    noise = np.where(interior_mask(g), rng.normal(size=(2, *g.shape)), 0.0)
    return SchemeState(g, 0.0, start.u + noise[0], start.v + noise[1], start.r,
                       bc=start.bc, bv=start.bv)


class TestTimeGrid:
    def test_final_time(self):
        tg = TimeGrid(0.01, 500)
        assert tg.T == pytest.approx(5.0, rel=1e-14)

    def test_from_final_time(self):
        tg = TimeGrid.from_final_time(0.01, 1.0)
        assert tg.m == 100

    def test_rejects_non_divisible(self):
        with pytest.raises(ValueError):
            TimeGrid.from_final_time(0.3, 1.0)

    def test_rejects_a_step_count_beyond_float_range(self):
        # 0.1 / 1e-320 overflows to inf, whose round() cannot be an int
        with pytest.raises(ValueError, match="not finite"):
            TimeGrid.from_final_time(1e-320, 0.1)

    def test_rejects_bad_tau(self):
        for tau in (0.0, -0.1, np.nan, np.inf):
            with pytest.raises(ValueError, match="tau"):
                TimeGrid(tau, 10)
            with pytest.raises(ValueError, match="tau"):
                TimeGrid.from_final_time(tau, 1.0)


class TestInitState:
    def test_zero_data_gives_unit_auxiliary(self):
        p = Problem("zero", 0, 1, 0, 1, 2, Boundary.PERIODIC,
                    lambda x, y: np.zeros_like(x), lambda x, y: np.zeros_like(x))
        g = p.grid(8)
        st = init_state(p, g)
        assert np.all(st.u == 0.0)
        assert np.all(st.v == 0.0)
        assert np.all(st.r == 1.0)
        assert st.u_prev is None
        assert st.t == 0.0

    def test_double_pole_velocity_peak(self):
        p = get_problem("double-pole-1d")
        g = p.grid(400)
        st = init_state(p, g)
        j_center = 200  # x = 0
        assert g.x[j_center] == 0.0
        assert st.v[0, j_center] == pytest.approx(4.0, rel=1e-15)

    def test_ring_center_value(self):
        # frozen from an independent scalar evaluation of 4*atan(exp(3))
        p = get_problem("ring")
        g = p.grid(200)
        st = init_state(p, g)
        j = 100  # x = y = 0 up to round-off in the spacing
        assert g.x[j] == pytest.approx(0.0, abs=1e-13)
        assert st.u[j, j] == pytest.approx(6.084201335824178, rel=1e-13)

    def test_rejects_non_finite_sampling(self):
        p = Problem("bad", 0, 1, 0, 1, 2, Boundary.PERIODIC,
                    lambda x, y: np.full_like(x, np.inf),
                    lambda x, y: np.zeros_like(x))
        with pytest.raises(NumericalError):
            init_state(p, p.grid(4))


class TestLiLepsStep:
    def test_rest_state_is_fixed_point(self):
        g = make_grid(0, 1, 0, 1, n1=8, n2=8)
        st = rest_state(g)
        st1 = li_leps_first_step(st, 0.05)
        assert np.all(st1.u == 0.0)
        assert np.all(st1.v == 0.0)
        assert np.all(st1.r == 1.0)
        st2 = li_leps_step(st1, 0.05)
        assert np.all(st2.u == 0.0)
        assert np.all(st2.v == 0.0)
        assert np.all(st2.r == 1.0)

    def test_state_machine_contract(self):
        g = make_grid(0, 1, 0, 1, n1=8, n2=8)
        st = rest_state(g)
        with pytest.raises(ValueError):
            li_leps_step(st, 0.05)
        st1 = li_leps_first_step(st, 0.05)
        assert st1.u_prev is not None
        with pytest.raises(ValueError):
            li_leps_first_step(st1, 0.05)
        li_leps_step(st1, 0.05)

    def test_time_advances(self):
        g = make_grid(0, 1, 0, 1, n1=8, n2=8)
        st1 = li_leps_first_step(rest_state(g), 0.25)
        assert st1.t == 0.25
        st2 = li_leps_step(st1, 0.25)
        assert st2.t == 0.5

    @pytest.mark.parametrize("seed", range(5))
    def test_matches_dense_coupled_oracle_1d(self, seed):
        g = make_grid(0, 2, n1=4)
        st = random_state(g, seed, with_prev=True)
        tau = 0.02
        out = li_leps_step(st, tau)
        d = coupling(extrapolate_half_step(st.u, st.u_prev))
        u_o, v_o, r_o = coupled_step_dense(g, st.u, st.v, st.r, d, tau)
        assert np.max(np.abs(out.u - u_o)) <= 1e-12
        assert np.max(np.abs(out.v - v_o)) <= 1e-12
        assert np.max(np.abs(out.r - r_o)) <= 1e-12

    def test_first_step_matches_dense_oracle(self):
        g = make_grid(0, 1, 0, 1, n1=4, n2=4)
        st = random_state(g, 42)
        tau = 0.05
        out = li_leps_first_step(st, tau)
        d = coupling(st.u)
        u_o, v_o, r_o = coupled_step_dense(g, st.u, st.v, st.r, d, tau)
        assert np.max(np.abs(out.u - u_o)) <= 1e-12
        assert np.max(np.abs(out.v - v_o)) <= 1e-12
        assert np.max(np.abs(out.r - r_o)) <= 1e-12

    def test_auxiliary_field_is_sqrt_two_minus_cos(self):
        g = make_grid(0, 1, 0, 1, n1=16, n2=16)
        st = random_state(g, 10)
        st = SchemeState(g, 0.0, 4.0 * st.u, st.v, st.r)
        out = ep_fds_step(st, 0.01)
        np.testing.assert_allclose(out.r, np.sqrt(2.0 - np.cos(out.u)), rtol=1e-15)

    def test_table_row_h10_tau100(self):
        p = get_problem("double-pole-1d")
        g = p.grid(400)
        result = run(p, g, TimeGrid.from_final_time(1 / 100, 1.0))
        rep = error_vs_exact(result.state, p)
        assert rep.l2 == pytest.approx(1.2515e-03, rel=0.02)
        assert rep.linf == pytest.approx(1.3017e-03, rel=0.02)

    def test_substituting_back_into_coupled_equations(self):
        # the eliminated solve must satisfy all three original equations to
        # within a small multiple of the solver tolerance
        from sinegordon import laplacian
        from sinegordon.operators import time_average
        g = make_grid(0, 1, 0, 1, n1=8, n2=8)
        st = random_state(g, 11, with_prev=True)
        tau = 0.02
        out = li_leps_step(st, tau, cg_tol=1e-14)
        d = coupling(extrapolate_half_step(st.u, st.u_prev))
        res1 = (out.u - st.u) / tau - time_average(out.v, st.v)
        res2 = ((out.v - st.v) / tau - laplacian(g, time_average(out.u, st.u))
                + d * time_average(out.r, st.r))
        res3 = (out.r - st.r) / tau - 0.5 * d * time_average(out.v, st.v)
        scale = 10 * 1e-14 * max(1.0, g.linf(st.u) + g.linf(st.v)) / tau**2
        assert g.linf(res1) <= 1e-12
        assert g.linf(res2) <= scale
        assert g.linf(res3) <= 1e-12

    def test_solvability_on_randomized_states(self):
        # the system operator dominates the identity, so the solve succeeds
        # across step sizes spanning the experimental regimes
        g = make_grid(0, 1, 0, 1, n1=8, n2=8)
        for i, tau in enumerate((1e-3, 1e-2, 0.1, 0.25)):
            st = random_state(g, 20 + i, with_prev=True)
            out = li_leps_step(st, tau)
            assert np.all(np.isfinite(out.u))

    @pytest.mark.parametrize("problem,n,tau,preconditioner", [
        (None, (16, 16), 0.01, "jacobi"), (None, (16, 16), 0.1, "spectral"),
        ("line-kink-2d", (9, 7), 0.05, "jacobi"),
    ], ids=["periodic-jacobi", "periodic-spectral", "dirichlet"])
    def test_returned_level_meets_the_step_equation(self, problem, n, tau, preconditioner):
        # Solved for the increment, checked in absolute form from outside the
        # step, on a first step and the regular step after it:
        # l2(A u_new - rhs) <= 2 target.
        rng = np.random.default_rng(15)
        for trial in range(3):
            state = perturbed_state(problem, n, 60 + trial, rng)
            for cg_tol in (1e-14, 1e-10):
                first = li_leps_first_step(state, tau, cg_tol=cg_tol)
                for old, new in ((state, first), (first, li_leps_step(first, tau, cg_tol))):
                    assert [r.preconditioner for r in new.reports] == [preconditioner]
                    residual, target = li_leps_step_residual(old, new, tau, cg_tol)
                    assert residual <= 2 * target, (trial, cg_tol, residual / target)

    def test_modified_energy_deviation_stays_at_round_off_at_small_steps(self):
        # 4.3e-14 while the step solved for the whole new field, whose
        # round-off scales with l2(u) rather than with the step's change
        p = get_problem("double-pole-1d")
        rec = EnergyRecorder()
        run(p, p.grid(1600), TimeGrid.from_final_time(0.0025, 1.0), recorders=(rec,))
        assert max(r.deviation for r in rec.records) <= 1e-14

    def test_rejects_nonpositive_tau(self):
        g = make_grid(0, 1, 0, 1, n1=8, n2=8)
        st = random_state(g, 30, with_prev=True)
        for tau in (0.0, -0.1, np.nan, np.inf):
            with pytest.raises(ValueError, match="tau"):
                li_leps_step(st, tau)
            with pytest.raises(ValueError, match="tau"):
                li_leps_first_step(random_state(g, 31), tau)
            with pytest.raises(ValueError, match="tau"):
                ep_fds_step(random_state(g, 31), tau)


class TestEpFdsStep:
    def test_rest_state_is_fixed_point(self):
        g = make_grid(0, 1, 0, 1, n1=8, n2=8)
        st = rest_state(g)
        st1 = ep_fds_step(st, 0.05)
        assert np.all(st1.u == 0.0)
        assert np.all(st1.v == 0.0)
        assert np.all(st1.r == 1.0)

    def test_self_starting(self):
        g = make_grid(0, 1, 0, 1, n1=8, n2=8)
        st = random_state(g, 7)
        out = ep_fds_step(st, 0.01)
        assert out.t == 0.01
        assert out.u_prev is None  # two-level: the next step reads only out

    def test_own_energy_constant_over_random_starts(self):
        # the conserved quantity of this scheme is the original discrete energy
        rng = np.random.default_rng(8)
        g = make_grid(0, 1, 0, 1, n1=12, n2=12)
        for trial in range(5):
            u = rng.normal(size=g.shape)
            v = rng.normal(size=g.shape)
            st = SchemeState(g, 0.0, u, v, np.sqrt(2.0 - np.cos(u)))
            e0 = global_energy_original(st)
            for _ in range(20):
                st = ep_fds_step(st, 0.02)
                assert abs(global_energy_original(st) - e0) / abs(e0) <= 1e-10

    def test_original_energy_drift_follows_the_one_tolerance(self):
        # The scheme conserves the original energy only as well as each step's
        # equation is solved, and cg_tol stops both the solves and the fixed
        # point: tightening it alone must tighten the drift.  6,400 nodes, so
        # the BLAS dots run on one thread whatever the thread count.
        p = get_problem("ring")
        g = p.grid(80)
        time_grid = TimeGrid.from_final_time(0.005, 0.5)

        def drift(**kwargs):
            energies = []
            run(p, g, time_grid, scheme="ep-fds",
                recorders=(lambda k, st: energies.append(global_energy_original(st)),),
                **kwargs)
            return max(abs(e - energies[0]) for e in energies) / energies[0]

        assert drift() <= 1e-10
        assert drift(cg_tol=1e-15) <= 1e-12

    def test_original_energy_deviation_stays_at_round_off_at_small_steps(self):
        # 5.09e-11 while the stops were relative to the whole field, which
        # left an error of cg_tol * l2(u) in every step
        p = get_problem("ring")
        energies = []
        run(p, p.grid(160), TimeGrid.from_final_time(0.005, 1.0), scheme="ep-fds",
            recorders=(lambda k, st: energies.append(global_energy_original(st)),))
        assert max(abs(e - energies[0]) for e in energies) / energies[0] <= 1e-14

    @pytest.mark.parametrize("tau", [0.05, 0.5])
    @pytest.mark.parametrize("noise", [0.0, 1e-12])
    def test_near_uniform_states_step(self, tau, noise):
        # The increment's explicit part b0 = tau v + (tau^2/2) Lap u is about
        # zero here, the increment -(tau^2/2) sin u is not: a stop scaled by
        # l2(b0) alone raised or ran out of sweeps.
        g = make_grid(0, 1, 0, 1, n1=8, n2=8)
        u = 1.0 + noise * np.random.default_rng(12).normal(size=g.shape)
        state = SchemeState(g, 0.0, u, np.zeros(g.shape), np.sqrt(2.0 - np.cos(u)))
        for _ in range(3):
            new = ep_fds_step(state, tau)
            residual, target = ep_fds_step_residual(state, new, tau, 1e-14)
            assert residual <= 2 * target
            state = new

    @pytest.mark.parametrize("problem,n,tau,preconditioner", [
        (None, (16, 16), 0.01, "jacobi"), (None, (16, 16), 0.1, "spectral"),
        ("line-kink-2d", (9, 7), 0.05, "jacobi"), ("line-kink-2d", (9, 7), 0.5, "jacobi"),
    ], ids=["periodic-jacobi", "periodic-spectral", "dirichlet-small", "dirichlet-large"])
    def test_returned_level_meets_the_step_equation(self, problem, n, tau, preconditioner):
        # The docstring's contract, checked from outside the step:
        # l2(A delta - b0 + (tau^2/2) Q(delta)) <= 2 target.
        rng = np.random.default_rng(14)
        for trial in range(3):
            state = perturbed_state(problem, n, 50 + trial, rng)
            for cg_tol in (1e-14, 1e-10):
                new = ep_fds_step(state, tau, cg_tol=cg_tol)
                assert {r.preconditioner for r in new.reports} == {preconditioner}
                residual, target = ep_fds_step_residual(state, new, tau, cg_tol)
                assert residual <= 2 * target, (trial, cg_tol, residual / target)

    def test_table_row_h10_tau100(self):
        p = get_problem("double-pole-1d")
        g = p.grid(400)
        result = run(p, g, TimeGrid.from_final_time(1 / 100, 1.0), scheme="ep-fds")
        rep = error_vs_exact(result.state, p)
        assert rep.l2 == pytest.approx(1.1112e-03, rel=0.05)
        assert rep.linf == pytest.approx(1.0535e-03, rel=0.05)

    def test_fixed_point_failure_raises(self):
        g = make_grid(0, 1, 0, 1, n1=8, n2=8)
        st = random_state(g, 9)
        with pytest.raises(NumericalError):
            ep_fds_step(st, 0.01, fp_max=0)

    @pytest.mark.parametrize("problem,n,tau,preconditioner", [
        ("ring", 40, 0.01, "jacobi"), ("ring", 40, 0.5, "spectral"),
        ("line-kink-2d", 16, 0.05, "jacobi"),
    ], ids=["ring-jacobi", "ring-spectral", "line-kink"])
    def test_run_keeps_no_grid_alive(self, problem, n, tau, preconditioner):
        p = get_problem(problem)
        grid = p.grid(n)
        alive = weakref.ref(grid)
        result = run(p, grid, TimeGrid(tau, 3), scheme="ep-fds")
        assert result.fp_sweeps >= 3 and result.preconditioner == preconditioner
        del grid, result
        gc.collect()
        assert alive() is None


class TestLargeStepSolves:
    """Solves on large steps report their true residual, or raise."""

    @pytest.fixture
    def checked_solves(self, monkeypatch):
        """Record ``(report, l2(rhs - A x), target)`` for every solve the steppers make."""
        checked = []
        solve = schemes.pcg_solve

        def checking_solve(op, rhs, target, x=None):
            x, report = solve(op, rhs, target, x)
            checked.append((report, op.grid.l2(rhs - op.apply(x)), target))
            return x, report

        monkeypatch.setattr(schemes, "pcg_solve", checking_solve)
        return checked

    # Jacobi solves (1D and Dirichlet grids) far past tau^2/h^2 = 0.5.  At
    # tau/h 10 on line-kink (tau 2.19) ep-fds' fixed-point iteration itself
    # diverges, so it runs at tau/h 4 there.
    @pytest.mark.parametrize("scheme,problem,n,tau_over_h", [
        ("li-leps", "double-pole-1d", 1600, 8), ("ep-fds", "double-pole-1d", 1600, 8),
        ("li-leps", "line-kink-2d", 64, 10), ("ep-fds", "line-kink-2d", 64, 4),
    ])
    def test_reports_true_residuals_within_target(self, checked_solves, scheme, problem, n,
                                                  tau_over_h):
        p = get_problem(problem)
        g = p.grid(n)
        run(p, g, TimeGrid(tau_over_h * g.h1, 5), scheme=scheme)
        assert len(checked_solves) >= 5
        for report, true, target in checked_solves:
            assert report.preconditioner == "jacobi" and report.converged
            assert report.final_residual == true
            assert true <= target

    @pytest.mark.parametrize("scheme", SCHEMES)
    def test_unreachable_target_raises(self, scheme):
        # At tau/h 16 ep-fds' true residual stalls just above its target.
        # li-leps, solving for its increment, meets its target there in all
        # five steps; at tau/h 32 its first solve stalls above 1e-14 * l2(rhs).
        p = get_problem("double-pole-1d")
        g = p.grid(3200)
        tau_over_h = 32 if scheme == "li-leps" else 16
        with pytest.raises(NonConvergenceError, match=r"true residual .*recursive"):
            run(p, g, TimeGrid(tau_over_h * g.h1, 5), scheme=scheme)

    def test_residual_hump_is_not_taken_for_a_floor(self, checked_solves):
        # ep-fds' first step at tau/h 32 (tau 0.8): the third sweep's residual
        # stays above its start for 20 iterations and meets its goal at
        # iteration 52, as CG's residual may (CG minimises the error's
        # A-norm).  The step fails only at its round-off floor, sweeps later.
        p = get_problem("double-pole-1d")
        g = p.grid(1600)
        with pytest.raises(NonConvergenceError, match="stagnated") as info:
            ep_fds_step(init_state(p, g), 32 * g.h1)
        assert len(checked_solves) >= 3
        true = float(re.search(r"true residual (\S+) ", str(info.value)).group(1))
        assert true < 1e-11


class TestCosQuotient:
    @staticmethod
    def quotient(delta, u_old):
        """The kernel's quotient of the increment ``delta`` from ``u_old``, and ``sin(u_old)``."""
        sin_old = np.sin(u_old)
        out, scratch, scratch2 = np.full((3, *u_old.shape), np.nan)
        q = schemes._cos_quotient(delta, sin_old, np.cos(u_old), out, scratch, scratch2)
        assert q is out
        return q, sin_old

    def test_matches_the_difference_quotient_and_its_limit(self):
        rng = np.random.default_rng(41)
        u_old = rng.uniform(-4, 4, size=(6, 5))
        h = rng.uniform(-4, 4, size=(6, 5))
        u_old[1] = np.pi + rng.uniform(-1e-6, 1e-6, 5)
        u_old[2] = -np.pi + rng.uniform(-1e-6, 1e-6, 5)
        h[3] = 2 * np.pi + rng.uniform(-0.1, 0.1, 5)
        h[4] = -2 * np.pi + rng.uniform(-0.1, 0.1, 5)
        h[5] = np.pi * rng.choice([-1, 1], 5) + rng.uniform(-1e-6, 1e-6, 5)
        u_new = u_old + h
        q, _ = self.quotient(u_new - u_old, u_old)
        np.testing.assert_allclose(q, (np.cos(u_old) - np.cos(u_new)) / (u_new - u_old),
                                   rtol=1e-10)

        # Where the levels meet (h == 0) and next to it (h == 1e-10).
        u_old = rng.uniform(-4, 4, size=(2, 5))
        u_new = u_old + np.array([[0.0], [1e-10]])
        q, sin_old = self.quotient(u_new - u_old, u_old)
        np.testing.assert_array_equal(q[0], sin_old[0])
        mid = np.sin(0.5 * (u_new + u_old))
        ulp = np.spacing(np.abs(mid))
        assert np.all(np.abs(q[0] - np.sin(u_old[0])) <= 2 * ulp[0])
        assert np.all(np.abs(q[1] - mid[1]) <= 2 * ulp[1])

        # Subnormal increments, and tiny normal ones: a subnormal tangent
        # carries too few bits for the formula (the smallest ones gave Q = 0
        # or 1), so the kernel must return the limit there.
        u_old = rng.uniform(-4, 4, size=(2, 6))
        delta = np.array([[5e-324, -1e-323, 1e-320, -3e-315, 1e-310, -2e-308],
                          [1e-300, -1e-200, 1e-162, -3e-162, 1e-161, -1e-150]])
        q, _ = self.quotient(delta, u_old)
        np.testing.assert_allclose(q, np.sin(u_old + 0.5 * delta), rtol=1e-10)

    def test_some_zero_increments_match_the_masked_formula_bit_for_bit(self):
        # Where some but not all increments are exactly zero (as on a
        # Dirichlet grid's pinned ring), the quotient must equal the masked
        # formula written out.
        rng = np.random.default_rng(43)
        u_old = rng.uniform(-4, 4, size=(6, 5))
        u_new = u_old + rng.uniform(-1, 1, size=u_old.shape)
        u_new[::2, 1:3] = u_old[::2, 1:3]
        q, sin_old = self.quotient(u_new - u_old, u_old)
        half = (u_new - u_old) * 0.5
        t = np.tan(half)
        denominator = half * (t * t + 1.0)
        numerator = (np.cos(u_old) * t + sin_old) * t
        same = denominator == 0.0
        assert same.any() and not same.all()
        expected = np.where(same, sin_old, numerator / np.where(same, 1.0, denominator))
        np.testing.assert_array_equal(q.view(np.int64), expected.view(np.int64))


class TestFieldOwnership:
    @pytest.mark.parametrize("scheme", SCHEMES)
    @pytest.mark.parametrize("problem,n", [("ring", (16,)), ("line-kink-2d", (9, 7))])
    def test_levels_share_no_memory(self, scheme, problem, n):
        p = get_problem(problem)
        levels = []
        run(p, p.grid(*n), TimeGrid(0.1, 5), scheme=scheme,
            recorders=(lambda k, st: levels.append(st),))
        assert len(levels) == 6
        fields = [(st.t, name, getattr(st, name)) for st in levels for name in ("u", "v", "r")]
        for i, (t, name, a) in enumerate(fields):
            for t_other, other, b in fields[i + 1:]:
                assert not np.shares_memory(a, b), (t, name, t_other, other)
        work = (*_workspace(levels[0].grid.shape), *schemes._sweep_fields(levels[0].grid.shape))
        for t, name, a in fields:
            assert not any(np.shares_memory(a, b) for b in work), (t, name)


class TestRun:
    def test_zero_steps_returns_initial_state(self):
        p = get_problem("double-pole-1d")
        g = p.grid(50)
        result = run(p, g, TimeGrid(0.01, 0))
        st0 = init_state(p, g)
        np.testing.assert_array_equal(result.state.u, st0.u)
        np.testing.assert_array_equal(result.state.v, st0.v)
        assert result.state.t == 0
        assert result.cg_iterations == 0
        assert result.preconditioner is None

    def test_recorder_cadence(self):
        p = get_problem("double-pole-1d")
        g = p.grid(50)
        seen = []
        run(p, g, TimeGrid(0.02, 5), recorders=(lambda k, st: seen.append((k, st.t)),))
        assert [k for k, _ in seen] == [0, 1, 2, 3, 4, 5]
        assert seen[-1][1] == pytest.approx(0.1, rel=1e-12)

    def test_table_second_row_and_order(self):
        p = get_problem("double-pole-1d")
        g = p.grid(800)
        result = run(p, g, TimeGrid.from_final_time(1 / 200, 1.0))
        rep = error_vs_exact(result.state, p)
        assert rep.l2 == pytest.approx(3.1285e-04, rel=0.02)
        order = math.log2(1.2515e-03 / rep.l2)
        assert order == pytest.approx(2.00, abs=0.05)

    def test_line_kink_dirichlet_row(self):
        p = get_problem("line-kink-2d")
        result = run(p, p.grid(28), TimeGrid.from_final_time(1 / 100, 1.0))
        rep = error_vs_exact(result.state, p)
        assert rep.l2 == pytest.approx(1.2129e-01, rel=0.03)
        assert rep.linf == pytest.approx(2.7812e-02, rel=0.03)

    def test_line_kink_dirichlet_row_ep_fds(self):
        p = get_problem("line-kink-2d")
        result = run(p, p.grid(28), TimeGrid.from_final_time(1 / 100, 1.0),
                     scheme="ep-fds")
        rep = error_vs_exact(result.state, p)
        assert rep.l2 == pytest.approx(1.2132e-01, rel=0.03)
        assert rep.linf == pytest.approx(2.7774e-02, rel=0.03)

    def test_unknown_scheme_rejected(self):
        p = get_problem("double-pole-1d")
        with pytest.raises(ValueError):
            run(p, p.grid(50), TimeGrid(0.01, 1), scheme="leapfrog")


class TestFailuresSayWhere:
    @pytest.mark.parametrize("name", ["u", "v", "r", "u_prev"])
    def test_non_finite_field_named_on_construction(self, name):
        g = make_grid(0, 1, 0, 1, n1=8, n2=8)
        fields = {key: np.zeros(g.shape) for key in ("u", "v", "r", "u_prev")}
        fields[name][3, 4] = np.nan
        with pytest.raises(NumericalError, match=f"non-finite values in {name} at t=0.5$"):
            SchemeState(g, 0.5, **fields)

    def test_diverging_fixed_point_names_step_t_and_lag(self):
        # tau/h 10 on line-kink-2d: the lagged quotient no longer contracts
        p = get_problem("line-kink-2d")
        g = p.grid(64)
        tau = 10 * g.h1
        with pytest.raises(NumericalError) as info:
            run(p, g, TimeGrid(tau, 5), scheme="ep-fds")
        assert type(info.value) is NumericalError
        assert str(info.value).startswith(
            f"step 1, t={tau:g}: fixed-point iteration did not converge within 50 sweeps "
            "(last lag ")
        assert ", target " in str(info.value)

    def test_stagnated_solve_names_step_and_t(self):
        # tau/h 32 in 1D: the true residual stalls at several times the CG
        # target (at tau/h 16 it sits within 0.995-1.15x of it, so whether
        # the solve stalls there depends on how its reductions round)
        p = get_problem("double-pole-1d")
        g = p.grid(3200)
        tau = 32 * g.h1
        with pytest.raises(NonConvergenceError) as info:
            run(p, g, TimeGrid(tau, 3))
        assert str(info.value).startswith(f"step 1, t={tau:g}: CG stagnated at iteration ")


class TestDirichletEdgeData:
    """Dirichlet-exact states carry the edge values of their own time level."""

    def test_each_level_evaluates_its_edge_values_once(self, monkeypatch):
        p = get_problem("line-kink-2d")
        g = p.grid(9, 7)
        values = DirichletBoundary.values
        calls = []
        monkeypatch.setattr(DirichletBoundary, "values",
                            lambda self, t: calls.append(t) or values(self, t))
        exact = DirichletBoundary(p, g)

        def check(k, state):
            expected = values(exact, state.t)
            assert np.array_equal(state.bv.right, expected.right)
            assert np.array_equal(state.bv.top, expected.top)

        for scheme in SCHEMES:
            calls.clear()
            run(p, g, TimeGrid(0.1, 5), scheme=scheme, recorders=(check,))
            assert len(calls) == 5 + 1

    def test_state_requires_edge_values_exactly_on_dirichlet_grids(self):
        p = get_problem("line-kink-2d")
        g = p.grid(9, 7)
        zeros, ones = np.zeros(g.shape), np.ones(g.shape)
        bc = DirichletBoundary(p, g)
        bv = bc.values(0.0)
        SchemeState(g, 0.0, zeros, zeros, ones, bc=bc, bv=bv)
        for edge in ({}, {"bc": bc}, {"bv": bv},
                     {"bc": DirichletBoundary(p, p.grid(9, 8)), "bv": bv}):
            with pytest.raises(ValueError):
                SchemeState(g, 0.0, zeros, zeros, ones, **edge)
        periodic = make_grid(0, 1, 0, 1, n1=9, n2=7)
        SchemeState(periodic, 0.0, zeros, zeros, ones)
        zero_bv = BoundaryValues(np.zeros(periodic.n2), np.zeros(periodic.n1))
        for edge in ({"bv": zero_bv}, {"bc": bc}):
            with pytest.raises(ValueError):
                SchemeState(periodic, 0.0, zeros, zeros, ones, **edge)

    @pytest.mark.parametrize("scheme, step", [("li-leps", li_leps_first_step),
                                              ("ep-fds", ep_fds_step)])
    def test_hand_step_reads_edge_data_from_state(self, scheme, step):
        p = get_problem("line-kink-2d")
        g = p.grid(9, 7)
        levels = []
        run(p, g, TimeGrid(0.1, 1), scheme=scheme,
            recorders=(lambda k, st: levels.append(st),))
        start = init_state(p, g)
        by_hand = step(start, 0.1)
        assert by_hand.bc is start.bc
        for name in ("u", "v", "r", "u_prev"):
            assert np.array_equal(getattr(by_hand, name), getattr(levels[1], name))
        assert by_hand.reports == levels[1].reports
        for edge in ("right", "top"):
            assert np.array_equal(getattr(by_hand.bv, edge), getattr(levels[1].bv, edge))

    def test_pinned_ring_velocity_follows_the_edge_data(self):
        # On the ring both schemes set v_new = 2 (u_new - u) / tau - v, u being
        # the exact edge data at both levels, so their ring velocities agree;
        # li-leps' r takes the same change, r_new = r + (d/2) (u_new - u).
        p = get_problem("line-kink-2d")
        g = p.grid(9, 7)
        tau = 0.1
        levels = {scheme: [] for scheme in SCHEMES}
        for scheme in SCHEMES:
            run(p, g, TimeGrid(tau, 4), scheme=scheme,
                recorders=(lambda k, st: levels[scheme].append(st),))
        ring = ~interior_mask(g)
        assert np.any(levels["ep-fds"][0].v[ring] != 0.0)
        for old, new, li in zip(levels["ep-fds"], levels["ep-fds"][1:], levels["li-leps"][1:]):
            expected = (new.u - old.u) * (2.0 / tau) - old.v
            assert np.array_equal(new.v[ring], expected[ring])
            assert np.array_equal(new.v[ring], li.v[ring])
        for old, new in zip(levels["li-leps"], levels["li-leps"][1:]):
            d = coupling(old.u if old.u_prev is None else extrapolate_half_step(old.u, old.u_prev))
            expected = d * 0.5 * (new.u - old.u) + old.r
            assert np.array_equal(new.r[ring], expected[ring])


@pytest.mark.parametrize("scheme", SCHEMES)
def test_recorded_reports_reproduce_solver_totals(scheme):
    p = get_problem("line-kink-2d")
    per_level = []
    result = run(p, p.grid(9, 7), TimeGrid(0.1, 4), scheme=scheme,
                 recorders=(lambda k, st: per_level.append(st.reports),))
    assert per_level[0] == ()
    iterations = [r.iterations for reports in per_level for r in reports]
    assert sum(iterations) == result.cg_iterations
    assert max(iterations) == result.cg_iterations_max
    if scheme == "li-leps":
        assert [len(reports) for reports in per_level[1:]] == [1] * 4
        assert result.fp_sweeps == 0
    else:
        assert sum(len(reports) for reports in per_level) == result.fp_sweeps


@pytest.mark.parametrize("problem, n, tau, expected", [
    ("ring", 200, 0.01, "jacobi"),             # tau/h 0.07, ring-paper
    ("ring", 320, 0.125, "spectral"),          # tau/h 1.43, ring-large-step
    ("line-kink-2d", 16, 4.375, "jacobi"),     # tau/h 5, Dirichlet-exact
    ("double-pole-1d", 100, 2.0, "jacobi"),    # tau/h 5, 1D
])
def test_preconditioner_chosen_from_grid_and_tau(problem, n, tau, expected):
    p = get_problem(problem)
    result = run(p, p.grid(n), TimeGrid(tau, 1))
    assert [r.preconditioner for r in result.state.reports] == [expected]
    assert result.preconditioner == expected


def test_ep_fds_sweeps_take_one_spectral_iteration(monkeypatch):
    # The spectral preconditioner is the exact inverse of ep-fds' operator, so
    # a sweep solves directly and applies the operator once, for its true
    # residual.
    p = get_problem("ring")
    reports, applies = [], []
    apply = SystemOperator.apply
    monkeypatch.setattr(SystemOperator, "apply",
                        lambda self, w, out=None: applies.append(self) or apply(self, w, out=out))
    run(p, p.grid(64), TimeGrid(0.5, 3), scheme="ep-fds",
        recorders=(lambda k, st: reports.extend(st.reports),))
    assert len(reports) > 3
    assert {(r.iterations, r.preconditioner) for r in reports} == {(1, "spectral")}
    assert len(applies) == len(reports)


@pytest.mark.parametrize("scheme", SCHEMES)
def test_rest_state_bit_stable_on_the_spectral_path(scheme):
    # tau^2 (1/h1^2 + 1/h2^2) = 1.28 puts every solve on the spectral path,
    # which acceptance criterion 10 (0.32, Jacobi) does not reach.
    g = make_grid(0, 1, 0, 1, n1=8, n2=8)
    tau = 0.1
    state, preconditioners = rest_state(g), set()
    if scheme == "li-leps":
        state = li_leps_first_step(state, tau)
    for _ in range(1000 if scheme == "ep-fds" else 999):
        state = (ep_fds_step if scheme == "ep-fds" else li_leps_step)(state, tau)
        preconditioners.update(r.preconditioner for r in state.reports)
    assert preconditioners == {"spectral"}
    assert np.all(state.u == 0.0) and np.all(state.v == 0.0) and np.all(state.r == 1.0)


@pytest.mark.parametrize("scheme", SCHEMES)
def test_reported_residuals_are_true_and_meet_their_targets(scheme, monkeypatch):
    # tau/h 4.6: every solve goes spectral and is judged on its true residual
    p = get_problem("ring")
    g = p.grid(128)
    solves = []
    pcg_solve = schemes.pcg_solve

    def recording(op, rhs, target, x=None):
        rhs = rhs.copy()
        x, report = pcg_solve(op, rhs, target, x)
        solves.append((op, rhs, target, x.copy(), report))
        return x, report

    monkeypatch.setattr(schemes, "pcg_solve", recording)
    run(p, g, TimeGrid(1.0, 3), scheme=scheme)
    assert len(solves) >= 3
    for op, rhs, target, x, report in solves:
        true = g.l2(rhs - op.apply(x))
        assert report.converged and report.preconditioner == "spectral"
        assert report.final_residual == pytest.approx(true, rel=1e-12, abs=0)
        assert report.final_residual <= target
