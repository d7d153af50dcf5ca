"""Acceptance suite: each test runs one headline criterion at its stated tolerance
and prints a PASS/FAIL line (test names mirror the criterion numbering)."""

import math
import statistics

import numpy as np
import pytest

from sinegordon import (SchemeState, TimeGrid, convergence_orders, coupling, ep_fds_step,
                        error_vs_exact, get_problem, global_energy_modified,
                        global_energy_original, init_state, li_leps_first_step,
                        li_leps_step, local_law_residual, make_grid,
                        original_law_residual, run)
from sinegordon.linear_solver import SystemOperator

from oracles import centered_derivative, coupled_step_dense, coupling_prime, coupling_second

TABLE2_LI = {  # (1/h, 1/tau) -> (l2, linf)
    (10, 100): (1.2515e-03, 1.3017e-03),
    (20, 200): (3.1285e-04, 3.2508e-04),
    (40, 400): (7.8211e-05, 8.1248e-05),
    (80, 800): (1.9553e-05, 2.0311e-05),
}
TABLE2_EP = {
    (10, 100): (1.1112e-03, 1.0535e-03),
    (20, 200): (2.7777e-04, 2.6301e-04),
    (40, 400): (6.9442e-05, 6.5729e-05),
    (80, 800): (1.7360e-05, 1.6431e-05),
}
TABLE4_LI = {  # (1/h, 1/tau) -> (l2, linf)
    (2, 100): (1.2129e-01, 2.7812e-02),
    (4, 200): (3.0043e-02, 7.8107e-03),
    (8, 400): (7.4920e-03, 1.9545e-03),
    (16, 800): (1.8718e-03, 4.8891e-04),
}
TABLE4_L2_ORDERS = (2.01, 2.00, 2.00)


def report(num: int, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {num}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, detail


def double_pole_ladder(scheme: str, table: dict) -> tuple[list, float]:
    problem = get_problem("double-pole-1d")
    rows = []
    wall = 0.0
    for (ih, it) in table:
        grid = problem.grid(40 * ih)
        result = run(problem, grid, TimeGrid.from_final_time(1.0 / it, 1.0), scheme=scheme)
        err = error_vs_exact(result.state, problem)
        rows.append(((ih, it), grid.h1, 1.0 / it, err))
        wall += result.wall_seconds
    return rows, wall


def test_criterion_01_table2_errors_and_orders():
    rows, wall = double_pole_ladder("li-leps", TABLE2_LI)
    lines = []
    ok = True
    for (key, h, tau, err) in rows:
        ref_l2, ref_linf = TABLE2_LI[key]
        ok &= abs(err.l2 - ref_l2) <= 0.02 * ref_l2
        ok &= abs(err.linf - ref_linf) <= 0.02 * ref_linf
        lines.append(f"(1/{key[0]},1/{key[1]}) l2={err.l2:.4e} linf={err.linf:.4e}")
    for norm in ("l2", "linf", "h1"):
        orders = convergence_orders([(h, tau, getattr(e, norm)) for (_, h, tau, e) in rows])
        ok &= all(abs(o - 2.0) <= 0.05 for o in orders)
        lines.append(f"{norm} orders {['%.2f' % o for o in orders]}")
    ok &= wall <= 60.0
    report(1, ok, f"1D ladder vs published digits (2%), orders 2.00+-0.05, "
           f"{wall:.1f}s stepping; " + "; ".join(lines))


def test_criterion_02_table4_line_kink_dirichlet():
    problem = get_problem("line-kink-2d")
    rows = []
    finest_wall = 0.0
    for (ih, it) in TABLE4_LI:
        grid = problem.grid(14 * ih)
        result = run(problem, grid, TimeGrid.from_final_time(1.0 / it, 1.0))
        err = error_vs_exact(result.state, problem)
        rows.append(((ih, it), grid.h1, 1.0 / it, err))
        finest_wall = result.wall_seconds
    ok = True
    lines = []
    for (key, h, tau, err) in rows:
        ref_l2, ref_linf = TABLE4_LI[key]
        ok &= abs(err.l2 - ref_l2) <= 0.03 * ref_l2
        ok &= abs(err.linf - ref_linf) <= 0.03 * ref_linf
        lines.append(f"(1/{key[0]},1/{key[1]}) l2={err.l2:.4e} linf={err.linf:.4e}")
    orders = convergence_orders([(h, tau, e.l2) for (_, h, tau, e) in rows])
    ok &= all(abs(o - ref) <= 0.05 for o, ref in zip(orders, TABLE4_L2_ORDERS))
    ok &= finest_wall <= 600.0
    report(2, ok, f"2D kink ladder vs published digits (3%), l2 orders "
           f"{['%.2f' % o for o in orders]} vs {TABLE4_L2_ORDERS}, finest level "
           f"{finest_wall:.0f}s; " + "; ".join(lines))


def test_criterion_03_local_law_on_ring():
    problem = get_problem("ring")
    grid = problem.grid(200)
    assert grid.h1 == pytest.approx(0.14)
    tau = 0.01
    state = init_state(problem, grid)
    e0 = global_energy_modified(state)
    max_residual = 0.0
    max_identity_gap = 0.0
    prev_e = e0
    for k in range(100):
        if state.u_prev is None:
            new = li_leps_first_step(state, tau)
        else:
            new = li_leps_step(state, tau)
        res = local_law_residual(state, new, tau)
        max_residual = max(max_residual, float(np.max(np.abs(res))))
        e_new = global_energy_modified(new)
        total = tau * grid.cell_area * float(np.sum(res))
        max_identity_gap = max(max_identity_gap, abs(total - (e_new - prev_e)))
        prev_e = e_new
        state = new
    ok = max_residual <= 1e-8 and max_identity_gap <= 1e-13 * max(1.0, abs(e0))
    report(3, ok, f"ring per-node balance to t=1: max residual {max_residual:.2e} "
           f"(<= 1e-8), telescoped identity gap {max_identity_gap:.2e} "
           f"(<= 1e-13 x energy scale {abs(e0):.0f})")


@pytest.mark.parametrize("name,n1,n2", [
    ("ring", 200, 200),
    ("breather", 100, 100),
    ("collide2", 200, 140),
    ("collide4", 200, 200),
])
def test_criterion_04_global_conservation_long_runs(name, n1, n2):
    problem = get_problem(name)
    grid = problem.grid(n1, n2)
    tau = 0.01
    state = init_state(problem, grid)
    e0 = global_energy_modified(state)
    worst = 0.0
    for k in range(5000):
        if state.u_prev is None:
            state = li_leps_first_step(state, tau)
        else:
            state = li_leps_step(state, tau)
        worst = max(worst, abs(global_energy_modified(state) - e0) / abs(e0))
    ok = worst <= 1e-10
    report(4, ok, f"{name}: modified-energy deviation over t in [0,50] = {worst:.2e} (<= 1e-10)")


def test_criterion_05_original_law_discriminator():
    # Measured over the regular three-level steps (n >= 1): the bootstrap step
    # freezes the coupling at the t=0 field, which for data starting from rest
    # leaves the auxiliary field static across step one while the potential
    # moves at O(tau^2), an O(tau) spike of the starting procedure rather than
    # of the scheme the discriminator targets.
    problem = get_problem("double-pole-1d")
    maxima = []
    modified_ok = True
    for (ih, it) in ((10, 100), (20, 200), (40, 400)):
        grid = problem.grid(40 * ih)
        tau = 1.0 / it
        state = init_state(problem, grid)
        worst_orig = 0.0
        worst_mod = 0.0
        dens_scale = 0.0
        for k in range(it):  # to t = 1
            if state.u_prev is None:
                new = li_leps_first_step(state, tau)
            else:
                new = li_leps_step(state, tau)
            if k >= 1:
                worst_orig = max(worst_orig, float(np.max(np.abs(
                    original_law_residual(state, new, tau)))))
            worst_mod = max(worst_mod, float(np.max(np.abs(
                local_law_residual(state, new, tau)))))
            from sinegordon.diagnostics import local_energy_density
            dens_scale = max(dens_scale, float(np.max(np.abs(local_energy_density(new)))))
            state = new
        maxima.append(worst_orig)
        modified_ok &= worst_mod <= 1e-10 * (1.0 + dens_scale) / tau
    orders = [math.log2(a / b) for a, b in zip(maxima, maxima[1:])]
    not_round_off = maxima[0] > 1e-6
    ok = not_round_off and all(o >= 1.8 for o in orders) and modified_ok
    report(5, ok, f"original-density balance residual maxima {['%.2e' % m for m in maxima]}, "
           f"decay orders {['%.2f' % o for o in orders]} (>= 1.8), quadratized balance "
           f"stays at round-off: {modified_ok}")


def test_criterion_06_operator_property_suites():
    rng = np.random.default_rng(0)
    spd_ok = True
    for (n1, n2) in ((4, 4), (8, 5), (12, 12)):
        grid = make_grid(0, 1, 0, 1.5, n1=n1, n2=n2)
        d = coupling(rng.uniform(-np.pi, np.pi, size=grid.shape))
        op = SystemOperator(grid, 0.1, d)
        n = grid.num_nodes
        A = np.zeros((n, n))
        for j in range(n):
            e = np.zeros(n)
            e[j] = 1.0
            A[:, j] = op.apply(e.reshape(grid.shape)).ravel()
        spd_ok &= np.max(np.abs(A - A.T)) <= 1e-13 * np.max(np.abs(A))
        spd_ok &= np.linalg.eigvalsh(0.5 * (A + A.T)).min() >= 1.0 - 1e-12

    x = np.linspace(-10 * np.pi, 10 * np.pi, 1_000_000)
    bounds_ok = (np.max(np.abs(coupling(x))) <= 1.0
                 and np.max(np.abs(coupling_prime(x))) <= 1.5
                 and np.max(np.abs(coupling_second(x))) <= 2.5)

    xs = np.linspace(-10 * np.pi, 10 * np.pi, 50_001)
    fd_ok = (np.max(np.abs(centered_derivative(coupling, xs) - coupling_prime(xs))) <= 1e-6
             and np.max(np.abs(centered_derivative(coupling_prime, xs)
                               - coupling_second(xs))) <= 1e-6)
    ok = spd_ok and bounds_ok and fd_ok
    report(6, ok, f"dense SPD (min eig >= 1-1e-12): {spd_ok}; nonlinearity bounds over 1e6 "
           f"samples: {bounds_ok}; derivative-vs-FD <= 1e-6: {fd_ok}")


def test_criterion_07_eliminated_solve_equals_coupled_system():
    grid = make_grid(0, 1, 0, 1, n1=4, n2=4)
    rng = np.random.default_rng(1)
    tau = 0.02
    worst = 0.0
    for _ in range(50):
        u, v, r, u_prev = (rng.normal(size=grid.shape) for _ in range(4))
        state = SchemeState(grid, 0.0, u, v, r, u_prev=u_prev)
        out = li_leps_step(state, tau)
        d = coupling(1.5 * u - 0.5 * u_prev)
        u_o, v_o, r_o = coupled_step_dense(grid, u, v, r, d, tau)
        worst = max(worst, float(np.max(np.abs(out.u - u_o))),
                    float(np.max(np.abs(out.v - v_o))),
                    float(np.max(np.abs(out.r - r_o))))
    ok = worst <= 1e-12
    report(7, ok, f"50 random 4x4 states: eliminated solve vs dense coupled system, "
           f"max deviation {worst:.2e} (<= 1e-12)")


def test_criterion_08_cost_ordering_across_meshes():
    problem = get_problem("double-pole-1d")
    tau = 0.01
    lines = []
    ok = True
    for n in (400, 800, 1600, 3200):
        grid = problem.grid(n)
        tg = TimeGrid.from_final_time(tau, 1.0)
        # The median of five interleaved runs of each: at n <= 1600 a step is
        # a few hundred numpy calls, and host noise decides single runs.
        walls = {"li-leps": [], "ep-fds": []}
        for _ in range(5):
            for scheme, times in walls.items():
                times.append(run(problem, grid, tg, scheme=scheme).wall_seconds)
        li, ep = (statistics.median(times) for times in walls.values())
        ok &= li < ep
        lines.append(f"n={n}: li {li:.3f}s < ep {ep:.3f}s")
    report(8, ok, "one linear solve per step beats the fixed-point scheme at every mesh; "
           + "; ".join(lines))


def test_criterion_09_ep_fds_energy_order_and_digits():
    # exact constancy of its own (original) discrete energy over 1000 steps
    problem = get_problem("double-pole-1d")
    grid = problem.grid(400)
    tau = 0.01
    state = init_state(problem, grid)
    e0 = global_energy_original(state)
    worst = 0.0
    for _ in range(1000):
        state = ep_fds_step(state, tau)
        worst = max(worst, abs(global_energy_original(state) - e0) / abs(e0))
    energy_ok = worst <= 1e-10

    rows, _ = double_pole_ladder("ep-fds", TABLE2_EP)
    orders = convergence_orders([(h, tau, e.l2) for (_, h, tau, e) in rows])
    order_ok = all(abs(o - 2.0) <= 0.05 for o in orders)

    digit_lines = []
    digits_ok = True
    for (key, h, tau_row, err) in rows:
        ref_l2, ref_linf = TABLE2_EP[key]
        match = (abs(err.l2 - ref_l2) <= 0.05 * ref_l2
                 and abs(err.linf - ref_linf) <= 0.05 * ref_linf)
        digits_ok &= match
        digit_lines.append(f"(1/{key[0]},1/{key[1]}) l2={err.l2:.4e} vs {ref_l2:.4e} "
                           f"{'MATCH' if match else 'MISMATCH'}")
    ok = energy_ok and order_ok and digits_ok
    report(9, ok, f"own-energy deviation over 1000 steps {worst:.2e} (<= 1e-10); l2 orders "
           f"{['%.2f' % o for o in orders]}; published-digit comparison at 5%: "
           + "; ".join(digit_lines))


def test_criterion_10_rest_state_bit_stable():
    grid = make_grid(0, 1, 0, 1, n1=8, n2=8)
    state = SchemeState(grid, 0.0, np.zeros(grid.shape), np.zeros(grid.shape),
                        np.ones(grid.shape))
    tau = 0.05
    state = li_leps_first_step(state, tau)
    for _ in range(9999):
        state = li_leps_step(state, tau)
    ok = (np.all(state.u == 0.0) and np.all(state.v == 0.0) and np.all(state.r == 1.0))
    report(10, ok, "10^4 steps from rest leave (u, v, r) bit-identical to (0, 0, 1)")
