import tracemalloc

import numpy as np
import pytest

from sinegordon import (SchemeState, TimeGrid, convergence_orders, ep_fds_step,
                        error_vs_exact, get_problem, global_energy_modified,
                        global_energy_original, init_state, li_leps_first_step,
                        li_leps_step, local_law_residual, make_grid,
                        original_law_residual, run)
from sinegordon.diagnostics import EnergyRecorder, local_energy_density

from oracles import pointwise_density


def rest_state(grid, t=0.0):
    return SchemeState(grid, t, np.zeros(grid.shape), np.zeros(grid.shape),
                       np.ones(grid.shape))


class TestLocalEnergyDensity:
    def test_rest_state(self):
        g = make_grid(0, 1, 0, 1, n1=8, n2=8)
        np.testing.assert_array_equal(local_energy_density(rest_state(g)),
                                      np.ones(g.shape))

    def test_uniform_velocity(self):
        g = make_grid(0, 1, 0, 1, n1=8, n2=8)
        st = SchemeState(g, 0.0, np.zeros(g.shape), np.full(g.shape, 2.0),
                         np.ones(g.shape))
        np.testing.assert_array_equal(local_energy_density(st), np.full(g.shape, 3.0))

    def test_matches_pointwise_oracle(self):
        rng = np.random.default_rng(0)
        g = make_grid(0, 2, -1, 1, n1=8, n2=8)
        st = SchemeState(g, 0.0, rng.normal(size=g.shape), rng.normal(size=g.shape),
                         rng.normal(size=g.shape))
        np.testing.assert_allclose(local_energy_density(st), pointwise_density(st),
                                   rtol=1e-13)


class TestLocalLawResidual:
    def test_rest_pair_exact_zero(self):
        g = make_grid(0, 1, 0, 1, n1=8, n2=8)
        res = local_law_residual(rest_state(g), rest_state(g, 0.1), 0.1)
        assert np.all(res == 0.0)

    def test_li_leps_pair_at_round_off(self):
        p = get_problem("ring")
        g = p.grid(100)
        tau = 0.01
        st = init_state(p, g)
        st1 = li_leps_first_step(st, tau)
        st2 = li_leps_step(st1, tau)
        for a, b in ((st, st1), (st1, st2)):
            res = local_law_residual(a, b, tau)
            assert np.max(np.abs(res)) <= 1e-10 / tau

    def test_non_scheme_pair_not_at_round_off(self):
        # negative control: consecutive exact-solution samples satisfy the
        # balance only to discretization accuracy, far above round-off
        p = get_problem("double-pole-1d")
        g = p.grid(200)
        tau = 0.01
        X, Y = g.meshgrid

        def exact_state(t):
            u = p.exact(X, Y, t)
            return SchemeState(g, t, u, p.exact_v(X, Y, t), np.sqrt(2.0 - np.cos(u)))

        res = local_law_residual(exact_state(0.5), exact_state(0.5 + tau), tau)
        assert np.max(np.abs(res)) > 1e-4

    def test_ep_fds_pairs_satisfy_both_laws(self):
        # the comparison scheme is itself locally energy-conserving, and with
        # its auxiliary field recomputed the two densities differ by exactly 1
        p = get_problem("double-pole-1d")
        g = p.grid(200)
        tau = 0.01
        st1 = ep_fds_step(init_state(p, g), tau)
        st2 = ep_fds_step(st1, tau)
        assert np.max(np.abs(original_law_residual(st1, st2, tau))) <= 1e-9
        assert np.max(np.abs(local_law_residual(st1, st2, tau))) <= 1e-9

    def test_telescoping_matches_energy_difference(self):
        # compare tau * sum(residual) against the energy increment: both sides
        # are then well conditioned at the energy scale
        p = get_problem("breather")
        g = p.grid(50)
        tau = 0.01
        st = init_state(p, g)
        e0 = global_energy_modified(st)
        st1 = li_leps_first_step(st, tau)
        st2 = li_leps_step(st1, tau)
        for a, b in ((st, st1), (st1, st2)):
            total = tau * g.cell_area * float(np.sum(local_law_residual(a, b, tau)))
            de = global_energy_modified(b) - global_energy_modified(a)
            assert abs(total - de) <= 1e-13 * max(1.0, abs(e0))

    def test_level_mismatch_rejected(self):
        g = make_grid(0, 1, 0, 1, n1=8, n2=8)
        with pytest.raises(ValueError):
            local_law_residual(rest_state(g), rest_state(g, 0.25), 0.1)

    def test_original_law_residual_larger(self):
        p = get_problem("double-pole-1d")
        g = p.grid(200)
        tau = 0.01
        st1 = li_leps_first_step(init_state(p, g), tau)
        st2 = li_leps_step(st1, tau)
        modified = np.max(np.abs(local_law_residual(st1, st2, tau)))
        original = np.max(np.abs(original_law_residual(st1, st2, tau)))
        assert original > 100 * modified


class TestGlobalEnergies:
    def test_rest_state_unit_square(self):
        g = make_grid(0, 1, 0, 1, n1=8, n2=8)
        st = rest_state(g)
        assert global_energy_modified(st) == pytest.approx(1.0, rel=1e-14)
        assert global_energy_original(st) == 0.0

    def test_ring_initial_energy_against_direct_summation(self):
        p = get_problem("ring")
        g = p.grid(200)
        st = init_state(p, g)
        total = 0.0
        for j2 in range(g.n2):
            for j1 in range(g.n1):
                dxu = (st.u[j2, (j1 + 1) % g.n1] - st.u[j2, j1]) / g.h1
                dyu = (st.u[(j2 + 1) % g.n2, j1] - st.u[j2, j1]) / g.h2
                total += 0.5 * st.v[j2, j1] ** 2 + 0.5 * dxu**2 + 0.5 * dyu**2 \
                    + st.r[j2, j1] ** 2
        total *= g.cell_area
        assert global_energy_modified(st) == pytest.approx(total, rel=1e-12)

    def test_energy_offset_at_initialization(self):
        # r^2 - (1 - cos u) == 1 pointwise when r starts as sqrt(2 - cos u)
        p = get_problem("breather")
        g = p.grid(40)
        st = init_state(p, g)
        gap = global_energy_modified(st) - global_energy_original(st)
        area = g.cell_area * g.num_nodes
        assert gap == pytest.approx(area, rel=1e-12)


class TestEnergyRecorder:
    def test_cadence_and_deviation(self):
        p = get_problem("double-pole-1d")
        g = p.grid(100)
        rec = EnergyRecorder(every=2)
        run(p, g, TimeGrid(0.01, 10), recorders=(rec,))
        assert len(rec.records) == 6  # steps 0, 2, 4, 6, 8, 10
        assert rec.records[0].deviation == 0.0
        assert all(r.deviation <= 1e-12 for r in rec.records)

    @pytest.mark.parametrize("problem,n", [("ring", 24), ("line-kink-2d", 9)])
    def test_records_equal_the_global_energies(self, problem, n):
        p = get_problem(problem)
        rec = EnergyRecorder()
        states = []
        run(p, p.grid(n), TimeGrid(0.05, 3),
            recorders=(rec, lambda k, st: states.append(st)))
        for record, st in zip(rec.records, states, strict=True):
            assert record.e_modified == global_energy_modified(st)
            assert record.e_original == global_energy_original(st)

    def test_ring_paper_modified_energy_stays_at_round_off(self):
        # 100 li-leps steps of the paper's ring configuration: the deviation
        # stays near 1e-15, while an operator whose diagonal is rounded as a
        # whole drifts it to 2e-13
        p = get_problem("ring")
        rec = EnergyRecorder()
        run(p, p.grid(200), TimeGrid(0.01, 100), recorders=(rec,))
        assert max(r.deviation for r in rec.records) <= 1e-14

    def test_a_record_allocates_at_most_three_fields(self):
        # The density is built in place: two work fields, where the closed
        # forms allocated about six.
        p = get_problem("ring")
        state = li_leps_first_step(init_state(p, p.grid(200)), 0.01)
        rec = EnergyRecorder()
        rec(0, state)
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            rec(1, state)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(rec.records) == 2
        assert peak - before <= 3 * state.u.nbytes

    def test_rejects_bad_cadence(self):
        with pytest.raises(ValueError):
            EnergyRecorder(every=0)


class TestErrorVsExact:
    def test_exact_sampled_state_has_zero_errors(self):
        p = get_problem("double-pole-1d")
        g = p.grid(128)
        X, Y = g.meshgrid
        t = 0.7
        u = p.exact(X, Y, t)
        v = p.exact_v(X, Y, t)
        st = SchemeState(g, t, u, v, np.sqrt(2.0 - np.cos(u)))
        rep = error_vs_exact(st, p)
        assert rep.l2 == 0.0
        assert rep.linf == 0.0
        assert rep.h1 == 0.0
        assert rep.v_l2 == 0.0
        assert rep.r_l2 == 0.0

    def test_missing_exact_rejected(self):
        p = get_problem("ring")
        g = p.grid(24)
        with pytest.raises(ValueError):
            error_vs_exact(init_state(p, g), p)


class TestConvergenceOrders:
    def test_exact_ratio_four(self):
        orders = convergence_orders([(0.2, 0.02, 4e-3), (0.1, 0.01, 1e-3)])
        assert orders == [pytest.approx(2.0, abs=1e-12)]

    def test_stagnation_gives_zero(self):
        orders = convergence_orders([(0.2, 0.02, 1e-3), (0.1, 0.01, 1e-3)])
        assert orders == [pytest.approx(0.0, abs=1e-12)]

    def test_non_halving_rejected(self):
        with pytest.raises(ValueError):
            convergence_orders([(0.2, 0.02, 4e-3), (0.15, 0.01, 1e-3)])
        with pytest.raises(ValueError):
            convergence_orders([(0.2, 0.02, 4e-3), (0.1, 0.02, 1e-3)])
        with pytest.raises(ValueError):
            convergence_orders([(0.2, 0.02, 4e-3)])
