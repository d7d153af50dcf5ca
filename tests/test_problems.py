import math

import numpy as np
import pytest

from sinegordon import Boundary, get_problem
from sinegordon.problems import PROBLEMS, Problem

from oracles import check_initial_consistency, pde_residual_probe


def test_registry_names():
    assert sorted(PROBLEMS) == ["breather", "collide2", "collide4",
                                "double-pole-1d", "line-kink-2d", "ring"]
    with pytest.raises(KeyError):
        get_problem("nonexistent")


class TestDoublePole:
    def test_exact_at_origin_t1(self):
        p = get_problem("double-pole-1d")
        assert p.exact(0.0, 0.0, 1.0) == pytest.approx(math.pi, rel=1e-15)

    def test_starts_from_rest(self):
        p = get_problem("double-pole-1d")
        x = np.linspace(-20, 20, 101)
        assert np.all(p.exact(x, 0.0, 0.0) == 0.0)
        assert np.all(p.f(x, 0.0) == 0.0)

    def test_velocity_amplitude(self):
        p = get_problem("double-pole-1d")
        assert p.g(0.0, 0.0) == pytest.approx(4.0, rel=1e-15)

    def test_domain_and_boundary(self):
        p = get_problem("double-pole-1d")
        assert (p.x_lo, p.x_hi) == (-20.0, 20.0)
        assert p.dim == 1
        assert p.boundary is Boundary.PERIODIC


@pytest.mark.parametrize("name", ["ring", "line-kink-2d"])
def test_2d_problem_rejects_a_one_node_wide_grid(name):
    # n2 = 1 would mesh a strip along the low y edge with h2 the domain height
    p = get_problem(name)
    for n2 in (1, 0):
        with pytest.raises(ValueError, match="n2 must be at least 2"):
            p.grid(40, n2)
    assert p.grid(40, 2).shape == (2, 40)


class TestLineKink:
    def test_exact_on_characteristic(self):
        p = get_problem("line-kink-2d")
        for (x, y, t) in [(0.0, 0.0, 0.0), (1.0, 2.0, 3.0), (-0.5, 1.0, 0.5)]:
            assert p.exact(x, y, t) == pytest.approx(math.pi, rel=1e-15)

    def test_initial_velocity_value(self):
        p = get_problem("line-kink-2d")
        assert p.g(0.0, 0.0) == pytest.approx(-2.0, rel=1e-15)

    def test_time_derivative_matches_g(self):
        # high-order finite-difference probe of du/dt at t = 0
        p = get_problem("line-kink-2d")
        rng = np.random.default_rng(0)
        xs = rng.uniform(-7, 7, 20)
        ys = rng.uniform(-7, 7, 20)
        dt = 5e-3
        w = np.array([-1.0, 9.0, -45.0, 0.0, 45.0, -9.0, 1.0]) / (60.0 * dt)
        du = sum(wk * p.exact(xs, ys, k * dt) for wk, k in zip(w, range(-3, 4)))
        assert np.max(np.abs(du - p.g(xs, ys))) <= 1e-12

    def test_dirichlet_boundary_mode(self):
        p = get_problem("line-kink-2d")
        assert p.boundary is Boundary.DIRICHLET_EXACT


class TestRing:
    def test_velocity_zero(self):
        p = get_problem("ring")
        x = np.linspace(-14, 14, 13)
        assert np.all(p.g(x[None, :], x[:, None]) == 0.0)

    def test_value_on_radius_three(self):
        p = get_problem("ring")
        assert p.f(3.0, 0.0) == pytest.approx(math.pi, rel=1e-15)
        assert p.f(0.0, -3.0) == pytest.approx(math.pi, rel=1e-15)

    def test_center_value_frozen_oracle(self):
        p = get_problem("ring")
        assert p.f(0.0, 0.0) == pytest.approx(6.084201335824178, rel=1e-15)

    def test_display_transform(self):
        p = get_problem("ring")
        assert p.display_transform(np.pi) == pytest.approx(1.0, rel=1e-15)


class TestBreather:
    def test_center_value(self):
        p = get_problem("breather")
        assert p.f(0.0, 0.0) == pytest.approx(4.0 * math.atan(2.0), rel=1e-15)

    def test_velocity_zero(self):
        p = get_problem("breather")
        assert p.g(1.3, -0.7) == 0.0

    def test_point_symmetry(self):
        p = get_problem("breather")
        rng = np.random.default_rng(1)
        x = rng.uniform(-7, 7, 50)
        y = rng.uniform(-7, 7, 50)
        np.testing.assert_allclose(p.f(x, y), p.f(-x, -y), rtol=1e-14)


class TestCollisions:
    @pytest.mark.parametrize("name,domain", [
        ("collide2", (-30.0, 10.0, -21.0, 7.0)),
        ("collide4", (-30.0, 10.0, -30.0, 10.0)),
    ])
    def test_domains(self, name, domain):
        p = get_problem(name)
        assert (p.x_lo, p.x_hi, p.y_lo, p.y_hi) == domain
        assert p.boundary is Boundary.PERIODIC

    def test_field_on_initial_circle(self):
        # distance 4 from (-3, -7) puts the kink argument at zero
        for name in ("collide2", "collide4"):
            p = get_problem(name)
            assert p.f(1.0, -7.0) == pytest.approx(math.pi, rel=1e-14)
            assert p.g(1.0, -7.0) == pytest.approx(4.13, rel=1e-14)

    def test_mirror_is_reflection(self):
        # display: sin(u/2), then reflected across both midlines
        p = get_problem("collide2")
        rng = np.random.default_rng(2)
        U = rng.normal(size=(6, 8))
        M = p.display(U)
        np.testing.assert_array_equal(M, np.sin(0.5 * U)[::-1, ::-1])
        p4 = get_problem("collide4")
        np.testing.assert_array_equal(p4.display(U), np.sin(0.5 * U)[::-1, ::-1])

    def test_mirror_no_axes_is_identity(self):
        # ring declares no mirror axes: display is its transform alone, and a
        # problem with neither shows its field as it is
        U = np.arange(12.0).reshape(3, 4)
        np.testing.assert_array_equal(get_problem("ring").display(U), np.sin(0.5 * U))
        np.testing.assert_array_equal(get_problem("line-kink-2d").display(U), U)


class TestConsistencyChecks:
    def test_all_problems_construct(self):
        for name in PROBLEMS:
            p = get_problem(name)
            assert p.name == name

    @pytest.mark.parametrize("name", [n for n in PROBLEMS if PROBLEMS[n]().exact is not None])
    def test_exact_solution_matches_initial_data(self, name):
        check_initial_consistency(get_problem(name))

    def test_validator_rejects_wrong_velocity(self):
        broken = Problem(
            "broken", -1.0, 1.0, -1.0, 1.0, 2, Boundary.PERIODIC,
            f=lambda x, y: np.sin(x + y),
            g=lambda x, y: np.ones_like(np.asarray(x, dtype=float)),
            exact=lambda x, y, t: np.sin(x + y) * np.cos(t),
        )
        with pytest.raises(ValueError):
            check_initial_consistency(broken)

    @pytest.mark.parametrize("name", ["double-pole-1d", "line-kink-2d"])
    def test_exact_solutions_satisfy_pde(self, name):
        assert pde_residual_probe(get_problem(name), n_samples=100) <= 1e-6
