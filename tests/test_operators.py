import math

import numpy as np
import pytest

from sinegordon import Boundary, coupling, delta_x, laplacian, make_grid
from sinegordon.operators import (BoundaryValues, delta_y, extrapolate_half_step,
                                  one_minus_cos, sin_cos, time_average)

from oracles import (centered_derivative, coupling_prime, coupling_second,
                     dense_laplacian_periodic, peak_fields)


def test_delta_x_constant_field():
    g = make_grid(0, 1, 0, 1, n1=8, n2=8)
    U = np.full(g.shape, 3.25)
    assert np.all(delta_x(g, U) == 0.0)
    assert np.all(delta_y(g, U) == 0.0)


def test_delta_x_alternating_wraps():
    g = make_grid(0, 4, n1=4)
    U = np.array([[0.0, 1.0, 0.0, 1.0]])
    np.testing.assert_array_equal(delta_x(g, U), [[1.0, -1.0, 1.0, -1.0]])


def test_delta_x_richardson_order_two():
    # forward difference of sin matches the midpoint derivative to O(h^2)
    errors = []
    for n in (128, 256, 512):
        g = make_grid(0.0, 1.0, n1=n)
        U = np.sin(2 * np.pi * g.x)[None, :]
        target = 2 * np.pi * np.cos(2 * np.pi * (g.x + g.h1 / 2))[None, :]
        errors.append(np.max(np.abs(delta_x(g, U) - target)))
    assert 3.5 < errors[0] / errors[1] < 4.5
    assert 3.5 < errors[1] / errors[2] < 4.5


def test_laplacian_constant():
    g = make_grid(0, 2, 0, 2, n1=6, n2=6)
    U = np.full(g.shape, -1.5)
    assert np.max(np.abs(laplacian(g, U))) == 0.0


STENCIL_GRIDS = [
    make_grid(0, 2, 0, 3, n1=9, n2=7),
    make_grid(0, 1, 0, 1, n1=2, n2=2),
    make_grid(0, 1, 0, 2, n1=2, n2=5),
    make_grid(0, 4, n1=16),
]


@pytest.mark.parametrize("g", STENCIL_GRIDS, ids=lambda g: f"{g.n1}x{g.n2}")
def test_laplacian_matches_dense_oracle(g):
    U = np.random.default_rng(g.num_nodes).normal(size=g.shape)
    expected = (dense_laplacian_periodic(g) @ U.ravel()).reshape(g.shape)
    got = laplacian(g, U)
    assert np.max(np.abs(got - expected)) <= 1e-14 * np.max(np.abs(expected))


@pytest.mark.parametrize("g", STENCIL_GRIDS, ids=lambda g: f"{g.n1}x{g.n2}")
def test_laplacian_maps_constants_to_exact_zero(g):
    assert np.all(laplacian(g, np.full(g.shape, 0.3)) == 0.0)


def test_laplacian_dirichlet_constant_edge_data_gives_exact_zero():
    g = make_grid(0, 2, 0, 3, n1=9, n2=7, boundary=Boundary.DIRICHLET_EXACT)
    c = -0.7
    bv = BoundaryValues(right=np.full(g.n2, c), top=np.full(g.n1, c))
    assert np.all(laplacian(g, np.full(g.shape, c), bv) == 0.0)


def test_laplacian_writes_into_out():
    rng = np.random.default_rng(7)
    dirichlet = make_grid(0, 2, 0, 3, n1=9, n2=7, boundary=Boundary.DIRICHLET_EXACT)
    cases = [(g, None) for g in STENCIL_GRIDS]
    cases.append((dirichlet, BoundaryValues(rng.normal(size=7), rng.normal(size=9))))
    for g, bv in cases:
        U = rng.normal(size=g.shape)
        buf = np.full(g.shape, np.nan)
        assert laplacian(g, U, bv, out=buf) is buf
        np.testing.assert_array_equal(buf, laplacian(g, U, bv))


def test_laplacian_rejects_bad_out():
    g = make_grid(0, 2, 0, 3, n1=9, n2=7)
    U = np.zeros(g.shape)
    for bad, match in [(np.empty((3, 3)), "shape"), (U, "overlap"),
                       (np.empty((7, 18))[:, ::2], "contiguous"),
                       (np.empty(g.shape, dtype=np.float32), "float")]:
        with pytest.raises(ValueError, match=match):
            laplacian(g, U, out=bad)


def test_laplacian_spike_readout():
    g = make_grid(0, 4, n1=4)
    U = np.array([[1.0, 0.0, 0.0, 0.0]])
    np.testing.assert_array_equal(laplacian(g, U), [[-2.0, 1.0, 0.0, 1.0]])


def test_laplacian_summation_by_parts():
    rng = np.random.default_rng(0)
    g = make_grid(0, 1, 0, 1, n1=64, n2=64)
    X, Y = g.meshgrid
    for U in (np.sin(2 * np.pi * X) * np.sin(2 * np.pi * Y), rng.normal(size=g.shape)):
        lhs = g.inner(laplacian(g, U), U)
        assert lhs <= 0.0
        rhs = -(g.l2(delta_x(g, U)) ** 2 + g.l2(delta_y(g, U)) ** 2)
        assert lhs == pytest.approx(rhs, rel=1e-13)


def test_summation_by_parts_two_fields():
    rng = np.random.default_rng(1)
    g = make_grid(-1, 1, -2, 2, n1=24, n2=16)
    U = rng.normal(size=g.shape)
    V = rng.normal(size=g.shape)
    lhs = g.inner(laplacian(g, U), V)
    rhs = -(g.inner(delta_x(g, U), delta_x(g, V)) + g.inner(delta_y(g, U), delta_y(g, V)))
    assert lhs == pytest.approx(rhs, rel=1e-13, abs=1e-13)


def test_mixed_differences_commute():
    rng = np.random.default_rng(2)
    g = make_grid(0, 1, 0, 3, n1=12, n2=10)
    U = rng.normal(size=g.shape)
    a = delta_x(g, delta_y(g, U))
    b = delta_y(g, delta_x(g, U))
    scale = np.max(np.abs(a)) + 1.0
    assert np.max(np.abs(a - b)) <= 8 * np.finfo(float).eps * scale


def test_discrete_product_rule():
    # delta of a product expands into neighbor-average and difference factors
    rng = np.random.default_rng(3)
    g = make_grid(0, 1, 0, 1, n1=16, n2=12)
    U = rng.normal(size=g.shape)
    V = rng.normal(size=g.shape)
    for delta, axis in ((delta_x, 1), (delta_y, 0)):
        avg_u = 0.5 * (np.roll(U, -1, axis=axis) + U)
        avg_v = 0.5 * (np.roll(V, -1, axis=axis) + V)
        lhs = delta(g, U * V)
        rhs = avg_u * delta(g, V) + delta(g, U) * avg_v
        tol = 8 * np.finfo(float).eps * (np.abs(lhs) + np.abs(avg_u * delta(g, V))
                                         + np.abs(delta(g, U) * avg_v) + 1.0)
        assert np.all(np.abs(lhs - rhs) <= tol)


def test_extrapolate_half_step():
    g = make_grid(0, 1, 0, 1, n1=8, n2=8)
    c = np.full(g.shape, 2.5)
    np.testing.assert_array_equal(extrapolate_half_step(c, c), c)
    one = np.ones(g.shape)
    zero = np.zeros(g.shape)
    np.testing.assert_array_equal(extrapolate_half_step(one, zero), 1.5 * one)
    rng = np.random.default_rng(4)
    a, b = rng.normal(size=g.shape), rng.normal(size=g.shape)
    out = extrapolate_half_step(a, b)
    for j2 in range(g.n2):
        for j1 in range(g.n1):
            assert out[j2, j1] == 1.5 * a[j2, j1] - 0.5 * b[j2, j1]
    # into out, through scratch: the same values
    into, scratch = np.empty(g.shape), np.empty(g.shape)
    assert extrapolate_half_step(a, b, into, scratch) is into
    np.testing.assert_array_equal(into, out)


def test_time_average():
    g = make_grid(0, 1, 0, 1, n1=8, n2=8)
    c = np.full(g.shape, -1.25)
    np.testing.assert_array_equal(time_average(c, c), c)
    np.testing.assert_array_equal(
        time_average(np.ones(g.shape), np.zeros(g.shape)), np.full(g.shape, 0.5))
    rng = np.random.default_rng(5)
    a, b = rng.normal(size=g.shape), rng.normal(size=g.shape)
    out = time_average(a, b)
    for j2 in range(g.n2):
        for j1 in range(g.n1):
            assert out[j2, j1] == 0.5 * (a[j2, j1] + b[j2, j1])


class TestCoupling:
    def test_point_values(self):
        assert coupling(0.0) == 0.0
        assert coupling(np.pi / 2) == pytest.approx(0.7071067811865475, rel=1e-15)
        assert coupling(np.pi) == pytest.approx(0.0, abs=1e-15)
        assert coupling_prime(0.0) == pytest.approx(1.0, rel=1e-15)

    def test_rejects_non_finite(self):
        for bad in (np.nan, np.inf, -np.inf):
            with pytest.raises(ValueError):
                coupling(bad)
            with pytest.raises(ValueError):
                coupling_prime(bad)
            with pytest.raises(ValueError):
                coupling_second(bad)

    def test_global_bounds_million_samples(self):
        x = np.linspace(-10 * np.pi, 10 * np.pi, 1_000_000)
        assert np.max(np.abs(coupling(x))) <= 1.0
        assert np.max(np.abs(coupling_prime(x))) <= 1.5
        assert np.max(np.abs(coupling_second(x))) <= 2.5

    def test_derivatives_match_finite_differences(self):
        x = np.linspace(-10 * np.pi, 10 * np.pi, 20_001)
        fd_prime = centered_derivative(coupling, x)
        assert np.max(np.abs(fd_prime - coupling_prime(x))) <= 1e-6
        fd_second = centered_derivative(coupling_prime, x)
        assert np.max(np.abs(fd_second - coupling_second(x))) <= 1e-6

    @staticmethod
    def closed_form(x):
        return np.sin(x) / np.sqrt(2.0 - np.cos(x))

    def test_half_angle_form_matches_the_closed_form(self):
        odd = np.pi * np.arange(-21, 22, 2)
        near_odd = np.concatenate([odd, np.nextafter(odd, np.inf), np.nextafter(odd, -np.inf),
                                   odd + 1e-8, odd - 1e-8])
        far = np.random.default_rng(52).uniform(-1e6, 1e6, 100_000)
        far[:2] = -1e6, 1e6
        for x in (np.linspace(-10 * np.pi, 10 * np.pi, 1_000_000), near_odd, far):
            assert np.max(np.abs(coupling(x) - self.closed_form(x))) <= 4e-16

    def test_out_may_be_the_input(self):
        x = np.linspace(-7.0, 7.0, 1001).reshape(7, 143)
        fresh = coupling(x)
        assert coupling(x, out=x) is x
        np.testing.assert_array_equal(x, fresh)

    def test_scalar_input_gives_a_scalar(self):
        for x in (0.75, np.float64(0.75), np.array(0.75)):
            value = coupling(x)
            assert np.ndim(value) == 0 and not isinstance(value, np.ndarray)
            assert value == pytest.approx(self.closed_form(0.75), abs=4e-16)


def test_differences_into_out():
    g = make_grid(0, 1, 0, 1, n1=8, n2=6)
    U = np.random.default_rng(53).normal(size=g.shape)
    for delta in (delta_x, delta_y):
        out = np.full(g.shape, np.nan)
        assert delta(g, U, out=out) is out
        np.testing.assert_array_equal(out, delta(g, U))
        with pytest.raises(ValueError, match="overlap"):
            delta(g, U, out=U)
        with pytest.raises(ValueError, match="contiguous"):
            delta(g, U, out=np.empty((6, 16))[:, ::2])
        with pytest.raises(ValueError, match="float"):
            delta(g, U, out=np.empty(g.shape, dtype=np.float32))


def test_one_minus_cos_has_no_cancellation():
    x = np.concatenate([np.linspace(-10 * np.pi, 10 * np.pi, 100_001), [1e-9, -3e-12, 0.0]])
    expected = 2.0 * np.sin(0.5 * x) ** 2
    work = x.copy()
    assert one_minus_cos(work, work, np.empty_like(x)) is work
    np.testing.assert_allclose(work, expected, rtol=1e-15, atol=0.0)


def test_sin_cos_matches_math_to_a_few_ulps():
    eps = np.finfo(float).eps
    marks = np.pi * np.array([0.0, 0.5, 1.0, 1.5, 2.0, 3.0, 4.0])
    marks = np.concatenate([marks, -marks])
    x = np.concatenate([np.linspace(-4 * np.pi, 4 * np.pi, 200_001), marks,
                        np.nextafter(marks, np.inf), np.nextafter(marks, -np.inf)])
    s, c = np.empty_like(x), np.empty_like(x)
    sin_cos(x, s, c, 1.0)
    assert np.max(np.abs(s - [math.sin(a) for a in x])) <= 4 * eps
    assert np.max(np.abs(c - [math.cos(a) for a in x])) <= 4 * eps
    zero = np.zeros(3)
    sin_cos(zero, zero, c[:3], 1.0)
    assert np.all(zero == 0.0) and np.all(c[:3] == 1.0)


def test_operators_reject_grid_mismatch():
    g = make_grid(0, 1, 0, 1, n1=8, n2=8)
    bad = np.zeros((3, 3))
    for op in (delta_x, delta_y, laplacian):
        with pytest.raises(ValueError):
            op(g, bad)


def test_1d_mode_y_differences_vanish():
    rng = np.random.default_rng(6)
    g = make_grid(0, 2, n1=16)
    U = rng.normal(size=g.shape)
    assert np.all(delta_y(g, U) == 0.0)
    # 3-point Laplacian only: the y-term cancels through the size-1 wrap
    expected_x = (np.roll(U, -1, axis=1) - 2 * U + np.roll(U, 1, axis=1)) / g.h1**2
    np.testing.assert_allclose(laplacian(g, U), expected_x, rtol=1e-14)


class TestDirichletReads:
    def setup_method(self):
        self.g = make_grid(0, 1, 0, 1, n1=4, n2=4,
                           boundary=Boundary.DIRICHLET_EXACT)

    def edge_values(self, fn):
        return BoundaryValues(right=fn(self.g.x_hi, self.g.y),
                              top=fn(self.g.x, self.g.y_hi))

    def test_delta_x_reads_high_edge(self):
        g = self.g
        fn = lambda x, y: 2.0 * x + np.zeros_like(y)
        X, Y = g.meshgrid
        U = fn(X, Y)
        out = delta_x(g, U, self.edge_values(fn))
        np.testing.assert_allclose(out, 2.0, rtol=1e-13)

    def test_laplacian_zero_for_linear_fields(self):
        g = self.g
        fn = lambda x, y: 1.5 * x - 0.75 * y + 0.2
        X, Y = g.meshgrid
        U = fn(X, Y)
        out = laplacian(g, U, self.edge_values(fn))
        # pinned low edges of the output are zeroed by contract
        assert np.max(np.abs(out[1:, 1:])) <= 1e-12
        assert np.all(out[0, :] == 0.0)
        assert np.all(out[:, 0] == 0.0)

    def test_missing_edge_data_means_zeros(self):
        g = self.g
        U = np.ones(g.shape)
        out = delta_x(g, U)
        # last column reads a zero virtual neighbor
        np.testing.assert_allclose(out[:, -1], -1.0 / g.h1, rtol=1e-14)
        np.testing.assert_allclose(out[:, :-1], 0.0, atol=0)


def slice_laplacian(grid, U, bv=None):
    """The 5-point Laplacian with its x-neighbour sum over 2-D slices."""
    periodic = grid.boundary is Boundary.PERIODIC
    if bv is None:
        bv = BoundaryValues(np.zeros(grid.n2), np.zeros(grid.n1))
    out = np.empty(grid.shape)
    np.add(U[:, 2:], U[:, :-2], out=out[:, 1:-1])
    np.add(U[:, 0] if periodic else bv.right, U[:, -2], out=out[:, -1])
    if periodic:
        np.add(U[:, 1], U[:, -1], out=out[:, 0])
    else:
        out[:, 0] = U[:, 1]
    out -= U
    out -= U
    if grid.is_1d:
        out /= grid.h1**2
        return out
    out *= grid.h2**2 / grid.h1**2
    out[1:-1] += U[2:]
    out[1:-1] += U[:-2]
    out[-1] += U[0] if periodic else bv.top
    out[-1] += U[-2]
    out[0] += U[1]
    if periodic:
        out[0] += U[-1]
    out -= U
    out -= U
    out /= grid.h2**2
    if not periodic:
        out[0, :] = 0.0
        out[:, 0] = 0.0
    return out


BIT_GRIDS = [
    make_grid(0, 1, 0, 2, n1=9, n2=7), make_grid(0, 1, 0, 2, n1=2, n2=5),
    make_grid(0, 3, n1=7),
    make_grid(0, 1, 0, 2, n1=9, n2=7, boundary=Boundary.DIRICHLET_EXACT),
    make_grid(-14, 14, -14, 14, n1=8, n2=8),  # h1 == h2: the x-part takes no scale
]
BIT_IDS = ["9x7", "2x5", "1d-7", "dirichlet-9x7", "square-8x8"]


@pytest.mark.parametrize("grid", BIT_GRIDS, ids=BIT_IDS)
def test_laplacian_bit_identical_to_the_slice_formula(grid):
    rng = np.random.default_rng(50)
    U = rng.normal(size=grid.shape)
    bv = None
    if grid.boundary is Boundary.DIRICHLET_EXACT:
        bv = BoundaryValues(rng.normal(size=grid.n2), rng.normal(size=grid.n1))
    np.testing.assert_array_equal(laplacian(grid, U, bv), slice_laplacian(grid, U, bv))


def test_laplacian_into_out_allocates_no_buffers():
    g = make_grid(0, 1, 0, 1, n1=200, n2=200)
    U = np.random.default_rng(51).normal(size=g.shape)
    buf = np.empty(g.shape)
    laplacian(g, U, out=buf)
    # slice view objects only: under 1024 bytes, where a row of U is 1600
    assert peak_fields(lambda: laplacian(g, U, out=buf), g.shape) * U.nbytes < 1024


def shift_delta(grid, U, axis, bv=None):
    """The forward difference through a shifted copy of ``U`` (``np.roll`` when periodic)."""
    if grid.boundary is Boundary.PERIODIC:
        shifted = np.roll(U, -1, axis=axis)
    else:
        if bv is None:
            bv = BoundaryValues(np.zeros(grid.n2), np.zeros(grid.n1))
        shifted = np.empty_like(U)
        if axis == 1:
            shifted[:, :-1] = U[:, 1:]
            shifted[:, -1] = bv.right
        else:
            shifted[:-1, :] = U[1:, :]
            shifted[-1, :] = bv.top
    return (shifted - U) / (grid.h1 if axis == 1 else grid.h2)


@pytest.mark.parametrize("grid", BIT_GRIDS, ids=BIT_IDS)
def test_forward_differences_bit_identical_to_the_shift_formula(grid):
    rng = np.random.default_rng(52)
    U = rng.normal(size=grid.shape)
    U[0, 1] = -0.0
    U[-1, -1] = 0.0
    bvs = [None]
    if grid.boundary is Boundary.DIRICHLET_EXACT:
        bvs.append(BoundaryValues(rng.normal(size=grid.n2), rng.normal(size=grid.n1)))
    for bv in bvs:
        for delta, axis in ((delta_x, 1), (delta_y, 0)):
            got, ref = delta(grid, U, bv), shift_delta(grid, U, axis, bv)
            assert got.shape == ref.shape
            # sign bits included: compare the raw bit patterns
            np.testing.assert_array_equal(got.view(np.uint64), ref.view(np.uint64))
