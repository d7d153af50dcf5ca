import math

import numpy as np
import pytest

from sinegordon import Boundary, delta_x, make_grid
from sinegordon.operators import delta_y, h1_norm

from oracles import brute_force_inner, peak_fields


class TestMakeGrid:
    def test_double_pole_spacing(self):
        g = make_grid(-20, 20, n1=400, n2=1)
        assert g.h1 == 0.1
        assert g.is_1d
        assert g.h2 == 1.0

    def test_ring_spacing(self):
        g = make_grid(-14, 14, -14, 14, n1=200, n2=200)
        assert g.h1 == 0.14
        assert g.h2 == 0.14

    def test_smallest_legal_grid(self):
        g = make_grid(0, 1, 0, 1, n1=2, n2=2)
        assert g.h1 == 0.5
        assert g.h2 == 0.5

    def test_rejects_empty_extent(self):
        with pytest.raises(ValueError):
            make_grid(1, 1, 0, 1, n1=4, n2=4)
        with pytest.raises(ValueError):
            make_grid(0, 1, 2, 1, n1=4, n2=4)

    def test_rejects_small_axis(self):
        with pytest.raises(ValueError):
            make_grid(0, 1, 0, 1, n1=1, n2=4)

    def test_rejects_dirichlet_1d(self):
        with pytest.raises(ValueError):
            make_grid(0, 1, n1=8, boundary=Boundary.DIRICHLET_EXACT)

    def test_interior_mask(self):
        gp = make_grid(0, 1, 0, 1, n1=4, n2=4)
        assert gp.interior_mask.all()
        gd = make_grid(0, 1, 0, 1, n1=4, n2=4, boundary=Boundary.DIRICHLET_EXACT)
        assert not gd.interior_mask[0, :].any()
        assert not gd.interior_mask[:, 0].any()
        assert gd.interior_mask[1:, 1:].all()


class TestNormsAndInner:
    def test_unit_constant_on_unit_square(self):
        g = make_grid(0, 1, 0, 1, n1=7, n2=5)
        U = np.ones(g.shape)
        assert g.l2(U) == pytest.approx(1.0, abs=1e-15)

    def test_zero_field(self):
        g = make_grid(0, 1, 0, 1, n1=6, n2=6)
        Z = np.zeros(g.shape)
        assert g.l2(Z) == 0.0
        assert g.linf(Z) == 0.0
        assert h1_norm(g, Z) == 0.0

    def test_l2_sine_against_direct_summation(self):
        # frozen from the independent summation oracle over 64 nodes on [0, 1)
        g = make_grid(0.0, 1.0, n1=64)
        U = np.sin(2 * np.pi * g.x)[None, :]
        expected = 0.7071067811865476
        assert g.l2(U) == pytest.approx(expected, rel=1e-14)
        direct = 0.0
        for j in range(64):
            direct += g.h1 * math.sin(2 * math.pi * (j * g.h1)) ** 2
        assert g.l2(U) == pytest.approx(math.sqrt(direct), rel=1e-13)

    def test_inner_symmetric_bilinear(self):
        rng = np.random.default_rng(3)
        g = make_grid(0, 2, -1, 1, n1=9, n2=7)
        U, V, W = (rng.normal(size=g.shape) for _ in range(3))
        assert g.inner(U, V) == pytest.approx(g.inner(V, U), rel=1e-14)
        a, b = 0.7, -1.3
        assert g.inner(a * U + b * W, V) == pytest.approx(
            a * g.inner(U, V) + b * g.inner(W, V), rel=1e-12, abs=1e-14)
        assert g.inner(U, V) == pytest.approx(brute_force_inner(g, U, V),
                                              rel=1e-13, abs=1e-15)

    def test_l2_squared_is_self_inner(self):
        rng = np.random.default_rng(4)
        g = make_grid(-3, 3, -3, 3, n1=32, n2=32)
        U = rng.normal(size=g.shape)
        assert g.l2(U) ** 2 == pytest.approx(g.inner(U, U), rel=1e-14)

    def test_l2_squared_on_million_node_grid(self):
        rng = np.random.default_rng(6)
        g = make_grid(0, 1, 0, 1, n1=1000, n2=1000)
        U = rng.normal(size=g.shape)
        ip = g.inner(U, U)
        assert abs(g.l2(U) ** 2 - ip) <= 4 * np.finfo(float).eps * ip

    def test_reductions_allocate_no_field(self):
        g = make_grid(-14, 14, -14, 14, n1=200, n2=200)
        U, V = np.random.default_rng(7).normal(size=(2, *g.shape))
        for reduce in (lambda: g.l2(U), lambda: g.inner(U, V)):
            reduce()
            assert peak_fields(reduce, g.shape) < 0.1

    def test_inner_of_strided_views(self):
        g = make_grid(0, 1, 0, 1, n1=6, n2=5)
        W = np.random.default_rng(8).normal(size=(10, 12))
        U, V = W[::2, ::2], np.asfortranarray(W[1::2, 1::2])
        assert g.inner(U, V) == pytest.approx(brute_force_inner(g, U, V), rel=1e-13)

    def test_h1_norm_composition(self):
        rng = np.random.default_rng(5)
        g = make_grid(0, 1, 0, 1, n1=16, n2=16)
        U = rng.normal(size=g.shape)
        composed = math.sqrt(g.l2(U) ** 2 + g.l2(delta_x(g, U)) ** 2
                             + g.l2(delta_y(g, U)) ** 2)
        assert h1_norm(g, U) == composed

    def test_grid_mismatch_rejected(self):
        g = make_grid(0, 1, 0, 1, n1=8, n2=8)
        bad = np.zeros((4, 4))
        with pytest.raises(ValueError):
            g.l2(bad)
        with pytest.raises(ValueError):
            g.inner(np.zeros(g.shape), bad)

