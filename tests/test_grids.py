import numpy as np
import pytest

from biharm_lab.errors import DomainError, SizeError
from biharm_lab.grids import (Field, RadialGrid, convergence_order,
                              derivative_values, laplacian_values,
                              radial_gradient_sq, radial_laplacian)


def grid(n=3, r_max=10.0, N=512):
    return RadialGrid.uniform(n, r_max, N)


class TestRadialGrid:
    def test_nodes(self):
        g = grid(N=100)
        assert g.r[0] == 0.0
        assert np.allclose(np.diff(g.r), g.h)
        assert g.num_nodes == 101

    def test_nodes_built_once_read_only(self):
        g = grid(N=100)
        assert g.r is g.r and not g.r.flags.writeable
        assert np.array_equal(g.r, np.arange(101) * g.h)
        assert g == grid(N=100) and hash(g) == hash(grid(N=100))   # the cache is no field

    def test_dimension_floor(self):
        with pytest.raises(DomainError):
            RadialGrid.uniform(2, 1.0, 64)
        with pytest.raises(DomainError):
            RadialGrid(n=3.5, h=0.1, num_intervals=10)
        with pytest.raises(DomainError):
            RadialGrid(n=3, h=np.inf, num_intervals=10)

    def test_minimum_size(self):
        with pytest.raises(SizeError):
            RadialGrid.uniform(3, 1.0, 8)
        with pytest.raises(SizeError):
            RadialGrid(n=3, h=0.1, num_intervals=10.5)

    def test_trim(self):
        g = grid(N=64)
        sl = g.trim_slice()
        assert sl == slice(4, 61)


class TestField:
    def test_finite_required(self):
        g = grid(N=16)
        vals = np.ones(17)
        vals[3] = np.nan
        with pytest.raises(DomainError):
            Field(g, vals)

    def test_positive_flag(self):
        g = grid(N=16)
        with pytest.raises(DomainError):
            Field(g, np.zeros(17), positive=True)

    def test_shape(self):
        g = grid(N=16)
        with pytest.raises(SizeError):
            Field(g, np.ones(5))


class TestLaplacian:
    @pytest.mark.parametrize("n", [3, 4, 5])
    def test_quadratic_exact(self, n):
        # lap r^2 = 2n for every dimension
        g = grid(n=n, N=256)
        lap = laplacian_values(g.r**2, g.h, n)
        assert np.abs(lap[1:-1] - 2 * n).max() < 1e-9

    def test_constant(self):
        g = grid(N=256)
        lap = laplacian_values(np.ones(g.num_nodes), g.h, 3)
        assert np.abs(lap).max() == 0.0

    def test_linear_interior_exact(self):
        # general degree <= 2 polynomial: a + b r + c r^2, interior nodes only
        g = grid(N=256)
        r = g.r[1:-1]
        f = 0.7 - 1.3 * g.r + 0.4 * g.r**2
        expected = 0.8 + (3 - 1) * (-1.3 + 0.8 * r) / r
        lap = laplacian_values(f, g.h, 3)
        assert np.abs(lap[1:-1] - expected).max() < 1e-8

    def test_smooth_closed_form(self):
        # f = sqrt(1+r^2) in n = 3: lap f = (3+2r^2)(1+r^2)^(-3/2), verified
        # symbolically in test_biharmonic; second-order convergence here
        errs = []
        for N in (512, 1024):
            g = grid(N=N)
            r = g.r
            f = np.sqrt(1 + r * r)
            exact = (3 + 2 * r * r) * (1 + r * r) ** -1.5
            sl = g.trim_slice()
            errs.append(np.abs((laplacian_values(f, g.h, 3) - exact)[sl]).max())
        assert convergence_order(errs[0], errs[1]) >= 1.8

    def test_size_error(self):
        with pytest.raises(SizeError):
            laplacian_values(np.ones(3), 0.1, 3)

    def test_field_wrapper(self):
        g = grid(N=64)
        out = radial_laplacian(Field(g, g.r**2))
        assert np.abs(out.values[1:-1] - 6.0).max() < 1e-9


class TestGradientSq:
    def test_quadratic(self):
        g = grid(N=512)
        out = radial_gradient_sq(Field(g, g.r**2))
        sl = g.trim_slice()
        assert np.abs(out.values[sl] - 4 * g.r[sl] ** 2).max() < 1e-6
        assert out.values[0] == 0.0

    def test_constant(self):
        g = grid(N=64)
        out = radial_gradient_sq(Field(g, np.full(g.num_nodes, 2.5)))
        assert np.abs(out.values).max() == 0.0

    def test_smooth_closed_form(self):
        g = grid(N=2048)
        r = g.r
        out = radial_gradient_sq(Field(g, np.sqrt(1 + r * r)))
        exact = r * r / (1 + r * r)
        sl = g.trim_slice()
        assert np.abs(out.values[sl] - exact[sl]).max() < 5 * g.h**2


class TestDerivativeAssisted:
    def test_against_closed_form(self):
        # f = (3+2r^2)(1+r^2)^(-3/2) in n = 3 has lap f = -15 (1+r^2)^(-7/2)
        # (verified symbolically in test_biharmonic); with the exact radial
        # derivative supplied, the truncation constant is the plain-stencil
        # curvature term only and stays small down to the axis
        errs = []
        for N in (1024, 2048):
            g = grid(N=N)
            r = g.r
            f = (3 + 2 * r * r) * (1 + r * r) ** -1.5
            df = -r * (5 + 2 * r * r) * (1 + r * r) ** -2.5
            exact = -15.0 * (1 + r * r) ** -3.5
            assisted = laplacian_values(f, g.h, 3, df)
            sl = g.trim_slice()
            errs.append(np.abs(assisted[sl] - exact[sl]).max())
            assert errs[-1] < 6 * g.h**2
        assert convergence_order(errs[0], errs[1]) >= 1.8

    def test_matches_spelled_out_form(self):
        # f'' differenced from f, the transport term (n-1) df/r read from df;
        # a stack gives its rows
        g = grid(N=64)
        r = g.r
        f, df = np.cos(r), -np.sin(r)
        ref = np.empty_like(f)
        ref[1:-1] = (f[2:] - 2.0 * f[1:-1] + f[:-2]) / g.h**2 + 2 * df[1:-1] / r[1:-1]
        ref[0] = 3 * 2.0 * (f[1] - f[0]) / g.h**2
        ref[-1] = (2.0 * f[-1] - 5.0 * f[-2] + 4.0 * f[-3] - f[-4]) / g.h**2 \
            + 2 * df[-1] / r[-1]
        assert np.array_equal(laplacian_values(f, g.h, 3, df), ref)
        stacked = laplacian_values(np.stack([f, 2 * f]), g.h, 3, np.stack([df, 2 * df]))
        assert np.array_equal(stacked, [ref, laplacian_values(2 * f, g.h, 3, 2 * df)])

    def test_derivative_one_sided_end(self):
        g = grid(N=256)
        d = derivative_values(g.r**2, g.h)
        assert abs(d[-1] - 2 * g.r[-1]) < 1e-8
