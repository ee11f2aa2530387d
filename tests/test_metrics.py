"""Intensity distances: exact constants, Monte Carlo oracle, vectorization,
and the contraction summary built from them."""

import numpy as np
import pytest

from sgcp import Grid, IntensityField, contraction, distances_to_truth, rng_for
from sgcp.kernels import gp_field


def _const(grid, c):
    return IntensityField(grid, np.full(grid.n_nodes, float(c)))


def _distance(a, b):
    """The distance of field ``a`` to field ``b``, as a one-row draw matrix."""
    return float(distances_to_truth(a.values[None, :], b)[0])


class TestDistance:
    def test_constants_one_and_four(self):
        # (sqrt 4 - sqrt 1)^2 = 1 everywhere, so the distance is exactly 1
        for dim, res in ((1, 9), (2, 5)):
            grid = Grid(dim, res)
            assert _distance(_const(grid, 1.0), _const(grid, 4.0)) == 1.0

    def test_identity_and_symmetry(self):
        grid = Grid(1, 17)
        a = IntensityField(grid, 1.0 + grid.nodes()[:, 0])
        b = IntensityField(grid, 2.0 - grid.nodes()[:, 0])
        assert _distance(a, a) == 0.0
        assert _distance(a, b) == _distance(b, a)

    def test_grid_mismatch_raises(self):
        with pytest.raises(ValueError):
            _distance(_const(Grid(1, 9), 1.0), _const(Grid(1, 8), 1.0))
        with pytest.raises(ValueError):
            _distance(_const(Grid(1, 5), 1.0), _const(Grid(2, 5), 1.0))

    def test_monte_carlo_oracle(self):
        """The metric integrates the interpolant of the node values of
        (sqrt a - sqrt b)^2 exactly; a Monte Carlo average of that same
        interpolant must agree to within its sampling error."""
        rng = rng_for(31)
        for k in range(10):
            grid = Grid(1, 33) if k < 5 else Grid(2, 9)
            ell = 1.0 + 0.3 * k
            a = IntensityField(grid, np.exp(gp_field(ell, grid, rng.standard_normal(grid.n_nodes))))
            b = IntensityField(grid, np.exp(gp_field(ell, grid, rng.standard_normal(grid.n_nodes))))
            d = _distance(a, b)
            diff = IntensityField(grid, (np.sqrt(a.values) - np.sqrt(b.values)) ** 2)
            pts = rng.random((400000, grid.dim))
            d_mc = float(np.sqrt(np.mean(diff.at(pts))))
            assert d == pytest.approx(d_mc, abs=1e-3)


class TestVectorizedDistances:
    def test_matches_loop(self):
        grid = Grid(1, 9)
        truth = _const(grid, 2.0)
        rng = rng_for(66)
        draws = rng.random((20, grid.n_nodes)) + 0.5
        got = distances_to_truth(draws, truth)
        want = [_distance(IntensityField(grid, row), truth) for row in draws]
        np.testing.assert_allclose(got, want, rtol=1e-12)

    def test_shape_validated(self):
        with pytest.raises(ValueError):
            distances_to_truth(np.ones((3, 5)), _const(Grid(1, 9), 1.0))
        with pytest.raises(ValueError):
            distances_to_truth(-np.ones((3, 9)), _const(Grid(1, 9), 1.0))


class TestContraction:
    def test_constant_draws(self):
        # every draw is 4 and the truth is 1: each distance, and so both numbers, is 1
        for dim, res in ((1, 9), (2, 5)):
            grid = Grid(dim, res)
            draws = np.full((7, grid.n_nodes), 4.0)
            assert contraction(draws, _const(grid, 1.0)) == (1.0, 1.0)

    def test_mean_distance_and_radius(self):
        grid = Grid(2, 6)
        truth = IntensityField(grid, 1.0 + grid.nodes()[:, 0])
        draws = rng_for(67).gamma(2.0, size=(101, grid.n_nodes))
        distance_mean, radius = contraction(draws, truth)
        assert distance_mean == _distance(IntensityField(grid, np.mean(draws, axis=0)), truth)
        assert radius == np.quantile(distances_to_truth(draws, truth), 0.9)

    def test_shape_validated(self):
        with pytest.raises(ValueError):
            contraction(np.ones((3, 5)), _const(Grid(1, 9), 1.0))
