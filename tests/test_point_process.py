"""Grids, patterns, fields, thinning simulation, likelihood, and CSV formats."""

import math

import numpy as np
import pytest

from sgcp import (DataError, Grid, IntensityField, PointPattern, integrate_field,
                  read_field_csv, read_pattern_csv, rng_for, simulate_thinning,
                  simulate_thinning_batch, write_field_csv, write_pattern_csv)
from sgcp._accel import interp_apply, interp_stencil
from sgcp.point_process import log_likelihood


class TestGrid:
    def test_nodes_1d(self):
        grid = Grid(1, 3)
        np.testing.assert_allclose(grid.nodes(), [[0.0], [0.5], [1.0]])
        assert grid.n_nodes == 3

    def test_nodes_2d_order(self):
        # row-major: the last axis varies fastest
        grid = Grid(2, 2)
        np.testing.assert_allclose(
            grid.nodes(), [[0, 0], [0, 1], [1, 0], [1, 1]])
        assert grid.n_nodes == 4

    def test_validation(self):
        with pytest.raises(ValueError):
            Grid(0, 4)
        with pytest.raises(ValueError):
            Grid(1, 1)


class TestPointPattern:
    def test_bounds_checked(self):
        with pytest.raises(ValueError):
            PointPattern(1, np.array([[1.2]]))
        with pytest.raises(ValueError):
            PointPattern(2, np.array([[0.5, -0.1]]))
        with pytest.raises(ValueError):
            PointPattern(1, np.array([[0.5], [np.nan]]))

    def test_shape_checked(self):
        with pytest.raises(ValueError):
            PointPattern(2, np.array([[0.5]]))

    def test_empty_pattern(self):
        pat = PointPattern(1, np.empty((0, 1)))
        assert pat.n == 0


class TestIntensityField:
    def test_nonnegativity_enforced(self):
        grid = Grid(1, 3)
        with pytest.raises(ValueError):
            IntensityField(grid, np.array([1.0, -0.5, 2.0]))
        with pytest.raises(ValueError):
            IntensityField(grid, np.array([1.0, np.nan, 2.0]))

    def test_at_nodes_returns_node_values(self):
        grid = Grid(1, 5)
        vals = np.array([1.0, 4.0, 2.0, 5.0, 3.0])
        field = IntensityField(grid, vals)
        np.testing.assert_allclose(field.at(grid.nodes()), vals)

    def test_linear_interpolation_1d(self):
        field = IntensityField(Grid(1, 3), np.array([0.0, 2.0, 6.0]))
        np.testing.assert_allclose(field.at(np.array([[0.25]])), [1.0])
        np.testing.assert_allclose(field.at(np.array([[0.75]])), [4.0])

    def test_bilinear_interpolation_cell_center(self):
        grid = Grid(2, 2)
        field = IntensityField(grid, np.array([1.0, 2.0, 3.0, 10.0]))
        np.testing.assert_allclose(field.at(np.array([[0.5, 0.5]])), [4.0])


class TestIntegration:
    def test_constant_field_exact(self):
        for dim, res in ((1, 5), (2, 7), (3, 4)):
            field = IntensityField(Grid(dim, res), np.full(res**dim, 3.5))
            assert integrate_field(field) == pytest.approx(3.5, abs=1e-14)

    def test_sine_integral_exact_at_any_resolution(self):
        # the trapezoid sum of sin(2 pi s) over a full period cancels exactly,
        # so the grid integral equals the area of the constant part
        for res in (5, 16, 33, 64):
            grid = Grid(1, res)
            vals = 2.0 + np.sin(2.0 * math.pi * grid.nodes()[:, 0])
            assert integrate_field(IntensityField(grid, vals)) == pytest.approx(2.0, abs=1e-12)

    def test_product_field_matches_iterated_trapezoid(self):
        grid = Grid(2, 17)
        nodes = grid.nodes()
        vals = (1.0 + nodes[:, 0] ** 2) * np.exp(nodes[:, 1])
        got = integrate_field(IntensityField(grid, vals))
        x = np.linspace(0.0, 1.0, 17)
        want = np.trapezoid(1.0 + x**2, x) * np.trapezoid(np.exp(x), x)
        assert got == pytest.approx(want, rel=1e-12)

    def test_resolution_refinement_converges(self):
        # doubling the cell count changes a smooth field's integral O(h^2)
        def make(res):
            grid = Grid(1, res)
            return IntensityField(grid, np.exp(grid.nodes()[:, 0]))
        coarse = integrate_field(make(17))
        fine = integrate_field(make(33))
        exact = math.e - 1.0
        assert abs(fine - exact) < abs(coarse - exact)
        assert abs(fine - exact) < 4e-4


class TestThinning:
    def test_ceiling_must_dominate(self):
        field = IntensityField(Grid(1, 3), np.array([1.0, 5.0, 1.0]))
        with pytest.raises(ValueError):
            simulate_thinning(4.0, field, rng_for(0))
        with pytest.raises(ValueError):
            simulate_thinning(0.0, field, rng_for(0))

    def test_mean_count_matches_intensity_mass(self):
        grid = Grid(1, 33)
        vals = 2.0 + np.sin(2.0 * math.pi * grid.nodes()[:, 0])
        field = IntensityField(grid, vals)
        rng = rng_for(123)
        counts = [simulate_thinning(3.0, field, rng).n for _ in range(4000)]
        # mass is exactly 2; the mean of 4000 Poisson(2) draws has sd ~ 0.022
        assert np.mean(counts) == pytest.approx(2.0, abs=0.1)

    def test_deterministic_given_stream(self):
        field = IntensityField(Grid(1, 9), np.full(9, 4.0))
        a = simulate_thinning(4.0, field, rng_for(7))
        b = simulate_thinning(4.0, field, rng_for(7))
        np.testing.assert_array_equal(a.points, b.points)

    def test_zero_points_possible(self):
        field = IntensityField(Grid(1, 3), np.full(3, 1e-6))
        pat = simulate_thinning(1e-6, field, rng_for(3))
        assert pat.n == 0

    @pytest.mark.parametrize("dim, resolution, ceiling", [(1, 9, 3.0), (1, 64, 40.0), (2, 5, 25.0)])
    def test_single_call_is_the_sequential_algorithm_bit_for_bit(self, dim, resolution, ceiling):
        grid = Grid(dim, resolution)
        vals = ceiling * rng_for(5, dim).random(grid.n_nodes)
        field = IntensityField(grid, vals)
        rng, ref = rng_for(6, dim, resolution), rng_for(6, dim, resolution)
        for _ in range(40):
            pattern = simulate_thinning(ceiling, field, rng)
            n_cand = ref.poisson(ceiling)
            candidates = ref.random((n_cand, dim))
            if n_cand:
                lam = interp_apply(vals, interp_stencil(dim, resolution, candidates))
                candidates = candidates[ref.random(n_cand) * ceiling < lam]
            assert pattern.points.tobytes() == candidates.tobytes()
        assert rng.random() == ref.random()

    def test_batch_routes_each_round_to_its_own_field(self):
        # round 0 vanishes on [0, 1/2], round 1 on [1/2, 1]
        grid = Grid(1, 3)
        values = np.array([[0.0, 0.0, 10.0], [10.0, 0.0, 0.0], [0.0, 0.0, 0.0]])
        points, counts = simulate_thinning_batch(np.full(3, 10.0), values, grid, rng_for(8))
        assert counts.tolist()[2] == 0 and counts.sum() == points.shape[0]
        assert counts[0] > 0 and counts[1] > 0
        assert np.all(points[:counts[0], 0] > 0.5)
        assert np.all(points[counts[0]:, 0] < 0.5)

    def test_batch_checks_every_round(self):
        grid = Grid(1, 3)
        values = np.array([[1.0, 1.0, 1.0], [1.0, 5.0, 1.0]])
        with pytest.raises(ValueError, match="lambda_star=4.0"):
            simulate_thinning_batch(np.array([4.0, 4.0]), values, grid, rng_for(0))
        with pytest.raises(ValueError):
            simulate_thinning_batch(np.array([5.0, 0.0]), values, grid, rng_for(0))


class TestLogLikelihood:
    def test_matches_direct_formula(self):
        grid = Grid(1, 9)
        vals = 1.0 + grid.nodes()[:, 0]
        field = IntensityField(grid, vals)
        pats = [PointPattern(1, np.array([[0.1], [0.6]])),
                PointPattern(1, np.array([[0.9]]))]
        got = log_likelihood(pats, field)
        pts = np.array([[0.1], [0.6], [0.9]])
        want = float(np.sum(np.log(field.at(pts)))) - 2.0 * (integrate_field(field) - 1.0)
        assert got == pytest.approx(want, rel=1e-12)

    def test_zero_intensity_at_point_is_minus_inf(self):
        field = IntensityField(Grid(1, 3), np.array([0.0, 1.0, 1.0]))
        pat = PointPattern(1, np.array([[0.0]]))
        assert log_likelihood([pat], field) == -math.inf

    def test_dimension_mismatch_raises(self):
        field = IntensityField(Grid(1, 3), np.ones(3))
        pat = PointPattern(2, np.array([[0.5, 0.5]]))
        with pytest.raises(ValueError):
            log_likelihood([pat], field)

    def test_no_patterns_is_zero(self):
        field = IntensityField(Grid(1, 3), np.ones(3))
        assert log_likelihood([], field) == 0.0


class TestCsvFormats:
    def test_pattern_roundtrip(self, tmp_path):
        pat = PointPattern(2, rng_for(5).random((17, 2)))
        path = tmp_path / "pat.csv"
        write_pattern_csv(pat, path, meta={"origin": "test"})
        back = read_pattern_csv(path)
        assert back.dim == 2
        np.testing.assert_array_equal(back.points, pat.points)

    def test_empty_pattern_roundtrip(self, tmp_path):
        pat = PointPattern(1, np.empty((0, 1)))
        path = tmp_path / "empty.csv"
        write_pattern_csv(pat, path, {})
        assert read_pattern_csv(path).n == 0

    def test_field_roundtrip(self, tmp_path):
        grid = Grid(2, 5)
        field = IntensityField(grid, rng_for(6).random(grid.n_nodes) + 0.5)
        path = tmp_path / "field.csv"
        write_field_csv(field, path, {})
        back = read_field_csv(path)
        assert back.grid == grid
        np.testing.assert_array_equal(back.values, field.values)

    def test_malformed_pattern_reports_line(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("1,resolution-free\n0.5\nnot-a-number\n")
        with pytest.raises(DataError) as err:
            read_pattern_csv(path)
        assert "3" in str(err.value)

    def test_out_of_bounds_coordinate_rejected(self, tmp_path):
        path = tmp_path / "oob.csv"
        path.write_text("1,resolution-free\n1.5\n")
        with pytest.raises(DataError):
            read_pattern_csv(path)
        path.write_text("1,resolution-free\n0.5\nnan\n")
        with pytest.raises(DataError):
            read_pattern_csv(path)

    def test_field_header_mismatch(self, tmp_path):
        path = tmp_path / "short.csv"
        path.write_text("1,4\n1.0\n2.0\n")
        with pytest.raises(DataError):
            read_field_csv(path)

    def test_pattern_writes_are_bytewise_stable(self, tmp_path):
        pat = PointPattern(1, rng_for(8).random((9, 1)))
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        write_pattern_csv(pat, p1, {})
        write_pattern_csv(pat, p2, {})
        assert p1.read_bytes() == p2.read_bytes()
