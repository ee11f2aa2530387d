"""Covariance kernels: closed form vs spectral quadrature, moment bound, sampling."""

import math

import numpy as np
import pytest
from scipy import integrate
from scipy.special import erf

from sgcp import (FactorizationError, Grid, chol_with_jitter, cov_matrix,
                  exponential_moment_log_bound, rng_for)
from sgcp.kernels import (SPECTRAL_SIGMA, apply_factor, gp_field, kernel_eval,
                          spectral_covariance_quadrature)


def _reference_factor(ell, points):
    """The squared-exponential fill and jittered factor written out longhand:
    per-axis distances summed, scaled in place, then a Fortran-order copy
    with 1e-10 on its diagonal factored by LAPACK dpotrf."""
    from scipy.linalg import lapack
    d2 = None
    for axis in np.asarray(points, dtype=np.float64).T:
        diff = np.subtract.outer(axis, axis)
        d2 = diff * diff if d2 is None else d2 + diff * diff
    d2 *= -(ell * ell)
    K = np.exp(d2, out=d2)
    A = np.array(K, dtype=np.float64, order="F")
    A.flat[::K.shape[0] + 1] += 1e-10
    L, info = lapack.dpotrf(A, lower=1, clean=1, overwrite_a=1)
    assert info == 0
    return K, L


class TestClosedForm:
    def test_values(self):
        # exp(-ell^2 h^2) computed by hand
        assert kernel_eval(2.0, [0.0], [0.0]) == pytest.approx(1.0)
        assert kernel_eval(2.0, [0.0], [0.5]) == pytest.approx(math.exp(-1.0))
        assert kernel_eval(2.0, [0.1, 0.2], [0.4, 0.6]) == pytest.approx(
            math.exp(-4.0 * 0.25))

    def test_symmetry_and_stationarity(self):
        s, t = np.array([0.2, 0.7]), np.array([0.9, 0.1])
        assert kernel_eval(1.3, s, t) == kernel_eval(1.3, t, s)
        shift = np.array([0.05, -0.05])
        assert kernel_eval(1.3, s + shift, t + shift) == pytest.approx(
            kernel_eval(1.3, s, t), rel=1e-12)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            kernel_eval(1.0, [0.1], [0.1, 0.2])


class TestSpectralQuadrature:
    @pytest.mark.parametrize("dim", [1, 2])
    @pytest.mark.parametrize("ell", [0.5, 1.0, 2.7])
    def test_gaussian_density_reproduces_closed_form(self, dim, ell):
        rng = rng_for(17, dim)
        for _ in range(20):
            lag = rng.uniform(-1.0, 1.0, size=dim)
            a = spectral_covariance_quadrature(ell, lag)
            b = kernel_eval(ell, np.zeros(dim), lag)
            assert a == pytest.approx(b, abs=1e-6)

    def test_lag_shape_checked(self):
        # the lag's length is the dimension, so it must be a non-empty vector
        for lag in (np.array([[0.3, 0.1]]), np.array([])):
            with pytest.raises(ValueError):
                spectral_covariance_quadrature(1.0, lag)


class TestSpectralDensity:
    def test_mass_is_one_by_quadrature(self):
        # the transform at lag 0 is the total mass of the density
        for dim in (1, 2):
            z = spectral_covariance_quadrature(1.0, np.zeros(dim))
            assert z == pytest.approx(1.0, abs=1e-12)


class TestExponentialMoment:
    def test_gaussian_1d_closed_form(self):
        # int exp(delta |xi|) N(0, sigma^2) dxi = 2 exp(d^2 s^2/2) Phi(d s), exact at d = 1
        for delta in (1.0 / SPECTRAL_SIGMA, 1.0):  # sigma delta = 1 and sqrt 2
            got = exponential_moment_log_bound(1, delta)
            t = SPECTRAL_SIGMA * delta
            want = math.exp(0.5 * t**2) * (1.0 + erf(t / math.sqrt(2.0)))
            assert math.exp(got) == pytest.approx(want, rel=1e-9)

    def test_gaussian_2d_against_direct_quadrature(self):
        sigma = SPECTRAL_SIGMA
        for delta in (0.7, 2.0, 3.0):
            bound = exponential_moment_log_bound(2, delta)

            def radial(r):  # 2 pi r exp(delta r) times the density at radius r
                return r * math.exp(delta * r - 0.5 * r * r / sigma**2) / sigma**2

            # the integrand peaks near r = delta sigma^2 and is below exp(-700) at r = 60
            want, _ = integrate.quad(radial, 0.0, 60.0, points=[delta * sigma**2], limit=200)
            assert math.isfinite(bound)
            assert math.exp(bound) >= want

    def test_tilt_must_be_positive(self):
        for delta in (0.0, -1.0, math.nan, math.inf, 1e300):
            with pytest.raises(ValueError):
                exponential_moment_log_bound(1, delta)


class TestCovMatrix:
    def test_matches_pairwise_eval(self):
        nodes = Grid(1, 12).nodes()
        K = cov_matrix(1.9, 12)
        assert K.shape == (12, 12)
        for i in range(12):
            for j in range(12):
                assert K[i, j] == pytest.approx(
                    kernel_eval(1.9, nodes[i], nodes[j]), rel=1e-10, abs=1e-12)

    def test_unit_diagonal(self):
        K = cov_matrix(0.7, 8)
        np.testing.assert_allclose(np.diag(K), 1.0)

    @pytest.mark.parametrize("r", [2, 17, 40])
    def test_bitwise_symmetric_with_exact_unit_diagonal(self, r):
        K = cov_matrix(2.3, r)
        np.testing.assert_array_equal(K, K.T)
        assert np.all(np.diag(K) == 1.0)

    @pytest.mark.parametrize("ell", [1.4e154, 1e300])
    def test_overflowing_length_scale_gives_the_identity(self, ell):
        # ell * ell overflows: exp(-inf) is 0 off the diagonal, and the limit is 1 on it
        np.testing.assert_array_equal(cov_matrix(ell, 16), np.eye(16))


class TestFactorizationAndSampling:
    def test_chol_reconstructs(self):
        K = cov_matrix(1.0, 16)
        L, jitter = chol_with_jitter(K)
        assert jitter <= 1e-6
        np.testing.assert_allclose(L @ L.T, K + jitter * np.eye(16), atol=1e-8)

    def test_chol_escalates_on_near_singular(self):
        # rank-1 matrix: fails at small jitter on some platforms, must not crash
        K = np.ones((5, 5))
        L, jitter = chol_with_jitter(K)
        assert np.all(np.isfinite(L))

    def test_chol_returns_the_jitter_it_needed(self):
        # smallest eigenvalue -5e-9: 1e-10 and 1e-9 leave it indefinite, 1e-8 does not
        q, _ = np.linalg.qr(rng_for(14).standard_normal((6, 6)))
        K = (q * np.array([1.0, 0.5, 0.3, 0.2, 0.1, -5e-9])) @ q.T
        K = 0.5 * (K + K.T)
        L, jitter = chol_with_jitter(K)
        assert jitter == pytest.approx(1e-8, rel=1e-12)
        np.testing.assert_array_equal(np.triu(L, 1), 0.0)
        np.testing.assert_allclose(L @ L.T, K + jitter * np.eye(6), rtol=0.0, atol=1e-14)

    def test_chol_fails_on_indefinite(self):
        with pytest.raises(FactorizationError):
            chol_with_jitter(-np.eye(4))

    @pytest.mark.parametrize("where", [(0, 0), (2, 2), (4, 4), (3, 1), (4, 0)])
    def test_chol_refuses_a_non_finite_factor(self, where):
        # dpotrf reports success on these NaN matrices; the factor must not be returned
        K = np.eye(5)
        K[where] = K[where[::-1]] = np.nan
        with pytest.raises(FactorizationError, match="not finite"):
            chol_with_jitter(K)

    def test_sample_gp_moments(self):
        grid = Grid(1, 8)
        rng = rng_for(21)
        draws = np.stack([gp_field(1.0, grid, rng.standard_normal(grid.n_nodes))
                          for _ in range(3000)])
        np.testing.assert_allclose(draws.mean(axis=0), 0.0, atol=0.08)
        np.testing.assert_allclose(draws.var(axis=0), 1.0, atol=0.1)
        # neighbor correlation matches the kernel
        want = kernel_eval(1.0, grid.nodes()[0], grid.nodes()[1])
        got = np.corrcoef(draws[:, 0], draws[:, 1])[0, 1]
        assert got == pytest.approx(want, abs=0.05)



class TestFactorPath:
    @pytest.mark.parametrize("r", [3, 16, 64])
    @pytest.mark.parametrize("ell", [0.3, 1.0, 2.7, 9.5])
    def test_bitwise_equal_to_reference_factor(self, r, ell):
        K_ref, L_ref = _reference_factor(ell, Grid(1, r).nodes())
        for _ in range(2):  # the second call reads the cached distances
            K = cov_matrix(ell, r)
            L, jitter = chol_with_jitter(K)
            assert K.tobytes() == K_ref.tobytes()
            assert jitter == 1e-10
            assert L.flags.f_contiguous
            assert L.tobytes() == L_ref.tobytes()

    def test_writing_into_a_returned_matrix_changes_nothing_later(self):
        first = cov_matrix(0.9, 12)
        want = first.copy()
        first[...] = -1.0
        np.testing.assert_array_equal(cov_matrix(0.9, 12), want)
        L, _ = chol_with_jitter(want)
        L[...] = 0.0
        L_ref = _reference_factor(0.9, Grid(1, 12).nodes())[1]
        assert chol_with_jitter(want)[0].tobytes() == L_ref.tobytes()

    def test_singular_matrix_still_escalates(self):
        # duplicate points make K singular; pushing its zero eigenvalue to
        # -5e-9 leaves 1e-10 and 1e-9 indefinite, so the factor needs 1e-8
        pts = [0.2, 0.2, 0.7, 0.7, 0.9]
        K = np.array([[kernel_eval(1.0, s, t) for t in pts] for s in pts])
        K.flat[::6] -= 5e-9
        L, jitter = chol_with_jitter(K)
        assert jitter == pytest.approx(1e-8, rel=1e-12)
        np.testing.assert_allclose(L @ L.T, K + jitter * np.eye(5), rtol=0.0, atol=1e-14)
        with pytest.raises(FactorizationError):
            chol_with_jitter(-np.eye(3))


def _axis_factor(ell, r):
    L1, _ = chol_with_jitter(cov_matrix(ell, r))
    return L1


class TestKroneckerFactor:
    def test_matches_explicit_kronecker(self):
        L1 = _axis_factor(1.3, 5)
        rng = rng_for(41)
        w2 = rng.standard_normal(25)
        np.testing.assert_allclose(apply_factor(L1, w2, 2), np.kron(L1, L1) @ w2,
                                   rtol=0.0, atol=1e-12)
        w3 = rng.standard_normal(125)
        np.testing.assert_allclose(apply_factor(L1, w3, 3),
                                   np.kron(L1, np.kron(L1, L1)) @ w3, rtol=0.0, atol=1e-12)

    def test_one_axis_is_plain_matvec(self):
        L1 = _axis_factor(0.8, 16)
        w = rng_for(42).standard_normal(16)
        np.testing.assert_array_equal(apply_factor(L1, w, 1), L1 @ w)

    def test_reconstructs_grid_covariance(self):
        for ell in (0.5, 1.0, 2.5):
            L1 = _axis_factor(ell, 6)
            L = np.kron(L1, L1)
            nodes = Grid(2, 6).nodes()
            K = np.array([[kernel_eval(ell, s, t) for t in nodes] for s in nodes])
            np.testing.assert_allclose(L @ L.T, K, rtol=0.0, atol=1e-8)

    def test_sample_gp_moments_2d(self):
        grid = Grid(2, 5)
        rng = rng_for(22)
        draws = np.stack([gp_field(1.0, grid, rng.standard_normal(grid.n_nodes))
                          for _ in range(3000)])
        np.testing.assert_allclose(draws.mean(axis=0), 0.0, atol=0.08)
        np.testing.assert_allclose(draws.var(axis=0), 1.0, atol=0.1)
        # neighbours along the last axis (node 1) and the first axis (node 5)
        nodes = grid.nodes()
        for j in (1, 5):
            want = kernel_eval(1.0, nodes[0], nodes[j])
            got = np.corrcoef(draws[:, 0], draws[:, j])[0, 1]
            assert got == pytest.approx(want, abs=0.05)
