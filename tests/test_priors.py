"""The logistic link, hyperprior densities, tail validators, small-ball probe."""

import math
import warnings
from types import SimpleNamespace

import numpy as np
import pytest
from scipy import integrate, special, stats

from sgcp import (LOGISTIC_SQRT_LIPSCHITZ, Grid, LengthScalePriorSpec,
                  LengthScaleTailBounds, MaxIntensityPriorSpec, SgcpPrior,
                  default_length_scale_bounds, estimate_sqrt_link_lipschitz,
                  get_truth, rng_for, sample_prior_batch, validate_length_scale_tail,
                  validate_max_intensity_tail)
from sgcp._accel import sigmoid
from sgcp.kernels import gp_field
from sgcp.priors import prior_small_ball_probability

# (shape, rate) pairs at which the gamma medians are compared with scipy.stats
GAMMA_PAIRS = ((1.0, 1.0), (2.0, 1.0), (2.0, 3.0), (3.7, 0.4), (0.5, 2.5), (1.3, 0.7),
               (12.0, 30.0))


class TestLinks:
    def test_logistic_values(self):
        x = np.array([-3.0, 0.0, 2.5])
        np.testing.assert_allclose(sigmoid(x), special.expit(x), rtol=1e-14)
        assert sigmoid(np.array([0.0]))[0] == 0.5

    def test_logistic_lipschitz_matches_analytic_maximum(self):
        # d/dx sqrt(sigma) = sqrt(sigma)(1-sigma)/2 peaks at sigma = 1/3
        est = estimate_sqrt_link_lipschitz()
        assert est == pytest.approx(1.0 / (3.0 * math.sqrt(3.0)), abs=1e-5)
        assert est <= LOGISTIC_SQRT_LIPSCHITZ + 1e-3


class TestLengthScalePrior:
    def test_density_integrates_to_one(self):
        for dim in (1, 2):
            spec = LengthScalePriorSpec(dim=dim, shape=1.5, rate=2.0)
            val, _ = integrate.quad(lambda x: math.exp(float(spec.log_density(x))),
                                    0.0, np.inf)
            assert val == pytest.approx(1.0, abs=1e-8)

    @pytest.mark.parametrize("dim", [1, 2])
    def test_density_matches_scipy_gamma_change_of_variables(self, dim):
        # ell = Y^(1/d) with Y ~ Gamma(a, b): p(ell) = p_Y(ell^d) d ell^(d-1)
        for a, b in ((1.0, 1.0), (1.5, 2.0), (0.7, 0.3)):
            spec = LengthScalePriorSpec(dim=dim, shape=a, rate=b)
            for x in (1e-3, 0.4, 1.0, 2.7, 30.0):
                want = (stats.gamma.logpdf(x**dim, a, scale=1.0 / b)
                        + math.log(dim) + (dim - 1) * math.log(x))
                assert spec.log_density(x) == pytest.approx(want, rel=1e-12, abs=1e-12)

    def test_median_underflow_refused(self):
        # gammaincinv(a, 1/2) underflows to 0 for shapes below about 1e-3
        with pytest.raises(ValueError, match=r"shape 1e-300 and rate 1\.0"):
            LengthScalePriorSpec(dim=1, shape=1e-300)
        assert LengthScalePriorSpec(dim=1, shape=0.01).median > 0.0

    def test_mass_above_the_largest_float_refused(self):
        # the median of (1e300, 1e-300) overflows; (1, 1e-308) puts 0.166 of
        # ell^d above the largest float; both are refused without a warning
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for shape, rate in ((1e300, 1e-300), (1.0, 1e-308)):
                with pytest.raises(ValueError, match="above the largest float"):
                    LengthScalePriorSpec(dim=1, shape=shape, rate=rate)
            assert LengthScalePriorSpec(dim=1, shape=1e300, rate=1e-8).median == 1e308

    def test_density_rejects_non_positive(self):
        spec = LengthScalePriorSpec(dim=2)
        for x in (0.0, -1.0):
            with pytest.raises(ValueError):
                spec.log_density(x)

    def test_sampled_ell_to_the_d_is_gamma(self):
        spec = LengthScalePriorSpec(dim=2, shape=1.0, rate=1.0)
        draws = spec.sample(rng_for(41), 4000) ** 2
        p = stats.kstest(draws, stats.gamma(1.0, scale=1.0).cdf).pvalue
        assert p > 0.01

    def test_median(self):
        spec = LengthScalePriorSpec(dim=2, shape=1.3, rate=0.7)
        m = spec.median
        assert float(special.gammainc(1.3, 0.7 * m**2)) == pytest.approx(0.5, abs=1e-10)

    @pytest.mark.parametrize("dim", [1, 2])
    def test_median_bitwise_equals_scipy_gamma_ppf(self, dim):
        for a, b in GAMMA_PAIRS:
            want = float(stats.gamma.ppf(0.5, a, scale=1.0 / b) ** (1.0 / dim))
            assert LengthScalePriorSpec(dim=dim, shape=a, rate=b).median == want

    def test_invalid_params(self):
        with pytest.raises(ValueError):
            LengthScalePriorSpec(dim=1, shape=0.0)
        with pytest.raises(ValueError):
            LengthScalePriorSpec(dim=0)


class TestMaxIntensityPrior:
    def test_density_matches_scipy_gamma(self):
        for a, b in ((2.0, 1.0), (1.0, 0.5), (3.5, 4.0)):
            spec = MaxIntensityPriorSpec(shape=a, rate=b)
            for x in (1e-3, 0.4, 1.0, 2.7, 30.0):
                want = stats.gamma.logpdf(x, a, scale=1.0 / b)
                assert spec.log_density(x) == pytest.approx(want, rel=1e-12, abs=1e-12)

    def test_density_rejects_non_positive(self):
        for x in (0.0, -1.0):
            with pytest.raises(ValueError):
                MaxIntensityPriorSpec().log_density(x)

    def test_survival_matches_scipy(self):
        spec = MaxIntensityPriorSpec(shape=2.0, rate=1.0)
        x = np.array([0.5, 2.0, 10.0])
        np.testing.assert_allclose(
            spec.survival(x), stats.gamma(2.0, scale=1.0).sf(x), rtol=1e-10)

    def test_median(self):
        for a, b in GAMMA_PAIRS:
            want = float(stats.gamma.ppf(0.5, a, scale=1.0 / b))
            assert MaxIntensityPriorSpec(shape=a, rate=b).median == want


class TestTailValidators:
    def test_length_scale_defaults_pass(self):
        for dim in (1, 2):
            res = validate_length_scale_tail(LengthScalePriorSpec(dim=dim))
            assert res.passed, res.detail

    def test_length_scale_broken_upper_fails_with_witness(self):
        spec = LengthScalePriorSpec(dim=1)
        good = default_length_scale_bounds(spec)
        # swap: claimed decay faster than the true density's -> upper bound breaks
        broken = LengthScaleTailBounds(
            power=good.power, decay_lower=2.5 * spec.rate,
            decay_upper=good.decay_upper, log_c_lower=good.log_c_lower,
            log_c_upper=good.log_c_upper)
        res = validate_length_scale_tail(spec, broken)
        assert not res.passed
        assert res.witness is not None and 5.0 <= res.witness <= 100.0

    def test_length_scale_broken_lower_fails_with_witness(self):
        spec = LengthScalePriorSpec(dim=1)
        good = default_length_scale_bounds(spec)
        broken = LengthScaleTailBounds(
            power=good.power, decay_lower=good.decay_lower,
            decay_upper=0.25 * spec.rate,  # claims the density stays too large
            log_c_lower=good.log_c_lower, log_c_upper=good.log_c_upper)
        res = validate_length_scale_tail(spec, broken)
        assert not res.passed
        assert res.witness is not None

    @pytest.mark.parametrize("shape", [1e8, 1e300])
    def test_length_scale_bounds_finite_at_huge_shape(self, shape):
        # d b^a / Gamma(a) overflows a float here; its log does not
        spec = LengthScalePriorSpec(dim=1, shape=shape)
        bounds = default_length_scale_bounds(spec)
        assert math.isfinite(bounds.log_c_lower) and math.isfinite(bounds.log_c_upper)
        res = validate_length_scale_tail(spec, bounds)
        assert res.passed, res.detail

    def test_ceiling_defaults_pass(self):
        res = validate_max_intensity_tail(MaxIntensityPriorSpec())
        assert res.passed, res.detail

    def test_ceiling_broken_constants_fail_with_witness(self):
        res = validate_max_intensity_tail(MaxIntensityPriorSpec(), c0=1e-6)
        assert not res.passed
        assert res.witness is not None and 5.0 <= res.witness <= 100.0

    def test_ceiling_too_fast_decay_fails(self):
        # the envelope decays at half the spec's rate, 5, while its tail is
        # that of Gamma(2, 1)
        spec = SimpleNamespace(rate=10.0, survival=MaxIntensityPriorSpec().survival)
        res = validate_max_intensity_tail(spec)
        assert not res.passed


class TestPriorBundle:
    def test_draw_bounded_by_ceiling(self):
        draw = sample_prior_batch(SgcpPrior(dim=1), Grid(1, 16), rng_for(9), 1)
        lam_star = draw["lambda_star"][0]
        values = lam_star * sigmoid(draw["latent"][0])
        assert np.all(values > 0.0)
        assert np.all(values < lam_star)

    def test_dim_consistency(self):
        with pytest.raises(ValueError):
            SgcpPrior(dim=2, ell_prior=LengthScalePriorSpec(dim=1))
        with pytest.raises(ValueError):
            sample_prior_batch(SgcpPrior(dim=1), Grid(2, 4), rng_for(0), 1)

    def test_deterministic(self):
        prior = SgcpPrior(dim=1)
        a = sample_prior_batch(prior, Grid(1, 8), rng_for(77), 1)
        b = sample_prior_batch(prior, Grid(1, 8), rng_for(77), 1)
        for key in ("ell", "lambda_star", "white", "latent"):
            np.testing.assert_array_equal(a[key], b[key])

    @pytest.mark.parametrize("dim, resolution", [(1, 8), (1, 64), (2, 5), (3, 3)])
    def test_single_draw_is_the_sequential_algorithm_bit_for_bit(self, dim, resolution):
        # ell (a float root of a gamma draw), lam*, white noise, then the
        # field through the one-axis factor, each drawn one at a time
        from scipy.linalg import lapack
        prior = SgcpPrior(dim=dim, ell_prior=LengthScalePriorSpec(dim, 1.5, 0.7),
                          lam_prior=MaxIntensityPriorSpec(0.5, 2.0))
        grid = Grid(dim, resolution)
        rng, ref = rng_for(78, dim, resolution), rng_for(78, dim, resolution)
        for _ in range(25):
            draw = sample_prior_batch(prior, grid, rng, 1)
            ell = ref.gamma(1.5, 1.0 / 0.7) ** (1.0 / dim)
            lam_star = ref.gamma(0.5, 1.0 / 2.0)
            white = ref.standard_normal(grid.n_nodes)
            axis = np.linspace(0.0, 1.0, resolution)
            diff = np.subtract.outer(axis, axis)
            A = np.array(np.exp(diff * diff * -(ell * ell)), order="F")
            A.flat[::resolution + 1] += 1e-10
            L1 = lapack.dpotrf(A, lower=1, clean=1)[0]
            g = white
            for _ in range(dim):
                g = (L1 @ g.reshape(resolution, -1)).T
            g = g.ravel()
            assert draw["ell"][0] == ell
            assert draw["lambda_star"][0] == lam_star
            assert draw["white"][0].tobytes() == white.tobytes()
            assert draw["latent"][0].tobytes() == g.tobytes()
        assert rng.random() == ref.random()

    def test_node_guard_draws_nothing(self):
        rng = rng_for(80)
        with pytest.raises(ValueError):
            sample_prior_batch(SgcpPrior(dim=2), Grid(2, 70), rng, 1)
        assert rng.random() == rng_for(80).random()

    def test_batch_rows_are_the_draws_of_its_arrays(self):
        prior = SgcpPrior(dim=2)
        grid = Grid(2, 4)
        draw = sample_prior_batch(prior, grid, rng_for(79), 6)
        assert draw["ell"].shape == draw["lambda_star"].shape == (6,)
        assert draw["white"].shape == draw["latent"].shape == (6, 16)
        for i in range(6):
            want = gp_field(float(draw["ell"][i]), grid, draw["white"][i])
            assert draw["latent"][i].tobytes() == want.tobytes()


class TestSmallBall:
    def test_positive_and_monotone(self):
        prior = SgcpPrior(dim=1)
        truth = get_truth("const4").field(16)
        ests = prior_small_ball_probability(prior, truth, [1.5, 2.0, 3.0],
                                            2000, rng_for(99, 6))
        probs = [e.probability for e in ests]
        assert all(p > 0.0 for p in probs)
        assert probs == sorted(probs)

    def test_is_the_sup_distance_of_one_batch(self):
        prior = SgcpPrior(dim=1)
        truth = get_truth("sin1d").field(16)
        deltas = [1.5, 2.0, 2.5]
        ests = prior_small_ball_probability(prior, truth, deltas, 500, rng_for(99, 7))
        draw = sample_prior_batch(prior, truth.grid, rng_for(99, 7), 500)
        fields = draw["lambda_star"][:, None] * sigmoid(draw["latent"])
        sup = np.max(np.abs(fields - truth.values), axis=1)
        assert [e.probability for e in ests] == [float(np.mean(sup < d)) for d in deltas]
        assert all(e.n_mc == 500 for e in ests)

    def test_validation(self):
        prior = SgcpPrior(dim=1)
        truth = get_truth("const4").field(8)
        with pytest.raises(ValueError):
            prior_small_ball_probability(prior, truth, [-1.0], 10, rng_for(0))
        with pytest.raises(ValueError):
            prior_small_ball_probability(prior, truth, [1.0], 0, rng_for(0))
