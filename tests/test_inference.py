"""Sampler mechanics: state management, moves, prior recovery, calibration."""

import math

import numpy as np
import pytest
from scipy import stats

from sgcp import (PROBIT, ChainConfig, Grid, IntensityField, ModelState, NumericalError,
                  PointPattern, SgcpPrior, effective_sample_size, geweke_joint_test,
                  initial_state, log_likelihood, rng_for, run_chain)
from sgcp._accel import sigmoid
from sgcp.inference import _Sampler


class TestChainConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            ChainConfig(n_iter=100, n_burn=100)
        with pytest.raises(ValueError):
            ChainConfig(thin=0)
        with pytest.raises(ValueError):
            ChainConfig(step_log_ell=0.0)
        with pytest.raises(ValueError):
            ChainConfig(adapt_target=1.0)


class TestEffectiveSampleSize:
    def test_iid_close_to_n(self):
        x = rng_for(1).standard_normal(4000)
        n_eff = effective_sample_size(x)
        assert 2500 < n_eff <= 4000

    def test_ar1_reduction(self):
        # AR(1) with phi = 0.9 has n_eff ~ n (1-phi)/(1+phi) = n/19
        rng = rng_for(2)
        n = 20000
        x = np.empty(n)
        x[0] = rng.standard_normal()
        eps = rng.standard_normal(n)
        for i in range(1, n):
            x[i] = 0.9 * x[i - 1] + eps[i]
        n_eff = effective_sample_size(x)
        assert n / 40 < n_eff < n / 9

    def test_constant_series(self):
        assert effective_sample_size(np.ones(100)) == 100.0


class TestSamplerInternals:
    def _make(self, patterns=()):
        prior = SgcpPrior(dim=1)
        grid = Grid(1, 9)
        cfg = ChainConfig(n_iter=10, n_burn=1, resolution=9)
        s = _Sampler(prior, grid, cfg)
        s.set_data(list(patterns))
        s.set_state(ModelState(np.zeros(9), 0.0, math.log(2.0)))
        return s

    def test_loglik_matches_field_likelihood(self):
        pats = [PointPattern(1, np.array([[0.21], [0.68]])),
                PointPattern(1, np.array([[0.9]]))]
        s = self._make(pats)
        lam_star = math.exp(s.state.log_lambda_star)
        field = IntensityField(s.grid, lam_star * np.asarray(
            sigmoid(np.ascontiguousarray(s.latent))))
        want = log_likelihood(pats, field)
        assert s._loglik == pytest.approx(want, rel=1e-10)

    def test_scratch_check_detects_corruption(self):
        s = self._make([PointPattern(1, np.array([[0.4]]))])
        s.scratch_check()  # clean state passes
        s._loglik += 0.5
        with pytest.raises(NumericalError):
            s.scratch_check()

    def test_ceiling_move_consistent_with_full_recompute(self):
        # run a few sweeps; the periodic scratch check inside run_chain would
        # catch a stale cache, here we assert directly after manual moves
        s = self._make([PointPattern(1, np.array([[0.3], [0.55], [0.8]]))])
        rng = rng_for(14)
        for _ in range(50):
            s.update_latent(rng)
            s.update_length_scale(rng)
            s.update_ceiling(rng)
        s.scratch_check()

    def test_pattern_dim_checked(self):
        s = self._make()
        with pytest.raises(ValueError):
            s.set_data([PointPattern(2, np.array([[0.1, 0.2]]))])


class TestInitialState:
    def test_empty_data_uses_prior_median(self):
        prior = SgcpPrior(dim=1)
        st = initial_state(prior, Grid(1, 8), [])
        assert math.exp(st.log_lambda_star) == pytest.approx(prior.lam_prior.median)
        assert math.exp(st.log_ell) == pytest.approx(prior.ell_prior.median)

    def test_count_scaling(self):
        prior = SgcpPrior(dim=1)
        pats = [PointPattern(1, np.array([[0.2], [0.4]])),
                PointPattern(1, np.array([[0.6], [0.8]]))]
        st = initial_state(prior, Grid(1, 8), pats)
        assert math.exp(st.log_lambda_star) == pytest.approx(3.0)  # 1.5 * 4/2

    def test_zero_count_guard(self):
        prior = SgcpPrior(dim=1)
        pats = [PointPattern(1, np.empty((0, 1)))]
        st = initial_state(prior, Grid(1, 8), pats)
        assert math.exp(st.log_lambda_star) == pytest.approx(prior.lam_prior.median)


class TestRunChain:
    def test_deterministic(self):
        prior = SgcpPrior(dim=1)
        truth = IntensityField(Grid(1, 8), np.full(8, 2.0))
        from sgcp import simulate_thinning
        rng = rng_for(4, 0)
        pats = [simulate_thinning(2.0, truth, rng) for _ in range(10)]
        cfg = ChainConfig(n_iter=800, n_burn=200, thin=2, resolution=8)
        a = run_chain(pats, prior, cfg, rng_for(4, 1))
        b = run_chain(pats, prior, cfg, rng_for(4, 1))
        np.testing.assert_array_equal(a.lambda_star, b.lambda_star)
        np.testing.assert_array_equal(a.latent, b.latent)

    def test_shapes_and_ranges(self):
        prior = SgcpPrior(dim=1)
        cfg = ChainConfig(n_iter=600, n_burn=100, thin=5, resolution=8)
        chain = run_chain([], prior, cfg, rng_for(5))
        assert chain.n_kept == 100
        assert chain.latent.shape == (100, 8)
        assert np.all(chain.ell > 0.0)
        assert np.all(chain.lambda_star > 0.0)
        assert np.all(chain.intensity >= 0.0)
        assert np.all(chain.intensity <= chain.lambda_star[:, None])

    def test_unsampled_link_refused(self):
        prior = SgcpPrior(dim=1, link=PROBIT)
        cfg = ChainConfig(n_iter=10, n_burn=1, resolution=8)
        with pytest.raises(ValueError, match="probit"):
            run_chain([], prior, cfg, rng_for(5))

    def test_fixed_hyperparameters_stay_fixed(self):
        prior = SgcpPrior(dim=1)
        cfg = ChainConfig(n_iter=300, n_burn=50, resolution=8,
                          update_ell=False, update_lambda_star=False, adapt=False)
        init = ModelState(np.zeros(8), math.log(1.3), math.log(4.0))
        chain = run_chain([], prior, cfg, rng_for(6), init=init)
        np.testing.assert_allclose(chain.ell, 1.3, rtol=1e-12)
        np.testing.assert_allclose(chain.lambda_star, 4.0, rtol=1e-12)

    def test_prior_recovery_short(self):
        # with no data the posterior is the prior; marginal of the latent at
        # any node is standard normal for every length scale
        prior = SgcpPrior(dim=1)
        cfg = ChainConfig(n_iter=8000, n_burn=2000, thin=5, resolution=8)
        chain = run_chain([], prior, cfg, rng_for(42))
        p_lam = stats.kstest(chain.lambda_star, stats.gamma(2.0, scale=1.0).cdf).pvalue
        p_g = stats.kstest(chain.latent[:, 3], stats.norm.cdf).pvalue
        assert p_lam > 0.01
        assert p_g > 0.01

    def test_posterior_concentrates_near_truth(self):
        from sgcp import simulate_thinning, sqrt_l2_distance
        from sgcp.truths import get_truth
        truth = get_truth("sin1d").field(16)
        rng = rng_for(8, 0)
        pats = [simulate_thinning(3.0, truth, rng) for _ in range(150)]
        cfg = ChainConfig(n_iter=4000, n_burn=1000, thin=3, resolution=16)
        chain = run_chain(pats, SgcpPrior(dim=1), cfg, rng_for(8, 1))
        d = sqrt_l2_distance(chain.mean_intensity(), truth)
        # a flat-prior-mean field sits ~0.3 away; the posterior must do better
        assert d < 0.15

    def test_resolution_doubling_stability(self):
        # the grid is a computational device: doubling it must not move the
        # posterior mean beyond Monte Carlo noise
        from sgcp import simulate_thinning, sqrt_l2_distance
        from sgcp.truths import get_truth
        truth = get_truth("sin1d").field(64)
        rng = rng_for(12, 0)
        pats = [simulate_thinning(3.0, truth, rng) for _ in range(60)]
        means = {}
        for res in (32, 64):
            cfg = ChainConfig(n_iter=6000, n_burn=1500, thin=5, resolution=res)
            chain = run_chain(pats, SgcpPrior(dim=1), cfg, rng_for(12, res))
            means[res] = chain.mean_intensity()
        coarse = means[32]
        fine = IntensityField(coarse.grid, means[64].at(coarse.grid.nodes()))
        assert sqrt_l2_distance(coarse, fine) < 0.08


class TestGeweke:
    def test_clean_sampler_calibrates(self):
        res = geweke_joint_test(SgcpPrior(dim=1), Grid(1, 8), rng_for(55, 7),
                                n_rounds=4000, sweeps_per_round=4)
        assert not res.diverged
        assert res.max_abs_z < 5.0

    def test_corrupted_likelihood_detected(self):
        res = geweke_joint_test(SgcpPrior(dim=1), Grid(1, 8), rng_for(55, 7),
                                n_rounds=4000, sweeps_per_round=4,
                                mutate_drop_integral=True)
        assert res.diverged or res.max_abs_z >= 4.0
