"""Sampler mechanics: state management, moves, prior recovery, calibration."""

import math
import warnings

import numpy as np
import pytest
from scipy import integrate, special, stats

from sgcp import (ChainConfig, Grid, IntensityField, LengthScalePriorSpec,
                  MaxIntensityPriorSpec, ModelState, NumericalError, PointPattern, SgcpPrior,
                  effective_sample_size, geweke_joint_test, initial_state, integrate_field,
                  rng_for, run_chain, sample_prior_batch, simulate_thinning)
import sgcp.inference
from sgcp.inference import _GEWEKE_STATS, _Sampler, _forward_stats, cov_matrix
from sgcp.kernels import apply_factor
from sgcp.point_process import log_likelihood, sigmoid


class TestChainConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            ChainConfig(n_iter=100, n_burn=100)
        with pytest.raises(ValueError):
            ChainConfig(thin=0)


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

    @pytest.mark.parametrize("scale", [1e300, 1e-300])
    def test_scale_free_where_the_sum_of_squares_leaves_the_float_range(self, scale):
        # a random walk keeps its few effective draws at any scale: neither an
        # overflow nor an underflow of its squares reads as a perfect ESS of n
        x = np.cumsum(rng_for(3).standard_normal(600))
        n_eff = effective_sample_size(x)
        assert n_eff < 20.0
        assert effective_sample_size(x * scale) == pytest.approx(n_eff, rel=1e-9)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_value_gives_nan(self, bad):
        x = np.append(np.cumsum(rng_for(3).standard_normal(600)), bad)
        assert math.isnan(effective_sample_size(x))
        assert math.isnan(effective_sample_size(np.array([1.0, bad])))


class TestSamplerInternals:
    def _make(self, patterns=()):
        prior = SgcpPrior(dim=1)
        grid = Grid(1, 9)
        s = _Sampler(prior, grid)
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
        joint = s._loglik_from(s._suff, s.state.log_lambda_star)
        assert joint == pytest.approx(want, rel=1e-10)

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

    def test_slice_move_rejects_underflowing_proposal(self, monkeypatch):
        # the first proposal is replaced by a field whose link underflows to 0
        # at the data point; its -inf likelihood can never pass the threshold
        s = self._make([PointPattern(1, np.array([[0.4]]))])
        seen = []
        real = sgcp.inference.sgcp_suffstats

        def underflow_first(g, weights, stencil):
            stats_ = real(np.full_like(g, -800.0) if not seen else g, weights, stencil)
            seen.append(stats_[0])
            return stats_

        monkeypatch.setattr(sgcp.inference, "sgcp_suffstats", underflow_first)
        s.update_latent(rng_for(15))
        assert seen[0] == -math.inf
        assert len(seen) >= 2
        assert math.isfinite(s._loglik)
        assert np.all(s.latent > -800.0)

    def test_cached_field_does_not_drift(self):
        # without a length-scale move the factor never refreshes the field,
        # which the slice move updates incrementally as g cos + (L nu) sin
        prior = SgcpPrior(dim=1)
        grid = Grid(1, 32)
        truth = IntensityField(grid, np.full(32, 5.0))
        from sgcp import simulate_thinning
        rng = rng_for(16, 0)
        pats = [simulate_thinning(5.0, truth, rng) for _ in range(20)]
        s = _Sampler(prior, grid)
        s.set_data(pats)
        s.set_state(initial_state(prior, grid, pats))
        rng = rng_for(16, 1)
        for _ in range(5000):
            s.update_latent(rng)
        fresh = apply_factor(s._L, s.state.white, 1)
        np.testing.assert_allclose(s.latent, fresh, rtol=0.0, atol=1e-9)
        s.scratch_check()

    def test_pattern_dim_checked(self):
        s = self._make()
        with pytest.raises(ValueError):
            s.set_data([PointPattern(2, np.array([[0.1, 0.2]]))])


class TestCollapsedCeiling:
    """lam* is integrated out of the moves' target and drawn exactly, last."""

    PATTERNS = [PointPattern(1, np.array([[0.21], [0.68]])),
                PointPattern(1, np.array([[0.9]])),
                PointPattern(1, np.array([[0.05], [0.4], [0.77]]))]

    def _make(self, white):
        s = _Sampler(SgcpPrior(dim=1), Grid(1, 9))
        s.set_data(self.PATTERNS)
        s.set_state(ModelState(white, 0.0, math.log(2.0)))
        return s

    def test_target_is_likelihood_integrated_over_ceiling(self):
        lam_prior = SgcpPrior(dim=1).lam_prior

        def log_marginal(link):
            # log of the integral of Gamma(lam; a, b) exp(log_likelihood(lam s)) over lam
            def log_integrand(lam):
                field = IntensityField(Grid(1, 9), lam * link)
                return lam_prior.log_density(lam) + log_likelihood(self.PATTERNS, field)

            peak = max(log_integrand(lam) for lam in np.geomspace(1e-2, 1e2, 401))
            val, _ = integrate.quad(
                lambda lam: math.exp(log_integrand(lam) - peak) if lam > 0.0 else 0.0,
                0.0, np.inf, epsabs=0.0, epsrel=1e-12, limit=200)
            return peak + math.log(val)

        targets, marginals = [], []
        for seed in (21, 22):
            s = self._make(rng_for(seed).standard_normal(9))
            targets.append(s._loglik)
            marginals.append(log_marginal(np.asarray(sigmoid(s.latent))))
        assert targets[0] != pytest.approx(targets[1], abs=1e-3)
        assert targets[0] - targets[1] == pytest.approx(marginals[0] - marginals[1],
                                                        rel=0.0, abs=1e-8)

    def test_ceiling_draws_are_exact_gamma(self):
        s = self._make(rng_for(23).standard_normal(9))
        rng = rng_for(24)
        draws = np.empty(2000)
        for i in range(draws.size):
            s.update_ceiling(rng)
            draws[i] = math.exp(s.state.log_lambda_star)
        shape = s.prior.lam_prior.shape + s.n_points
        rate = s.prior.lam_prior.rate + s.n_patterns * s.integral_of_link
        assert stats.kstest(draws, stats.gamma(shape, scale=1.0 / rate).cdf).pvalue > 0.01
        # independent draws: every call moves lam*, where a random walk would stay put
        assert np.unique(draws).size == draws.size
        assert s.accepts["lambda"] == draws.size

    @staticmethod
    def _log_ceiling_draws(shape, n_draws):
        # no points, so the posterior shape a + N is the prior shape
        prior = SgcpPrior(dim=1, lam_prior=MaxIntensityPriorSpec(shape=shape))
        s = _Sampler(prior, Grid(1, 9))
        s.set_data([PointPattern(1, np.empty((0, 1)))])
        s.set_state(ModelState(rng_for(25).standard_normal(9), 0.0, 0.0))
        rng = rng_for(26)
        draws = np.empty(n_draws)
        for i in range(n_draws):
            s.update_ceiling(rng)
            draws[i] = s.state.log_lambda_star
        return draws, prior.lam_prior.rate + s.integral_of_link

    def test_small_shape_ceiling_draws_are_exact_gamma(self):
        draws, rate = self._log_ceiling_draws(0.5, 2000)
        gamma = stats.gamma(0.5, scale=1.0 / rate)
        assert stats.kstest(draws, lambda x: gamma.cdf(np.exp(x))).pvalue > 0.01

    def test_tiny_shape_ceiling_stays_finite_in_log_space(self):
        # Gamma(0.001) puts about half its mass below the smallest float
        draws, _ = self._log_ceiling_draws(0.001, 200)
        assert np.all(np.isfinite(draws))
        assert np.any(np.exp(draws) == 0.0)

    def test_sweep_draws_ceiling_last(self, monkeypatch):
        calls = []

        def spy(name):
            move = getattr(_Sampler, name)

            def wrapped(self, rng):
                calls.append(name)
                move(self, rng)
            return wrapped

        for name in ("update_latent", "update_length_scale", "update_ceiling"):
            monkeypatch.setattr(_Sampler, name, spy(name))
        white = rng_for(25).standard_normal(9)
        plain, spoiled = self._make(white.copy()), self._make(white.copy())
        rng_a, rng_b = rng_for(26), rng_for(26)
        for _ in range(20):
            plain.sweep(rng_a)
            # the moves before the lam* draw never read lam*, so a wrong
            # value left over from the last sweep changes nothing
            spoiled.state.log_lambda_star = math.log(50.0)
            spoiled.sweep(rng_b)
        assert calls == ["update_latent", "update_length_scale", "update_ceiling"] * 40
        np.testing.assert_array_equal(plain.state.white, spoiled.state.white)
        assert plain.state.log_ell == spoiled.state.log_ell
        assert plain.state.log_lambda_star == spoiled.state.log_lambda_star


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
        cfg = ChainConfig(n_iter=800, n_burn=200, thin=2)
        a = run_chain(pats, prior, Grid(1, 8), cfg, rng_for(4, 1))
        b = run_chain(pats, prior, Grid(1, 8), cfg, rng_for(4, 1))
        np.testing.assert_array_equal(a.lambda_star, b.lambda_star)
        np.testing.assert_array_equal(a.intensity, b.intensity)

    def test_shapes_and_ranges(self):
        prior = SgcpPrior(dim=1)
        cfg = ChainConfig(n_iter=600, n_burn=100, thin=5)
        chain = run_chain([], prior, Grid(1, 8), cfg, rng_for(5))
        assert chain.n_kept == 100
        assert chain.intensity.shape == (100, 8)
        assert np.all(chain.ell > 0.0)
        assert np.all(chain.lambda_star > 0.0)
        assert np.all(chain.intensity >= 0.0)
        assert np.all(chain.intensity <= chain.lambda_star[:, None])

    @pytest.mark.parametrize("n_burn", [0, 100])
    def test_accept_ell_is_the_post_burn_in_share_of_accepted_moves(self, monkeypatch,
                                                                      n_burn):
        accepted = []  # one entry per sweep: did its ell move change log ell?
        move = _Sampler.update_length_scale

        def spy(self, rng):
            before = self.state.log_ell
            move(self, rng)
            accepted.append(self.state.log_ell != before)

        monkeypatch.setattr(_Sampler, "update_length_scale", spy)
        truth = IntensityField(Grid(1, 8), np.full(8, 4.0))
        rng = rng_for(11, 0)
        pats = [simulate_thinning(4.0, truth, rng) for _ in range(10)]
        cfg = ChainConfig(n_iter=400, n_burn=n_burn, thin=3)
        chain = run_chain(pats, SgcpPrior(dim=1), Grid(1, 8), cfg, rng_for(11, 1))
        assert len(accepted) == cfg.n_iter
        assert 0 < sum(accepted[n_burn:]) < cfg.n_iter - n_burn
        assert chain.accept_ell == sum(accepted[n_burn:]) / (cfg.n_iter - n_burn)

    @pytest.mark.parametrize("n_burn", [0, 100])
    def test_evaluations_per_sweep_counts_the_moves_likelihood_calls(self, monkeypatch,
                                                                     n_burn):
        calls = [0]  # every sgcp_suffstats call, refreshes and scratch checks included
        per_sweep = []  # the calls each sweep made: its moves' evaluations alone
        real, sweep = sgcp.inference.sgcp_suffstats, _Sampler.sweep

        def count(*args):
            calls[0] += 1
            return real(*args)

        def spy(self, rng):
            before = calls[0]
            sweep(self, rng)
            per_sweep.append(calls[0] - before)

        monkeypatch.setattr(sgcp.inference, "sgcp_suffstats", count)
        monkeypatch.setattr(_Sampler, "sweep", spy)
        truth = IntensityField(Grid(1, 8), np.full(8, 4.0))
        rng = rng_for(11, 0)
        pats = [simulate_thinning(4.0, truth, rng) for _ in range(10)]
        cfg = ChainConfig(n_iter=400, n_burn=n_burn, thin=3)
        chain = run_chain(pats, SgcpPrior(dim=1), Grid(1, 8), cfg, rng_for(11, 1))
        # set_state and the closing scratch check evaluate outside any sweep
        assert calls[0] == sum(per_sweep) + 2
        # a slice move evaluates at least once, an ell proposal at most once
        assert min(per_sweep) >= 1 and max(per_sweep) > 2
        assert chain.diagnostics["evaluations_per_sweep"] == (
            sum(per_sweep[n_burn:]) / (cfg.n_iter - n_burn))

    def test_draws_that_cannot_be_allocated_name_the_chain_keys(self):
        # numpy refuses this size outright, before any memory is asked for
        cfg = ChainConfig(n_iter=10**30, n_burn=1, thin=1)
        keys = rf"\[chain\] n_iter = {10**30}, n_burn = 1, thin = 1"
        with pytest.raises(MemoryError, match=keys):
            run_chain([], SgcpPrior(dim=1), Grid(1, 8), cfg, rng_for(1))

    def test_dense_size_guard(self):
        # 70 x 70 = 4900 nodes: the sampler refuses the grid before filling a covariance
        with pytest.raises(ValueError, match="4900 nodes"):
            _Sampler(SgcpPrior(dim=2), Grid(2, 70))

    def test_short_chain_is_scratch_checked(self, monkeypatch):
        calls = []
        check = _Sampler.scratch_check

        def spy(self, *args, **kwargs):
            calls.append(None)
            return check(self, *args, **kwargs)

        monkeypatch.setattr(_Sampler, "scratch_check", spy)
        cfg = ChainConfig(n_iter=300, n_burn=50)
        run_chain([], SgcpPrior(dim=1), Grid(1, 8), cfg, rng_for(9))
        assert len(calls) == 1

    def test_2d_chain_factors_one_axis(self, monkeypatch):
        # the perfbench tracer wraps cov_matrix where sgcp.inference looks it
        # up; a 2-D chain must ask it for one axis of r nodes, an r x r matrix
        shapes = []

        def spy(ell, resolution):
            K = cov_matrix(ell, resolution)
            shapes.append((resolution, K.shape))
            return K

        monkeypatch.setattr("sgcp.inference.cov_matrix", spy)
        truth = IntensityField(Grid(2, 6), np.full(36, 3.0))
        from sgcp import simulate_thinning
        rng = rng_for(10, 0)
        pats = [simulate_thinning(3.0, truth, rng) for _ in range(5)]
        cfg = ChainConfig(n_iter=60, n_burn=20)
        chain = run_chain(pats, SgcpPrior(dim=2), Grid(2, 6), cfg, rng_for(10, 1))
        assert chain.intensity.shape[1] == 36
        assert len(shapes) > 1
        assert set(shapes) == {(6, (6, 6))}

    def test_prior_recovery_short(self):
        # with no data the posterior is the prior; marginal of the latent at
        # any node is standard normal for every length scale
        prior = SgcpPrior(dim=1)
        cfg = ChainConfig(n_iter=8000, n_burn=2000, thin=5)
        chain = run_chain([], prior, Grid(1, 8), cfg, rng_for(42))
        p_lam = stats.kstest(chain.lambda_star, stats.gamma(2.0, scale=1.0).cdf).pvalue
        latent = special.logit(chain.intensity[:, 3] / chain.lambda_star)
        p_g = stats.kstest(latent, stats.norm.cdf).pvalue
        assert p_lam > 0.01
        assert p_g > 0.01

    def test_posterior_concentrates_near_truth(self):
        from sgcp import contraction, simulate_thinning
        from sgcp.truths import get_truth
        truth = get_truth("sin1d").field(16)
        rng = rng_for(8, 0)
        pats = [simulate_thinning(3.0, truth, rng) for _ in range(150)]
        cfg = ChainConfig(n_iter=4000, n_burn=1000, thin=3)
        chain = run_chain(pats, SgcpPrior(dim=1), Grid(1, 16), cfg, rng_for(8, 1))
        d, _ = contraction(chain.intensity, truth)
        # a flat-prior-mean field sits ~0.3 away; the posterior must do better
        assert d < 0.15

    def test_resolution_doubling_stability(self):
        # the grid is a computational device: doubling it must not move the
        # posterior mean beyond Monte Carlo noise
        from sgcp import distances_to_truth, simulate_thinning
        from sgcp.truths import get_truth
        truth = get_truth("sin1d").field(64)
        rng = rng_for(12, 0)
        pats = [simulate_thinning(3.0, truth, rng) for _ in range(60)]
        means = {}
        for res in (32, 64):
            cfg = ChainConfig(n_iter=6000, n_burn=1500, thin=5)
            chain = run_chain(pats, SgcpPrior(dim=1), Grid(1, res), cfg, rng_for(12, res))
            means[res] = chain.mean_intensity()
        coarse = means[32]
        fine = IntensityField(coarse.grid, means[64].at(coarse.grid.nodes()))
        assert distances_to_truth(coarse.values[None, :], fine)[0] < 0.08


class TestGeweke:
    def test_clean_sampler_calibrates(self):
        res = geweke_joint_test(SgcpPrior(dim=1), Grid(1, 8), rng_for(55, 7),
                                n_rounds=4000, sweeps_per_round=4)
        assert not res.diverged
        assert res.max_abs_z < 5.0

    def test_clean_sampler_calibrates_2d(self):
        res = geweke_joint_test(SgcpPrior(dim=2), Grid(2, 4), rng_for(56, 7),
                                n_rounds=10000, sweeps_per_round=5)
        assert not res.diverged
        assert res.max_abs_z < 4.0

    def test_clean_sampler_calibrates_small_ceiling_shape(self):
        # a + N < 1 in every round that simulates no points
        prior = SgcpPrior(dim=1, lam_prior=MaxIntensityPriorSpec(shape=0.5))
        res = geweke_joint_test(prior, Grid(1, 8), rng_for(55, 7),
                                n_rounds=4000, sweeps_per_round=4)
        assert not res.diverged
        assert res.max_abs_z < 5.0

    def test_length_scale_near_1e300_gives_a_measured_z(self):
        # the squares of ell draws near 1e300 overflow; z must not read as a
        # perfect 0 for a statistic whose spread was never measured
        prior = SgcpPrior(dim=1, ell_prior=LengthScalePriorSpec(dim=1, rate=1e-300))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            res = geweke_joint_test(prior, Grid(1, 8), rng_for(7), n_rounds=64,
                                    sweeps_per_round=1)
        assert not res.diverged
        assert math.isfinite(res.z_scores["ell"]) and res.z_scores["ell"] != 0.0

    def test_length_scale_without_spread_is_unmeasured(self):
        # at shape 1e300 every ell draw on both sides is one value, to the
        # rounding of the chain's log ell: no z can be formed for ell
        prior = SgcpPrior(dim=1, ell_prior=LengthScalePriorSpec(dim=1, shape=1e300))
        res = geweke_joint_test(prior, Grid(1, 8), rng_for(7), n_rounds=64, sweeps_per_round=1)
        assert not res.diverged
        assert math.isnan(res.z_scores["ell"])
        measured = [z for name, z in res.z_scores.items() if name != "ell"]
        assert all(map(math.isfinite, measured))
        assert res.max_abs_z == max(map(abs, measured))

    def test_length_scales_without_spread_that_differ_are_infinitely_apart(self, monkeypatch):
        # both sides without spread, the forward side's ell at twice the chain's
        forward_stats = sgcp.inference._forward_stats

        def doubled_ell(*args):
            rows = forward_stats(*args)
            rows[:, _GEWEKE_STATS.index("ell")] *= 2.0
            return rows

        monkeypatch.setattr(sgcp.inference, "_forward_stats", doubled_ell)
        prior = SgcpPrior(dim=1, ell_prior=LengthScalePriorSpec(dim=1, shape=1e300))
        res = geweke_joint_test(prior, Grid(1, 8), rng_for(7), n_rounds=64, sweeps_per_round=1)
        assert res.z_scores["ell"] == -math.inf
        assert res.max_abs_z == math.inf

    def test_forward_blocks_match_sequential_single_draws(self):
        # two-sample KS of the block-drawn forward side against 4000 rounds of
        # one prior draw and one thinning each
        prior, grid = SgcpPrior(dim=1), Grid(1, 8)
        blocks = _forward_stats(prior, grid, rng_for(57, 1), 4000)
        rng = rng_for(57, 2)
        single = np.empty((4000, 4))
        for i in range(4000):
            draw = sample_prior_batch(prior, grid, rng, 1)
            lam_star = float(draw["lambda_star"][0])
            field = IntensityField(grid, lam_star * sigmoid(draw["latent"][0]))
            pattern = simulate_thinning(lam_star, field, rng)
            single[i] = (lam_star, draw["ell"][0], integrate_field(field), pattern.n)
        for j, col in enumerate((0, 2, 3, 4)):
            p = stats.ks_2samp(blocks[:, col], single[:, j], method="asymp").pvalue
            assert p > 0.01, (_GEWEKE_STATS[col], p)

    def test_forward_rounds_not_a_multiple_of_the_block(self, monkeypatch):
        prior, grid = SgcpPrior(dim=1), Grid(1, 8)
        monkeypatch.setattr(sgcp.inference, "FORWARD_BLOCK_VALUES", 7 * grid.n_nodes)
        whole = _forward_stats(prior, grid, rng_for(58), 17)  # blocks of 7, 7 and 3
        assert whole.shape == (17, len(_GEWEKE_STATS))
        # the first block's rows do not depend on how many rounds follow it
        np.testing.assert_array_equal(whole[:7], _forward_stats(prior, grid, rng_for(58), 7))
        lam, ell, integral, count = whole[:, 0], whole[:, 2], whole[:, 3], whole[:, 4]
        assert np.all(lam > 0.0) and np.all(ell > 0.0)
        assert np.all((integral > 0.0) & (integral < lam))
        np.testing.assert_array_equal(whole[:, 1], lam * lam)
        np.testing.assert_array_equal(count, np.round(count))
        np.testing.assert_array_equal(whole[:, 5], count * count)

    def test_forward_memory_does_not_grow_with_rounds(self):
        import tracemalloc
        prior, grid = SgcpPrior(dim=1), Grid(1, 16)
        peaks = {}
        for n in (2048, 8192):
            _forward_stats(prior, grid, rng_for(59), 64)  # caches warm
            tracemalloc.start()
            _forward_stats(prior, grid, rng_for(59), n)
            peaks[n] = tracemalloc.get_traced_memory()[1]
            tracemalloc.stop()
        stats_bytes = 8 * len(_GEWEKE_STATS) * (8192 - 2048)
        assert peaks[8192] - peaks[2048] < stats_bytes + 64 * 1024

    def test_corrupted_likelihood_detected(self):
        res = geweke_joint_test(SgcpPrior(dim=1), Grid(1, 8), rng_for(55, 7),
                                n_rounds=4000, sweeps_per_round=4,
                                mutate_drop_integral=True)
        assert res.diverged or res.max_abs_z >= 4.0
