"""Posterior sampling for the sigmoidal-Gaussian Cox model.

The chain runs in whitened coordinates: the state is ``(white, log ell,
log lam*)`` with the latent field recovered as ``g = L(ell) @ white`` where
``L`` is the Cholesky factor of the kernel matrix on the grid. Moves:

* elliptical slice update of ``white`` (exact prior rotation, likelihood-only
  threshold, bracket shrinking);
* random-walk Metropolis on ``log ell`` — because the white coordinates are
  held fixed, the latent field deforms coherently with the proposal and no
  separate Jacobian for the field is needed;
* random-walk Metropolis on ``log lam*`` using cached sufficient statistics,
  so ceiling moves never touch the latent field.

Likelihood of patterns N^1..N^n relative to a unit-rate Poisson process::

    sum_i [ sum_{x in N^i} log lambda(x) - integral (lambda - 1) ]

which factors through two statistics of s = link(g): the summed log link at
the data points and the grid integral of s. A periodic scratch recomputation
of the cached log posterior guards against incremental drift.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from ._accel import interp_stencil, sgcp_suffstats, sigmoid, trapezoid_weights
from .kernels import chol_with_jitter, cov_matrix
from .point_process import Grid, IntensityField, PointPattern, integrate_field, simulate_thinning
from .priors import LOGISTIC, SgcpPrior, sample_prior_intensity

TWO_PI = 2.0 * math.pi

# bracket shrinks an elliptical slice move may take before it gives up
MAX_SHRINK = 200


class NumericalError(RuntimeError):
    """Internal consistency of the sampler broke down."""


@dataclass(frozen=True)
class ChainConfig:
    """Run-length, step-size, and bookkeeping knobs for one chain."""

    n_iter: int = 20000
    n_burn: int = 5000
    thin: int = 5
    resolution: int = 64
    step_log_ell: float = 0.3
    step_log_lambda: float = 0.3
    adapt: bool = True
    adapt_target: float = 0.3
    update_ell: bool = True
    update_lambda_star: bool = True
    check_every: int = 1000

    def __post_init__(self):
        if self.n_iter <= 0 or not (0 <= self.n_burn < self.n_iter):
            raise ValueError("need 0 <= n_burn < n_iter")
        if self.thin < 1:
            raise ValueError("thin must be >= 1")
        if self.resolution < 2:
            raise ValueError("resolution must be >= 2")
        if self.step_log_ell <= 0.0 or self.step_log_lambda <= 0.0:
            raise ValueError("step sizes must be positive")
        if not (0.0 < self.adapt_target < 1.0):
            raise ValueError("adapt_target must lie in (0, 1)")


@dataclass
class ModelState:
    """Whitened sampler state."""

    white: np.ndarray
    log_ell: float
    log_lambda_star: float

    def copy(self) -> "ModelState":
        return ModelState(self.white.copy(), self.log_ell, self.log_lambda_star)


@dataclass(frozen=True)
class PosteriorChain:
    """Thinned post-burn-in draws plus acceptance and mixing diagnostics."""

    grid: Grid
    ell: np.ndarray
    lambda_star: np.ndarray
    latent: np.ndarray      # (n_kept, n_nodes) latent field draws
    intensity: np.ndarray   # (n_kept, n_nodes) intensity draws
    log_post: np.ndarray    # unnormalized log posterior at each kept draw
    iterations: np.ndarray  # sweep index each kept draw was taken from
    accept_ell: float
    accept_lambda: float
    diagnostics: dict

    @property
    def n_kept(self) -> int:
        return self.ell.shape[0]

    def mean_intensity(self) -> IntensityField:
        return IntensityField(self.grid, np.mean(self.intensity, axis=0))

    def intensity_draw(self, i: int) -> IntensityField:
        return IntensityField(self.grid, self.intensity[i])


def effective_sample_size(x: np.ndarray) -> float:
    """Initial-positive-sequence autocorrelation estimate of the ESS."""
    x = np.asarray(x, dtype=np.float64)
    n = x.shape[0]
    if n < 4:
        return float(n)
    x = x - np.mean(x)
    var = float(np.dot(x, x)) / n
    if var <= 0.0:
        return float(n)
    # FFT autocovariances, then sum pairs while they stay positive
    m = 1 << (2 * n - 1).bit_length()
    f = np.fft.rfft(x, m)
    acov = np.fft.irfft(f * np.conj(f), m)[:n].real / n
    rho = acov / acov[0]
    tau = 1.0
    t = 1
    while t + 1 < n:
        pair = rho[t] + rho[t + 1]
        if pair <= 0.0:
            break
        tau += 2.0 * pair
        t += 2
    return float(min(n, n / tau))


class _Sampler:
    """One-state transition kernel over (white, log ell, log lam*).

    Caches the Cholesky factor for the current length scale, the
    interpolation stencil of the data points and the two likelihood
    statistics. Only the logistic link is implemented; a prior
    with another link is refused. ``mutate_drop_integral`` deliberately
    corrupts the likelihood (for calibration-test power checks) by dropping
    the integral term.
    """

    def __init__(self, prior: SgcpPrior, grid: Grid, config: ChainConfig,
                 mutate_drop_integral: bool = False):
        if grid.dim != prior.dim:
            raise ValueError("grid dimension does not match the prior")
        if prior.link != LOGISTIC:
            raise ValueError(f"the sampler implements only the logistic link, "
                             f"not {prior.link.name!r}")
        self.prior = prior
        self.grid = grid
        self.config = config
        self.mutate = mutate_drop_integral
        self.nodes = grid.nodes()
        self.weights = trapezoid_weights(grid.dim, grid.resolution)
        self.step_log_ell = config.step_log_ell
        self.step_log_lambda = config.step_log_lambda
        self.points = np.empty((0, grid.dim))
        self.stencil = interp_stencil(grid.dim, grid.resolution, self.points)
        self.n_patterns = 0
        self.n_points = 0
        self.state: ModelState | None = None
        self._L = None
        self._g = None
        self._suff = (0.0, 0.0)
        self._loglik = 0.0
        self.accepts = {"ell": 0, "lambda": 0}
        self.proposals = {"ell": 0, "lambda": 0}

    # -- data and state management ------------------------------------

    def set_data(self, patterns: list[PointPattern]) -> None:
        for p in patterns:
            if p.dim != self.grid.dim:
                raise ValueError("pattern dimension does not match the grid")
        self.n_patterns = len(patterns)
        if patterns:
            self.points = np.ascontiguousarray(
                np.concatenate([p.points for p in patterns], axis=0))
        else:
            self.points = np.empty((0, self.grid.dim))
        self.n_points = self.points.shape[0]
        self.stencil = interp_stencil(self.grid.dim, self.grid.resolution, self.points)
        if self.state is not None:
            self._refresh_likelihood()

    def set_state(self, state: ModelState) -> None:
        self.state = state
        self._L = self._factor(math.exp(state.log_ell))
        self._g = self._L @ state.white
        self._refresh_likelihood()

    def _factor(self, ell: float) -> np.ndarray:
        K = cov_matrix(self.prior.kernel(ell), self.nodes)
        L, _ = chol_with_jitter(K)
        return L

    def _suffstats(self, g: np.ndarray) -> tuple[float, float]:
        return sgcp_suffstats(g, self.weights, self.stencil)

    def _loglik_from(self, suff: tuple[float, float], log_lambda_star: float) -> float:
        sum_log_s, int_s = suff
        if not np.isfinite(sum_log_s):
            return -math.inf
        lam_star = math.exp(log_lambda_star)
        val = self.n_points * log_lambda_star + sum_log_s
        if not self.mutate:
            val -= self.n_patterns * (lam_star * int_s - 1.0)
        return val

    def _refresh_likelihood(self) -> None:
        self._suff = self._suffstats(self._g)
        self._loglik = self._loglik_from(self._suff, self.state.log_lambda_star)

    # -- diagnostics ----------------------------------------------------

    @property
    def latent(self) -> np.ndarray:
        return self._g

    @property
    def integral_of_link(self) -> float:
        return self._suff[1]

    def log_posterior(self) -> float:
        """Log density of the current state in whitened coordinates."""
        st = self.state
        ell = math.exp(st.log_ell)
        lam = math.exp(st.log_lambda_star)
        val = -0.5 * float(st.white @ st.white)
        val += float(self.prior.ell_prior.log_density(ell)) + st.log_ell
        val += float(self.prior.lam_prior.log_density(lam)) + st.log_lambda_star
        return val + self._loglik

    def scratch_check(self, rtol: float = 1e-8) -> None:
        """Recompute the cached pieces from the bare state and compare."""
        st = self.state
        L = self._factor(math.exp(st.log_ell))
        g = L @ st.white
        suff = self._suffstats(g)
        ll = self._loglik_from(suff, st.log_lambda_star)
        scale = 1.0 + abs(ll)
        if not math.isclose(ll, self._loglik, rel_tol=0.0, abs_tol=rtol * scale):
            raise NumericalError(
                f"cached log likelihood {self._loglik!r} drifted from scratch value {ll!r}")

    # -- moves ----------------------------------------------------------

    def update_latent(self, rng: np.random.Generator) -> None:
        """Elliptical slice move on the whitened latent coordinates."""
        st = self.state
        nu = rng.standard_normal(st.white.shape[0])
        log_u = self._loglik + math.log(rng.random())
        theta = rng.random() * TWO_PI
        lo, hi = theta - TWO_PI, theta
        for _ in range(MAX_SHRINK):
            white_prop = st.white * math.cos(theta) + nu * math.sin(theta)
            g_prop = self._L @ white_prop
            suff_prop = self._suffstats(g_prop)
            ll_prop = self._loglik_from(suff_prop, st.log_lambda_star)
            if ll_prop > log_u:
                st.white = white_prop
                self._g = g_prop
                self._suff = suff_prop
                self._loglik = ll_prop
                return
            if theta < 0.0:
                lo = theta
            else:
                hi = theta
            theta = lo + (hi - lo) * rng.random()
        raise NumericalError("elliptical slice bracket collapsed without acceptance")

    def update_length_scale(self, rng: np.random.Generator) -> None:
        """Whitened random-walk move on log ell (refactorizes on accept)."""
        st = self.state
        self.proposals["ell"] += 1
        log_ell_prop = st.log_ell + self.step_log_ell * rng.standard_normal()
        ell_prop = math.exp(log_ell_prop)
        ell_cur = math.exp(st.log_ell)
        L_prop = self._factor(ell_prop)
        g_prop = L_prop @ st.white
        suff_prop = self._suffstats(g_prop)
        ll_prop = self._loglik_from(suff_prop, st.log_lambda_star)
        log_alpha = (
            ll_prop - self._loglik
            + float(self.prior.ell_prior.log_density(ell_prop))
            - float(self.prior.ell_prior.log_density(ell_cur))
            + log_ell_prop - st.log_ell
        )
        alpha = 1.0 if log_alpha >= 0.0 else math.exp(log_alpha)
        if rng.random() < alpha:
            st.log_ell = log_ell_prop
            self._L = L_prop
            self._g = g_prop
            self._suff = suff_prop
            self._loglik = ll_prop
            self.accepts["ell"] += 1
        self._last_alpha_ell = alpha

    def update_ceiling(self, rng: np.random.Generator) -> None:
        """Random-walk move on log lam* through the cached statistics."""
        st = self.state
        self.proposals["lambda"] += 1
        log_lam_prop = st.log_lambda_star + self.step_log_lambda * rng.standard_normal()
        ll_prop = self._loglik_from(self._suff, log_lam_prop)
        lam_prop = math.exp(log_lam_prop)
        lam_cur = math.exp(st.log_lambda_star)
        log_alpha = (
            ll_prop - self._loglik
            + float(self.prior.lam_prior.log_density(lam_prop))
            - float(self.prior.lam_prior.log_density(lam_cur))
            + log_lam_prop - st.log_lambda_star
        )
        alpha = 1.0 if log_alpha >= 0.0 else math.exp(log_alpha)
        if rng.random() < alpha:
            st.log_lambda_star = log_lam_prop
            self._loglik = ll_prop
            self.accepts["lambda"] += 1
        self._last_alpha_lambda = alpha

    def sweep(self, rng: np.random.Generator) -> None:
        self.update_latent(rng)
        if self.config.update_ell:
            self.update_length_scale(rng)
        if self.config.update_lambda_star:
            self.update_ceiling(rng)

    def adapt_steps(self, k: int) -> None:
        """Robbins-Monro step-size adaptation toward the target acceptance."""
        gain = (k + 1.0) ** -0.6
        target = self.config.adapt_target
        if self.config.update_ell:
            self.step_log_ell = _clamp_step(
                self.step_log_ell * math.exp(gain * (self._last_alpha_ell - target)))
        if self.config.update_lambda_star:
            self.step_log_lambda = _clamp_step(
                self.step_log_lambda * math.exp(gain * (self._last_alpha_lambda - target)))

    def reset_accept_counts(self) -> None:
        self.accepts = {"ell": 0, "lambda": 0}
        self.proposals = {"ell": 0, "lambda": 0}


def _clamp_step(step: float) -> float:
    return min(max(step, 1e-3), 10.0)


def initial_state(prior: SgcpPrior, grid: Grid, patterns: list[PointPattern]) -> ModelState:
    """Deterministic starting point: flat latent, prior-median length scale,
    ceiling at 1.5x the observed mean count (prior median when there is no
    data to set the scale)."""
    total = sum(p.n for p in patterns)
    if patterns and total > 0:
        lam0 = 1.5 * total / len(patterns)
    else:
        lam0 = prior.lam_prior.median
    return ModelState(
        white=np.zeros(grid.n_nodes),
        log_ell=math.log(prior.ell_prior.median),
        log_lambda_star=math.log(lam0),
    )


def run_chain(
    patterns: list[PointPattern],
    prior: SgcpPrior,
    config: ChainConfig,
    rng: np.random.Generator,
    init: ModelState | None = None,
) -> PosteriorChain:
    """Sample the posterior over (g, ell, lam*) given replicated patterns."""
    grid = Grid(prior.dim, config.resolution)
    sampler = _Sampler(prior, grid, config)
    sampler.set_data(patterns)
    sampler.set_state(init.copy() if init is not None else initial_state(prior, grid, patterns))

    n_kept = (config.n_iter - config.n_burn + config.thin - 1) // config.thin
    ell_out = np.empty(n_kept)
    lam_out = np.empty(n_kept)
    latent_out = np.empty((n_kept, grid.n_nodes))
    intensity_out = np.empty((n_kept, grid.n_nodes))
    logpost_out = np.empty(n_kept)
    iter_out = np.empty(n_kept, dtype=np.int64)

    kept = 0
    for k in range(config.n_iter):
        sampler.sweep(rng)
        if config.adapt and k < config.n_burn:
            sampler.adapt_steps(k)
        if k == config.n_burn - 1:
            sampler.reset_accept_counts()
        if config.check_every and (k + 1) % config.check_every == 0:
            sampler.scratch_check()
        if k >= config.n_burn and (k - config.n_burn) % config.thin == 0:
            st = sampler.state
            ell_out[kept] = math.exp(st.log_ell)
            lam_out[kept] = math.exp(st.log_lambda_star)
            latent_out[kept] = sampler.latent
            intensity_out[kept] = lam_out[kept] * sigmoid(sampler.latent)
            logpost_out[kept] = sampler.log_posterior()
            iter_out[kept] = k
            kept += 1

    diagnostics = {
        "n_eff_ell": effective_sample_size(ell_out[:kept]),
        "n_eff_lambda_star": effective_sample_size(lam_out[:kept]),
        "step_log_ell": sampler.step_log_ell,
        "step_log_lambda": sampler.step_log_lambda,
    }
    denom_e = max(sampler.proposals["ell"], 1)
    denom_l = max(sampler.proposals["lambda"], 1)
    return PosteriorChain(
        grid=grid,
        ell=ell_out[:kept],
        lambda_star=lam_out[:kept],
        latent=latent_out[:kept],
        intensity=intensity_out[:kept],
        log_post=logpost_out[:kept],
        iterations=iter_out[:kept],
        accept_ell=sampler.accepts["ell"] / denom_e,
        accept_lambda=sampler.accepts["lambda"] / denom_l,
        diagnostics=diagnostics,
    )


# -- joint calibration check -------------------------------------------


_GEWEKE_STATS = ("lambda_star", "lambda_star_sq", "ell", "mean_intensity", "count", "count_sq")


@dataclass(frozen=True)
class GewekeResult:
    """Two-sample z-scores comparing forward and Gibbs-through-data draws."""

    z_scores: dict
    diverged: bool
    n_rounds: int

    @property
    def max_abs_z(self) -> float:
        if self.diverged:
            return float("inf")
        return max(abs(v) for v in self.z_scores.values())


def _batch_means_se(x: np.ndarray, n_batches: int = 32) -> float:
    n = x.shape[0]
    b = max(n // n_batches, 1)
    usable = b * n_batches if b * n_batches <= n else n
    means = np.mean(x[:usable].reshape(-1, b), axis=1)
    return float(np.std(means, ddof=1) / math.sqrt(means.shape[0]))


def _stat_row(lam_star: float, ell: float, mean_intensity: float, count: int) -> tuple:
    return (lam_star, lam_star * lam_star, ell, mean_intensity,
            float(count), float(count * count))


def geweke_joint_test(
    prior: SgcpPrior,
    grid: Grid,
    rng: np.random.Generator,
    n_rounds: int = 50000,
    sweeps_per_round: int = 5,
    mutate_drop_integral: bool = False,
    lambda_cap: float = 1e5,
) -> GewekeResult:
    """Joint distribution check of the sampler against the generative model.

    Forward side: independent (theta, data) draws from the prior and the
    thinning simulator. Chained side: a Markov chain alternating data-given-
    state simulation with posterior sweeps, whose marginal must also be the
    prior if (and in practice only if) the transition kernel is correct.
    z-scores compare the two sides per statistic; the chained side uses
    batch-means standard errors. A ceiling excursion above ``lambda_cap``
    reports divergence outright — under a correct kernel the prior puts
    vanishing mass there, while broken kernels drift through it quickly.
    """
    if n_rounds < 1 or sweeps_per_round < 1:
        raise ValueError("need at least one round and one sweep per round")
    config = ChainConfig(n_iter=2, n_burn=1, resolution=grid.resolution,
                         adapt=False, check_every=0)
    sampler = _Sampler(prior, grid, config, mutate_drop_integral=mutate_drop_integral)

    forward = np.empty((n_rounds, len(_GEWEKE_STATS)))
    for i in range(n_rounds):
        field, latents = sample_prior_intensity(prior, grid, rng)
        pattern = simulate_thinning(latents["lambda_star"], field, rng)
        forward[i] = _stat_row(latents["lambda_star"], latents["ell"],
                               integrate_field(field), pattern.n)

    chained = np.empty((n_rounds, len(_GEWEKE_STATS)))
    _, latents = sample_prior_intensity(prior, grid, rng)
    state = ModelState(
        white=latents["white"],
        log_ell=math.log(latents["ell"]),
        log_lambda_star=math.log(latents["lambda_star"]),
    )
    sampler.set_state(state)
    diverged = False
    rounds_done = 0
    for i in range(n_rounds):
        lam_star = math.exp(sampler.state.log_lambda_star)
        if lam_star > lambda_cap:
            diverged = True
            break
        field = IntensityField(grid, lam_star * sigmoid(sampler.latent))
        pattern = simulate_thinning(lam_star, field, rng)
        chained[i] = _stat_row(lam_star, math.exp(sampler.state.log_ell),
                               lam_star * sampler.integral_of_link, pattern.n)
        sampler.set_data([pattern])
        for _ in range(sweeps_per_round):
            sampler.sweep(rng)
        rounds_done = i + 1

    if diverged or rounds_done < max(64, n_rounds // 10):
        z = {name: float("inf") for name in _GEWEKE_STATS}
        return GewekeResult(z, True, rounds_done)

    chained = chained[:rounds_done]
    z_scores = {}
    for j, name in enumerate(_GEWEKE_STATS):
        mc_se = float(np.std(forward[:, j], ddof=1) / math.sqrt(n_rounds))
        sc_se = _batch_means_se(chained[:, j])
        denom = math.sqrt(mc_se**2 + sc_se**2)
        diff = float(np.mean(chained[:, j]) - np.mean(forward[:, j]))
        z_scores[name] = diff / denom if denom > 0.0 else 0.0
    return GewekeResult(z_scores, False, rounds_done)

