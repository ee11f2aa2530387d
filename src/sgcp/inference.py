"""Posterior sampling for the sigmoidal-Gaussian Cox model.

The chain runs in whitened coordinates: the state is ``(white, log ell,
log lam*)`` with the latent field recovered as ``g = L(ell) @ white`` where
``L = L1 ⊗ ... ⊗ L1`` and ``L1`` is the Cholesky factor of the kernel matrix
on one axis of the grid (``kernels.apply_factor``). Moves:

* elliptical slice update of ``white`` (exact prior rotation, likelihood-only
  threshold, bracket shrinking);
* random-walk Metropolis on ``log ell``, its step starting at
  ``STEP_LOG_ELL_START`` and adapted in burn-in toward ``ADAPT_TARGET`` —
  with the white coordinates held fixed the field deforms coherently with
  the proposal, so no Jacobian for the field is needed;
* an exact draw of ``lam*``, last in the sweep.

Likelihood of patterns N^1..N^n (N points in all) relative to a unit-rate
Poisson process, with s = sigmoid(g)::

    sum_i [ sum_{x in N^i} log lambda(x) - integral (lambda - 1) ]
        = N log lam* + sum log s - n (lam* int s - 1)

The Gamma(a, b) prior on lam* is conjugate, so the slice and ``ell`` moves
target ``sum log s - (a + N) log(b + n int s)``, lam* integrated out, and the
sweep ends with ``lam* ~ Gamma(a + N, rate b + n int s)``: a partially
collapsed Gibbs sampler, valid only with that draw last (van Dyk & Park
2008). A periodic scratch recomputation of the cached target guards against
incremental drift.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field

import numpy as np
from scipy.special import expit as sigmoid

from ._pool import run_cells, usable_cpus
from .kernels import apply_factor, check_grid, chol_with_jitter, cov_matrix
from .point_process import (Grid, IntensityField, PointPattern, interp_stencil,
                            sgcp_suffstats, simulate_thinning, simulate_thinning_batch,
                            trapezoid_weights)
from .priors import MaxIntensityPriorSpec, SgcpPrior, sample_prior_batch

TWO_PI = 2.0 * math.pi

# bracket shrinks an elliptical slice move may take before it gives up
MAX_SHRINK = 200
# sweeps between scratch recomputations of the cached log likelihood; a
# chain also recomputes after its last sweep, so short chains are checked too
CHECK_EVERY = 1000
# a recomputed target may differ from the cached one by this much, relative
# to 1 + its magnitude
SCRATCH_RTOL = 1e-8
# the chained side's standard errors in the joint calibration test come
# from this many batch means, and each batch needs at least two rounds
N_BATCHES = 32
MIN_ROUNDS = 2 * N_BATCHES
# a statistic with no spread on either side is unmeasured where the sides'
# means, scaled to [0.5, 1), differ by at most this, which rounding explains:
# the chain holds ell and lam* as logs, and exp(log x) can be off by about
# |log x| <= 745 ulps of x; a larger gap is a certain disagreement
SPREADLESS_GAP = 1024 * sys.float_info.epsilon
# the calibration's chained side runs as this many independent chains, the
# smallest split that runs in parallel: each extra one restarts from the prior
# and shortens the chains whose drift gives the test its power
CHAINED_SEGMENTS = 2
# a chained ceiling above this reports the calibration run as diverged
LAMBDA_CAP = 1e5
# the joint test refuses a ceiling prior with more mass than this above
# LAMBDA_CAP: under a correct kernel the chained ceiling lies above the cap in
# about this share of rounds (0.05 rounds expected in a 50000-round run), and
# the forward side's thinning allocates candidates in proportion to the ceiling;
# it also refuses a prior whose ell^d or lam* draw underflows to 0 this often
MAX_MASS_ABOVE_CAP = 1e-6
# the calibration's forward rounds are drawn in blocks of at most this many
# field values (and at least one round), so memory does not grow with rounds;
# at 2^12 a block's arrays stay below the (n_rounds, 6) statistics of 4000 rounds
FORWARD_BLOCK_VALUES = 1 << 12
# the first step of the log ell random walk, which burn-in then adapts
# toward this acceptance rate
STEP_LOG_ELL_START = 0.3
ADAPT_TARGET = 0.3
# a log ell proposal whose ell^d would exceed the largest float is rejected
# unevaluated; the loader refuses a prior with more than 1e-6 of its mass there
LOG_FLOAT_MAX = math.log(sys.float_info.max)


class NumericalError(RuntimeError):
    """Internal consistency of the sampler broke down."""


@dataclass(frozen=True)
class ChainConfig:
    """Run length of one chain: the ``[chain]`` keys of the INI file."""

    n_iter: int = 20000
    n_burn: int = 5000
    thin: int = 5

    def __post_init__(self):
        if self.n_iter <= 0 or not (0 <= self.n_burn < self.n_iter):
            raise ValueError(f"need 0 <= n_burn < n_iter, got [chain] n_burn = {self.n_burn} "
                             f"and [chain] n_iter = {self.n_iter}")
        if self.thin < 1:
            raise ValueError("[chain] thin must be >= 1")


@dataclass
class ModelState:
    """Whitened sampler state."""

    white: np.ndarray
    log_ell: float
    log_lambda_star: float


@dataclass(frozen=True)
class PosteriorChain:
    """Thinned post-burn-in draws plus acceptance and mixing diagnostics.

    The latent field of a draw is ``logit(intensity / lambda_star)``."""

    grid: Grid
    ell: np.ndarray
    lambda_star: np.ndarray
    intensity: np.ndarray   # (n_kept, n_nodes) intensity draws
    log_post: np.ndarray    # unnormalized log posterior at each kept draw
    accept_ell: float       # share of post-burn-in ell proposals accepted
    diagnostics: dict

    @property
    def n_kept(self) -> int:
        return self.ell.shape[0]

    def mean_intensity(self) -> IntensityField:
        return IntensityField(self.grid, np.mean(self.intensity, axis=0))


def _unit_exponent(*xs: np.ndarray) -> int:
    """The power of two that puts the largest magnitude in ``xs`` in [0.5, 1),
    0 where that is 0 or not finite. Scaling by it is exact: no bit of a
    scale-free statistic moves where its squares stay in the float range, and
    they stay in it where they would overflow or underflow."""
    return -math.frexp(max(float(np.max(np.abs(x))) for x in xs))[1]


def scaled_mean(x: np.ndarray) -> float:
    """``np.mean(x)`` taken on ``x`` scaled by ``_unit_exponent``, so values
    near the largest float do not overflow their sum; elsewhere it is the
    same bits."""
    e = _unit_exponent(x)
    return math.ldexp(float(np.mean(np.ldexp(x, e))), -e)


def effective_sample_size(x: np.ndarray) -> float:
    """Initial-positive-sequence autocorrelation estimate of the ESS; NaN for
    a series with a non-finite value. The ESS does not depend on scale, so the
    series is first scaled by ``_unit_exponent``."""
    x = np.asarray(x, dtype=np.float64)
    n = x.shape[0]
    if not np.isfinite(x).all():
        return math.nan
    if n < 4:
        return float(n)
    x = np.ldexp(x, _unit_exponent(x))
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

    Caches the one-axis Cholesky factor ``L1`` for the current length scale
    (the field is ``apply_factor(L1, white, dim)``, so a length-scale proposal
    fills and factors an r×r matrix for r nodes per axis), the interpolation
    stencil of the data points, and the two likelihood statistics and the
    collapsed target of the moves, which ``_evaluate`` alone computes. A grid
    that ``check_grid`` refuses is refused here, before anything is filled.
    ``mutate_drop_integral`` deliberately corrupts the model (for
    calibration-test power checks) by dropping ``n int s`` from the target,
    from the joint likelihood and from the rate of the lam* draw.
    """

    def __init__(self, prior: SgcpPrior, grid: Grid, mutate_drop_integral: bool = False):
        if grid.dim != prior.dim:
            raise ValueError("grid dimension does not match the prior")
        check_grid(grid)
        self.prior = prior
        self.grid = grid
        self.mutate = mutate_drop_integral
        self.weights = trapezoid_weights(grid.dim, grid.resolution)
        self.step_log_ell = STEP_LOG_ELL_START
        self.stencil = interp_stencil(grid.dim, grid.resolution, np.empty((0, grid.dim)))
        self.n_patterns = 0
        self.n_points = 0
        self._post_shape = prior.lam_prior.shape  # a + N, the shape of lam* | g
        self.state: ModelState | None = None
        self._L = None
        self._g = None
        self._log_prior_ell = 0.0  # ell's prior log density at the current state
        self._suff, self._loglik = (0.0, 0.0), 0.0  # as _evaluate returns them
        self.accepts = {"ell": 0, "lambda": 0}
        self.evaluations = 0  # the moves' target evaluations: slice brackets, ell proposals

    # -- data and state management ------------------------------------

    def set_data(self, patterns: list[PointPattern]) -> None:
        for p in patterns:
            if p.dim != self.grid.dim:
                raise ValueError("pattern dimension does not match the grid")
        self.n_patterns = len(patterns)
        points = np.concatenate([np.empty((0, self.grid.dim))] + [p.points for p in patterns])
        self.n_points = points.shape[0]
        self._post_shape = self.prior.lam_prior.shape + self.n_points
        self.stencil = interp_stencil(self.grid.dim, self.grid.resolution, points)
        if self.state is not None:
            self._suff, self._loglik = self._evaluate(self._g)

    def set_state(self, state: ModelState) -> None:
        self.state = state
        self._log_prior_ell = self.prior.ell_prior.log_density_at_log(state.log_ell)
        self._L = self._factor(state.log_ell)
        self._g = apply_factor(self._L, state.white, self.grid.dim)
        self._suff, self._loglik = self._evaluate(self._g)

    def _factor(self, log_ell: float) -> np.ndarray:
        L, _ = chol_with_jitter(cov_matrix(math.exp(log_ell), self.grid.resolution))
        return L

    def _evaluate(self, g: np.ndarray) -> tuple[tuple[float, float], float]:
        """The likelihood statistics ``(sum log s, int s)`` of the field ``g``
        and the log likelihood the moves target, lam* integrated out."""
        suff = sgcp_suffstats(g, self.weights, self.stencil)
        sum_log_s, int_s = suff
        if not math.isfinite(sum_log_s):
            return suff, -math.inf
        return suff, sum_log_s - self._post_shape * math.log(self._ceiling_rate(int_s))

    def _loglik_from(self, suff: tuple[float, float], log_lambda_star: float) -> float:
        """Joint log likelihood of the data given the field and lam*."""
        sum_log_s, int_s = suff
        if not math.isfinite(sum_log_s):
            return -math.inf
        lam_star = math.exp(log_lambda_star)
        val = self.n_points * log_lambda_star + sum_log_s
        if not self.mutate:
            val -= self.n_patterns * (lam_star * int_s - 1.0)
        return val

    def _ceiling_rate(self, int_s: float) -> float:
        if self.mutate:
            return self.prior.lam_prior.rate
        return self.prior.lam_prior.rate + self.n_patterns * int_s

    # -- diagnostics ----------------------------------------------------

    @property
    def latent(self) -> np.ndarray:
        return self._g

    @property
    def integral_of_link(self) -> float:
        return self._suff[1]

    def log_posterior(self) -> float:
        """Joint log density of the current state in whitened coordinates."""
        st = self.state
        val = -0.5 * float(st.white @ st.white)
        val += self.prior.ell_prior.log_density_at_log(st.log_ell) + st.log_ell
        val += self.prior.lam_prior.log_density_of_log(st.log_lambda_star)
        return val + self._loglik_from(self._suff, st.log_lambda_star)

    def scratch_check(self) -> None:
        """Recompute the cached target from the bare state and compare."""
        st = self.state
        _, ll = self._evaluate(apply_factor(self._factor(st.log_ell), st.white, self.grid.dim))
        scale = 1.0 + abs(ll)
        if not math.isclose(ll, self._loglik, rel_tol=0.0, abs_tol=SCRATCH_RTOL * scale):
            raise NumericalError(
                f"cached log likelihood {self._loglik!r} drifted from scratch value {ll!r}")

    # -- moves ----------------------------------------------------------

    def update_latent(self, rng: np.random.Generator) -> None:
        """Elliptical slice move on the whitened latent coordinates.

        The factor is linear, so the proposed field ``L @ (white cos + nu sin)``
        is formed as ``g cos + (L @ nu) sin``: one factor product per move,
        none per bracket shrink.
        """
        st = self.state
        nu = rng.standard_normal(st.white.shape[0])
        g, g_nu = self._g, apply_factor(self._L, nu, self.grid.dim)
        log_u = self._loglik + math.log(rng.random())
        theta = rng.random() * TWO_PI
        lo, hi = theta - TWO_PI, theta
        for _ in range(MAX_SHRINK):
            c, s = math.cos(theta), math.sin(theta)
            g_prop = g * c + g_nu * s
            suff_prop, ll_prop = self._evaluate(g_prop)
            self.evaluations += 1
            if ll_prop > log_u:
                st.white = st.white * c + nu * s
                self._g = g_prop
                self._suff, self._loglik = suff_prop, ll_prop
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
        log_ell_prop = st.log_ell + self.step_log_ell * rng.standard_normal()
        if self.grid.dim * log_ell_prop > LOG_FLOAT_MAX:
            self._last_alpha_ell = 0.0
            return
        L_prop = self._factor(log_ell_prop)
        g_prop = apply_factor(L_prop, st.white, self.grid.dim)
        suff_prop, ll_prop = self._evaluate(g_prop)
        self.evaluations += 1
        log_prior_prop = self.prior.ell_prior.log_density_at_log(log_ell_prop)
        log_alpha = (
            ll_prop - self._loglik
            + log_prior_prop
            - self._log_prior_ell
            + log_ell_prop - st.log_ell
        )
        alpha = 1.0 if log_alpha >= 0.0 else math.exp(log_alpha)
        if rng.random() < alpha:
            st.log_ell = log_ell_prop
            self._log_prior_ell = log_prior_prop
            self._L = L_prop
            self._g = g_prop
            self._suff, self._loglik = suff_prop, ll_prop
            self.accepts["ell"] += 1
        self._last_alpha_ell = alpha

    def update_ceiling(self, rng: np.random.Generator) -> None:
        """Exact draw of lam* from Gamma(a + N, rate b + n int s); the cached
        collapsed target does not depend on lam*.

        Below shape 1 a gamma draw can underflow to 0, so ``log lam*`` is drawn
        as ``log G(a + 1) + log(U) / a`` (Marsaglia & Tsang 2000).
        """
        shape, scale = self._post_shape, 1.0 / self._ceiling_rate(self._suff[1])
        if shape >= 1.0:
            log_lam = math.log(rng.gamma(shape, scale))
        else:
            log_lam = math.log(rng.gamma(shape + 1.0, scale)) + math.log1p(-rng.random()) / shape
        self.state.log_lambda_star = log_lam
        self.accepts["lambda"] += 1

    def sweep(self, rng: np.random.Generator) -> None:
        self.update_latent(rng)
        self.update_length_scale(rng)
        self.update_ceiling(rng)  # last: the moves above target lam* integrated out

    def adapt_steps(self, k: int) -> None:
        """Robbins-Monro adaptation of the ell step toward ``ADAPT_TARGET``."""
        gain = (k + 1.0) ** -0.6
        step = self.step_log_ell * math.exp(gain * (self._last_alpha_ell - ADAPT_TARGET))
        self.step_log_ell = min(max(step, 1e-3), 10.0)


def initial_state(prior: SgcpPrior, grid: Grid, patterns: list[PointPattern]) -> ModelState:
    """Deterministic starting point: flat latent, prior-median length scale,
    ceiling at 1.5x the observed mean count (prior median when there is no
    data to set the scale)."""
    total = sum(p.n for p in patterns)
    if patterns and total > 0:
        lam0 = 1.5 * total / len(patterns)
    else:  # a shape far below 1 puts the median under the smallest float
        lam0 = max(prior.lam_prior.median, sys.float_info.min)
    return ModelState(
        white=np.zeros(grid.n_nodes),
        log_ell=math.log(prior.ell_prior.median),
        log_lambda_star=math.log(lam0),
    )


def run_chain(
    patterns: list[PointPattern],
    prior: SgcpPrior,
    grid: Grid,
    config: ChainConfig,
    rng: np.random.Generator,
) -> PosteriorChain:
    """Sample the posterior over (g, ell, lam*) on ``grid`` given replicated patterns."""
    sampler = _Sampler(prior, grid)
    sampler.set_data(patterns)
    sampler.set_state(initial_state(prior, grid, patterns))

    n_sampled = config.n_iter - config.n_burn
    n_kept = (n_sampled + config.thin - 1) // config.thin
    try:
        ell_out, lam_out, logpost_out = np.empty((3, n_kept))
        intensity_out = np.empty((n_kept, grid.n_nodes))
    except (MemoryError, ValueError):  # numpy's ValueError: more bytes than it can address
        raise MemoryError(f"Unable to allocate {n_kept * (grid.n_nodes + 3) * 8} bytes for the "
                          f"kept draws of [chain] n_iter = {config.n_iter}, n_burn = "
                          f"{config.n_burn}, thin = {config.thin}") from None

    kept = 0
    ell_accepts_at_burn = evaluations_at_burn = 0
    for k in range(config.n_iter):
        sampler.sweep(rng)
        if k < config.n_burn:
            sampler.adapt_steps(k)
        if k == config.n_burn - 1:
            ell_accepts_at_burn, evaluations_at_burn = sampler.accepts["ell"], sampler.evaluations
        if (k + 1) % CHECK_EVERY == 0 or k + 1 == config.n_iter:
            sampler.scratch_check()
        if k >= config.n_burn and (k - config.n_burn) % config.thin == 0:
            st = sampler.state
            ell_out[kept] = math.exp(st.log_ell)
            lam_out[kept] = math.exp(st.log_lambda_star)
            intensity_out[kept] = lam_out[kept] * sigmoid(sampler.latent)
            logpost_out[kept] = sampler.log_posterior()
            kept += 1

    diagnostics = {
        "evaluations_per_sweep": (sampler.evaluations - evaluations_at_burn) / n_sampled,
        "n_eff_ell": effective_sample_size(ell_out),
        "n_eff_lambda_star": effective_sample_size(lam_out),
    }
    return PosteriorChain(
        grid=grid,
        ell=ell_out,
        lambda_star=lam_out,
        intensity=intensity_out,
        log_post=logpost_out,
        # the ell move is proposed once per sweep
        accept_ell=(sampler.accepts["ell"] - ell_accepts_at_burn) / n_sampled,
        diagnostics=diagnostics,
    )


# -- joint calibration check -------------------------------------------


_GEWEKE_STATS = ("lambda_star", "lambda_star_sq", "ell", "mean_intensity", "count", "count_sq")


def _geweke_row(lam_star, ell, mean_intensity, count) -> tuple:
    """The ``_GEWEKE_STATS`` of a round from its ceiling, length scale, mean
    intensity and point count: one value each for a round, or one column
    each for arrays of rounds."""
    return (lam_star, lam_star * lam_star, ell, mean_intensity, count, count * count)


@dataclass(frozen=True)
class GewekeResult:
    """Two-sample z-scores comparing forward and Gibbs-through-data draws."""

    z_scores: dict
    diverged: bool
    n_rounds: int

    @property
    def max_abs_z(self) -> float:
        """The largest |z| over the measured statistics: NaN if none was measured."""
        if self.diverged:
            return float("inf")
        return max((abs(v) for v in self.z_scores.values() if not math.isnan(v)),
                   default=math.nan)


def _batch_means_se(x: np.ndarray) -> float:
    b = x.shape[0] // N_BATCHES
    means = np.mean(x[:b * N_BATCHES].reshape(N_BATCHES, b), axis=1)
    return float(np.std(means, ddof=1) / math.sqrt(N_BATCHES))


def _forward_stats(prior: SgcpPrior, grid: Grid, rng: np.random.Generator,
                   n_rounds: int) -> np.ndarray:
    """The calibration's forward side: ``n_rounds`` independent (theta, data)
    draws, reduced to their ``_GEWEKE_STATS`` rows.

    Rounds are drawn in blocks of at most ``FORWARD_BLOCK_VALUES`` field
    values: the block's prior draws (``sample_prior_batch``), then its
    thinning (``simulate_thinning_batch``). Only the ``(n_rounds, 6)``
    statistics grow with the number of rounds.
    """
    out = np.empty((n_rounds, len(_GEWEKE_STATS)))
    weights = trapezoid_weights(grid.dim, grid.resolution)
    block = max(1, FORWARD_BLOCK_VALUES // grid.n_nodes)
    for start in range(0, n_rounds, block):
        m = min(block, n_rounds - start)
        draw = sample_prior_batch(prior, grid, rng, m)
        lam_star = draw["lambda_star"]
        intensity = sigmoid(draw["latent"])
        intensity *= lam_star[:, None]
        _, counts = simulate_thinning_batch(lam_star, intensity, grid, rng)
        out[start:start + m] = np.column_stack(_geweke_row(
            lam_star, draw["ell"], intensity @ weights, counts.astype(np.float64)))
    return out


def _chained_segment(prior: SgcpPrior, grid: Grid, mutate_drop_integral: bool,
                     rng: np.random.Generator, n_rounds: int,
                     sweeps_per_round: int) -> tuple[np.ndarray, bool]:
    """One independent chain of the calibration's chained side.

    The chain starts from its own prior draw and, each round, simulates data
    given its state, records the ``_GEWEKE_STATS`` row and sweeps the sampler
    on those data. Returns the rows of the rounds completed and whether the
    chain diverged (its ceiling passed ``LAMBDA_CAP``) before the next one.
    """
    sampler = _Sampler(prior, grid, mutate_drop_integral=mutate_drop_integral)
    rows = np.empty((n_rounds, len(_GEWEKE_STATS)))
    start = sample_prior_batch(prior, grid, rng, 1)
    sampler.set_state(ModelState(
        white=start["white"][0],
        log_ell=math.log(start["ell"][0]),
        log_lambda_star=math.log(start["lambda_star"][0]),
    ))
    for i in range(n_rounds):
        lam_star = math.exp(sampler.state.log_lambda_star)
        if lam_star > LAMBDA_CAP:
            return rows[:i], True
        field = IntensityField(grid, lam_star * sigmoid(sampler.latent))
        pattern = simulate_thinning(lam_star, field, rng)
        rows[i] = _geweke_row(lam_star, math.exp(sampler.state.log_ell),
                              lam_star * sampler.integral_of_link, float(pattern.n))
        sampler.set_data([pattern])
        for _ in range(sweeps_per_round):
            sampler.sweep(rng)
    return rows, False


def check_joint_test_prior(spec) -> None:
    """Refuse a gamma prior the joint test cannot run on: a ceiling prior with
    more than ``MAX_MASS_ABOVE_CAP`` of its mass above ``LAMBDA_CAP``, or
    either prior with more than that below the smallest positive float."""
    a, b = spec.shape, spec.rate
    # P(Gamma(a, b) < x) = (b x)^a / Gamma(a + 1) to a relative 1e-15 at
    # b x < 1e-15, as at x = ulp(0); in logs, as b x itself can underflow
    below = math.exp(min(a * (math.log(b) + math.log(math.ulp(0.0))) - math.lgamma(a + 1.0),
                         0.0))
    masses = [(below, "below the smallest positive float, where a draw underflows to 0")]
    name = "length-scale prior on ell^d"
    if isinstance(spec, MaxIntensityPriorSpec):
        name = "ceiling prior"
        masses.insert(0, (float(spec.survival(LAMBDA_CAP)), f"above LAMBDA_CAP = "
                          f"{LAMBDA_CAP:g}, where the joint test reports divergence"))
    for mass, where in masses:
        if not mass <= MAX_MASS_ABOVE_CAP:
            raise ValueError(f"the {name} Gamma(shape {a!r}, rate {b!r}) puts mass {mass:.3g} "
                             f"{where}; at most {MAX_MASS_ABOVE_CAP:g} is allowed")


def geweke_joint_test(
    prior: SgcpPrior,
    grid: Grid,
    rng: np.random.Generator,
    n_rounds: int,
    sweeps_per_round: int,
    mutate_drop_integral: bool = False,
) -> GewekeResult:
    """Joint distribution check of the sampler against the generative model.

    Forward side: independent (theta, data) draws from the prior and the
    thinning simulator, in blocks (``_forward_stats``). Chained side: Markov
    chains alternating data-given-state simulation with posterior sweeps,
    whose marginal must also be the prior if (and in practice only if) the
    transition kernel is correct.
    z-scores compare the two sides per statistic; the chained side uses
    batch-means standard errors, so at least ``MIN_ROUNDS`` rounds are
    required. A ceiling excursion above ``LAMBDA_CAP`` reports divergence
    outright — under a correct kernel the prior puts vanishing mass there,
    while broken kernels drift through it quickly. A prior that
    ``check_joint_test_prior`` refuses is refused before any draw.

    The chained side is ``CHAINED_SEGMENTS`` independent chains: segment
    ``k`` runs rounds ``n_rounds * k // CHAINED_SEGMENTS`` up to the next
    segment's first, from its own prior draw, on the stream
    ``rng.spawn(CHAINED_SEGMENTS)[k]`` (``_chained_segment``). The segments
    run on the fork pool of ``_pool``, ``min(CHAINED_SEGMENTS, usable_cpus())``
    processes, and their rows are concatenated in segment order, so the
    result is the same at any CPU count. The first diverged segment in
    segment order decides: ``n_rounds`` then counts the rounds completed by
    the segments before it and by it. A segment in a forked child runs on
    that child's copy of the module, so a patch of a ``_Sampler`` method or
    of ``simulate_thinning`` here is inherited, but what it records is seen
    only for the segments the calling process ran.
    """
    if n_rounds < MIN_ROUNDS or sweeps_per_round < 1:
        raise ValueError(f"need at least {MIN_ROUNDS} rounds and one sweep per round")
    if grid.dim != prior.dim:
        raise ValueError("grid dimension does not match the prior")
    check_grid(grid)  # before any draw or fork
    for spec in (prior.ell_prior, prior.lam_prior):
        check_joint_test_prior(spec)

    forward = _forward_stats(prior, grid, rng, n_rounds)

    streams = rng.spawn(CHAINED_SEGMENTS)
    bounds = [n_rounds * k // CHAINED_SEGMENTS for k in range(CHAINED_SEGMENTS + 1)]
    segments = run_cells(
        CHAINED_SEGMENTS, min(CHAINED_SEGMENTS, usable_cpus()),
        lambda k: _chained_segment(prior, grid, mutate_drop_integral, streams[k],
                                   bounds[k + 1] - bounds[k], sweeps_per_round))
    completed = 0
    for rows, diverged in segments:
        completed += rows.shape[0]
        if diverged:
            return GewekeResult({name: float("inf") for name in _GEWEKE_STATS}, True,
                                completed)
    chained = np.concatenate([rows for rows, _ in segments])

    z_scores = {}
    for j, name in enumerate(_GEWEKE_STATS):
        # z does not depend on scale: both sides share one exact power of two
        e = _unit_exponent(forward[:, j], chained[:, j])
        fwd, chn = np.ldexp(forward[:, j], e), np.ldexp(chained[:, j], e)
        mc_se = float(np.std(fwd, ddof=1) / math.sqrt(n_rounds))
        sc_se = _batch_means_se(chn)
        denom = math.sqrt(mc_se**2 + sc_se**2)
        diff = float(np.mean(chn) - np.mean(fwd))
        if denom > 0.0:
            z_scores[name] = diff / denom
        else:  # no spread on either side
            z_scores[name] = (math.copysign(math.inf, diff) if abs(diff) > SPREADLESS_GAP
                              else math.nan)
    return GewekeResult(z_scores, False, n_rounds)
