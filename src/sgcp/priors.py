"""Prior layer of the sigmoidal-Gaussian Cox construction.

The intensity prior is the pushforward of three independent draws::

    ell    ~ (gamma on ell^d)            inverse length scale
    lam*   ~ gamma                        intensity ceiling
    g|ell  ~ GP(0, exp(-ell^2 ||t-s||^2)) latent field

    lambda(s) = lam* * sigmoid(g(s))

with the logistic sigmoid as the link mapping R onto (0, 1). Tail
validators check the analytic envelopes the asymptotics rely on (sandwich
bounds on the implied length-scale density, an exponential upper tail for
the ceiling), and a Monte Carlo small-ball probe lower-bounds the prior mass
near a truth.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np
from scipy import special as _sci_special

from ._accel import sigmoid
from .kernels import check_grid, gp_field
from .point_process import Grid, IntensityField

# the tail validators check their envelopes at PROBE_POINTS log-spaced points
# of PROBE_WINDOW, whose endpoints are kept exact
PROBE_WINDOW = (5.0, 100.0)
PROBE_POINTS = 64
_PROBE_XS = np.exp(np.linspace(math.log(PROBE_WINDOW[0]), math.log(PROBE_WINDOW[1]),
                               PROBE_POINTS))
_PROBE_XS[[0, -1]] = PROBE_WINDOW
_PROBE_XS.setflags(write=False)

# the length-scale prior may put at most this much of the mass of ell^d above
# the largest float, where the sampler rejects every proposal
MAX_MASS_ABOVE_FLOAT = 1e-6

# sup_x |d/dx sqrt(sigmoid(x))|, attained where sigmoid(x) = 1/3
LOGISTIC_SQRT_LIPSCHITZ = 1.0 / (3.0 * math.sqrt(3.0))

# grid of estimate_sqrt_link_lipschitz: n points on [lo, hi]
_LIPSCHITZ_LO, _LIPSCHITZ_HI, _LIPSCHITZ_N = -12.0, 12.0, 48001


def estimate_sqrt_link_lipschitz() -> float:
    """Grid estimate of sup |d/dx sqrt(sigmoid(x))| by central differences."""
    x = np.linspace(_LIPSCHITZ_LO, _LIPSCHITZ_HI, _LIPSCHITZ_N)
    h = 1e-5
    deriv = (np.sqrt(sigmoid(x + h)) - np.sqrt(sigmoid(x - h))) / (2.0 * h)
    return float(np.max(np.abs(deriv)))


def _check_gamma(shape: float, rate: float) -> None:
    if not (0.0 < shape < math.inf and 0.0 < rate < math.inf):
        raise ValueError(f"gamma parameters must be positive finite numbers, "
                         f"got shape {shape!r} and rate {rate!r}")


@dataclass(frozen=True)
class LengthScalePriorSpec:
    """Gamma prior on ell^d; ell itself then has an explicit closed-form density.

    If Y = ell^d ~ Gamma(shape, rate) then
    p(ell) = d * rate^shape / Gamma(shape) * ell^(d*shape - 1) * exp(-rate * ell^d).
    """

    dim: int
    shape: float = 1.0
    rate: float = 1.0

    def __post_init__(self):
        if self.dim < 1:
            raise ValueError("dim must be positive")
        _check_gamma(self.shape, self.rate)
        # a Python float product past the largest float is inf, without a
        # warning, and gammaincc(a, inf) is 0
        above = _sci_special.gammaincc(self.shape, float(self.rate) * sys.float_info.max)
        if not above <= MAX_MASS_ABOVE_FLOAT:  # this covers a median that overflows
            raise ValueError(f"length-scale prior at shape {self.shape!r} and rate "
                             f"{self.rate!r} puts {above:.3g} of the mass of ell^d above "
                             f"the largest float; at most {MAX_MASS_ABOVE_FLOAT:g} is allowed")
        if not self.median > 0.0:  # the chain starts at the median's log
            raise ValueError(f"length-scale prior median underflows to 0 at shape "
                             f"{self.shape!r} and rate {self.rate!r}")

    def log_density(self, ell: float) -> float:
        if ell <= 0.0:
            raise ValueError("length scale must be positive")
        return self.log_density_at_log(math.log(ell))

    def log_density_at_log(self, log_ell: float) -> float:
        """Log density of ell (not of ``log ell``) at ``exp(log_ell)``, evaluated
        from ``log ell`` itself, so a length scale too small for a float keeps a
        finite density."""
        d, a, b = self.dim, self.shape, self.rate
        return (math.log(d) + a * math.log(b) - math.lgamma(a)
                + (d * a - 1.0) * log_ell - b * math.exp(log_ell)**d)

    def sample(self, rng: np.random.Generator, n: int) -> np.ndarray:
        """``n`` draws of ell: d-th roots of gamma draws. Each root is a float
        ``**``, so a batch equals as many single draws bit for bit (numpy's
        array power can differ in the last place)."""
        y = rng.gamma(self.shape, 1.0 / self.rate, size=n)
        root = 1.0 / self.dim
        return np.array([v ** root for v in y.tolist()])

    @property
    def median(self) -> float:
        y = _sci_special.gammaincinv(self.shape, 0.5) * (1.0 / self.rate)
        return float(y ** (1.0 / self.dim))


@dataclass(frozen=True)
class MaxIntensityPriorSpec:
    """Gamma prior on the intensity ceiling lam*."""

    shape: float = 2.0
    rate: float = 1.0

    def __post_init__(self):
        _check_gamma(self.shape, self.rate)

    def log_density(self, lam: float) -> float:
        if lam <= 0.0:
            raise ValueError("intensity ceiling must be positive")
        log_lam = math.log(lam)
        return self.log_density_of_log(log_lam) - log_lam

    def log_density_of_log(self, log_lam: float) -> float:
        """Log density of ``log lam*``, evaluated from ``log lam*`` itself, so a
        ceiling too small for a float keeps a finite density."""
        a, b = self.shape, self.rate
        return a * math.log(b) - math.lgamma(a) + a * log_lam - b * math.exp(log_lam)

    def survival(self, x) -> np.ndarray:
        return _sci_special.gammaincc(self.shape, self.rate * np.asarray(x, dtype=np.float64))

    def sample(self, rng: np.random.Generator, n: int) -> np.ndarray:
        return rng.gamma(self.shape, 1.0 / self.rate, size=n)

    @property
    def median(self) -> float:
        return float(_sci_special.gammaincinv(self.shape, 0.5) * (1.0 / self.rate))


@dataclass(frozen=True)
class ValidationResult:
    """Outcome of a tail-envelope check; ``witness`` locates the first violation."""

    passed: bool
    witness: float | None
    detail: str


@dataclass(frozen=True)
class LengthScaleTailBounds:
    """Constants of the sandwich
    exp(log_c_lower) * x^power * exp(-decay_upper * x^d)
      <= p(x) <=
    exp(log_c_upper) * x^power * exp(-decay_lower * x^d),
    the leading constants kept as logs so no gamma shape overflows them.
    """

    power: float
    decay_lower: float
    decay_upper: float
    log_c_lower: float
    log_c_upper: float


def default_length_scale_bounds(spec: LengthScalePriorSpec) -> LengthScaleTailBounds:
    """Envelope constants that provably hold for the gamma-on-ell^d density."""
    d, a, b = spec.dim, spec.shape, spec.rate
    log_lead = math.log(d) + a * math.log(b) - math.lgamma(a)
    return LengthScaleTailBounds(
        power=d * a - 1.0,
        decay_lower=0.5 * b,
        decay_upper=1.5 * b,
        log_c_lower=log_lead - math.log(2.0),
        log_c_upper=log_lead + math.log(2.0),
    )


def validate_length_scale_tail(
    spec: LengthScalePriorSpec, bounds: LengthScaleTailBounds | None = None
) -> ValidationResult:
    """Check the sandwich inequalities pointwise on the log-spaced probe window."""
    if bounds is None:
        bounds = default_length_scale_bounds(spec)
    xs = _PROBE_XS
    log_density = np.array([spec.log_density(x) for x in xs.tolist()])
    shape_term = bounds.power * np.log(xs)
    decay_base = xs**spec.dim
    log_lo = bounds.log_c_lower + shape_term - bounds.decay_upper * decay_base
    log_hi = bounds.log_c_upper + shape_term - bounds.decay_lower * decay_base
    below = log_density < log_lo - 1e-9
    above = log_density > log_hi + 1e-9
    if np.any(below):
        x = float(xs[np.argmax(below)])
        return ValidationResult(False, x, f"density falls below the lower envelope at x={x:.6g}")
    if np.any(above):
        x = float(xs[np.argmax(above)])
        return ValidationResult(False, x, f"density exceeds the upper envelope at x={x:.6g}")
    return ValidationResult(True, None, "sandwich holds on the probe window")


def validate_max_intensity_tail(
    spec: MaxIntensityPriorSpec, c0: float = 10.0
) -> ValidationResult:
    """Check ``P(lam* > x) <= c0 * exp(-rate * x / 2)`` on the probe window:
    half the gamma rate absorbs the polynomial factor in the gamma tail.
    """
    if c0 <= 0.0:
        raise ValueError("tail constant c0 must be positive")
    xs = _PROBE_XS
    surv = spec.survival(xs)
    bound = c0 * np.exp(-0.5 * spec.rate * xs)
    bad = surv > bound * (1.0 + 1e-12)
    if np.any(bad):
        x = float(xs[np.argmax(bad)])
        return ValidationResult(False, x, f"survival exceeds the exponential envelope at x={x:.6g}")
    return ValidationResult(True, None, "exponential tail bound holds on the probe window")


@dataclass(frozen=True)
class SgcpPrior:
    """Full prior bundle: the hyperpriors of the squared-exponential field."""

    dim: int
    ell_prior: LengthScalePriorSpec | None = None
    lam_prior: MaxIntensityPriorSpec | None = None

    def __post_init__(self):
        if self.ell_prior is None:
            object.__setattr__(self, "ell_prior", LengthScalePriorSpec(dim=self.dim))
        if self.lam_prior is None:
            object.__setattr__(self, "lam_prior", MaxIntensityPriorSpec())
        if self.ell_prior.dim != self.dim:
            raise ValueError("length-scale prior dimension does not match")


def sample_prior_batch(
    prior: SgcpPrior, grid: Grid, rng: np.random.Generator, n: int
) -> dict:
    """``n`` independent draws of (ell, lam*, g), as arrays.

    The draws come from ``rng`` in a fixed order: all ``n`` values of ``ell``,
    all of ``lam*``, then the white noise ``white``, one row per draw, with
    ``g = L(ell) @ white`` formed row by row. The returned dict holds all four
    under ``ell``, ``lambda_star`` (shape ``(n,)``), ``white`` and ``latent``
    (shape ``(n, n_nodes)``).
    """
    if grid.dim != prior.dim:
        raise ValueError("grid dimension does not match the prior")
    check_grid(grid)
    ell = prior.ell_prior.sample(rng, n)
    lam_star = prior.lam_prior.sample(rng, n)
    white = rng.standard_normal((n, grid.n_nodes))
    g = np.empty_like(white)
    for i, ell_i in enumerate(ell.tolist()):
        g[i] = gp_field(ell_i, grid, white[i])
    return {"ell": ell, "lambda_star": lam_star, "white": white, "latent": g}


@dataclass(frozen=True)
class SmallBallEstimate:
    delta: float
    probability: float
    std_error: float
    n_mc: int


def prior_small_ball_probability(
    prior: SgcpPrior,
    truth: IntensityField,
    deltas,
    n_mc: int,
    rng: np.random.Generator,
) -> list[SmallBallEstimate]:
    """Monte Carlo estimate of ``P(sup_s |lambda(s) - lambda0(s)| < delta)``,
    the sup taken over the truth's grid nodes.

    The ``n_mc`` prior draws are one ``sample_prior_batch``, each pushed
    forward to ``lam* * sigmoid(g)``. All radii share the same draws, so the
    estimates are nondecreasing in delta by construction (the events are
    nested).
    """
    deltas = sorted(float(d) for d in np.atleast_1d(deltas))
    if any(d <= 0.0 for d in deltas):
        raise ValueError("small-ball radii must be positive")
    if n_mc < 1:
        raise ValueError("n_mc must be positive")
    draw = sample_prior_batch(prior, truth.grid, rng, n_mc)
    fields = sigmoid(draw["latent"])
    fields *= draw["lambda_star"][:, None]
    sup_dist = np.max(np.abs(fields - truth.values), axis=1)
    out = []
    for delta in deltas:
        hits = sup_dist < delta
        p = float(np.mean(hits))
        se = float(np.sqrt(max(p * (1.0 - p), 1.0 / n_mc) / n_mc))
        out.append(SmallBallEstimate(delta, p, se, n_mc))
    return out
