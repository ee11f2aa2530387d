"""Prior layer of the sigmoidal-Gaussian Cox construction.

The intensity prior is the pushforward of three independent draws::

    ell    ~ (gamma on ell^d)            inverse length scale
    lam*   ~ gamma                        intensity ceiling
    g|ell  ~ GP(0, exp(-ell^2 ||t-s||^2)) latent field

    lambda(s) = lam* * link(g(s))

with a sigmoidal link mapping R onto (0, 1). Tail validators check the
analytic envelopes the asymptotics rely on (sandwich bounds on the implied
length-scale density, an exponential upper tail for the ceiling), and a
Monte Carlo small-ball probe lower-bounds the prior mass near a truth.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy import special as _sci_special
from scipy import stats as _sci_stats

from ._accel import sigmoid
from .kernels import SQUARED_EXPONENTIAL, KernelSpec, chol_with_jitter, cov_matrix
from .point_process import Grid, IntensityField

LOGISTIC_SQRT_LIPSCHITZ = 1.0 / (3.0 * math.sqrt(3.0))


@dataclass(frozen=True)
class LinkFunction:
    """Monotone map from R onto (0, 1) with a known sqrt-composition bound.

    ``sqrt_lipschitz`` is sup_x |d/dx sqrt(link(x))|; for the logistic link the
    supremum 1/(3*sqrt(3)) is attained where link(x) = 1/3.
    """

    name: str
    sqrt_lipschitz: float

    def __call__(self, x) -> np.ndarray:
        x = np.asarray(x, dtype=np.float64)
        if self.name == "logistic":
            return sigmoid(x)
        return _sci_special.ndtr(x)

    def inverse(self, p) -> np.ndarray:
        p = np.asarray(p, dtype=np.float64)
        if np.any(p <= 0.0) or np.any(p >= 1.0):
            raise ValueError("link inverse requires values strictly inside (0, 1)")
        if self.name == "logistic":
            return np.log(p) - np.log1p(-p)
        return _sci_special.ndtri(p)


LOGISTIC = LinkFunction("logistic", LOGISTIC_SQRT_LIPSCHITZ)
PROBIT = LinkFunction("probit", 0.3181638651607255)

_LINKS = {"logistic": LOGISTIC, "probit": PROBIT}


def get_link(name: str) -> LinkFunction:
    try:
        return _LINKS[name]
    except KeyError:
        raise ValueError(f"unknown link function {name!r}") from None


def estimate_sqrt_link_lipschitz(link: LinkFunction, lo: float = -12.0, hi: float = 12.0,
                                 n: int = 48001) -> float:
    """Grid estimate of sup |d/dx sqrt(link(x))| by central differences."""
    x = np.linspace(lo, hi, n)
    h = 1e-5
    deriv = (np.sqrt(link(x + h)) - np.sqrt(link(x - h))) / (2.0 * h)
    return float(np.max(np.abs(deriv)))


def w0_from_truth(truth: IntensityField, link: LinkFunction) -> tuple[np.ndarray, float]:
    """Latent centering of a strictly positive truth.

    Returns ``(w0, lam_star)`` with ``lam_star = 2 * max(truth)`` so that
    ``lam_star * link(w0) == truth`` exactly on the grid and the link argument
    stays in (0, 1/2], keeping the inverse bounded.
    """
    lam0 = truth.values
    if np.any(lam0 <= 0.0):
        raise ValueError("truth intensity must be strictly positive for latent centering")
    lam_star = 2.0 * float(np.max(lam0))
    w0 = link.inverse(lam0 / lam_star)
    return np.asarray(w0, dtype=np.float64), lam_star


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
        if self.shape <= 0.0 or self.rate <= 0.0:
            raise ValueError("gamma parameters must be positive")

    def log_density(self, ell) -> np.ndarray:
        ell = np.asarray(ell, dtype=np.float64)
        if np.any(ell <= 0.0):
            raise ValueError("length scale must be positive")
        d, a, b = self.dim, self.shape, self.rate
        return (math.log(d) + a * math.log(b) - math.lgamma(a)
                + (d * a - 1.0) * np.log(ell) - b * ell**d)

    def sample(self, rng: np.random.Generator, size=None) -> np.ndarray:
        y = rng.gamma(self.shape, 1.0 / self.rate, size=size)
        return y ** (1.0 / self.dim)

    @property
    def median(self) -> float:
        y = _sci_stats.gamma.ppf(0.5, self.shape, scale=1.0 / self.rate)
        return float(y ** (1.0 / self.dim))


@dataclass(frozen=True)
class MaxIntensityPriorSpec:
    """Gamma prior on the intensity ceiling lam*."""

    shape: float = 2.0
    rate: float = 1.0

    def __post_init__(self):
        if self.shape <= 0.0 or self.rate <= 0.0:
            raise ValueError("gamma parameters must be positive")

    def log_density(self, lam) -> np.ndarray:
        lam = np.asarray(lam, dtype=np.float64)
        if np.any(lam <= 0.0):
            raise ValueError("intensity ceiling must be positive")
        a, b = self.shape, self.rate
        return a * math.log(b) - math.lgamma(a) + (a - 1.0) * np.log(lam) - b * lam

    def survival(self, x) -> np.ndarray:
        return _sci_special.gammaincc(self.shape, self.rate * np.asarray(x, dtype=np.float64))

    def sample(self, rng: np.random.Generator, size=None) -> np.ndarray:
        return rng.gamma(self.shape, 1.0 / self.rate, size=size)

    @property
    def median(self) -> float:
        return float(_sci_stats.gamma.ppf(0.5, self.shape, scale=1.0 / self.rate))


@dataclass(frozen=True)
class ValidationResult:
    """Outcome of a tail-envelope check; ``witness`` locates the first violation."""

    passed: bool
    witness: float | None = None
    detail: str = ""


def _probe_window(window: tuple[float, float], n_points: int) -> np.ndarray:
    lo, hi = window
    if not (0.0 < lo < hi):
        raise ValueError("probe window must satisfy 0 < lo < hi")
    xs = np.exp(np.linspace(math.log(lo), math.log(hi), n_points))
    xs[0], xs[-1] = lo, hi  # keep the stated endpoints exact
    return xs


@dataclass(frozen=True)
class LengthScaleTailBounds:
    """Constants of the sandwich
    c_lower * x^power * exp(-decay_upper * x^d * log^log_power x)
      <= p(x) <=
    c_upper * x^power * exp(-decay_lower * x^d * log^log_power x).
    """

    power: float
    decay_lower: float
    decay_upper: float
    c_lower: float
    c_upper: float
    log_power: float = 0.0


def default_length_scale_bounds(spec: LengthScalePriorSpec) -> LengthScaleTailBounds:
    """Envelope constants that provably hold for the gamma-on-ell^d density."""
    d, a, b = spec.dim, spec.shape, spec.rate
    lead = d * b**a / math.gamma(a)
    return LengthScaleTailBounds(
        power=d * a - 1.0,
        decay_lower=0.5 * b,
        decay_upper=1.5 * b,
        c_lower=0.5 * lead,
        c_upper=2.0 * lead,
        log_power=0.0,
    )


def validate_length_scale_tail(
    spec: LengthScalePriorSpec,
    bounds: LengthScaleTailBounds | None = None,
    window: tuple[float, float] = (5.0, 100.0),
    n_points: int = 64,
) -> ValidationResult:
    """Check the sandwich inequalities pointwise on a log-spaced probe window."""
    if bounds is None:
        bounds = default_length_scale_bounds(spec)
    xs = _probe_window(window, n_points)
    logx = np.log(xs)
    log_density = spec.log_density(xs)
    logk = np.where(logx > 0.0, np.log(logx), -np.inf)  # log log x, window keeps x>1
    shape_term = bounds.power * logx
    decay_base = xs**spec.dim * np.exp(bounds.log_power * logk) if bounds.log_power else xs**spec.dim
    log_lo = math.log(bounds.c_lower) + shape_term - bounds.decay_upper * decay_base
    log_hi = math.log(bounds.c_upper) + shape_term - bounds.decay_lower * decay_base
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
    spec: MaxIntensityPriorSpec,
    c0: float = 10.0,
    rate: float | None = None,
    kappa: float = 1.0,
    window: tuple[float, float] = (5.0, 100.0),
    n_points: int = 64,
) -> ValidationResult:
    """Check ``P(lam* > x) <= c0 * exp(-rate * x^kappa)`` on the probe window.

    The default rate is half the gamma rate, which absorbs the polynomial
    factor in the gamma tail.
    """
    if rate is None:
        rate = 0.5 * spec.rate
    if c0 <= 0.0 or rate <= 0.0 or kappa <= 0.0:
        raise ValueError("tail constants must be positive")
    xs = _probe_window(window, n_points)
    surv = spec.survival(xs)
    bound = c0 * np.exp(-rate * xs**kappa)
    bad = surv > bound * (1.0 + 1e-12)
    if np.any(bad):
        x = float(xs[np.argmax(bad)])
        return ValidationResult(False, x, f"survival exceeds the exponential envelope at x={x:.6g}")
    return ValidationResult(True, None, "exponential tail bound holds on the probe window")


@dataclass(frozen=True)
class SgcpPrior:
    """Full prior bundle: link, hyperpriors, and the kernel family template."""

    dim: int
    link: LinkFunction = LOGISTIC
    ell_prior: LengthScalePriorSpec | None = None
    lam_prior: MaxIntensityPriorSpec | None = None
    kernel_family: str = SQUARED_EXPONENTIAL

    def __post_init__(self):
        if self.ell_prior is None:
            object.__setattr__(self, "ell_prior", LengthScalePriorSpec(dim=self.dim))
        if self.lam_prior is None:
            object.__setattr__(self, "lam_prior", MaxIntensityPriorSpec())
        if self.ell_prior.dim != self.dim:
            raise ValueError("length-scale prior dimension does not match")

    def kernel(self, ell: float) -> KernelSpec:
        return KernelSpec(family=self.kernel_family, ell=ell)


def sample_prior_intensity(
    prior: SgcpPrior, grid: Grid, rng: np.random.Generator
) -> tuple[IntensityField, dict]:
    """One draw of (ell, lam*, g) pushed through the link to an intensity field.

    The draws come from ``rng`` in a fixed order: ``ell``, ``lam*``, then the
    white noise ``white`` with ``g = L(ell) @ white``. The returned dict holds
    all four.
    """
    if grid.dim != prior.dim:
        raise ValueError("grid dimension does not match the prior")
    ell = float(prior.ell_prior.sample(rng))
    lam_star = float(prior.lam_prior.sample(rng))
    K = cov_matrix(prior.kernel(ell), grid.nodes())
    L, _ = chol_with_jitter(K)
    white = rng.standard_normal(grid.n_nodes)
    g = L @ white
    field = IntensityField(grid, lam_star * prior.link(g))
    return field, {"ell": ell, "lambda_star": lam_star, "white": white, "latent": g}


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
    """Monte Carlo estimate of ``P(sup_s |lambda(s) - lambda0(s)| < delta)``.

    All radii share the same draws, so the estimates are nondecreasing in
    delta by construction (the events are nested).
    """
    deltas = sorted(float(d) for d in np.atleast_1d(deltas))
    if any(d <= 0.0 for d in deltas):
        raise ValueError("small-ball radii must be positive")
    if n_mc < 1:
        raise ValueError("n_mc must be positive")
    sup_dist = np.empty(n_mc)
    for i in range(n_mc):
        field, _ = sample_prior_intensity(prior, truth.grid, rng)
        sup_dist[i] = float(np.max(np.abs(field.values - truth.values)))
    out = []
    for delta in deltas:
        hits = sup_dist < delta
        p = float(np.mean(hits))
        se = float(np.sqrt(max(p * (1.0 - p), 1.0 / n_mc) / n_mc))
        out.append(SmallBallEstimate(delta, p, se, n_mc))
    return out
