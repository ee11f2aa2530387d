"""Stationary GP kernels in spectral form and exact sampling on grids.

A stationary covariance is either the squared-exponential closed form
``k(s,t) = exp(-ell^2 ||t-s||^2)`` or the Fourier transform of an isotropic
spectral density ``mu``::

    k(s,t) = Re  integral  exp(-i <xi, ell (t-s)>) mu(xi) dxi

The built-in Gaussian spectral family with per-axis standard deviation
sqrt(2) reproduces the squared-exponential closed form exactly, which gives
the quadrature path an independent oracle. A heavy-tailed Cauchy family is
included to exercise the exponential-moment check's divergent branch; it is
not kernel-grade (infinite second moment) and is never used to build a GP.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np
from scipy import integrate as _sci_integrate

from ._accel import sq_exp_cov
from .point_process import Grid

SQUARED_EXPONENTIAL = "squared-exponential"
SPECTRAL = "spectral"

MAX_DENSE_NODES = 4096
JITTER_START = 1e-10
JITTER_MAX = 1e-6


class FactorizationError(RuntimeError):
    """Covariance factorization failed after maximum jitter escalation."""


class QuadratureError(RuntimeError):
    """Spectral quadrature did not converge."""


def _sphere_area(d: int) -> float:
    # surface area of the unit (d-1)-sphere
    return 2.0 * math.pi ** (d / 2.0) / math.gamma(d / 2.0)


@dataclass(frozen=True)
class SpectralDensity:
    """Named isotropic spectral density on R^d.

    ``mass`` is the total mass ``||mu||`` and ``second_moment`` the (possibly
    infinite) value of E||xi||^2; both are recorded explicitly. For every
    built-in family the map ``a -> mu(a xi)`` is decreasing in a > 0, which is
    asserted analytically per family rather than probed numerically.
    """

    name: str
    dim: int
    sigma: float = math.sqrt(2.0)  # gaussian family only: per-axis std

    def __post_init__(self):
        if self.name not in ("gaussian", "cauchy"):
            raise ValueError(f"unknown spectral density family {self.name!r}")
        if self.dim < 1:
            raise ValueError("dim must be positive")
        if self.sigma <= 0.0:
            raise ValueError("sigma must be positive")

    @property
    def mass(self) -> float:
        return 1.0

    @property
    def second_moment(self) -> float:
        if self.name == "gaussian":
            return self.dim * self.sigma**2
        return float("inf")  # cauchy: test-only family, not kernel-grade

    @property
    def scale_decreasing(self) -> bool:
        # gaussian: exp(-a^2 r^2 / ...) decreasing in a; cauchy: (1+a^2 r^2)^-p
        return True

    def radial(self, r) -> np.ndarray:
        """Density value at any point with ``||xi|| = r``."""
        r = np.asarray(r, dtype=np.float64)
        d = self.dim
        if self.name == "gaussian":
            norm = (2.0 * math.pi * self.sigma**2) ** (-d / 2.0)
            return norm * np.exp(-(r * r) / (2.0 * self.sigma**2))
        norm = math.gamma((d + 1) / 2.0) / (math.gamma(0.5) * math.pi ** (d / 2.0))
        return norm * (1.0 + r * r) ** (-(d + 1) / 2.0)


@dataclass(frozen=True)
class KernelSpec:
    """Stationary covariance: family, inverse length scale, spectral descriptor.

    ``ell`` is the inverse length scale (larger means rougher paths). ``delta``
    is the tilt used by the exponential-moment check. The squared-exponential
    family is normalized to unit marginal variance.
    """

    family: str = SQUARED_EXPONENTIAL
    ell: float = 1.0
    spectral_density: SpectralDensity | None = None
    delta: float = 1.0

    def __post_init__(self):
        if self.family not in (SQUARED_EXPONENTIAL, SPECTRAL):
            raise ValueError(f"unknown kernel family {self.family!r}")
        if self.ell <= 0.0:
            raise ValueError("ell must be positive")
        if self.delta <= 0.0:
            raise ValueError("delta must be positive")
        if self.family == SPECTRAL and self.spectral_density is None:
            raise ValueError("spectral family requires a spectral_density")


@dataclass(frozen=True)
class GPSample:
    """A latent field draw: values at the nodes of an evaluation grid."""

    grid: Grid
    values: np.ndarray

    def __post_init__(self):
        vals = np.ascontiguousarray(self.values, dtype=np.float64).ravel()
        if vals.shape[0] != self.grid.n_nodes:
            raise ValueError("value count does not match grid node count")
        object.__setattr__(self, "values", vals)


@lru_cache(maxsize=8)
def _hermgauss(n: int):
    x, w = np.polynomial.hermite.hermgauss(n)
    return x, w


def spectral_characteristic(spec: KernelSpec, lag: np.ndarray, gh_nodes: int = 80) -> complex:
    """Complex value of ``integral exp(-i <xi, ell*lag>) mu(xi) dxi``.

    Gaussian family: tensorized Gauss-Hermite (spectrally accurate). Other
    isotropic families: adaptive cosine quadrature, d = 1 only.
    """
    mu = spec.spectral_density
    if mu is None:
        raise ValueError("spectral quadrature requires a spectral density")
    lag = np.atleast_1d(np.asarray(lag, dtype=np.float64))
    if lag.shape != (mu.dim,):
        raise ValueError(f"lag must have shape ({mu.dim},)")
    a = spec.ell * lag
    if mu.name == "gaussian":
        u, w = _hermgauss(gh_nodes)
        out = complex(1.0, 0.0)
        for ax in range(mu.dim):
            phase = -math.sqrt(2.0) * mu.sigma * u * a[ax]
            s = complex(np.sum(w * np.cos(phase)), np.sum(w * np.sin(phase)))
            out *= s / math.sqrt(math.pi)
        return out * mu.mass
    if mu.dim != 1:
        raise QuadratureError(
            "generic spectral quadrature is implemented for d=1 only; "
            "use the gaussian family for d >= 2"
        )
    # even isotropic density: the transform is real, 2 * int_0^inf mu(r) cos(a r) dr
    freq = abs(float(a[0]))
    if freq == 0.0:
        val, err = _sci_integrate.quad(lambda r: mu.radial(r), 0.0, np.inf, limit=200)
    else:
        val, err = _sci_integrate.quad(
            lambda r: mu.radial(r), 0.0, np.inf, weight="cos", wvar=freq, limit=200
        )
    if not np.isfinite(val) or err > 1e-8:
        raise QuadratureError(f"spectral quadrature error estimate {err:.2e} too large")
    return complex(2.0 * val, 0.0)


def spectral_covariance_quadrature(spec: KernelSpec, lag: np.ndarray) -> float:
    """Real part of the spectral-form covariance at the given lag."""
    return spectral_characteristic(spec, lag).real


def kernel_eval(spec: KernelSpec, s, t) -> float:
    """Covariance between field values at points ``s`` and ``t``."""
    s = np.atleast_1d(np.asarray(s, dtype=np.float64))
    t = np.atleast_1d(np.asarray(t, dtype=np.float64))
    if s.shape != t.shape:
        raise ValueError("s and t must have the same dimension")
    if spec.family == SQUARED_EXPONENTIAL:
        h2 = float(np.sum((t - s) ** 2))
        return math.exp(-spec.ell**2 * h2)
    if s.shape != (spec.spectral_density.dim,):
        raise ValueError(f"points must have dimension {spec.spectral_density.dim}")
    return spectral_covariance_quadrature(spec, t - s)


def cov_matrix(spec: KernelSpec, points: np.ndarray) -> np.ndarray:
    """Dense covariance matrix on point pairs.

    The spectral path evaluates the radial covariance once per unique distance
    (regular grids have few), then fills the matrix.
    """
    points = np.asarray(points, dtype=np.float64)
    if spec.family == SQUARED_EXPONENTIAL:
        return sq_exp_cov(points, spec.ell)
    sq = np.sum(points * points, axis=1)
    d2 = np.maximum(sq[:, None] + sq[None, :] - 2.0 * points @ points.T, 0.0)
    r = np.sqrt(d2)
    uniq, inverse = np.unique(np.round(r, 12), return_inverse=True)
    dim = spec.spectral_density.dim
    vals = np.empty(uniq.shape[0])
    for i, ri in enumerate(uniq):
        lag = np.zeros(dim)
        lag[0] = ri
        vals[i] = spectral_covariance_quadrature(spec, lag)
    return vals[inverse].reshape(r.shape)


def chol_with_jitter(K: np.ndarray) -> tuple[np.ndarray, float]:
    """Lower Cholesky factor with an escalating diagonal jitter.

    Starts at 1e-10 and multiplies by 10 up to 1e-6; squared-exponential Gram
    matrices are ill-conditioned enough that a bare factorization is not
    attempted. Raises FactorizationError if every level fails.
    """
    m = K.shape[0]
    jitter = JITTER_START
    eye = np.eye(m)
    while jitter <= JITTER_MAX * (1.0 + 1e-12):
        try:
            L = np.linalg.cholesky(K + jitter * eye)
            return L, jitter
        except np.linalg.LinAlgError:
            jitter *= 10.0
    raise FactorizationError(
        f"Cholesky failed for {m}x{m} covariance after jitter escalation to {JITTER_MAX:g}"
    )


def sample_gp(spec: KernelSpec, grid: Grid, rng: np.random.Generator) -> GPSample:
    """Exact zero-mean GP draw on the grid via dense Cholesky factorization."""
    if grid.n_nodes > MAX_DENSE_NODES:
        raise ValueError(
            f"grid has {grid.n_nodes} nodes; dense factorization is guarded at {MAX_DENSE_NODES}"
        )
    K = cov_matrix(spec, grid.nodes())
    L, _ = chol_with_jitter(K)
    z = rng.standard_normal(grid.n_nodes)
    return GPSample(grid, L @ z)


@dataclass(frozen=True)
class MomentCheck:
    """Outcome of the exponential-moment condition probe."""

    converged: bool
    value: float
    delta: float
    shells: int


def check_exponential_moment(
    spec: KernelSpec, total_cap: float = 1e12, max_radius: float = 64.0
) -> MomentCheck:
    """Numerically evaluate ``integral exp(delta ||xi||) mu(d xi)``.

    Integrates outward over doubling radial shells; reports divergence when
    shell contributions stop decaying or the running total passes ``total_cap``
    (a polynomial tail tilted by any exponential blows through the cap long
    before floating-point overflow).
    """
    mu = spec.spectral_density
    if mu is None:
        raise ValueError("exponential-moment check requires a spectral density")
    delta = spec.delta
    area = _sphere_area(mu.dim)

    def shell(lo: float, hi: float) -> float:
        val, _ = _sci_integrate.quad(
            lambda r: math.exp(delta * r) * float(mu.radial(r)) * r ** (mu.dim - 1),
            lo,
            hi,
            limit=200,
        )
        return area * val

    total = shell(0.0, 1.0)
    prev = total
    lo, hi = 1.0, 2.0
    n_shells = 1
    while hi <= max_radius:
        contrib = shell(lo, hi)
        total += contrib
        n_shells += 1
        if total > total_cap:
            return MomentCheck(False, float("inf"), delta, n_shells)
        if contrib < 1e-12 * max(total, 1.0):
            return MomentCheck(True, total, delta, n_shells)
        if contrib > 0.5 * prev and n_shells > 3:
            return MomentCheck(False, float("inf"), delta, n_shells)
        prev = contrib
        lo, hi = hi, hi * 2.0
    # ran out of shells without the contributions dying: treat as divergent
    return MomentCheck(False, float("inf"), delta, n_shells)
