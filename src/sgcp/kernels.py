"""The latent covariance, exact sampling on grids, and its spectral checks.

The latent field's covariance is the rescaled squared exponential
``k(s,t) = exp(-ell^2 ||t-s||^2)``; it is the only covariance the program
builds. It is a product over the axes, so on the tensor grid ``[0,1]^d`` with
``r`` nodes per axis the covariance is ``K = K1 ⊗ ... ⊗ K1``, ``K1`` being the
r×r covariance of one axis, and ``L = L1 ⊗ ... ⊗ L1`` with ``L1`` the
Cholesky factor of ``K1 + jitter I`` is a square root of
``(K1 + jitter I) ⊗ ... ⊗ (K1 + jitter I)`` (Saatçi 2012). Field values are
made from white noise by ``apply_factor``, d products with ``L1``, so no
r^d × r^d matrix is ever filled or factored.

Its spectral form, the Fourier transform of an isotropic spectral density
``mu``::

    k(s,t) = Re  integral  exp(-i <xi, ell (t-s)>) mu(xi) dxi

serves only to check the conditions of the contraction theory: the Gaussian
spectral family with per-axis standard deviation sqrt(2) reproduces the
closed form exactly, and the exponential moment of ``mu`` must be finite. A
heavy-tailed Cauchy family is included to exercise the exponential-moment
check's divergent branch; it is not kernel-grade (infinite second moment).
The adaptive quadrature these checks use, ``scipy.integrate``, is imported on
first use, so the sampler's import path does not load it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy.linalg import lapack as _lapack

from .point_process import Grid

MAX_DENSE_NODES = 4096
JITTER_START = 1e-10
JITTER_MAX = 1e-6

# Gauss-Hermite nodes per axis of the Gaussian-family spectral quadrature
GH_NODES = 80
# the exponential-moment probe reports divergence once its running total
# passes MOMENT_TOTAL_CAP or its shells reach MOMENT_MAX_RADIUS
MOMENT_TOTAL_CAP = 1e12
MOMENT_MAX_RADIUS = 64.0


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
    infinite) value of E||xi||^2; both are recorded explicitly. Both families
    have a radial density that decreases in r, so ``a -> mu(a xi)`` is
    decreasing in a > 0.
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

    def radial(self, r) -> np.ndarray:
        """Density value at any point with ``||xi|| = r``."""
        r = np.asarray(r, dtype=np.float64)
        d = self.dim
        if self.name == "gaussian":
            norm = (2.0 * math.pi * self.sigma**2) ** (-d / 2.0)
            return norm * np.exp(-(r * r) / (2.0 * self.sigma**2))
        norm = math.gamma((d + 1) / 2.0) / (math.gamma(0.5) * math.pi ** (d / 2.0))
        return norm * (1.0 + r * r) ** (-(d + 1) / 2.0)


@lru_cache(maxsize=8)
def _hermgauss(n: int):
    x, w = np.polynomial.hermite.hermgauss(n)
    return x, w


def spectral_characteristic(mu: SpectralDensity, ell: float, lag: np.ndarray) -> complex:
    """Complex value of ``integral exp(-i <xi, ell*lag>) mu(xi) dxi``.

    Gaussian family: tensorized Gauss-Hermite (spectrally accurate). Other
    isotropic families: adaptive cosine quadrature, d = 1 only.
    """
    lag = np.atleast_1d(np.asarray(lag, dtype=np.float64))
    if lag.shape != (mu.dim,):
        raise ValueError(f"lag must have shape ({mu.dim},)")
    a = ell * lag
    if mu.name == "gaussian":
        u, w = _hermgauss(GH_NODES)
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
    from scipy import integrate

    # even isotropic density: the transform is real, 2 * int_0^inf mu(r) cos(a r) dr
    freq = abs(float(a[0]))
    if freq == 0.0:
        val, err = integrate.quad(lambda r: mu.radial(r), 0.0, np.inf, limit=200)
    else:
        val, err = integrate.quad(
            lambda r: mu.radial(r), 0.0, np.inf, weight="cos", wvar=freq, limit=200
        )
    if not np.isfinite(val) or err > 1e-8:
        raise QuadratureError(f"spectral quadrature error estimate {err:.2e} too large")
    return complex(2.0 * val, 0.0)


def spectral_covariance_quadrature(mu: SpectralDensity, ell: float, lag: np.ndarray) -> float:
    """Real part of the spectral-form covariance at the given lag."""
    return spectral_characteristic(mu, ell, lag).real


def kernel_eval(ell: float, s, t) -> float:
    """Covariance between field values at points ``s`` and ``t``, pair by pair.

    The reference that ``cov_matrix`` is tested against.
    """
    s = np.atleast_1d(np.asarray(s, dtype=np.float64))
    t = np.atleast_1d(np.asarray(t, dtype=np.float64))
    if s.shape != t.shape:
        raise ValueError("s and t must have the same dimension")
    h2 = float(np.sum((t - s) ** 2))
    return math.exp(-ell**2 * h2)


def cov_matrix(ell: float, points: np.ndarray) -> np.ndarray:
    """Dense covariance matrix ``exp(-ell^2 ||s-t||^2)`` on point pairs.

    The squared distances are summed from per-axis differences, so the matrix
    is exactly symmetric with an exact unit diagonal and no cancellation.
    """
    points = np.asarray(points, dtype=np.float64)
    d2 = None
    for axis in points.T:
        diff = np.subtract.outer(axis, axis)
        d2 = diff * diff if d2 is None else d2 + diff * diff
    d2 *= -(ell * ell)
    return np.exp(d2, out=d2)


def chol_with_jitter(K: np.ndarray) -> tuple[np.ndarray, float]:
    """Lower Cholesky factor with an escalating diagonal jitter.

    Starts at 1e-10 and multiplies by 10 up to 1e-6; squared-exponential Gram
    matrices are ill-conditioned enough that a bare factorization is not
    attempted. Each level adds the jitter to the diagonal of a Fortran-ordered
    copy of ``K`` and factors it in place with LAPACK ``dpotrf``. Returns the
    factor and the jitter it needed; raises FactorizationError if every level
    fails.
    """
    m = K.shape[0]
    jitter = JITTER_START
    while jitter <= JITTER_MAX * (1.0 + 1e-12):
        A = np.array(K, dtype=np.float64, order="F")
        A.flat[::m + 1] += jitter
        L, info = _lapack.dpotrf(A, lower=1, clean=1, overwrite_a=1)
        if info == 0:
            return L, jitter
        jitter *= 10.0
    raise FactorizationError(
        f"Cholesky failed for {m}x{m} covariance after jitter escalation to {JITTER_MAX:g}"
    )


def apply_factor(L1: np.ndarray, white: np.ndarray, dim: int) -> np.ndarray:
    """``(L1 ⊗ ... ⊗ L1) @ white`` with ``dim`` factors, by mode products.

    ``white`` holds one value per node of the tensor grid, in the C order of
    ``Grid.nodes``. Each pass multiplies the leading axis by ``L1`` and moves
    it to the back, so after ``dim`` passes every axis is transformed and
    back in place. At ``dim == 1`` this is ``L1 @ white``.
    """
    if dim == 1:
        return L1 @ white
    r = L1.shape[0]
    x = white
    for _ in range(dim):
        x = (L1 @ x.reshape(r, -1)).T
    return x.ravel()


def sample_gp(ell: float, grid: Grid, rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    """Exact zero-mean GP draw on the grid through the Kronecker factor.

    Returns ``(white, g)``: the standard normal draw taken from ``rng`` and
    the field ``g = (L1 ⊗ ... ⊗ L1) @ white`` at the grid nodes, ``L1`` the
    Cholesky factor of the covariance on one axis.
    """
    if grid.n_nodes > MAX_DENSE_NODES:
        raise ValueError(
            f"grid has {grid.n_nodes} nodes; GP draws are guarded at {MAX_DENSE_NODES}"
        )
    L1, _ = chol_with_jitter(cov_matrix(ell, Grid(1, grid.resolution).nodes()))
    white = rng.standard_normal(grid.n_nodes)
    return white, apply_factor(L1, white, grid.dim)


@dataclass(frozen=True)
class MomentCheck:
    """Outcome of the exponential-moment condition probe."""

    converged: bool
    value: float
    delta: float
    shells: int


def check_exponential_moment(mu: SpectralDensity, delta: float) -> MomentCheck:
    """Numerically evaluate ``integral exp(delta ||xi||) mu(d xi)`` for a tilt ``delta > 0``.

    Integrates outward over doubling radial shells; reports divergence when
    shell contributions stop decaying or the running total passes
    ``MOMENT_TOTAL_CAP`` (a polynomial tail tilted by any exponential blows
    through the cap long before floating-point overflow).
    """
    if not delta > 0.0:
        raise ValueError(f"delta must be positive, got {delta}")
    from scipy import integrate

    area = _sphere_area(mu.dim)

    def shell(lo: float, hi: float) -> float:
        val, _ = integrate.quad(
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
    while hi <= MOMENT_MAX_RADIUS:
        contrib = shell(lo, hi)
        total += contrib
        n_shells += 1
        if total > MOMENT_TOTAL_CAP:
            return MomentCheck(False, float("inf"), delta, n_shells)
        if contrib < 1e-12 * max(total, 1.0):
            return MomentCheck(True, total, delta, n_shells)
        if contrib > 0.5 * prev and n_shells > 3:
            return MomentCheck(False, float("inf"), delta, n_shells)
        prev = contrib
        lo, hi = hi, hi * 2.0
    # ran out of shells without the contributions dying: treat as divergent
    return MomentCheck(False, float("inf"), delta, n_shells)
