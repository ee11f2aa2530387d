"""The latent covariance, its factor on grids, and its spectral checks.

The latent field's covariance is the rescaled squared exponential
``k(s,t) = exp(-ell^2 ||t-s||^2)``; it is the only covariance the program
builds. It is a product over the axes, so on the tensor grid ``[0,1]^d`` with
``r`` nodes per axis the covariance is ``K = K1 ⊗ ... ⊗ K1``, ``K1`` being the
r×r covariance of one axis, and ``L = L1 ⊗ ... ⊗ L1`` with ``L1`` the
Cholesky factor of ``K1 + jitter I`` is a square root of
``(K1 + jitter I) ⊗ ... ⊗ (K1 + jitter I)`` (Saatçi 2012). Field values are
made from white noise by ``apply_factor``, d products with ``L1``, so no
r^d × r^d matrix is ever filled or factored.

Its spectral form, the Fourier transform of the Gaussian spectral density
``mu`` with per-axis standard deviation ``SPECTRAL_SIGMA = sqrt(2)``, is real
because ``mu`` is symmetric::

    k(s,t) = integral  cos(<xi, ell (t-s)>) mu(xi) dxi

It serves only to check the conditions of the contraction theory: tensorized
Gauss-Hermite quadrature of that integral reproduces the closed form, and the
exponential moment ``integral exp(delta ||xi||) mu(d xi)`` the theory needs
finite is bounded in closed form by ``exponential_moment_log_bound``.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np
from scipy.linalg import lapack as _lapack

from .point_process import Grid

# the largest grid, in nodes, that the sampler and the prior draws accept
MAX_GRID_NODES = 4096
JITTER_START = 1e-10
JITTER_MAX = 1e-6

# Gauss-Hermite nodes per axis of the spectral quadrature
GH_NODES = 80
# per-axis standard deviation of the Gaussian spectral density of the covariance
SPECTRAL_SIGMA = math.sqrt(2.0)


class FactorizationError(RuntimeError):
    """Covariance factorization failed after maximum jitter escalation."""


@lru_cache(maxsize=8)
def _hermgauss(n: int):
    x, w = np.polynomial.hermite.hermgauss(n)
    return x, w


def spectral_covariance_quadrature(ell: float, lag: np.ndarray) -> float:
    """``integral cos(<xi, ell*lag>) mu(xi) dxi`` by tensorized Gauss-Hermite
    quadrature (spectrally accurate): ``mu`` is a product of symmetric
    Gaussians, so the transform is a product of one cosine sum per axis. The
    dimension of ``mu`` is the length of ``lag``."""
    lag = np.atleast_1d(np.asarray(lag, dtype=np.float64))
    if lag.ndim != 1 or lag.size == 0:
        raise ValueError(f"lag must be a non-empty vector, got shape {lag.shape}")
    u, w = _hermgauss(GH_NODES)
    scale = math.sqrt(2.0) * SPECTRAL_SIGMA * u
    out = 1.0
    for a in (ell * lag).tolist():
        out *= float(np.sum(w * np.cos(scale * a))) / math.sqrt(math.pi)
    return out


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


@lru_cache(maxsize=8)
def _axis_sq_dists(resolution: int) -> np.ndarray:
    """Read-only squared distances between the nodes of one grid axis."""
    nodes = Grid(1, resolution).nodes()[:, 0]
    diff = np.subtract.outer(nodes, nodes)
    d2 = diff * diff
    d2.setflags(write=False)
    return d2


def cov_matrix(ell: float, resolution: int) -> np.ndarray:
    """The r×r covariance ``exp(-ell^2 (s-t)^2)`` between the ``resolution``
    nodes of one grid axis, the factor ``K1`` of the grid's covariance.

    The squared distances depend only on the resolution and are cached by it,
    so a call is one multiply and one ``exp`` into a fresh matrix, exactly
    symmetric with an exact unit diagonal. When ``ell * ell`` overflows, the
    matrix is the identity that the finite limit gives, not the ``0 * inf``
    NaN the product would put on its diagonal.
    """
    ell2 = ell * ell
    if ell2 == math.inf:
        return np.eye(resolution)
    K = _axis_sq_dists(resolution) * -ell2
    return np.exp(K, out=K)


def chol_with_jitter(K: np.ndarray) -> tuple[np.ndarray, float]:
    """Lower Cholesky factor with an escalating diagonal jitter.

    ``K`` must be exactly symmetric, as ``cov_matrix`` fills it. Starts at
    1e-10 and multiplies by 10 up to 1e-6; squared-exponential Gram matrices
    are ill-conditioned enough that a bare factorization is not attempted.
    Each level adds the jitter to the diagonal of a C-ordered copy of ``K``,
    whose transpose is, by symmetry, the Fortran-ordered ``K`` that LAPACK
    ``dpotrf`` factors in place, and reports success on a NaN matrix. Returns
    the factor and the jitter it needed; raises FactorizationError if every
    level fails, or if the factor is not finite: a NaN anywhere in the lower
    triangle reaches the last diagonal entry, so that one entry is checked.
    """
    m = K.shape[0]
    jitter = JITTER_START
    while jitter <= JITTER_MAX * (1.0 + 1e-12):
        A = np.array(K, dtype=np.float64, order="C")
        A.reshape(-1)[::m + 1] += jitter
        L, info = _lapack.dpotrf(A.T, lower=1, clean=1, overwrite_a=1)
        if info == 0:
            if not math.isfinite(L[m - 1, m - 1]):
                raise FactorizationError(f"Cholesky factor of the {m}x{m} covariance "
                                         "is not finite")
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


def check_grid(grid: Grid) -> None:
    """Refuse a grid above ``MAX_GRID_NODES`` nodes, before anything is drawn."""
    if grid.n_nodes > MAX_GRID_NODES:
        raise ValueError(f"grid has {grid.n_nodes} nodes; the sampler and prior draws "
                         f"are guarded at {MAX_GRID_NODES}")


def gp_field(ell: float, grid: Grid, white: np.ndarray) -> np.ndarray:
    """The prior field ``g = (L1 ⊗ ... ⊗ L1) @ white`` at the grid nodes,
    ``L1`` the Cholesky factor of the covariance on one axis."""
    L1, _ = chol_with_jitter(cov_matrix(ell, grid.resolution))
    return apply_factor(L1, white, grid.dim)


def exponential_moment_log_bound(dim: int, delta: float) -> float:
    """Log of an upper bound on ``integral exp(delta ||xi||) mu(d xi)`` for the
    spectral density ``mu`` on R^dim, ``delta > 0``.

    ``||xi|| <= sum |xi_i|`` and the axes are independent, so the moment is at
    most ``(E exp(delta |xi_1|))^dim = (2 exp(sigma^2 delta^2 / 2) Phi(sigma delta))^dim``
    with ``sigma = SPECTRAL_SIGMA``, with equality at dim = 1. Evaluated in log
    space, with ``2 Phi(x) = erfc(-x / sqrt 2)``, so no finite tilt overflows; a
    tilt that is not a positive finite number, or whose bound is not finite,
    raises ``ValueError``.
    """
    if not 0.0 < delta < math.inf:
        raise ValueError(f"exponential-moment tilt must be positive and finite, got {delta}")
    t = SPECTRAL_SIGMA * delta
    log_bound = dim * (0.5 * t * t + math.log(math.erfc(-t / math.sqrt(2.0))))
    if not math.isfinite(log_bound):
        raise ValueError(f"exponential-moment tilt {delta} is too large for a finite bound")
    return log_bound
