"""Hot numeric kernels of the sampler, as vectorized numpy array code.

Every kernel is deterministic, so a rerun with the same inputs reproduces its
output bit for bit. ``BACKEND`` names the arithmetic path and is recorded in
``fit.json`` and in benchmark environments.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

BACKEND = "numpy"


def sigmoid(x: np.ndarray) -> np.ndarray:
    """Numerically stable logistic function, elementwise.

    ``exp`` only ever sees ``-|x|``, so it cannot overflow.
    """
    e = np.exp(-np.abs(x))
    d = 1.0 + e
    return np.where(x >= 0, 1.0 / d, e / d)


def interp_stencil(
    dim: int, resolution: int, pts: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Multilinear interpolation stencil of a regular grid at ``pts`` in [0,1]^d.

    Returns ``(flat, w)``, both of shape ``(2**dim, n)``: row ``c`` holds the
    flat C-order node index and the weight of corner ``c`` for every point.
    The stencil depends only on the points, so a caller that interpolates many
    fields at fixed points builds it once.
    """
    n = pts.shape[0]
    x = pts * (resolution - 1)
    base = np.floor(x).astype(np.int64)
    np.clip(base, 0, resolution - 2, out=base)
    frac = x - base
    flat = np.zeros((1 << dim, n), dtype=np.int64)
    w = np.ones((1 << dim, n))
    for corner in range(1 << dim):
        stride = 1
        for a in range(dim - 1, -1, -1):
            bit = (corner >> a) & 1
            w[corner] *= frac[:, a] if bit else 1.0 - frac[:, a]
            flat[corner] += (base[:, a] + bit) * stride
            stride *= resolution
    return flat, w


def interp_apply(values: np.ndarray, stencil: tuple[np.ndarray, np.ndarray]) -> np.ndarray:
    """Interpolate a flat C-order grid of ``values`` through a stencil."""
    flat, w = stencil
    out = np.zeros(flat.shape[1])
    for corner in range(flat.shape[0]):
        out += w[corner] * values[flat[corner]]
    return out


def interp_multilinear(
    values: np.ndarray, dim: int, resolution: int, pts: np.ndarray
) -> np.ndarray:
    """Multilinear interpolation of a flat C-order grid at ``pts`` in [0,1]^d."""
    return interp_apply(values, interp_stencil(dim, resolution, pts))


def sgcp_suffstats(
    g: np.ndarray,
    weights: np.ndarray,
    stencil: tuple[np.ndarray, np.ndarray],
) -> tuple[float, float]:
    """Likelihood sufficient statistics of a latent field draw.

    Returns ``(sum_log_s, int_s)`` where ``s = sigmoid(g)`` on the grid,
    ``sum_log_s`` sums ``log s`` interpolated at the observed points (given
    by their ``interp_stencil``) and ``int_s`` is the trapezoid integral of
    ``s``. The intensity never enters: ``lambda = lambda_star * s`` scales out
    of both statistics.
    """
    s = sigmoid(g)
    int_s = float(weights @ s)
    if stencil[0].shape[1] == 0:
        return 0.0, int_s
    sv = interp_apply(s, stencil)
    with np.errstate(divide="ignore"):
        sum_log = float(np.sum(np.log(sv)))
    return sum_log, int_s


def sq_exp_cov(nodes: np.ndarray, ell: float) -> np.ndarray:
    """Squared-exponential covariance exp(-ell^2 ||s-t||^2) on node pairs."""
    sq = np.sum(nodes * nodes, axis=1)
    d2 = sq[:, None] + sq[None, :] - 2.0 * (nodes @ nodes.T)
    np.maximum(d2, 0.0, out=d2)
    return np.exp(-(ell * ell) * d2)


@lru_cache(maxsize=32)
def trapezoid_weights(dim: int, resolution: int) -> np.ndarray:
    """Tensor-product trapezoid weights for the regular grid, flat C-order."""
    h = 1.0 / (resolution - 1)
    w1 = np.full(resolution, h)
    w1[0] = w1[-1] = h / 2.0
    w = w1
    for _ in range(dim - 1):
        w = np.multiply.outer(w, w1)
    out = np.ascontiguousarray(w.ravel())
    out.setflags(write=False)
    return out
