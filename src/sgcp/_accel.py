"""Hot numeric kernels of the sampler, as vectorized numpy array code.

The arrays are small (one value per grid node or data point), so each kernel
is written to make as few numpy calls as it can: the logistic function is
the single ufunc ``scipy.special.expit``, and the log-sum tests for a zero
link value once instead of entering an ``np.errstate`` context.

Every kernel is deterministic, so a rerun with the same inputs reproduces its
output bit for bit. ``BACKEND`` names the arithmetic path and is recorded in
``fit.json`` and in benchmark environments.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np
from scipy.special import expit

BACKEND = "numpy"


def sigmoid(x: np.ndarray) -> np.ndarray:
    """Logistic function, elementwise; saturates to 0 and 1 without overflow."""
    return expit(x)


def interp_stencil(
    dim: int, resolution: int, pts: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Multilinear interpolation stencil of a regular grid at ``pts`` in [0,1]^d.

    Returns ``(flat, w)``, both of shape ``(2**dim, n)``: row ``c`` holds the
    flat C-order node index and the weight of corner ``c`` for every point.
    The stencil depends only on the points, so a caller that interpolates many
    fields at fixed points builds it once.
    """
    x = pts * (resolution - 1)
    floor = np.floor(x)
    np.fmax(floor, 0.0, out=floor)  # in place: np.clip's wrapper dominates small calls
    np.fmin(floor, resolution - 2, out=floor)
    base = floor.astype(np.int64)
    frac = x - floor
    bits, strides = _corner_table(dim, resolution)
    flat = np.add.outer(bits @ strides, base @ strides)
    lohi = np.stack((1.0 - frac, frac))  # (2, n, dim): each axis's weight at bit 0 and 1
    w = lohi[bits[:, dim - 1], :, dim - 1]
    for a in range(dim - 2, -1, -1):  # each corner's weight multiplies axis d-1 first
        w *= lohi[bits[:, a], :, a]
    return flat, w


@lru_cache(maxsize=32)
def _corner_table(dim: int, resolution: int) -> tuple[np.ndarray, np.ndarray]:
    """``(bits, strides)``: bit ``a`` of corner ``c`` at ``bits[c, a]``, and
    the flat C-order stride of each axis."""
    bits = (np.arange(1 << dim)[:, None] >> np.arange(dim)) & 1
    strides = resolution ** np.arange(dim - 1, -1, -1)
    bits.setflags(write=False)
    strides.setflags(write=False)
    return bits, strides


def interp_apply(values: np.ndarray, stencil: tuple[np.ndarray, np.ndarray]) -> np.ndarray:
    """Interpolate a flat C-order grid of ``values`` through a stencil."""
    flat, w = stencil
    corners = values.take(flat)
    corners *= w
    return np.add.reduce(corners, axis=0)


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
    of both statistics. A link value that underflows to 0 (or is NaN) at a
    data point gives ``sum_log_s = -inf``, without a floating-point warning.
    """
    s = sigmoid(g)
    int_s = float(weights @ s)
    if stencil[0].shape[1] == 0:
        return 0.0, int_s
    sv = interp_apply(s, stencil)
    if not np.minimum.reduce(sv) > 0.0:
        return -math.inf, int_s
    return float(np.add.reduce(np.log(sv, out=sv))), int_s


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
