"""Distances between intensity fields, and the contraction of a posterior.

The working metric is the L2 distance between square roots,
``d(a, b) = ( integral (sqrt a - sqrt b)^2 ds )^(1/2)``, evaluated with the
same tensor-product trapezoid rule the rest of the package uses, so constants
are handled exactly.
"""

from __future__ import annotations

import numpy as np

from .point_process import IntensityField, trapezoid_weights

# posterior mass of the credible ball whose radius a contraction run reports
CREDIBLE_LEVEL = 0.9


def distances_to_truth(intensity_draws: np.ndarray, truth: IntensityField) -> np.ndarray:
    """Vectorized square-root distance of each posterior draw to the truth.

    ``intensity_draws`` has one draw per row, on the truth's grid.
    """
    draws = np.asarray(intensity_draws, dtype=np.float64)
    if draws.ndim != 2 or draws.shape[1] != truth.grid.n_nodes:
        raise ValueError("draw matrix does not match the truth grid")
    if np.any(draws < 0.0):
        raise ValueError("intensity draws must be nonnegative")
    w = trapezoid_weights(truth.dim, truth.resolution)
    diff = np.sqrt(draws) - np.sqrt(truth.values)[None, :]
    return np.sqrt((diff * diff) @ w)


def contraction(intensity_draws: np.ndarray, truth: IntensityField) -> tuple[float, float]:
    """``(distance_mean, credible_radius_090)`` of posterior draws around the truth.

    ``distance_mean`` is the distance of the draws' mean to the truth, and
    ``credible_radius_090`` the ``CREDIBLE_LEVEL`` quantile of the per-draw
    distances: the radius of the smallest ball around the truth that holds
    that share of the draws.
    """
    dists = distances_to_truth(intensity_draws, truth)  # checks the draw matrix
    mean = np.mean(intensity_draws, axis=0)[None, :]
    return float(distances_to_truth(mean, truth)[0]), float(np.quantile(dists, CREDIBLE_LEVEL))
