"""Distances between intensity fields.

The working metric is the L2 distance between square roots,
``d(a, b) = ( integral (sqrt a - sqrt b)^2 ds )^(1/2)``, evaluated with the
same tensor-product trapezoid rule the rest of the package uses, so constants
are handled exactly.
"""

from __future__ import annotations

import numpy as np

from ._accel import trapezoid_weights
from .point_process import IntensityField


def _check_same_grid(a: IntensityField, b: IntensityField) -> None:
    if a.grid != b.grid:
        raise ValueError("intensity fields live on different grids")


def sqrt_l2_distance(a: IntensityField, b: IntensityField) -> float:
    """Root of the integrated squared difference of square-root intensities."""
    _check_same_grid(a, b)
    w = trapezoid_weights(a.dim, a.resolution)
    diff = np.sqrt(a.values) - np.sqrt(b.values)
    return float(np.sqrt(w @ (diff * diff)))


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


def credible_radius(distances: np.ndarray, q: float) -> float:
    """Empirical q-quantile of posterior draw distances (radius of the
    smallest centered ball holding mass q)."""
    if not (0.0 < q < 1.0):
        raise ValueError("quantile must lie in (0, 1)")
    return float(np.quantile(np.asarray(distances, dtype=np.float64), q))
