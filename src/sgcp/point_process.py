"""Point patterns on the unit cube, exact thinning simulation, and the
inhomogeneous-Poisson log-likelihood.

Intensity functions are represented on a regular grid over [0,1]^d (endpoints
included) and evaluated off-grid by multilinear interpolation. Integrals use
the tensor-product trapezoid rule on the same grid, which is exact for the
interpolant, so simulation, likelihood, and quadrature all share one function
definition.

The grid kernels (the interpolation stencil, the trapezoid weights and the
likelihood's sufficient statistics, which the sampler evaluates every move)
are vectorized numpy written for few calls: the arrays are small, one value
per grid node or data point. Each is deterministic, so a rerun with the same
inputs reproduces its output bit for bit. ``BACKEND`` names this arithmetic
path and is recorded in ``fit.json`` and in benchmark environments.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from functools import lru_cache
from pathlib import Path

import numpy as np
from scipy.special import expit as sigmoid

BACKEND = "numpy"
PATTERN_HEADER_TAG = "resolution-free"
# the one float format of every CSV table: round-trips a float64 exactly
FLOAT_FMT = "%.17g"


class DataError(ValueError):
    """Malformed or inconsistent observed-data input."""


@dataclass(frozen=True)
class Grid:
    """Regular evaluation grid on [0,1]^d with ``resolution`` nodes per axis."""

    dim: int
    resolution: int

    def __post_init__(self):
        if self.dim < 1:
            raise ValueError("dim must be a positive integer")
        if self.resolution < 2:
            raise ValueError("resolution must be at least 2")

    @property
    def n_nodes(self) -> int:
        return self.resolution**self.dim

    def nodes(self) -> np.ndarray:
        """Node coordinates, shape (n_nodes, dim), C-order (last axis fastest)."""
        axes = [np.linspace(0.0, 1.0, self.resolution)] * self.dim
        mesh = np.meshgrid(*axes, indexing="ij")
        return np.stack([m.ravel() for m in mesh], axis=1)


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
    bits, strides, offsets = _corner_table(dim, resolution)
    flat = np.add.outer(offsets, base @ strides)
    lohi = np.empty((2,) + x.shape)  # (2, n, dim): each axis's weight at bit 0 and 1
    np.subtract(1.0, np.subtract(x, floor, out=lohi[1]), out=lohi[0])
    w = lohi[bits[:, dim - 1], :, dim - 1]
    for a in range(dim - 2, -1, -1):  # each corner's weight multiplies axis d-1 first
        w *= lohi[bits[:, a], :, a]
    return flat, w


@lru_cache(maxsize=32)
def _corner_table(dim: int, resolution: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``(bits, strides, offsets)``: bit ``a`` of corner ``c`` at ``bits[c, a]``,
    the flat C-order stride of each axis, and each corner's offset ``bits @ strides``."""
    bits = (np.arange(1 << dim)[:, None] >> np.arange(dim)) & 1
    strides = resolution ** np.arange(dim - 1, -1, -1)
    offsets = bits @ strides
    for table in (bits, strides, offsets):
        table.setflags(write=False)
    return bits, strides, offsets


def interp_apply(values: np.ndarray, stencil: tuple[np.ndarray, np.ndarray]) -> np.ndarray:
    """Interpolate a flat C-order grid of ``values`` through a stencil."""
    flat, w = stencil
    corners = values.take(flat)
    corners *= w
    return np.add.reduce(corners, axis=0)


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


@dataclass(frozen=True)
class PointPattern:
    """A realized point pattern: finitely many points in [0,1]^d, as
    ``points`` of shape ``(n, dim)`` whose coordinates are finite."""

    dim: int
    points: np.ndarray

    def __post_init__(self):
        pts = np.asarray(self.points, dtype=np.float64)
        if pts.size == 0:
            pts = pts.reshape(0, self.dim)
        if pts.ndim != 2 or pts.shape[1] != self.dim:
            raise ValueError(f"points must have shape (n, {self.dim})")
        if not np.all(np.isfinite(pts)):
            raise ValueError("coordinates must be finite numbers")
        if pts.size and (pts.min() < 0.0 or pts.max() > 1.0):
            raise ValueError("all coordinates must lie in [0, 1]")
        object.__setattr__(self, "points", pts)

    @property
    def n(self) -> int:
        return self.points.shape[0]


@dataclass(frozen=True)
class IntensityField:
    """A finite, nonnegative intensity function sampled on a regular grid.

    ``values`` is flat in C order (last axis fastest) with one entry per grid
    node; off-grid evaluation is multilinear interpolation of these values.
    """

    grid: Grid
    values: np.ndarray

    def __post_init__(self):
        vals = np.ascontiguousarray(self.values, dtype=np.float64).ravel()
        if vals.shape[0] != self.grid.n_nodes:
            raise ValueError(
                f"expected {self.grid.n_nodes} values for the grid, got {vals.shape[0]}"
            )
        if not np.all(np.isfinite(vals)):
            raise ValueError("intensity values must be finite numbers")
        if vals.size and vals.min() < 0.0:
            raise ValueError("intensity values must be nonnegative")
        object.__setattr__(self, "values", vals)

    @property
    def dim(self) -> int:
        return self.grid.dim

    @property
    def resolution(self) -> int:
        return self.grid.resolution

    def at(self, pts: np.ndarray) -> np.ndarray:
        """Interpolated intensity at points, shape (n, dim) -> (n,)."""
        pts = np.asarray(pts, dtype=np.float64)
        if pts.ndim != 2 or pts.shape[1] != self.dim:
            raise ValueError(f"points must have shape (n, {self.dim})")
        return interp_apply(self.values, interp_stencil(self.dim, self.resolution, pts))


def simulate_thinning_batch(
    lambda_star: np.ndarray, values: np.ndarray, grid: Grid, rng: np.random.Generator
) -> tuple[np.ndarray, np.ndarray]:
    """Lewis–Shedler thinning of independent rounds, all at once.

    Round ``i`` thins a homogeneous candidate process of rate
    ``lambda_star[i]`` on [0,1]^d: each candidate survives with probability
    ``field_i(s)/lambda_star[i]``, ``field_i`` being the intensity with grid
    values ``values[i]`` (flat C order) interpolated off-grid. Exactness
    requires ``lambda_star[i] >= max(values[i])``.

    The draws come from ``rng`` in a fixed order: every round's candidate
    count, every candidate's coordinates, then every candidate's acceptance
    uniform. Returns ``(points, counts)``: the surviving points of all rounds,
    round by round, and how many each round kept.
    """
    lambda_star = np.asarray(lambda_star, dtype=np.float64)
    ceilings = lambda_star.tolist()
    for lam, peak in zip(ceilings, np.maximum.reduce(values, axis=1).tolist()):
        if not lam > 0.0:
            raise ValueError("lambda_star must be positive")
        if lam < peak:
            raise ValueError(f"thinning bound violated: lambda_star={lam} < max(field)={peak}")
    n = len(ceilings)
    # scalar draws: the same stream as an array draw, without its fixed cost
    n_cand = [rng.poisson(lam) for lam in ceilings]
    candidates = rng.random((sum(n_cand), grid.dim))
    if candidates.shape[0] == 0:
        return candidates, np.zeros(n, dtype=np.int64)
    rounds = np.repeat(np.arange(n), n_cand)
    flat, w = interp_stencil(grid.dim, grid.resolution, candidates)
    flat += rounds * grid.n_nodes  # offsets into the stacked rounds' values
    lam_at = interp_apply(values.reshape(-1), (flat, w))
    keep = rng.random(candidates.shape[0]) * lambda_star[rounds] < lam_at
    return candidates[keep], np.bincount(rounds[keep], minlength=n)


def simulate_thinning(
    lambda_star: float, field: IntensityField, rng: np.random.Generator
) -> PointPattern:
    """Draw an exact Poisson-process realization by Lewis–Shedler thinning.

    A homogeneous candidate process of rate ``lambda_star`` on [0,1]^d is
    thinned: each candidate survives with probability ``field(s)/lambda_star``,
    the field interpolated off-grid. Exactness requires ``lambda_star >=
    max(field)``. A batch of one of ``simulate_thinning_batch``, so the draw is
    deterministic given the state of ``rng``.
    """
    points, _ = simulate_thinning_batch(
        np.array([lambda_star], dtype=np.float64), field.values[None, :], field.grid, rng)
    return PointPattern(field.dim, points)


def integrate_field(field: IntensityField) -> float:
    """Trapezoid-rule integral of the field over [0,1]^d.

    Exact for multilinear fields, hence exact for the interpolant that the
    simulator and likelihood both use.
    """
    w = trapezoid_weights(field.dim, field.resolution)
    return float(w @ field.values)


def log_likelihood(patterns, field: IntensityField) -> float:
    """Poisson-process log-likelihood of independent patterns under one field.

    Computed w.r.t. the unit-rate process as
    ``sum_i [ sum_{x in N^i} log lambda(x) - integral(lambda - 1) ]``
    with ``lambda`` interpolated at the observed points. Returns ``-inf``
    when the field vanishes at an observed point, so invalid MCMC proposals
    are rejected naturally rather than raising.
    """
    patterns = list(patterns)
    for p in patterns:
        if p.dim != field.dim:
            raise ValueError(f"pattern dim {p.dim} does not match field dim {field.dim}")
    integral = integrate_field(field)
    total = -len(patterns) * (integral - 1.0)
    all_pts = [p.points for p in patterns if p.n > 0]
    if all_pts:
        pts = np.concatenate(all_pts, axis=0)
        lam = field.at(pts)
        if np.any(lam <= 0.0):
            return float("-inf")
        total += float(np.sum(np.log(lam)))
    return total


def sgcp_suffstats(
    g: np.ndarray,
    weights: np.ndarray,
    stencil: tuple[np.ndarray, np.ndarray],
) -> tuple[float, float]:
    """Likelihood sufficient statistics of a latent field draw: the sampler's
    form of ``log_likelihood``.

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


# ---------------------------------------------------------------------------
# Output files and the CSV wire formats
#
# Every CSV table the commands write goes through write_table, and is read
# back through read_table, and every JSON file goes through write_json, in
# UTF-8 with "\n" line endings and floats as FLOAT_FMT.
#
# PointPattern: optional leading '#' metadata comments, then the header line
# "<dim>,resolution-free", then one row per point with dim coordinate columns.
# IntensityField: same comment convention, header "<dim>,<resolution>", then
# the grid values one per line in row-major (C) order.


def write_table(path, meta: dict, header, rows) -> None:
    """The one CSV table writer: the ``# key=value`` block, the comma-joined
    ``header``, then one comma-joined line per row, in UTF-8 with ``\\n`` line
    endings. Floats are written as ``FLOAT_FMT``, everything else as ``str``;
    the row format is built once, from the types of the first row."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.writelines(f"# {key}={meta[key]}\n" for key in sorted(meta))
        fh.write(",".join(map(str, header)) + "\n")
        row_fmt = None
        for row in rows:
            if row_fmt is None:
                row_fmt = ",".join(FLOAT_FMT if isinstance(v, float) else "%s"
                                   for v in row) + "\n"
            fh.write(row_fmt % tuple(row))


def write_json(obj, path) -> None:
    """The one JSON writer: sorted keys, two-space indent, a final newline."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(obj, fh, sort_keys=True, indent=2)
        fh.write("\n")


def read_table(path):
    """The one CSV table reader, the inverse of ``write_table``: the file is
    read in one call, and each line that is not blank and not a ``#`` comment
    is kept stripped, as ``(lineno, line)``. Returns the first such line, the
    header, and the list of the rest, the rows."""
    path = Path(path)
    try:
        text = path.read_text(encoding="utf-8")
    except OSError as exc:
        raise DataError(f"cannot read {path}: {exc.strerror}") from None
    except UnicodeDecodeError as exc:
        raise DataError(f"{path}: not UTF-8 text ({exc.reason})") from None
    # read_text turns \r\n and \r into \n, as iterating the file did
    lines = [(lineno, line) for lineno, line in enumerate(map(str.strip, text.split("\n")), 1)
             if line and not line.startswith("#")]
    if not lines:
        raise DataError(f"{path}: empty file, missing header")
    return lines[0], lines[1:]


def write_pattern_csv(pattern: PointPattern, path, meta: dict) -> None:
    write_table(path, meta, (pattern.dim, PATTERN_HEADER_TAG), pattern.points.tolist())


def read_pattern_csv(path) -> PointPattern:
    path = Path(path)
    (lineno, line), rows = read_table(path)
    parts = line.split(",")
    if len(parts) != 2 or parts[1] != PATTERN_HEADER_TAG:
        raise DataError(
            f"{path}:{lineno}: expected header '<dim>,{PATTERN_HEADER_TAG}', got {line!r}"
        )
    try:
        dim = int(parts[0])
    except ValueError:
        raise DataError(f"{path}:{lineno}: dim is not an integer: {parts[0]!r}")
    if dim < 1:
        raise DataError(f"{path}:{lineno}: dim must be at least 1, got {dim}")
    points = []
    for lineno, line in rows:
        parts = line.split(",")
        if len(parts) != dim:
            raise DataError(f"{path}:{lineno}: expected {dim} coordinates, got {len(parts)}")
        try:
            points.append([float(v) for v in parts])
        except ValueError:
            raise DataError(f"{path}:{lineno}: non-numeric coordinate in {line!r}")
    try:
        return PointPattern(dim, points)
    except ValueError as exc:
        raise DataError(f"{path}: {exc}")


def write_field_csv(field: IntensityField, path, meta: dict) -> None:
    write_table(path, meta, (field.dim, field.resolution), field.values[:, None].tolist())


def read_field_csv(path) -> IntensityField:
    path = Path(path)
    (lineno, line), rows = read_table(path)
    parts = line.split(",")
    if len(parts) != 2:
        raise DataError(f"{path}:{lineno}: expected header '<dim>,<resolution>'")
    try:
        header = (int(parts[0]), int(parts[1]))
    except ValueError:
        raise DataError(f"{path}:{lineno}: non-integer header fields: {line!r}")
    values = []
    for lineno, line in rows:
        try:
            values.append(float(line))
        except ValueError:
            raise DataError(f"{path}:{lineno}: non-numeric grid value {line!r}")
    try:
        return IntensityField(Grid(*header), np.asarray(values))
    except ValueError as exc:
        raise DataError(f"{path}: {exc}")
