"""Point patterns on the unit cube, exact thinning simulation, and the
inhomogeneous-Poisson log-likelihood.

Intensity functions are represented on a regular grid over [0,1]^d (endpoints
included) and evaluated off-grid by multilinear interpolation. Integrals use
the tensor-product trapezoid rule on the same grid, which is exact for the
interpolant, so simulation, likelihood, and quadrature all share one function
definition.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from ._accel import interp_apply, interp_stencil, trapezoid_weights

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


@dataclass(frozen=True)
class PointPattern:
    """A realized point pattern: finitely many points in [0,1]^d.

    Parameters
    ----------
    dim : int
        Dimension of the domain.
    points : np.ndarray
        Array of shape (n, dim); every coordinate must be finite and lie in
        [0, 1].
    """

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
    thinned: each candidate survives with probability ``field(s)/lambda_star``.
    Exactness requires ``lambda_star >= max(field)``. A batch of one of
    ``simulate_thinning_batch``.

    Parameters
    ----------
    lambda_star : float
        Dominating intensity for the candidate process.
    field : IntensityField
        Target intensity (interpolated off-grid).
    rng : np.random.Generator
        Seeded random source; the draw is deterministic given its state.
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


# ---------------------------------------------------------------------------
# Output files and the CSV wire formats
#
# Every CSV table the commands write goes through write_table and every JSON
# file through write_json, in UTF-8 with "\n" line endings and floats as
# FLOAT_FMT.
#
# PointPattern: optional leading '#' metadata comments, then the header line
# "<dim>,resolution-free", then one row per point with dim coordinate columns.
# IntensityField: same comment convention, header "<dim>,<resolution>", then
# the grid values one per line in row-major (C) order.


def _write_meta(fh, meta: dict) -> None:
    for key in sorted(meta):
        fh.write(f"# {key}={meta[key]}\n")


def write_table(path, meta: dict, header, rows) -> None:
    """The one CSV table writer: the ``# key=value`` block, the comma-joined
    ``header``, then one comma-joined line per row, in UTF-8 with ``\\n`` line
    endings. Floats are written as ``FLOAT_FMT``, everything else as ``str``;
    the row format is built once, from the types of the first row."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        _write_meta(fh, meta)
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


def _data_lines(path: Path):
    """Yield ``(lineno, line)`` for the stripped, non-blank, non-comment lines of a file."""
    try:
        fh = path.open(encoding="utf-8")
    except OSError as exc:
        raise DataError(f"cannot read {path}: {exc.strerror}") from None
    with fh:
        try:
            for lineno, line in enumerate(fh, start=1):
                line = line.strip()
                if line and not line.startswith("#"):
                    yield lineno, line
        except UnicodeDecodeError as exc:
            raise DataError(f"{path}: not UTF-8 text ({exc.reason})") from None


def write_pattern_csv(pattern: PointPattern, path, meta: dict) -> None:
    write_table(path, meta, (pattern.dim, PATTERN_HEADER_TAG), pattern.points.tolist())


def read_pattern_csv(path) -> PointPattern:
    path = Path(path)
    header = None
    rows = []
    for lineno, line in _data_lines(path):
        if header is None:
            parts = line.split(",")
            if len(parts) != 2 or parts[1] != PATTERN_HEADER_TAG:
                raise DataError(
                    f"{path}:{lineno}: expected header '<dim>,{PATTERN_HEADER_TAG}', got {line!r}"
                )
            try:
                header = int(parts[0])
            except ValueError:
                raise DataError(f"{path}:{lineno}: dim is not an integer: {parts[0]!r}")
            if header < 1:
                raise DataError(f"{path}:{lineno}: dim must be at least 1, got {header}")
            continue
        parts = line.split(",")
        if len(parts) != header:
            raise DataError(
                f"{path}:{lineno}: expected {header} coordinates, got {len(parts)}"
            )
        try:
            rows.append([float(v) for v in parts])
        except ValueError:
            raise DataError(f"{path}:{lineno}: non-numeric coordinate in {line!r}")
    if header is None:
        raise DataError(f"{path}: empty file, missing header")
    pts = np.asarray(rows, dtype=np.float64).reshape(len(rows), header)
    try:
        return PointPattern(header, pts)
    except ValueError as exc:
        raise DataError(f"{path}: {exc}")


def write_field_csv(field: IntensityField, path, meta: dict) -> None:
    write_table(path, meta, (field.dim, field.resolution), field.values[:, None].tolist())


def read_field_csv(path) -> IntensityField:
    path = Path(path)
    header = None
    values = []
    for lineno, line in _data_lines(path):
        if header is None:
            parts = line.split(",")
            if len(parts) != 2:
                raise DataError(f"{path}:{lineno}: expected header '<dim>,<resolution>'")
            try:
                header = (int(parts[0]), int(parts[1]))
            except ValueError:
                raise DataError(f"{path}:{lineno}: non-integer header fields: {line!r}")
            continue
        try:
            values.append(float(line))
        except ValueError:
            raise DataError(f"{path}:{lineno}: non-numeric grid value {line!r}")
    if header is None:
        raise DataError(f"{path}: empty file, missing header")
    try:
        return IntensityField(Grid(*header), np.asarray(values))
    except ValueError as exc:
        raise DataError(f"{path}: {exc}")
