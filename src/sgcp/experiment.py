"""Contraction benchmark: posterior error versus number of observed patterns.

For each design size n the harness simulates n independent patterns from a
known truth, runs the posterior sampler, and records the square-root L2 error
of the posterior mean together with the 0.9-quantile credible radius. The
headline statistic is the OLS slope of log median error against log n, to be
compared with the theoretical exponent ``-beta / (2 beta + d)``.

The design of a run, ``ExperimentConfig``, is defined in ``config`` with the
other config types, which ``load_config`` builds from the INI file.

Cells are independent, and each one's data and chain streams derive from
``(seed, i_n, rep)`` alone, so the design runs on every CPU the process may
use: ``W = min(cells, usable_cpus())`` processes, the calling process and
``W - 1`` children made by ``os.fork``, on the fork pool of ``_pool``, which
``inference.geweke_joint_test`` shares. Cells are handed out largest ``n``
first, each queue position mapped to its cell by arithmetic, and sorted back
into design order, so the report, its files and the ``progress`` lines are
the same bytes at any ``W``. At ``W == 1`` every cell runs in the calling
process and nothing is forked. Each child holds its own copy of the sampler's
memory: at the benchmark's 64-node, 400-pattern size a child peaks near
50 MiB, and the calling process's ``RUSAGE_SELF`` does not count it. Anything
that patches ``run_chain`` in this module sees only the cells the calling
process ran.
"""

from __future__ import annotations

from dataclasses import astuple, dataclass, fields

import numpy as np

from ._pool import run_cells, usable_cpus
from .config import ExperimentConfig, naming, rng_for, seed_fingerprint
from .inference import run_chain
from .kernels import check_grid
from .metrics import contraction
from .point_process import Grid, simulate_thinning, write_table
from .priors import SgcpPrior
from .truths import get_truth


@dataclass(frozen=True)
class CellResult:
    """One (design size, replicate) cell."""

    n: int
    replicate: int
    n_points: int
    distance_mean: float
    credible_radius_090: float
    accept_ell: float
    n_eff_ell: float
    n_eff_lambda_star: float
    seed_data: int
    seed_chain: int


@dataclass(frozen=True)
class ContractionReport:
    """Aggregated benchmark outcome."""

    truth: str
    ns: tuple
    replicates: int
    resolution: int
    seed: int
    cells: tuple
    median_distance: tuple
    median_radius: tuple
    theory_exponent: float
    theory_radius: tuple
    slope: float
    intercept: float
    inversions: int


def fit_rate_slope(ns, medians) -> tuple[float, float]:
    """OLS fit of log(median distance) on log(n); returns (slope, intercept)."""
    ns = np.asarray(ns, dtype=np.float64)
    med = np.asarray(medians, dtype=np.float64)
    if ns.shape[0] < 2:
        raise ValueError("need at least two design sizes to fit a slope")
    if np.any(med <= 0.0):
        raise ValueError("median distances must be positive to fit on a log scale")
    x = np.log(ns)
    y = np.log(med)
    xm = x - np.mean(x)
    slope = float(np.dot(xm, y) / np.dot(xm, xm))
    intercept = float(np.mean(y) - slope * np.mean(x))
    return slope, intercept


def count_inversions(medians) -> int:
    """Number of increases in a sequence expected to be nonincreasing."""
    med = np.asarray(medians, dtype=np.float64)
    return int(np.sum(med[1:] > med[:-1] * (1.0 + 1e-12)))


def _run_cell(config: ExperimentConfig, prior: SgcpPrior, truth, ceiling: float,
             i_n: int, rep: int) -> CellResult:
    """One (design size, replicate) cell, a function of ``(config.seed, i_n, rep)`` alone."""
    n = config.ns[i_n]
    seed_data = seed_fingerprint(config.seed, i_n, rep, 0)
    seed_chain = seed_fingerprint(config.seed, i_n, rep, 1)
    try:  # before the first draw: a design size too large to hold fails at once
        patterns = [None] * n
    except (MemoryError, OverflowError):  # Python's OverflowError: past an index's range
        raise MemoryError(f"Unable to allocate {8 * n} bytes for the {n} patterns of a cell "
                          f"of [experiment] ns = {', '.join(map(str, config.ns))}") from None
    data_rng = rng_for(config.seed, i_n, rep, 0)
    for i in range(n):
        patterns[i] = simulate_thinning(ceiling, truth, data_rng)
    chain_rng = rng_for(config.seed, i_n, rep, 1)
    chain = run_chain(patterns, prior, truth.grid, config.chain, chain_rng)
    distance_mean, radius = contraction(chain.intensity, truth)
    return CellResult(
        n=n,
        replicate=rep,
        n_points=sum(p.n for p in patterns),
        distance_mean=distance_mean,
        credible_radius_090=radius,
        accept_ell=chain.accept_ell,
        n_eff_ell=chain.diagnostics["n_eff_ell"],
        n_eff_lambda_star=chain.diagnostics["n_eff_lambda_star"],
        seed_data=seed_data,
        seed_chain=seed_chain,
    )


def run_contraction_experiment(
    config: ExperimentConfig,
    prior: SgcpPrior,
    progress=None,
) -> ContractionReport:
    """Execute the full design and aggregate to a rate estimate.

    ``progress`` is called with each sampled cell in design order once every
    cell is done.
    """
    truth_spec = get_truth(config.truth)
    with naming("experiment", resolution=config.resolution):
        check_grid(Grid(truth_spec.dim, config.resolution))  # before any pattern or fork
        truth = truth_spec.field(config.resolution)
    if prior.dim != truth_spec.dim:
        raise ValueError("prior dimension does not match the truth")
    ceiling = float(np.max(truth.values))

    count, reps = len(config.ns) * config.replicates, config.replicates
    workers = min(count, usable_cpus())
    cells = run_cells(count, workers, lambda k: _run_cell(  # the largest n first
        config, prior, truth, ceiling, len(config.ns) - 1 - k // reps, k % reps))
    cells.sort(key=lambda c: (c.n, c.replicate))  # back to design order
    if progress is not None:
        for cell in cells:
            progress(cell)

    med_d, med_r = [], []
    for n in config.ns:
        group = [c for c in cells if c.n == n]
        med_d.append(float(np.median([c.distance_mean for c in group])))
        med_r.append(float(np.median([c.credible_radius_090 for c in group])))
    slope, intercept = fit_rate_slope(config.ns, med_d)
    exponent = truth_spec.rate_exponent
    theory = [config.radius_constant * float(n) ** (-exponent) for n in config.ns]

    return ContractionReport(
        truth=config.truth,
        ns=tuple(config.ns),
        replicates=config.replicates,
        resolution=config.resolution,
        seed=config.seed,
        cells=tuple(cells),
        median_distance=tuple(med_d),
        median_radius=tuple(med_r),
        theory_exponent=exponent,
        theory_radius=tuple(theory),
        slope=slope,
        intercept=intercept,
        inversions=count_inversions(med_d),
    )


# -- serialization ------------------------------------------------------


def write_cells_csv(report: ContractionReport, path, meta: dict) -> None:
    write_table(path, meta, [f.name for f in fields(CellResult)], map(astuple, report.cells))


def write_medians_csv(report: ContractionReport, path, meta: dict) -> None:
    write_table(path, meta, ("n", "median_distance", "median_radius", "theory_radius"),
                zip(report.ns, report.median_distance, report.median_radius,
                    report.theory_radius))
