"""Contraction benchmark: posterior error versus number of observed patterns.

For each design size n the harness simulates n independent patterns from a
known truth, runs the posterior sampler, and records the square-root L2 error
of the posterior mean together with the 0.9-quantile credible radius. The
headline statistic is the OLS slope of log median error against log n, to be
compared with the theoretical exponent ``-beta / (2 beta + d)``.

A synthetic mode bypasses the sampler and injects distances lying exactly on
a power law; it exercises every piece of the aggregation, fitting, and
reporting pipeline with a known answer.

The design of a run, ``ExperimentConfig``, is defined in ``config`` with the
other config types, which ``load_config`` builds from the INI file.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass

import numpy as np

from .config import ExperimentConfig, rng_for, seed_fingerprint
from .inference import run_chain
from .metrics import credible_radius, distances_to_truth, sqrt_l2_distance
from .point_process import _write_meta, simulate_thinning
from .priors import SgcpPrior
from .truths import get_truth

FLOAT_FMT = "%.17g"


@dataclass(frozen=True)
class CellResult:
    """One (design size, replicate) cell."""

    n: int
    replicate: int
    n_points: int
    distance_mean: float
    credible_radius_090: float
    accept_ell: float
    accept_lambda: float
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
    synthetic: bool
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


def run_contraction_experiment(
    config: ExperimentConfig,
    prior: SgcpPrior | None = None,
    progress=None,
) -> ContractionReport:
    """Execute the full design and aggregate to a rate estimate."""
    truth_spec = get_truth(config.truth)
    truth = truth_spec.field(config.resolution)
    if prior is None:
        prior = SgcpPrior(dim=truth_spec.dim)
    if prior.dim != truth_spec.dim:
        raise ValueError("prior dimension does not match the truth")
    ceiling = float(np.max(truth.values))

    cells = []
    for i_n, n in enumerate(config.ns):
        for rep in range(config.replicates):
            seed_data = seed_fingerprint(config.seed, i_n, rep, 0)
            seed_chain = seed_fingerprint(config.seed, i_n, rep, 1)
            if config.synthetic:
                d = config.synthetic_constant * float(n) ** (-config.synthetic_exponent)
                cells.append(CellResult(n, rep, 0, d, d, 0.0, 0.0, 0.0, 0.0,
                                        seed_data, seed_chain))
                continue
            data_rng = rng_for(config.seed, i_n, rep, 0)
            patterns = [simulate_thinning(ceiling, truth, data_rng) for _ in range(n)]
            chain_rng = rng_for(config.seed, i_n, rep, 1)
            chain = run_chain(patterns, prior, config.chain, chain_rng)
            dists = distances_to_truth(chain.intensity, truth)
            cells.append(CellResult(
                n=n,
                replicate=rep,
                n_points=sum(p.n for p in patterns),
                distance_mean=sqrt_l2_distance(chain.mean_intensity(), truth),
                credible_radius_090=credible_radius(dists, 0.9),
                accept_ell=chain.accept_ell,
                accept_lambda=chain.accept_lambda,
                n_eff_ell=chain.diagnostics["n_eff_ell"],
                n_eff_lambda_star=chain.diagnostics["n_eff_lambda_star"],
                seed_data=seed_data,
                seed_chain=seed_chain,
            ))
            if progress is not None:
                progress(cells[-1])

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
        synthetic=config.synthetic,
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


_CELL_FIELDS = ("n", "replicate", "n_points", "distance_mean", "credible_radius_090",
                "accept_ell", "accept_lambda", "n_eff_ell", "n_eff_lambda_star",
                "seed_data", "seed_chain")


def report_to_dict(report: ContractionReport) -> dict:
    return {
        "truth": report.truth,
        "ns": list(report.ns),
        "replicates": report.replicates,
        "resolution": report.resolution,
        "seed": report.seed,
        "synthetic": report.synthetic,
        "median_distance": list(report.median_distance),
        "median_radius": list(report.median_radius),
        "theory_exponent": report.theory_exponent,
        "theory_radius": list(report.theory_radius),
        "slope": report.slope,
        "intercept": report.intercept,
        "inversions": report.inversions,
        "cells": [{f: getattr(c, f) for f in _CELL_FIELDS} for c in report.cells],
    }


def write_report_json(report: ContractionReport, path, extra: dict | None = None) -> None:
    payload = report_to_dict(report)
    if extra:
        payload.update(extra)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, sort_keys=True, indent=2)
        fh.write("\n")


def write_cells_csv(report: ContractionReport, path, meta: dict | None = None) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        _write_meta(fh, meta)
        writer = csv.writer(fh)
        writer.writerow(_CELL_FIELDS)
        for c in report.cells:
            row = []
            for f in _CELL_FIELDS:
                v = getattr(c, f)
                row.append(FLOAT_FMT % v if isinstance(v, float) else str(v))
            writer.writerow(row)


def write_medians_csv(report: ContractionReport, path, meta: dict | None = None) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        _write_meta(fh, meta)
        writer = csv.writer(fh)
        writer.writerow(("n", "median_distance", "median_radius", "theory_radius"))
        for i, n in enumerate(report.ns):
            writer.writerow((
                str(n),
                FLOAT_FMT % report.median_distance[i],
                FLOAT_FMT % report.median_radius[i],
                FLOAT_FMT % report.theory_radius[i],
            ))
