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

Cells are independent, and each one's data and chain streams derive from
``(seed, i_n, rep)`` alone, so the design runs on every CPU the process may
use: ``W = min(cells, _usable_cpus())`` processes, the calling process and
``W - 1`` children made by ``os.fork``. Cells are handed out largest ``n``
first from a shared queue and gathered by cell index, so the report, its
files and the ``progress`` lines are the same bytes at any ``W``. At
``W == 1``, and in synthetic mode, every cell runs in the calling process
and nothing is forked. Each child holds its own copy of the sampler's
memory: at the benchmark's 64-node, 400-pattern size a child peaks near
50 MiB, and the calling process's ``RUSAGE_SELF`` does not count it.
Anything that patches ``run_chain`` in this module sees only the cells the
calling process ran.
"""

from __future__ import annotations

import csv
import json
import os
import pickle
import struct
import threading
import traceback
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


def _usable_cpus() -> int:
    """CPUs this process may run on: its affinity mask where the OS has one."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _run_cell(config: ExperimentConfig, prior: SgcpPrior, truth, ceiling: float,
             i_n: int, rep: int) -> CellResult:
    """One (design size, replicate) cell, a function of ``(config.seed, i_n, rep)`` alone."""
    n = config.ns[i_n]
    seed_data = seed_fingerprint(config.seed, i_n, rep, 0)
    seed_chain = seed_fingerprint(config.seed, i_n, rep, 1)
    if config.synthetic:
        d = config.synthetic_constant * float(n) ** (-config.synthetic_exponent)
        return CellResult(n, rep, 0, d, d, 0.0, 0.0, 0.0, 0.0, seed_data, seed_chain)
    data_rng = rng_for(config.seed, i_n, rep, 0)
    patterns = [simulate_thinning(ceiling, truth, data_rng) for _ in range(n)]
    chain_rng = rng_for(config.seed, i_n, rep, 1)
    chain = run_chain(patterns, prior, config.chain, chain_rng)
    dists = distances_to_truth(chain.intensity, truth)
    return CellResult(
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
    )


def run_contraction_experiment(
    config: ExperimentConfig,
    prior: SgcpPrior | None = None,
    progress=None,
) -> ContractionReport:
    """Execute the full design and aggregate to a rate estimate.

    ``progress`` is called with each sampled cell in design order once every
    cell is done.
    """
    truth_spec = get_truth(config.truth)
    truth = truth_spec.field(config.resolution)
    if prior is None:
        prior = SgcpPrior(dim=truth_spec.dim)
    if prior.dim != truth_spec.dim:
        raise ValueError("prior dimension does not match the truth")
    ceiling = float(np.max(truth.values))

    design = [(i_n, rep) for i_n in range(len(config.ns)) for rep in range(config.replicates)]
    largest_first = sorted(range(len(design)), key=lambda k: -config.ns[design[k][0]])
    workers = 1 if config.synthetic else min(len(design), _usable_cpus())
    cells = _run_cells(largest_first, workers,
                       lambda k: _run_cell(config, prior, truth, ceiling, *design[k]))
    if progress is not None and not config.synthetic:
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


# -- the cell split -----------------------------------------------------


_RECORD = struct.Struct("=I")  # one hand-out: a position in the hand-out order


def _run_cells(order: list, workers: int, run) -> list:
    """``[run(k) for k in range(len(order))]``, on ``workers`` processes.

    ``order`` is a permutation of the cell indices: the order in which cells
    are handed out. The parent forks ``workers - 1`` children, then a feeder
    thread writes the positions ``0 .. len(order) - 1`` into a pipe, one
    record per write (so no record is ever split), and closes it. Every
    process, the parent included, takes one record at a time until end of
    file, runs that cell and keeps its result. A child then pickles its
    results, or the exceptions that stopped it, into its own pipe and leaves
    by ``os._exit``. A process whose cell raises empties the queue, so every
    process stops after its current cell. The parent reaps every child before
    it returns or raises, and re-raises the failure earliest in ``order``: the
    one a single process running ``order`` would have met. A child that ends
    without sending its results is an error.
    """
    queue_r, queue_w = os.pipe()
    feeder = threading.Thread(target=_feed, args=(queue_w, len(order)))
    children = {}  # pid -> read end of the child's result pipe
    sent, status = {}, {}
    results, failures = {}, []
    try:
        for _ in range(workers - 1):
            result_r, result_w = os.pipe()
            pid = os.fork()
            if pid == 0:
                os.close(queue_w)  # else the queue never reaches end of file here
                _child(queue_r, result_w, order, run)
            os.close(result_w)
            children[pid] = open(result_r, "rb")
        feeder.start()  # after the last fork: no child inherits a running thread
        _take_cells(queue_r, order, run, results, failures)
        for pid, fh in children.items():
            sent[pid] = fh.read()
    finally:
        if feeder.ident is None:
            os.close(queue_w)
        _drain(queue_r)
        if feeder.ident is not None:
            feeder.join()
        os.close(queue_r)
        for pid, fh in children.items():
            fh.close()  # before the wait: a child still writing then stops
            status[pid] = os.waitpid(pid, 0)[1]
    for pid in children:
        try:
            child_results, child_failures = pickle.loads(sent[pid])
        except (EOFError, pickle.UnpicklingError):
            failures.append((len(order), RuntimeError(
                f"bench worker {pid} ended (wait status {status[pid]}) "
                "without sending its cells")))
            continue
        results.update(child_results)
        failures.extend(child_failures)
    if failures:
        raise min(failures, key=lambda f: f[0])[1]
    return [results[k] for k in range(len(order))]


def _feed(queue_w: int, count: int) -> None:
    """Write the hand-out positions into the queue, then close it."""
    try:
        for pos in range(count):
            os.write(queue_w, _RECORD.pack(pos))
    finally:
        os.close(queue_w)


def _drain(queue_r: int) -> None:
    """Empty the queue up to end of file, running nothing."""
    while os.read(queue_r, 1024 * _RECORD.size):
        pass


def _take_cells(queue_r: int, order: list, run, results: dict, failures: list) -> None:
    """Run the cells the queue hands out until it is empty or a cell raises."""
    while record := os.read(queue_r, _RECORD.size):
        (pos,) = _RECORD.unpack(record)
        try:
            results[order[pos]] = run(order[pos])
        except BaseException as exc:  # sent to the parent, or re-raised by it
            failures.append((pos, exc))
            _drain(queue_r)
            return


def _child(queue_r: int, result_w: int, order: list, run) -> None:
    """Body of a forked worker: run cells from the queue, send them back, exit."""
    status = 1
    try:
        results, failures = {}, []
        _take_cells(queue_r, order, run, results, failures)
        for _, exc in failures:
            if hasattr(exc, "add_note"):  # the parent's traceback cannot show this one
                exc.add_note(f"raised in bench worker {os.getpid()}:\n"
                             + "".join(traceback.format_exception(exc)))
        with open(result_w, "wb") as fh:
            fh.write(pickle.dumps((results, failures)))
        status = 0
    finally:
        os._exit(status)


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
