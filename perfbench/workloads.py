"""The three benchmark workloads: their inputs, one operation, and its checks.

An operation is one call into ``sgcp`` of fixed size: a ``sgcp bench`` run,
a ``sgcp fit`` run, or one ``geweke_joint_test``. The operation's seed is
derived from the benchmark seed; nothing else varies. After the timed call
the workload checks the outputs, digests them (two calls with one seed must
give the same bytes) and counts their effective samples with the program's
own ``effective_sample_size``.

Why these three (measured on a 2-core machine, numpy backend):

* ``bench-1d`` is the paper's contraction experiment on ``sin1d``, 64 nodes,
  25 to 400 patterns per chain. The elliptical-slice move and its likelihood
  evaluations dominate a sweep; the 64x64 Cholesky is small.
* ``fit-2d`` fits 400 ``sin2d`` patterns on a 16x16 grid (256 nodes), read
  from files. Every length-scale proposal fills and factors a 256x256
  covariance, so dense linear algebra dominates. It also covers the CLI's
  pattern reader and its output writers.
* ``calibrate-1d`` is the joint calibration test on a 16-node grid: the data
  are replaced every 5 sweeps and each round adds a prior draw and two
  thinning simulations, so per-call overhead and ``set_data`` matter.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import json
import math
import os

import numpy as np

import sgcp
import sgcp.cli
import sgcp.inference
from tracer import resolve

# An operation's size, full and tiny (tiny is for the self-test only).
SIZES = {
    "bench-1d": {
        "full": {"ns": "25,50,100,200,400", "replicates": 1, "n_iter": 1000, "n_burn": 250},
        "tiny": {"ns": "25,400", "replicates": 1, "n_iter": 300, "n_burn": 100},
    },
    "fit-2d": {
        "full": {"n_patterns": 400, "n_iter": 800, "n_burn": 200},
        "tiny": {"n_patterns": 20, "n_iter": 60, "n_burn": 20},
    },
    "calibrate-1d": {
        "full": {"n_rounds": 4000},
        "tiny": {"n_rounds": 200},
    },
}



def op_seed(seed: int, index: int) -> int:
    """Seed of operation ``index`` in a run with benchmark seed ``seed``."""
    return seed * 1000 + index


def digest_files(directory: str) -> str:
    h = hashlib.sha256()
    for name in sorted(os.listdir(directory)):
        h.update(name.encode() + b"\0")
        with open(os.path.join(directory, name), "rb") as fh:
            h.update(fh.read())
        h.update(b"\0")
    return h.hexdigest()


def min_node_ess(draws: np.ndarray) -> float:
    """Lowest effective sample size over the columns (grid nodes) of draws."""
    return min(sgcp.effective_sample_size(draws[:, j]) for j in range(draws.shape[1]))


def cli_main(argv: list[str]) -> tuple[int, str]:
    """``sgcp <argv>`` in-process: its exit code and what it wrote to stderr."""
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        rc = sgcp.cli.main(argv)
    return rc, err.getvalue().strip()


def read_draws(path: str) -> np.ndarray:
    """``intensity_draws.csv`` as a (draws, nodes) array."""
    with open(path, encoding="utf-8") as fh:
        rows = [line for line in fh if not line.startswith("#")][1:]
    return np.array([[float(v) for v in row.split(",")] for row in rows], ndmin=2)


class Bench1D:
    """``sgcp bench`` on sin1d at 64 nodes over the design 25..400 patterns."""

    name = "bench-1d"

    def __init__(self, size: dict, work: str, seed: int):
        self.size = size
        self._chains = []
        found = resolve("sgcp.experiment", "run_chain")
        if found is not None:
            owner, attr, run_chain = found

            def keep_draws(*args, **kwargs):
                chain = run_chain(*args, **kwargs)
                self._chains.append(getattr(chain, "intensity", None))
                return chain

            setattr(owner, attr, keep_draws)

    def call(self, seed: int, out: str):
        self._chains = []
        s = self.size
        return cli_main(["bench", "--out", out, "--seed", str(seed), "--truth", "sin1d",
                         "--resolution", "64", "--ns", s["ns"],
                         "--replicates", str(s["replicates"]),
                         "--n-iter", str(s["n_iter"]), "--n-burn", str(s["n_burn"])])

    def inspect(self, result, out: str) -> dict:
        rc, err = result
        if rc != 0:
            return {"failures": [f"exit_code: sgcp bench exited {rc}: {err}"]}
        failures = []
        with open(os.path.join(out, "cells.csv"), encoding="utf-8") as fh:
            rows = list(csv.DictReader(line for line in fh if not line.startswith("#")))
        ns = [int(n) for n in self.size["ns"].split(",")]
        if len(rows) != len(ns) * self.size["replicates"]:
            failures.append(f"cells: {len(rows)} rows for {len(ns)} design sizes")
        distances = {}
        for row in rows:
            d = float(row["distance_mean"])
            if not (math.isfinite(d) and d > 0.0):
                failures.append(f"distances_finite_positive: n={row['n']} distance {d!r}")
            distances.setdefault(row["n"], []).append(d)
        ess = {
            "ell": sum(float(r["n_eff_ell"]) for r in rows),
            "lambda_star": sum(float(r["n_eff_lambda_star"]) for r in rows),
            "intensity_min": (sum(min_node_ess(d) for d in self._chains)
                              if self._chains and all(d is not None for d in self._chains)
                              else None),
        }
        return {"failures": failures, "digest": digest_files(out), "ess": ess,
                "distances": distances}


class Fit2D:
    """``sgcp fit`` of 400 sin2d patterns on a 16x16 grid."""

    name = "fit-2d"

    def __init__(self, size: dict, work: str, seed: int):
        self.size = size
        self.data = os.path.join(work, "patterns")
        rc, err = cli_main(["simulate", "--out", self.data, "--seed", str(seed),
                            "--truth", "sin2d", "--n", str(size["n_patterns"]),
                            "--resolution", "16"])
        if rc != 0:
            raise RuntimeError(f"sgcp simulate exited {rc}: {err}")

    def call(self, seed: int, out: str):
        s = self.size
        return cli_main(["fit", "--data", self.data, "--out", out, "--seed", str(seed),
                         "--resolution", "16",
                         "--n-iter", str(s["n_iter"]), "--n-burn", str(s["n_burn"])])

    def inspect(self, result, out: str) -> dict:
        rc, err = result
        if rc != 0:
            return {"failures": [f"exit_code: sgcp fit exited {rc}: {err}"]}
        failures = []
        with open(os.path.join(out, "fit.json"), encoding="utf-8") as fh:
            fit = json.load(fh)
        d = fit.get("distance_mean_to_truth")
        if not (isinstance(d, float) and math.isfinite(d)):
            failures.append(f"distance_finite: distance_mean_to_truth {d!r}")
        draws = read_draws(os.path.join(out, "intensity_draws.csv"))
        ess = {"ell": fit["n_eff_ell"], "lambda_star": fit["n_eff_lambda_star"],
               "intensity_min": min_node_ess(draws)}
        return {"failures": failures, "digest": digest_files(out), "ess": ess}


class Calibrate1D:
    """``geweke_joint_test`` on a 16-node 1-D grid, 5 sweeps per round."""

    name = "calibrate-1d"

    def __init__(self, size: dict, work: str, seed: int):
        self.size = size
        self.prior = sgcp.SgcpPrior(dim=1)
        self.grid = sgcp.Grid(1, 16)
        self._rounds = []
        # the chained side's state at each data refresh: its draws, for ESS
        found = resolve("sgcp.inference", "_Sampler.set_data")
        if found is not None:
            owner, attr, set_data = found
            rounds = self._rounds

            def keep_state(sampler, patterns):
                state = getattr(sampler, "state", None)
                if state is not None:
                    rounds.append((getattr(state, "log_ell", None),
                                   getattr(state, "log_lambda_star", None),
                                   getattr(sampler, "latent", None)))
                return set_data(sampler, patterns)

            setattr(owner, attr, keep_state)

    def call(self, seed: int, out: str):
        self._rounds.clear()
        return sgcp.inference.geweke_joint_test(
            self.prior, self.grid, sgcp.rng_for(seed, 7),
            n_rounds=self.size["n_rounds"], sweeps_per_round=5)

    def inspect(self, result, out: str) -> dict:
        failures = []
        if result.diverged:
            failures.append(f"not_diverged: diverged after {result.n_rounds} rounds")
        record = json.dumps({"z": result.z_scores, "rounds": result.n_rounds,
                             "diverged": result.diverged}, sort_keys=True)
        ess = {"ell": None, "lambda_star": None, "intensity_min": None}
        if self._rounds and all(v is not None for r in self._rounds for v in r):
            log_ell, log_lam, latent = (np.asarray(v) for v in zip(*self._rounds))
            lam = np.exp(log_lam)
            ess = {"ell": sgcp.effective_sample_size(np.exp(log_ell)),
                   "lambda_star": sgcp.effective_sample_size(lam),
                   "intensity_min": min_node_ess(lam[:, None] / (1.0 + np.exp(-latent)))}
        return {"failures": failures, "digest": hashlib.sha256(record.encode()).hexdigest(),
                "ess": ess, "z": {} if result.diverged else result.z_scores}


WORKLOADS = {w.name: w for w in (Bench1D, Fit2D, Calibrate1D)}

