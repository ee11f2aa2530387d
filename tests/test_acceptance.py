"""End-to-end acceptance gate.

Eight numbered checks cover the kernel correspondence, simulator exactness,
sampler correctness, the distance metric, the contraction benchmark, the
prior mass probe, the analytic tail validators, and bitwise reproducibility
of the command-line tools.  Each check prints a single line

    ACCEPTANCE <k> <name>: PASS|FAIL (<details>; <wall time>)

directly to the terminal (bypassing capture) and then asserts, so a plain
``pytest -v`` run shows the whole scoreboard.  The contraction check re-runs
the full default benchmark and compares its fitted slope against the frozen
baseline in ``benchmarks/baseline_report.json``; expect a few minutes.
Checks 3 and 5 carry the ``slow`` marker, so ``pytest -m "not slow"`` leaves
them out of a quick local run.
"""

import dataclasses
import json
import math
import os
import time

import numpy as np
import pytest
from scipy import special, stats

from sgcp import (ChainConfig, ExperimentConfig, Grid, IntensityField,
                  LengthScalePriorSpec, MaxIntensityPriorSpec,
                  ModelState, PointPattern, SgcpPrior, distances_to_truth,
                  estimate_sqrt_link_lipschitz, geweke_joint_test, get_truth,
                  rng_for, run_chain, run_contraction_experiment, simulate_thinning,
                  validate_length_scale_tail, validate_max_intensity_tail)
from sgcp import priors
from sgcp.cli import main
from sgcp.inference import _Sampler
from sgcp.kernels import chol_with_jitter, cov_matrix, gp_field, spectral_covariance_quadrature
from sgcp.priors import default_length_scale_bounds, prior_small_ball_probability

BASELINE_PATH = os.path.join(os.path.dirname(__file__), "..",
                             "benchmarks", "baseline_report.json")


@pytest.fixture(scope="module")
def report(request):
    """Print one scoreboard line per criterion straight to the terminal."""
    tr = request.config.pluginmanager.get_plugin("terminalreporter")

    def _report(num: int, name: str, ok: bool, detail: str, started: float):
        line = (f"ACCEPTANCE {num} {name}: {'PASS' if ok else 'FAIL'} "
                f"({detail}; {time.perf_counter() - started:.1f}s)")
        if tr is not None:
            tr.ensure_newline()
            tr.write_line(line)
        else:
            print(line)
        assert ok, line

    return _report


def test_01_kernel_correspondence(report):
    """Spectral quadrature reproduces exp(-ell^2 ||h||^2) to 1e-6."""
    t0 = time.perf_counter()
    worst = 0.0
    for dim in (1, 2):
        lags = rng_for(101, dim).uniform(-1.2, 1.2, size=(20, dim))
        for ell in (0.5, 1.0, 2.7):
            for h in lags:
                closed = math.exp(-(ell ** 2) * float(h @ h))
                quad = spectral_covariance_quadrature(ell, h)
                worst = max(worst, abs(quad - closed))
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-6 and elapsed < 1.0
    report(1, "kernel-correspondence", ok,
           f"max abs err {worst:.3g} over 120 lags, budget 1s", t0)


def test_02_simulation_exactness(report):
    """Thinned counts are Poisson(2) and the two half-domains decouple."""
    t0 = time.perf_counter()
    truth = get_truth("sin1d").field(64)  # node integral is exactly 2
    ceiling = float(truth.values.max())
    rng = rng_for(2024, 2)
    n_rep = 10000
    counts = np.empty(n_rep, dtype=np.int64)
    left = np.empty(n_rep, dtype=np.int64)
    for i in range(n_rep):
        pattern = simulate_thinning(ceiling, truth, rng)
        counts[i] = pattern.n
        left[i] = np.count_nonzero(pattern.points[:, 0] < 0.5)
    right = counts - left
    kmax = 8  # bins 0..7 plus a >=8 tail; smallest expected count is 11
    observed = np.bincount(np.minimum(counts, kmax), minlength=kmax + 1)
    probs = np.append(stats.poisson.pmf(np.arange(kmax), 2.0),
                      stats.poisson.sf(kmax - 1, 2.0))
    expected = n_rep * probs
    chi2 = float(((observed - expected) ** 2 / expected).sum())
    p_value = float(stats.chi2.sf(chi2, kmax))
    corr = float(np.corrcoef(left, right)[0, 1])
    elapsed = time.perf_counter() - t0
    ok = (p_value > 0.01 and abs(corr) < 3.0 / math.sqrt(n_rep)
          and expected.min() >= 5.0 and elapsed < 30.0)
    report(2, "simulation-exactness", ok,
           f"chi2 p {p_value:.3f}, halves corr {corr:+.4f}, budget 30s", t0)


@pytest.mark.slow
def test_03_mcmc_correctness(report):
    """Prior recovery, joint calibration, and a dense quadrature oracle."""
    t0 = time.perf_counter()
    prior = SgcpPrior(dim=1)

    # (a) with no data the chain must reproduce the prior marginals
    cfg = ChainConfig(n_iter=35000, n_burn=5000, thin=10)
    chain = run_chain([], prior, Grid(1, 16), cfg, rng_for(42))
    p_values = [
        stats.kstest(chain.lambda_star, stats.gamma(2.0, scale=1.0).cdf).pvalue,
        stats.kstest(chain.ell, stats.gamma(1.0, scale=1.0).cdf).pvalue,
    ]
    latent = special.logit(chain.intensity / chain.lambda_star[:, None])
    p_values += [stats.kstest(latent[:, j], stats.norm.cdf).pvalue for j in (0, 8, 15)]
    p_min = min(p_values)

    # (b) forward draws vs sampler-transitioned draws share one distribution
    geweke = geweke_joint_test(prior, Grid(1, 16), rng_for(20240601, 7),
                               n_rounds=50000, sweeps_per_round=5)

    # (c) three-node posterior at ell = 1 with lam* integrated out, the
    # target of the chain's slice move: dense Gauss-Hermite tensor quadrature
    # in the whitened space is an independent oracle
    grid = Grid(1, 3)
    pts = np.array([[0.12], [0.47], [0.83]])
    pattern = PointPattern(1, pts)
    lam = prior.lam_prior
    L, _ = chol_with_jitter(cov_matrix(1.0, 3))
    u, w = np.polynomial.hermite.hermgauss(40)
    U = np.stack(np.meshgrid(u, u, u, indexing="ij"), axis=-1).reshape(-1, 3)
    W = (w[:, None, None] * w[None, :, None] * w[None, None, :]).ravel()
    G = (math.sqrt(2.0) * U) @ L.T
    S = 1.0 / (1.0 + np.exp(-G))
    int_s = S @ np.array([0.25, 0.5, 0.25])
    x = pts[:, 0] * 2.0  # coordinates in units of the grid spacing
    i0 = np.minimum(x.astype(int), 1)
    frac = x - i0
    s_at = S[:, i0] * (1 - frac) + S[:, i0 + 1] * frac
    # sum log s - (a + N) log(b + n int s) for the one pattern, n = 1
    loglik = (np.sum(np.log(s_at), axis=1)
              - (lam.shape + pattern.n) * np.log(lam.rate + int_s))
    post = W * np.exp(loglik - loglik.max())
    post /= post.sum()
    mean_oracle = post @ G
    var_oracle = post @ (G - mean_oracle) ** 2

    def oracle_errors(mutate_drop_integral):
        sampler = _Sampler(prior, grid, mutate_drop_integral)
        sampler.set_data([pattern])
        sampler.set_state(ModelState(np.zeros(3), 0.0, math.log(8.0)))
        rng = rng_for(7, 3)
        draws = []
        for k in range(60000):
            sampler.update_latent(rng)
            if k >= 5000 and k % 5 == 0:
                draws.append(sampler.latent.copy())
        draws = np.array(draws)
        return (float(np.abs(draws.mean(axis=0) - mean_oracle).max()),
                float(np.abs(draws.var(axis=0) - var_oracle).max()))

    mean_err, var_err = oracle_errors(False)
    # the oracle has power: the chain that drops n int s from its target misses it
    mutated_mean_err, _ = oracle_errors(True)

    elapsed = time.perf_counter() - t0
    ok = (p_min > 0.01
          and not geweke.diverged and geweke.max_abs_z < 4.0
          and mean_err <= 0.05 and var_err <= 0.05 and mutated_mean_err > 0.05
          and elapsed < 600.0)
    report(3, "mcmc-correctness", ok,
           f"KS p_min {p_min:.3f}, joint max|z| {geweke.max_abs_z:.2f}, "
           f"oracle err {mean_err:.3f}/{var_err:.3f} (mutated mean err "
           f"{mutated_mean_err:.3f}), budget 10min", t0)


def test_04_distance_correctness(report):
    """Exact value on constants; Monte Carlo agreement on smooth pairs."""
    t0 = time.perf_counter()
    exact_ok = True
    for dim, res in ((1, 9), (2, 5)):
        grid = Grid(dim, res)
        a = IntensityField(grid, np.full(grid.n_nodes, 1.0))
        b = IntensityField(grid, np.full(grid.n_nodes, 4.0))
        exact_ok = exact_ok and float(distances_to_truth(a.values[None, :], b)[0]) == 1.0
    rng = rng_for(31)
    worst = 0.0
    for k in range(10):
        grid = Grid(1, 33) if k < 5 else Grid(2, 9)
        ell = 1.0 + 0.3 * k
        a = IntensityField(grid, np.exp(gp_field(ell, grid, rng.standard_normal(grid.n_nodes))))
        b = IntensityField(grid, np.exp(gp_field(ell, grid, rng.standard_normal(grid.n_nodes))))
        d = float(distances_to_truth(a.values[None, :], b)[0])
        diff = IntensityField(grid, (np.sqrt(a.values) - np.sqrt(b.values)) ** 2)
        pts = rng.random((400000, grid.dim))
        d_mc = float(np.sqrt(np.mean(diff.at(pts))))
        worst = max(worst, abs(d - d_mc))
    elapsed = time.perf_counter() - t0
    ok = exact_ok and worst <= 1e-3 and elapsed < 10.0
    report(4, "distance-correctness", ok,
           f"constants exact {exact_ok}, MC err {worst:.2e}, budget 10s", t0)


@pytest.mark.slow
def test_05_contraction_rate(report):
    """Full default benchmark against the frozen slope baseline."""
    t0 = time.perf_counter()
    with open(BASELINE_PATH, encoding="utf-8") as fh:
        baseline = json.load(fh)
    base_slope = float(baseline["slope"])
    result = run_contraction_experiment(ExperimentConfig(), prior=SgcpPrior(dim=1))
    elapsed = time.perf_counter() - t0
    ok = (base_slope < -0.25
          and abs(result.slope - base_slope) <= 0.15
          and result.inversions <= 1
          and elapsed < 2400.0)
    report(5, "contraction-rate", ok,
           f"slope {result.slope:.4f} vs baseline {base_slope:.4f}, "
           f"{result.inversions} inversion(s), budget 40min", t0)


def test_06_prior_mass_probe(report):
    """Small-ball probabilities are positive and monotone in the radius."""
    t0 = time.perf_counter()
    prior = SgcpPrior(dim=1)
    ok = True
    parts = []
    for name, deltas in (("const4", [1.5, 2.0, 3.0]), ("sin1d", [1.5, 2.0, 2.5])):
        truth = get_truth(name).field(16)
        estimates = prior_small_ball_probability(prior, truth, deltas,
                                                 10000, rng_for(99, 6))
        probs = [e.probability for e in estimates]
        ok = ok and all(p > 0.0 for p in probs) and \
            all(b >= a for a, b in zip(probs, probs[1:]))
        parts.append(f"{name} {['%.3f' % p for p in probs]}")
    elapsed = time.perf_counter() - t0
    ok = ok and elapsed < 120.0
    report(6, "prior-mass-probe", ok, "; ".join(parts) + ", budget 2min", t0)


def test_07_tail_validators(report, monkeypatch):
    """Defaults satisfy the envelopes; broken constants fail with a witness."""
    t0 = time.perf_counter()
    good = all(validate_length_scale_tail(LengthScalePriorSpec(dim=d)).passed
               for d in (1, 2))
    good = good and validate_max_intensity_tail(MaxIntensityPriorSpec()).passed

    spec = LengthScalePriorSpec(dim=1)
    broken = dataclasses.replace(default_length_scale_bounds(spec),
                                 decay_lower=2.5 * spec.rate)
    monkeypatch.setattr(priors, "default_length_scale_bounds", lambda _: broken)
    monkeypatch.setattr(priors, "CEILING_TAIL_C0", 1e-6)
    r1 = validate_length_scale_tail(spec)
    r2 = validate_max_intensity_tail(MaxIntensityPriorSpec())
    caught = (not r1.passed and r1.witness is not None and 5.0 <= r1.witness <= 100.0
              and not r2.passed and r2.witness is not None
              and 5.0 <= r2.witness <= 100.0)

    lipschitz = estimate_sqrt_link_lipschitz()
    elapsed = time.perf_counter() - t0
    ok = good and caught and lipschitz <= 0.25 and elapsed < 5.0
    report(7, "tail-validators", ok,
           f"defaults pass {good}, broken caught {caught}, "
           f"sqrt-link slope {lipschitz:.4f}, budget 5s", t0)


def _dirs_identical(a, b) -> bool:
    names_a = sorted(p.name for p in a.iterdir())
    names_b = sorted(p.name for p in b.iterdir())
    if names_a != names_b:
        return False
    return all((a / n).read_bytes() == (b / n).read_bytes() for n in names_a)


def _bad_line_endings(directory) -> list:
    """Files holding a carriage return, or not ending in a newline: every file
    the commands write is text with ``\\n`` line endings."""
    return [p.name for p in sorted(directory.iterdir())
            if b"\r" in (data := p.read_bytes()) or not data.endswith(b"\n")]


def test_08_reproducibility(report, tmp_path):
    """Every command, rerun with the same seed, emits identical bytes, and
    every file it writes ends each line, the last included, in ``\\n``."""
    t0 = time.perf_counter()
    sim = tmp_path / "sim0"
    commands = {
        "simulate": ["simulate", "--n", "6", "--resolution", "16", "--seed", "17"],
        "fit": ["fit", "--data", str(sim), "--n-iter", "800", "--n-burn", "200",
                "--resolution", "16", "--seed", "17"],
        "bench": ["bench", "--ns", "5,10", "--replicates", "1", "--resolution", "8",
                  "--n-iter", "400", "--n-burn", "100", "--seed", "17"],
        "bench-synthetic": ["bench", "--synthetic", "--seed", "17"],
        "calibrate": ["calibrate", "--rounds", "3000", "--resolution", "8",
                      "--sweeps", "4", "--seed", "55"],
        "verify-priors": ["verify-priors"],
    }
    assert main(commands["simulate"] + ["--out", str(sim)]) == 0
    ok = True
    details = []
    for name, argv in commands.items():
        first = tmp_path / f"{name}-a"
        second = tmp_path / f"{name}-b"
        code_a = main(argv + ["--out", str(first)])
        code_b = main(argv + ["--out", str(second)])
        same = code_a == 0 and code_b == 0 and _dirs_identical(first, second)
        bad = _bad_line_endings(first) if same else []
        ok = ok and same and not bad
        if not same:
            details.append(f"{name} differs (codes {code_a}/{code_b})")
        if bad:
            details.append(f"{name} writes a \\r or no final \\n in {', '.join(bad)}")
    detail = ("all 6 command reruns byte-identical, \\n line endings" if ok
              else "; ".join(details))
    report(8, "reproducibility", ok, detail, t0)
