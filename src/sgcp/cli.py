"""Command-line harness for simulation, fitting, benchmarking, and checks.

Subcommands::

    simulate       draw patterns from a cataloged truth and write them out
    fit            run the posterior sampler on pattern files
    bench          full contraction experiment with rate-slope fit
    calibrate      joint forward/chained sampler calibration check
    verify-priors  analytic tail, moment, and link envelope checks

Exit codes: 0 success, 2 configuration error or a run too large to
allocate, 3 data error, 4 numerical failure, 5 a validation or acceptance
band failed. All outputs are deterministic functions of the inputs and the
seed — no clocks, no host names — so identical invocations give identical bytes.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import os
import sys

import numpy as np

from ._accel import BACKEND
from .config import ConfigError, HarnessConfig, load_config, rng_for
from .experiment import run_contraction_experiment, write_cells_csv, write_medians_csv
from .inference import NumericalError, geweke_joint_test, run_chain, scaled_mean
from .kernels import FactorizationError, exponential_moment_log_bound
from .metrics import contraction
from .point_process import (DataError, Grid, IntensityField, integrate_field, read_field_csv,
                            read_pattern_csv, simulate_thinning, write_field_csv, write_json,
                            write_pattern_csv, write_table)
from .priors import (LOGISTIC_SQRT_LIPSCHITZ, estimate_sqrt_link_lipschitz,
                     validate_length_scale_tail, validate_max_intensity_tail)
from .truths import get_truth

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_DATA = 3
EXIT_NUMERIC = 4
EXIT_CHECK = 5


def _ensure_out(args) -> str:
    os.makedirs(args.out, exist_ok=True)
    return args.out


def _json_number(value: float) -> float | None:
    """A float as JSON can hold it: ``null`` for a value that is not finite."""
    return value if math.isfinite(value) else None


# -- subcommands ---------------------------------------------------------


def cmd_simulate(args, cfg: HarnessConfig) -> int:
    if args.n < 0:
        raise ConfigError(f"--n must be non-negative, got {args.n}")
    exp = cfg.experiment
    truth = get_truth(exp.truth)
    field = truth.field(exp.resolution)
    ceiling = float(np.max(field.values))
    out = _ensure_out(args)
    rng = rng_for(exp.seed)
    file_meta = {"config": cfg.fingerprint(), "seed": str(exp.seed), "truth": exp.truth}
    counts = []
    for i in range(args.n):
        pattern = simulate_thinning(ceiling, field, rng)
        counts.append(pattern.n)
        write_pattern_csv(pattern, os.path.join(out, f"pattern_{i:04d}.csv"),
                          meta={**file_meta, "index": str(i)})
    write_field_csv(field, os.path.join(out, "truth.csv"), meta=file_meta)
    write_json({
        "ceiling": ceiling,
        "config_fingerprint": cfg.fingerprint(),
        "counts": counts,
        "integral": integrate_field(field),
        "n": args.n,
        "resolution": exp.resolution,
        "seed": exp.seed,
        "total_points": int(sum(counts)),
        "truth": exp.truth,
    }, os.path.join(out, "simulate.json"))
    print(f"wrote {args.n} patterns ({sum(counts)} points) to {out}")
    return EXIT_OK


def cmd_fit(args, cfg: HarnessConfig) -> int:
    try:
        names = sorted(f for f in os.listdir(args.data)
                       if f.startswith("pattern_") and f.endswith(".csv"))
    except OSError as e:
        raise DataError(f"cannot list --data {args.data}: {e.strerror}") from None
    if not names:
        raise DataError(f"no pattern_*.csv files found in {args.data}")
    patterns = [read_pattern_csv(os.path.join(args.data, f)) for f in names]
    dims = {p.dim for p in patterns}
    if len(dims) != 1:
        raise DataError(f"patterns mix dimensions {sorted(dims)}")
    dim = dims.pop()
    truth_path = os.path.join(args.data, "truth.csv")
    truth = read_field_csv(truth_path) if os.path.exists(truth_path) else None
    if truth is not None and truth.dim != dim:
        raise DataError(f"{truth_path} is {truth.dim}-D but the patterns are {dim}-D")
    exp = cfg.experiment
    seed, grid, run = exp.seed, Grid(dim, exp.resolution), exp.chain
    chain = run_chain(patterns, cfg.prior(dim), grid, run, rng_for(seed, 1))
    out = _ensure_out(args)
    file_meta = {"config": cfg.fingerprint(), "seed": str(seed)}
    write_field_csv(chain.mean_intensity(), os.path.join(out, "posterior_mean.csv"),
                    meta=file_meta)
    # the kept draws' scalars, one row per draw, by the sweep it was kept at
    write_table(os.path.join(out, "chain.csv"), file_meta,
                ("iteration", "ell", "lambda_star", "log_post"),
                zip(range(run.n_burn, run.n_iter, run.thin), chain.ell.tolist(),
                    chain.lambda_star.tolist(), chain.log_post.tolist()))
    # the kept intensity draws as a matrix, one draw per row in node order
    write_table(os.path.join(out, "intensity_draws.csv"), file_meta,
                (chain.grid.dim, chain.grid.resolution),
                (row.tolist() for row in chain.intensity))
    summary = {
        "accept_ell": chain.accept_ell,
        "backend": BACKEND,
        "config_fingerprint": cfg.fingerprint(),
        "ell_mean": scaled_mean(chain.ell),
        "lambda_star_mean": scaled_mean(chain.lambda_star),
        "n_eff_ell": _json_number(chain.diagnostics["n_eff_ell"]),
        "n_eff_lambda_star": _json_number(chain.diagnostics["n_eff_lambda_star"]),
        "n_kept": chain.n_kept,
        "n_patterns": len(patterns),
        "n_points": int(sum(p.n for p in patterns)),
        "resolution": grid.resolution,
        "seed": seed,
    }
    if truth is not None:
        if truth.grid != chain.grid:
            truth = IntensityField(chain.grid, truth.at(chain.grid.nodes()))
        (summary["distance_mean_to_truth"],
         summary["credible_radius_090"]) = contraction(chain.intensity, truth)
    write_json(summary, os.path.join(out, "fit.json"))
    print(f"fit {len(patterns)} patterns ({summary['n_points']} points); "
          f"lam* mean {summary['lambda_star_mean']:.4g}, ell mean {summary['ell_mean']:.4g}")
    if "distance_mean_to_truth" in summary:
        print(f"distance of posterior mean to truth: {summary['distance_mean_to_truth']:.6g}")
    return EXIT_OK


def _baseline_slope(path) -> float:
    """The fitted slope of a frozen ``report.json``, read before any chain runs."""
    try:
        with open(path, encoding="utf-8") as fh:
            report = json.load(fh)
    except OSError as e:
        raise ConfigError(f"cannot read --baseline {path}: {e.strerror}") from None
    except ValueError as e:  # not UTF-8, or not JSON
        raise ConfigError(f"--baseline {path} is not a JSON file: {e}") from None
    slope = report.get("slope") if isinstance(report, dict) else None
    # a JSON true or false loads as a bool, which is an int
    if (isinstance(slope, bool) or not isinstance(slope, (int, float))
            or not math.isfinite(slope)):
        raise ConfigError(f"--baseline {path}: 'slope' must be a finite number, got {slope!r}")
    return float(slope)


def cmd_bench(args, cfg: HarnessConfig) -> int:
    if not args.band > 0.0:
        raise ConfigError(f"--band must be positive, got {args.band}")
    base_slope = None if args.baseline is None else _baseline_slope(args.baseline)
    if base_slope is not None and not base_slope < -0.25:
        print(f"CHECK FAIL: baseline slope {base_slope:.4f} is not steeper than -0.25")
        return EXIT_CHECK
    exp_cfg = dataclasses.replace(cfg.experiment, synthetic=args.synthetic)
    prior = cfg.prior(get_truth(exp_cfg.truth).dim)

    def progress(cell):
        print(f"  n={cell.n} rep={cell.replicate}: distance {cell.distance_mean:.5f}, "
              f"radius {cell.credible_radius_090:.5f}", flush=True)

    report = run_contraction_experiment(exp_cfg, prior=prior,
                                        progress=progress if args.verbose else None)
    out = _ensure_out(args)
    file_meta = {"config": cfg.fingerprint(), "seed": str(exp_cfg.seed)}
    write_json({**dataclasses.asdict(report), "config_fingerprint": cfg.fingerprint()},
               os.path.join(out, "report.json"))
    write_cells_csv(report, os.path.join(out, "cells.csv"), meta=file_meta)
    write_medians_csv(report, os.path.join(out, "medians.csv"), meta=file_meta)
    for i, n in enumerate(report.ns):
        print(f"n={n:5d}  median distance {report.median_distance[i]:.5f}  "
              f"theory radius {report.theory_radius[i]:.5f}")
    print(f"fitted slope {report.slope:.4f} (theory exponent -{report.theory_exponent:.4f}); "
          f"{report.inversions} inversion(s)")

    if base_slope is not None:
        if abs(report.slope - base_slope) > args.band:
            print(f"CHECK FAIL: slope {report.slope:.4f} outside +/-{args.band} "
                  f"of baseline {base_slope:.4f}")
            return EXIT_CHECK
        print(f"CHECK PASS: slope {report.slope:.4f} within +/-{args.band} "
              f"of baseline {base_slope:.4f}")
    return EXIT_OK


def cmd_calibrate(args, cfg: HarnessConfig) -> int:
    if not args.z_threshold > 0.0:
        raise ConfigError(f"--z-threshold must be positive, got {args.z_threshold}")
    grid = Grid(args.dim, args.grid_resolution)
    prior = cfg.prior(args.dim)
    result = geweke_joint_test(
        prior, grid, rng_for(cfg.experiment.seed, 7),
        n_rounds=args.rounds,
        sweeps_per_round=args.sweeps,
        mutate_drop_integral=args.mutate,
    )
    unmeasured = sorted(k for k, v in result.z_scores.items() if math.isnan(v))
    for name in sorted(result.z_scores):
        z = result.z_scores[name]
        print(f"z[{name}] = " + ("unmeasured" if math.isnan(z) else f"{z:+.3f}"))
    print(f"rounds completed: {result.n_rounds}; diverged: {result.diverged}")
    if args.out is not None:
        _ensure_out(args)
        write_json({
            "config_fingerprint": cfg.fingerprint(),
            "dim": args.dim,
            "diverged": result.diverged,
            "mutate": args.mutate,
            "n_rounds": result.n_rounds,
            "resolution": args.grid_resolution,
            "seed": cfg.experiment.seed,
            "sweeps_per_round": args.sweeps,
            "z_scores": {k: _json_number(v) for k, v in result.z_scores.items()},
        }, os.path.join(args.out, "calibrate.json"))
    ok = (not result.diverged) and result.max_abs_z < args.z_threshold
    print("CALIBRATION " + ("PASS" if ok else "FAIL")
          + f" (max |z| {'inf' if result.diverged else f'{result.max_abs_z:.3f}'}"
          + f", threshold {args.z_threshold}"
          + (f"; unmeasured: {', '.join(unmeasured)})" if unmeasured else ")"))
    return EXIT_OK if ok else EXIT_CHECK


def cmd_verify_priors(args, cfg: HarnessConfig) -> int:
    prior = cfg.prior(args.dim)
    checks = []

    r = validate_length_scale_tail(prior.ell_prior)
    checks.append(("length-scale-tail-sandwich", r.passed, r.detail, r.witness))
    r = validate_max_intensity_tail(prior.lam_prior)
    checks.append(("ceiling-exponential-tail", r.passed, r.detail, r.witness))

    log_m = exponential_moment_log_bound(args.dim, args.delta)
    checks.append(("spectral-exponential-moment", math.isfinite(log_m),
                   f"log E exp(delta ||xi||) <= {log_m:.6g} at delta {args.delta:g}", None))

    est = estimate_sqrt_link_lipschitz()
    checks.append(("sqrt-link-lipschitz", est <= LOGISTIC_SQRT_LIPSCHITZ + 1e-3,
                   f"estimate {est:.6f} vs stated constant {LOGISTIC_SQRT_LIPSCHITZ:.6f}",
                   None))

    all_ok = True
    for name, passed, detail, witness in checks:
        status = "PASS" if passed else "FAIL"
        extra = f" (witness x={witness:.6g})" if (witness is not None and not passed) else ""
        print(f"{status} {name}: {detail}{extra}")
        all_ok = all_ok and passed
    if args.out is not None:
        _ensure_out(args)
        write_json({
            "checks": [{"detail": d, "name": n, "passed": p,
                        "witness": w} for n, p, d, w in checks],
            "config_fingerprint": cfg.fingerprint(),
            "dim": args.dim,
            "seed": cfg.experiment.seed,
        }, os.path.join(args.out, "verify.json"))
    return EXIT_OK if all_ok else EXIT_CHECK


# -- argument plumbing ----------------------------------------------------


def _add_common(sub, out_required: bool = True):
    sub.add_argument("--config", default=None, help="INI configuration file")
    sub.add_argument("--seed", type=int, default=None, help="master seed override")
    if out_required:
        sub.add_argument("--out", required=True, help="output directory")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sgcp",
        description="Sigmoidal-Gaussian Cox process intensity learning harness",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    p = subs.add_parser("simulate", help="simulate patterns from a cataloged truth")
    _add_common(p)
    p.add_argument("--truth", default=None, help="truth name override")
    p.add_argument("--n", type=int, default=50, help="number of patterns")
    p.add_argument("--resolution", type=int, default=None, help="grid resolution override")
    p.set_defaults(func=cmd_simulate)

    p = subs.add_parser("fit", help="run the posterior sampler on pattern files")
    _add_common(p)
    p.add_argument("--data", required=True, help="directory with pattern_*.csv")
    p.add_argument("--n-iter", type=int, default=None, help="chain length override")
    p.add_argument("--n-burn", type=int, default=None, help="burn-in override")
    p.add_argument("--resolution", type=int, default=None, help="grid resolution override")
    p.set_defaults(func=cmd_fit)

    p = subs.add_parser("bench", help="contraction experiment and rate-slope fit")
    _add_common(p)
    p.add_argument("--truth", default=None, help="truth name override")
    p.add_argument("--ns", default=None, help="comma-separated design sizes override")
    p.add_argument("--replicates", type=int, default=None, help="replicates override")
    p.add_argument("--n-iter", type=int, default=None, help="chain length override")
    p.add_argument("--n-burn", type=int, default=None, help="burn-in override")
    p.add_argument("--resolution", type=int, default=None, help="grid resolution override")
    p.add_argument("--synthetic", action="store_true",
                   help="inject exact power-law distances instead of sampling")
    p.add_argument("--baseline", default=None, help="report.json to compare the slope against")
    p.add_argument("--band", type=float, default=0.15, help="allowed slope deviation")
    p.add_argument("--verbose", action="store_true", help="per-cell progress lines")
    p.set_defaults(func=cmd_bench)

    p = subs.add_parser("calibrate", help="joint sampler calibration check")
    _add_common(p, out_required=False)
    p.add_argument("--out", default=None, help="optional output directory")
    p.add_argument("--dim", type=int, default=1, help="domain dimension")
    p.add_argument("--resolution", type=int, default=16, dest="grid_resolution",
                   help="the test's own grid resolution, not [experiment] resolution")
    p.add_argument("--rounds", type=int, default=50000, help="calibration rounds")
    p.add_argument("--sweeps", type=int, default=5, help="sampler sweeps per round")
    p.add_argument("--z-threshold", type=float, default=4.0, help="|z| failure threshold")
    p.add_argument("--mutate", action="store_true",
                   help="deliberately corrupt the likelihood (power check; fails reliably "
                        "only from about --rounds 3000, smaller runs can pass)")
    p.set_defaults(func=cmd_calibrate)

    p = subs.add_parser("verify-priors", help="analytic envelope and moment checks")
    _add_common(p, out_required=False)
    p.add_argument("--out", default=None, help="optional output directory")
    p.add_argument("--dim", type=int, default=1, help="domain dimension")
    p.add_argument("--delta", type=float, default=1.0, help="exponential-moment tilt")
    p.set_defaults(func=cmd_verify_priors)

    return parser


_OVERRIDE_MAP = {
    "seed": "experiment.seed",
    "truth": "experiment.truth",
    "ns": "experiment.ns",
    "replicates": "experiment.replicates",
    "resolution": "experiment.resolution",
    "n_iter": "chain.n_iter",
    "n_burn": "chain.n_burn",
}


def _collect_overrides(args) -> dict:
    overrides = {}
    for attr, dotted in _OVERRIDE_MAP.items():
        value = getattr(args, attr, None)
        if value is not None:
            overrides[dotted] = str(value)
    return overrides


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = load_config(args.config, _collect_overrides(args))
        return args.func(args, cfg)
    except ConfigError as e:
        print(f"configuration error: {e}", file=sys.stderr)
        return EXIT_CONFIG
    except DataError as e:
        print(f"data error: {e}", file=sys.stderr)
        return EXIT_DATA
    except (NumericalError, FactorizationError, np.linalg.LinAlgError) as e:
        print(f"numerical failure: {e}", file=sys.stderr)
        return EXIT_NUMERIC
    except (ValueError, MemoryError) as e:  # a MemoryError: the run asked for more than fits
        print(f"configuration error: {str(e) or type(e).__name__}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
