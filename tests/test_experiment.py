"""Contraction harness: slope fitting, synthetic mode, reports, seeds."""

import dataclasses
import json
import math
import os

import numpy as np
import pytest

import sgcp.experiment
from sgcp import (ChainConfig, ExperimentConfig, Grid, SgcpPrior, count_inversions,
                  fit_rate_slope, get_truth, run_contraction_experiment, seed_fingerprint,
                  write_cells_csv, write_medians_csv)
from sgcp.point_process import write_json


class TestSlopeFit:
    def test_two_point_oracle(self):
        # slope = (log d2 - log d1) / (log n2 - log n1), done by hand
        slope, intercept = fit_rate_slope([10, 1000], [0.5, 0.05])
        want = (math.log(0.05) - math.log(0.5)) / (math.log(1000) - math.log(10))
        assert slope == pytest.approx(want, rel=1e-12)
        assert intercept == pytest.approx(math.log(0.5) - want * math.log(10), rel=1e-12)

    def test_exact_power_law(self):
        ns = [25, 50, 100, 200]
        meds = [3.0 * n ** -0.73 for n in ns]
        slope, intercept = fit_rate_slope(ns, meds)
        assert slope == pytest.approx(-0.73, abs=1e-12)
        assert intercept == pytest.approx(math.log(3.0), abs=1e-12)

    def test_guards(self):
        with pytest.raises(ValueError):
            fit_rate_slope([10], [0.1])
        with pytest.raises(ValueError):
            fit_rate_slope([10, 20], [0.1, 0.0])


class TestInversions:
    def test_counting(self):
        assert count_inversions([4.0, 3.0, 2.0, 1.0]) == 0
        assert count_inversions([4.0, 5.0, 2.0, 3.0]) == 2
        assert count_inversions([1.0, 1.0]) == 0  # ties are not inversions


class TestSeedTree:
    def test_fingerprints_stable_and_distinct(self):
        a = seed_fingerprint(1, 0, 0, 0)
        b = seed_fingerprint(1, 0, 0, 1)
        c = seed_fingerprint(1, 0, 1, 0)
        assert a == seed_fingerprint(1, 0, 0, 0)
        assert len({a, b, c}) == 3


class TestSyntheticMode:
    def _config(self):
        return ExperimentConfig(
            ns=(25, 50, 100, 200), replicates=3, synthetic=True,
            chain=ChainConfig(n_iter=10, n_burn=1))

    def test_recovers_injected_exponent_exactly(self):
        report = run_contraction_experiment(self._config(), SgcpPrior(dim=1))
        assert report.slope == pytest.approx(-0.5, abs=1e-12)
        assert report.inversions == 0

    def test_recovers_other_exponent(self, monkeypatch):
        monkeypatch.setattr(sgcp.experiment, "SYNTHETIC_EXPONENT", 0.37)
        monkeypatch.setattr(sgcp.experiment, "SYNTHETIC_CONSTANT", 2.5)
        report = run_contraction_experiment(self._config(), SgcpPrior(dim=1))
        assert report.slope == pytest.approx(-0.37, abs=1e-12)
        assert report.intercept == pytest.approx(math.log(2.5), abs=1e-12)

    def test_design_larger_than_a_pipe_buffer(self):
        # 18000 four-byte hand-out records overflow a 64 KiB pipe: the queue is fed,
        # not filled up front, so the design still runs, every cell once and in order
        cfg = ExperimentConfig(ns=(25, 50), replicates=9000, synthetic=True,
                               chain=ChainConfig(n_iter=10, n_burn=1))
        report = run_contraction_experiment(cfg, SgcpPrior(dim=1))
        assert [(c.n, c.replicate) for c in report.cells] == \
            [(n, rep) for n in (25, 50) for rep in range(9000)]

    def test_report_dict_round_trips_through_json(self):
        report = run_contraction_experiment(self._config(), SgcpPrior(dim=1))
        blob = json.dumps(dataclasses.asdict(report), sort_keys=True)
        back = json.loads(blob)
        assert back["slope"] == report.slope
        assert len(back["cells"]) == 12


class TestWriters:
    def test_files_deterministic(self, tmp_path):
        cfg = ExperimentConfig(ns=(25, 50), replicates=2, synthetic=True,
                               chain=ChainConfig(n_iter=10, n_burn=1))
        report = run_contraction_experiment(cfg, SgcpPrior(dim=1))
        meta = {"origin": "test"}
        for writer, name in ((lambda r, p: write_json(dataclasses.asdict(r), p), "r.json"),
                             (lambda r, p: write_cells_csv(r, p, meta), "c.csv"),
                             (lambda r, p: write_medians_csv(r, p, meta), "m.csv")):
            p1, p2 = tmp_path / ("a_" + name), tmp_path / ("b_" + name)
            writer(report, p1)
            writer(report, p2)
            assert p1.read_bytes() == p2.read_bytes()
            assert p1.stat().st_size > 0

    def test_cells_csv_parses(self, tmp_path):
        cfg = ExperimentConfig(ns=(25, 50), replicates=2, synthetic=True,
                               chain=ChainConfig(n_iter=10, n_burn=1))
        report = run_contraction_experiment(cfg, SgcpPrior(dim=1))
        path = tmp_path / "cells.csv"
        write_cells_csv(report, path, {})
        lines = path.read_text().strip().splitlines()
        assert lines[0] == ("n,replicate,n_points,distance_mean,credible_radius_090,"
                            "accept_ell,n_eff_ell,n_eff_lambda_star,seed_data,seed_chain")
        assert len(lines) == 1 + 4
        first = lines[1].split(",")
        assert int(first[0]) == 25
        assert float(first[3]) == pytest.approx(25.0 ** -0.5)


class TestEndToEndTiny:
    def test_real_sampler_cells(self):
        cfg = ExperimentConfig(
            truth="sin1d", ns=(5, 10), replicates=1, resolution=8, seed=77,
            chain=ChainConfig(n_iter=400, n_burn=100, thin=4))
        report = run_contraction_experiment(cfg, SgcpPrior(dim=1))
        assert len(report.cells) == 2
        for cell in report.cells:
            assert cell.distance_mean > 0.0
            assert cell.credible_radius_090 > 0.0
            assert cell.n_points >= 0
        assert report.theory_exponent == 0.5

    def test_config_validation(self):
        with pytest.raises(ValueError):
            ExperimentConfig(ns=(10,))
        with pytest.raises(ValueError):
            ExperimentConfig(ns=(50, 25))
        with pytest.raises(ValueError):
            ExperimentConfig(replicates=0)

    def test_each_cell_chain_runs_on_the_experiment_grid(self, monkeypatch):
        # one CPU, so every cell runs in this process, where the patch records it
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 1)
        grids, sizes, real_run_chain = [], [], sgcp.experiment.run_chain

        def run_chain(patterns, prior, grid, config, rng):
            grids.append(grid)
            sizes.append(len(patterns))
            return real_run_chain(patterns, prior, grid, config, rng)

        monkeypatch.setattr(sgcp.experiment, "run_chain", run_chain)
        cfg = ExperimentConfig(ns=(2, 3), replicates=2, resolution=16,
                               chain=ChainConfig(n_iter=4, n_burn=1))
        report = run_contraction_experiment(cfg, SgcpPrior(dim=1))
        assert grids == [Grid(1, 16)] * 4
        assert sizes == [3, 3, 2, 2]  # handed out largest n first
        assert [(c.n, c.replicate) for c in report.cells] == [(2, 0), (2, 1), (3, 0), (3, 1)]

    def test_unknown_truth_rejected(self):
        with pytest.raises(ValueError):
            run_contraction_experiment(
                ExperimentConfig(truth="nope", ns=(5, 10), replicates=1, synthetic=True),
                SgcpPrior(dim=1))


class TestTruthCatalog:
    def test_positivity_on_fine_grid(self):
        for name in ("sin1d", "sin2d", "series-beta2", "const4"):
            truth = get_truth(name)
            field = truth.field(64 if truth.dim == 1 else 17)
            assert np.all(field.values > 0.0)

    def test_rate_exponents(self):
        assert get_truth("sin1d").rate_exponent == 0.5
        assert get_truth("series-beta2").rate_exponent == pytest.approx(2.0 / 5.0)
        assert get_truth("sin2d").rate_exponent == 0.5

    def test_sin1d_values(self):
        field = get_truth("sin1d").field(5)
        np.testing.assert_allclose(field.values, [2.0, 3.0, 2.0, 1.0, 2.0], atol=1e-12)
