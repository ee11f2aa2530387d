"""Command-line interface: subcommands, exit codes, file outputs."""

import json
import math
import os
import resource
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

from sgcp import (DataError, Grid, SgcpPrior, experiment, get_truth, inference,
                  read_field_csv, read_pattern_csv, rng_for, write_field_csv)
from sgcp.cli import main
from sgcp.inference import NumericalError, geweke_joint_test

SRC = Path(__file__).resolve().parents[1] / "src"


@pytest.fixture(scope="module")
def sim_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("sim")
    code = main(["simulate", "--out", str(out), "--n", "20",
                 "--seed", "11", "--resolution", "16"])
    assert code == 0
    return out


class TestSimulate:
    def test_outputs(self, sim_dir):
        meta = json.loads((sim_dir / "simulate.json").read_text())
        assert meta["n"] == 20
        assert meta["seed"] == 11
        assert len(meta["counts"]) == 20
        assert meta["total_points"] == sum(meta["counts"])
        patterns = sorted(sim_dir.glob("pattern_*.csv"))
        assert len(patterns) == 20
        pat = read_pattern_csv(patterns[0])
        assert pat.n == meta["counts"][0]
        truth = read_field_csv(sim_dir / "truth.csv")
        assert truth.grid.resolution == 16

    def test_bitwise_repeatable(self, sim_dir, tmp_path):
        out2 = tmp_path / "again"
        assert main(["simulate", "--out", str(out2), "--n", "20",
                     "--seed", "11", "--resolution", "16"]) == 0
        for name in ["simulate.json", "truth.csv", "pattern_0003.csv"]:
            assert (out2 / name).read_bytes() == (sim_dir / name).read_bytes()

    def test_zero_patterns_writes_manifest_only(self, tmp_path):
        out = tmp_path / "empty"
        assert main(["simulate", "--out", str(out), "--n", "0"]) == 0
        assert list(out.glob("pattern_*.csv")) == []
        meta = json.loads((out / "simulate.json").read_text())
        assert meta["total_points"] == 0
        assert meta["integral"] == pytest.approx(2.0)  # sin1d mass is exact

    def test_constant_truth_poisson_aggregate(self, tmp_path):
        # 100 patterns from a constant-4 truth: total ~ Poisson(400)
        out = tmp_path / "agg"
        assert main(["simulate", "--out", str(out), "--n", "100",
                     "--truth", "const4", "--seed", "3"]) == 0
        meta = json.loads((out / "simulate.json").read_text())
        assert abs(meta["total_points"] - 400) <= 3 * 20.0

    def test_unknown_truth_is_config_error(self, tmp_path):
        code = main(["simulate", "--out", str(tmp_path / "x"),
                     "--n", "2", "--truth", "nope"])
        assert code == 2


def _log_posts(out):
    """The ``log_post`` column of a fit's ``chain.csv``."""
    rows = [ln for ln in (out / "chain.csv").read_text().splitlines() if not ln.startswith("#")]
    return [float(row.split(",")[3]) for row in rows[1:]]


class TestFit:
    def test_fit_and_repeat(self, sim_dir, tmp_path):
        args = ["fit", "--data", str(sim_dir), "--seed", "11",
                "--n-iter", "1500", "--n-burn", "500", "--resolution", "16"]
        out1, out2 = tmp_path / "f1", tmp_path / "f2"
        assert main(args + ["--out", str(out1)]) == 0
        assert main(args + ["--out", str(out2)]) == 0
        summary = json.loads((out1 / "fit.json").read_text())
        assert summary["n_patterns"] == 20
        assert summary["lambda_star_mean"] > 0.0
        assert set(summary) == {  # distance and radius: truth.csv was present
            "accept_ell", "backend", "config_fingerprint", "credible_radius_090",
            "distance_mean_to_truth", "ell_mean", "evaluations_per_sweep", "lambda_star_mean",
            "n_eff_ell", "n_eff_lambda_star", "n_kept", "n_patterns", "n_points", "resolution",
            "seed"}
        for name in ["fit.json", "posterior_mean.csv", "chain.csv",
                     "intensity_draws.csv"]:
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes()
        field = read_field_csv(out1 / "posterior_mean.csv")
        assert field.grid.resolution == 16

    def test_unmeasurable_ess_written_as_null(self, sim_dir, tmp_path, monkeypatch):
        monkeypatch.setattr(inference, "effective_sample_size", lambda x: math.nan)
        out = tmp_path / "f"
        assert main(["fit", "--data", str(sim_dir), "--out", str(out),
                     "--n-iter", "60", "--n-burn", "10", "--resolution", "16"]) == 0
        text = (out / "fit.json").read_text()
        assert "NaN" not in text
        summary = json.loads(text)
        assert summary["n_eff_ell"] is None and summary["n_eff_lambda_star"] is None

    def test_fit_2d_and_repeat(self, tmp_path):
        data = tmp_path / "sim2d"
        assert main(["simulate", "--out", str(data), "--n", "10", "--truth", "sin2d",
                     "--resolution", "8", "--seed", "13"]) == 0
        args = ["fit", "--data", str(data), "--seed", "13", "--n-iter", "300",
                "--n-burn", "100", "--resolution", "8"]
        out1, out2 = tmp_path / "f1", tmp_path / "f2"
        assert main(args + ["--out", str(out1)]) == 0
        assert main(args + ["--out", str(out2)]) == 0
        summary = json.loads((out1 / "fit.json").read_text())
        assert summary["n_patterns"] == 10
        assert math.isfinite(summary["distance_mean_to_truth"])
        assert read_field_csv(out1 / "posterior_mean.csv").grid.dim == 2
        for name in ["fit.json", "posterior_mean.csv", "chain.csv",
                     "intensity_draws.csv"]:
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes()

    def test_chain_files_content(self, sim_dir, tmp_path):
        out = tmp_path / "f"
        assert main(["fit", "--data", str(sim_dir), "--out", str(out),
                     "--seed", "11", "--n-iter", "1500", "--n-burn", "500",
                     "--resolution", "16"]) == 0
        lines = (out / "chain.csv").read_text().splitlines()
        meta = [ln for ln in lines if ln.startswith("#")]
        assert "# seed=11" in meta
        header, *draws = [ln.split(",") for ln in lines if not ln.startswith("#")]
        assert header == ["iteration", "ell", "lambda_star", "log_post"]
        assert len(draws) == 200  # (1500-500)/5
        assert [int(d[0]) for d in draws] == list(range(500, 1500, 5))  # from n_burn
        # draws matrix: comment meta, a dim,resolution header, one row per draw
        rows = [ln for ln in (out / "intensity_draws.csv").read_text().splitlines()
                if not ln.startswith("#")]
        assert rows[0] == "1,16"
        assert len(rows) - 1 == len(draws)
        assert all(len(r.split(",")) == 16 for r in rows[1:])

    @pytest.mark.parametrize("lam_shape", ["0.001", "0.0005"])
    def test_tiny_ceiling_shape_without_points(self, tmp_path, lam_shape):
        # Gamma(a + N) with a + N far below 1 underflows to 0, and at 0.0005 so
        # does its median, the chain's start; lam* is kept in log space
        data = tmp_path / "data"
        data.mkdir()
        (data / "pattern_0000.csv").write_text("1,resolution-free\n")
        cfg = tmp_path / "c.ini"
        cfg.write_text(f"[prior]\nlam_shape = {lam_shape}\n")
        for seed in range(1, 7):
            out = tmp_path / f"o{seed}"
            assert main(["fit", "--data", str(data), "--config", str(cfg), "--out", str(out),
                         "--n-iter", "200", "--n-burn", "50", "--resolution", "8",
                         "--seed", str(seed)]) == 0
            assert all(map(math.isfinite, _log_posts(out)))

    def test_length_scale_that_underflows_to_zero_runs(self, tmp_path):
        # the chain starts at the prior median, about 1e-301, and a log ell
        # proposal below about -745 gives ell = 0.0; ell's prior is scored
        # from log ell, so the move weighs that proposal instead of raising
        data = tmp_path / "data"
        assert main(["simulate", "--out", str(data), "--n", "6", "--seed", "3"]) == 0
        cfg = tmp_path / "c.ini"
        cfg.write_text("[prior]\nell_shape = 1e-3\n")
        for seed in range(1, 7):
            out = tmp_path / f"o{seed}"
            assert main(["fit", "--data", str(data), "--config", str(cfg), "--out", str(out),
                         "--n-iter", "200", "--n-burn", "50", "--resolution", "8",
                         "--seed", str(seed)]) == 0
            assert all(map(math.isfinite, _log_posts(out)))

    def test_missing_patterns_is_data_error(self, tmp_path):
        empty = tmp_path / "empty"
        empty.mkdir()
        code = main(["fit", "--data", str(empty), "--out", str(tmp_path / "o")])
        assert code == 3

    @pytest.mark.parametrize("kind", ["missing", "file"])
    def test_data_path_not_a_directory_is_data_error(self, tmp_path, capsys, kind):
        data = tmp_path / "data"
        if kind == "file":
            data.write_text("1,resolution-free\n0.5\n")
        out = tmp_path / "o"
        assert main(["fit", "--data", str(data), "--out", str(out)]) == 3
        assert "cannot list --data" in capsys.readouterr().err
        assert not out.exists()

    def test_unreadable_pattern_is_data_error(self, tmp_path, capsys):
        data = tmp_path / "data"
        (data / "pattern_0000.csv").mkdir(parents=True)
        out = tmp_path / "o"
        assert main(["fit", "--data", str(data), "--out", str(out)]) == 3
        assert "cannot read" in capsys.readouterr().err
        assert not out.exists()

    def test_malformed_pattern_is_data_error(self, tmp_path):
        bad = tmp_path / "bad"
        bad.mkdir()
        (bad / "pattern_0000.csv").write_text("1,resolution-free\nbogus\n")
        code = main(["fit", "--data", str(bad), "--out", str(tmp_path / "o2"),
                     "--n-iter", "100", "--n-burn", "10"])
        assert code == 3

    @pytest.mark.parametrize("name", ["pattern_0001.csv", "truth.csv"])
    def test_non_utf8_file_is_data_error(self, tmp_path, capsys, name):
        data = tmp_path / "latin"
        data.mkdir()
        (data / "pattern_0000.csv").write_text("1,resolution-free\n0.5\n")
        (data / name).write_bytes(b"1,resolution-free\n0.5\xff\n")
        out = tmp_path / "o"
        code = main(["fit", "--data", str(data), "--out", str(out),
                     "--n-iter", "100", "--n-burn", "10"])
        assert code == 3
        assert f"{name}: not UTF-8 text" in capsys.readouterr().err
        assert not out.exists()

    def test_nan_coordinate_is_data_error(self, tmp_path):
        bad = tmp_path / "nan"
        bad.mkdir()
        (bad / "pattern_0000.csv").write_text("1,resolution-free\n0.25\nnan\n")
        code = main(["fit", "--data", str(bad), "--out", str(tmp_path / "o3"),
                     "--n-iter", "100", "--n-burn", "10"])
        assert code == 3

    @pytest.mark.parametrize("dim", ["0", "-1"])
    def test_dim_below_one_is_data_error(self, tmp_path, dim):
        bad = tmp_path / "dim"
        bad.mkdir()
        (bad / "pattern_0000.csv").write_text(f"{dim},resolution-free\n")
        with pytest.raises(DataError, match="dim must be at least 1"):
            read_pattern_csv(bad / "pattern_0000.csv")
        code = main(["fit", "--data", str(bad), "--out", str(tmp_path / "o5"),
                     "--n-iter", "100", "--n-burn", "10"])
        assert code == 3

    def test_truth_dimension_mismatch_is_data_error(self, sim_dir, tmp_path, capsys):
        data = tmp_path / "mixed"
        data.mkdir()
        for src in sorted(sim_dir.glob("pattern_*.csv")):
            (data / src.name).write_bytes(src.read_bytes())
        write_field_csv(get_truth("sin2d").field(8), data / "truth.csv", {})
        out = tmp_path / "o6"
        code = main(["fit", "--data", str(data), "--out", str(out),
                     "--n-iter", "100", "--n-burn", "10"])
        assert code == 3
        assert "2-D but the patterns are 1-D" in capsys.readouterr().err
        assert not out.exists()  # refused before the chain ran

    def test_unsampled_link_is_config_error(self, sim_dir, tmp_path, capsys):
        # the logistic link is the only one, so [prior] link is not a key at all
        cfg = tmp_path / "link.ini"
        cfg.write_text("[prior]\nlink = logistic\n")
        code = main(["fit", "--data", str(sim_dir), "--config", str(cfg),
                     "--out", str(tmp_path / "o4"), "--n-iter", "100", "--n-burn", "10"])
        assert code == 2
        assert main(["verify-priors", "--config", str(cfg)]) == 2
        assert capsys.readouterr().err.count("unknown config key prior.link") == 2


class TestConfigHandling:
    def test_config_file_applies(self, tmp_path):
        cfg = tmp_path / "h.ini"
        cfg.write_text("[experiment]\nseed = 123\nresolution = 8\n")
        out = tmp_path / "sim"
        assert main(["simulate", "--config", str(cfg), "--out", str(out), "--n", "3"]) == 0
        meta = json.loads((out / "simulate.json").read_text())
        assert meta["seed"] == 123
        assert meta["resolution"] == 8

    def test_flag_overrides_file(self, tmp_path):
        cfg = tmp_path / "h.ini"
        cfg.write_text("[experiment]\nseed = 123\n")
        out = tmp_path / "sim"
        assert main(["simulate", "--config", str(cfg), "--out", str(out),
                     "--n", "2", "--seed", "9"]) == 0
        assert json.loads((out / "simulate.json").read_text())["seed"] == 9

    def test_unknown_key_rejected(self, tmp_path):
        cfg = tmp_path / "h.ini"
        cfg.write_text("[experiment]\nspeed = 5\n")
        assert main(["simulate", "--config", str(cfg),
                     "--out", str(tmp_path / "x"), "--n", "2"]) == 2

    def test_bad_value_rejected(self, tmp_path):
        cfg = tmp_path / "h.ini"
        cfg.write_text("[chain]\nn_iter = soon\n")
        assert main(["simulate", "--config", str(cfg),
                     "--out", str(tmp_path / "x"), "--n", "2"]) == 2

    def test_missing_config_file_rejected(self, tmp_path):
        assert main(["simulate", "--config", str(tmp_path / "absent.ini"),
                     "--out", str(tmp_path / "x"), "--n", "2"]) == 2

    @pytest.mark.parametrize("command", [["simulate", "--n", "2"], ["verify-priors"]],
                             ids=["simulate", "verify-priors"])
    @pytest.mark.parametrize("ini, flags", [
        ("[experiment]\nradius_constant = -1\n", []),
        ("[experiment]\nns = 0, 5\n", []),
        ("", ["--seed", "-3"]),
        ("[prior]\nlam_shape = nan\n", []),
        ("[prior]\nlam_rate = inf\n", []),
        ("[prior]\nell_shape = nan\n", []),
        ("[prior]\nell_rate = inf\n", []),
        ("[experiment]\nradius_constant = inf\n", []),
        ("[chain]\nstep_log_ell = 0.3\n", []),
        ("[prior]\nell_shape = 1e-300\n", []),
        ("[prior]\nell_shape = 1e300\nell_rate = 1e-300\n", []),
    ], ids=["radius-constant", "design-size", "seed", "lam-shape-nan", "lam-rate-inf",
            "ell-shape-nan", "ell-rate-inf", "radius-constant-inf", "removed-key",
            "ell-median-underflow", "ell-median-overflow"])
    def test_out_of_range_value_rejected_by_every_command(self, tmp_path, command, ini, flags):
        cfg = tmp_path / "h.ini"
        cfg.write_text(ini)
        out = tmp_path / "x"
        assert main(command + flags + ["--config", str(cfg), "--out", str(out)]) == 2
        assert not out.exists()

    @pytest.mark.parametrize("command", [
        ["fit", "--n-iter", "200", "--n-burn", "50"],
        ["calibrate", "--rounds", "64", "--resolution", "8", "--sweeps", "1"],
    ], ids=["fit", "calibrate"])
    @pytest.mark.parametrize("ini", ["[prior]\nell_shape = 1e300\n",
                                     "[prior]\nell_rate = 1e-300\n",
                                     "[prior]\nell_shape = 1e300\nell_rate = 1e-8\n"],
                             ids=["ell-shape-huge", "ell-rate-tiny", "ell-median-near-max"])
    def test_length_scale_whose_square_overflows_runs(self, sim_dir, tmp_path, capsys,
                                                      command, ini):
        # the loader accepts these priors, so the sampler must run on them and
        # write valid JSON; at a median of 1e308 a proposal whose ell overflows
        # is rejected, and fit's means must not overflow to inf
        cfg = tmp_path / "h.ini"
        cfg.write_text(ini)
        if command[0] == "fit":
            command = command + ["--data", str(sim_dir)]
        out = tmp_path / "x"
        code = main(command + ["--config", str(cfg), "--out", str(out)])
        assert code in (0, 5)
        err = capsys.readouterr().err
        assert "finite numbers" not in err and "Traceback" not in err

        def refuse(name):
            raise ValueError(f"{name} is not JSON")

        written = sorted(out.glob("*.json*"))
        assert written
        for path in written:
            for line in ([path.read_text()] if path.suffix == ".json"
                         else path.read_text().splitlines()):
                json.loads(line, parse_constant=refuse)


# --baseline files that bench must refuse before it runs, by name under tmp_path
BAD_BASELINES = {
    "bad.json": b'{"slope": ',
    "latin.json": b'{"slope": -0.5, "truth": "\xff"}',
    "noslope.json": b'{"ns": [25, 50]}',
    "null.json": b'{"slope": null}',
    "text.json": b'{"slope": "steep"}',
    "bool.json": b'{"slope": true}',
}


@pytest.mark.parametrize("argv", [
    ["simulate", "--n", "-5"],
    ["calibrate", "--rounds", "0"],
    ["calibrate", "--sweeps", "0"],
    ["calibrate", "--rounds", "10"],
    ["verify-priors", "--delta", "-1"],
    ["verify-priors", "--delta", "inf"],
    ["verify-priors", "--delta", "1e300"],
    ["bench", "--baseline", "absent.json"],
    ["bench", "--baseline", "."],
    *(["bench", "--baseline", name] for name in BAD_BASELINES),
], ids=["simulate-n", "calibrate-rounds", "calibrate-sweeps",
        "calibrate-few-rounds", "verify-priors-delta",
        "verify-priors-delta-inf", "verify-priors-delta-huge",
        "bench-baseline-missing", "bench-baseline-directory", "bench-baseline-bad-json",
        "bench-baseline-not-utf8", "bench-baseline-no-slope", "bench-baseline-null-slope",
        "bench-baseline-text-slope", "bench-baseline-bool-slope"])
def test_bad_subcommand_argument_is_config_error(tmp_path, argv):
    for name, content in BAD_BASELINES.items():
        (tmp_path / name).write_bytes(content)
    if "--baseline" in argv:
        argv = argv[:-1] + [str(tmp_path / argv[-1])]
    out = tmp_path / "x"
    assert main(argv + ["--out", str(out)]) == 2
    assert not out.exists()


class TestBench:
    """The bench's reporting and baseline check, on ``power_law_cells``."""

    def test_power_law_run_and_baseline_pass(self, tmp_path, power_law_cells):
        out = tmp_path / "b1"
        assert main(["bench", "--out", str(out),
                     "--ns", "25,50,100", "--replicates", "2"]) == 0
        report = json.loads((out / "report.json").read_text())
        assert report["slope"] == pytest.approx(-0.5, abs=1e-12)
        assert (out / "cells.csv").exists() and (out / "medians.csv").exists()
        # self-comparison must pass the band check
        code = main(["bench", "--out", str(tmp_path / "b2"),
                     "--ns", "25,50,100", "--replicates", "2",
                     "--baseline", str(out / "report.json")])
        assert code == 0

    def test_baseline_mismatch_fails(self, tmp_path, power_law_cells):
        base = tmp_path / "base.json"
        base.write_text(json.dumps({"slope": -0.9}))
        code = main(["bench", "--out", str(tmp_path / "b"),
                     "--ns", "25,50,100", "--replicates", "2",
                     "--baseline", str(base)])
        assert code == 5

    def test_shallow_baseline_fails(self, tmp_path, power_law_cells):
        base = tmp_path / "base.json"
        base.write_text(json.dumps({"slope": -0.2}))
        out = tmp_path / "b"
        code = main(["bench", "--out", str(out),
                     "--ns", "25,50,100", "--replicates", "2",
                     "--baseline", str(base)])
        assert code == 5
        assert not out.exists()  # refused before the design runs

    def test_power_law_bitwise_repeatable(self, tmp_path, power_law_cells):
        a, b = tmp_path / "ra", tmp_path / "rb"
        args = ["bench", "--ns", "25,50", "--replicates", "2"]
        assert main(args + ["--out", str(a)]) == 0
        assert main(args + ["--out", str(b)]) == 0
        assert (a / "report.json").read_bytes() == (b / "report.json").read_bytes()


_SPLIT_BENCH = ["bench", "--ns", "5,10", "--replicates", "2", "--resolution", "8",
                "--n-iter", "400", "--n-burn", "100", "--seed", "17"]


def _cpus(monkeypatch, count):
    """Make the bench see ``count`` usable CPUs, whatever this host has."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(count)), raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: count)


def _count_forks(monkeypatch):
    forks = []
    real_fork = os.fork

    def fork():
        forks.append(1)
        return real_fork()

    monkeypatch.setattr(os, "fork", fork)
    return forks


def _no_child_left():
    try:
        os.waitpid(-1, os.WNOHANG)
    except ChildProcessError:
        return True
    return False


class TestBenchCellSplit:
    """The cells of a design run on the usable CPUs; outputs do not depend on how many."""

    def _run(self, monkeypatch, capsys, tmp_path, cpus, argv):
        _cpus(monkeypatch, cpus)
        forks = _count_forks(monkeypatch)
        out = tmp_path / f"cpus{cpus}"
        code = main(argv + ["--verbose", "--out", str(out)])
        files = {p.name: p.read_bytes() for p in sorted(out.iterdir())} if out.exists() else {}
        return code, files, capsys.readouterr().out, len(forks)

    def test_outputs_independent_of_cpu_count(self, monkeypatch, capsys, tmp_path):
        one = self._run(monkeypatch, capsys, tmp_path, 1, _SPLIT_BENCH)
        assert one[0] == 0
        assert sorted(one[1]) == ["cells.csv", "medians.csv", "report.json"]
        assert one[2].count("  n=") == 4 and one[3] == 0  # one CPU forks nothing
        # four workers for four cells, more than this host may have: W - 1 forks
        for cpus, forks in ((2, 1), (4, 3)):
            code, files, stdout, forked = self._run(monkeypatch, capsys, tmp_path, cpus,
                                                    _SPLIT_BENCH)
            assert (code, files, stdout, forked) == (0, one[1], one[2], forks)
        assert _no_child_left()

    def test_child_failure_is_reraised(self, monkeypatch, capsys, tmp_path):
        parent, real_run_chain = os.getpid(), experiment.run_chain

        def run_chain(*args, **kwargs):
            if os.getpid() != parent:
                raise NumericalError("broken in a child")
            time.sleep(1.0)  # the child takes the next cell meanwhile
            return real_run_chain(*args, **kwargs)

        def always_fails(*args, **kwargs):
            raise NumericalError("broken")

        monkeypatch.setattr(experiment, "run_chain", always_fails)
        serial_code, files, _, _ = self._run(monkeypatch, capsys, tmp_path, 1, _SPLIT_BENCH)
        assert serial_code == 4 and not files
        monkeypatch.setattr(experiment, "run_chain", run_chain)
        _cpus(monkeypatch, 2)
        out = tmp_path / "split"
        code = main(_SPLIT_BENCH + ["--out", str(out)])
        assert code == serial_code
        assert "broken in a child" in capsys.readouterr().err
        assert not out.exists()
        assert _no_child_left()

    def test_child_that_dies_is_an_error(self, monkeypatch, tmp_path):
        parent, real_run_chain = os.getpid(), experiment.run_chain

        def run_chain(*args, **kwargs):
            if os.getpid() != parent:
                os._exit(3)
            time.sleep(1.0)
            return real_run_chain(*args, **kwargs)

        monkeypatch.setattr(experiment, "run_chain", run_chain)
        _cpus(monkeypatch, 2)
        out = tmp_path / "dead"
        with pytest.raises(RuntimeError, match="without sending its cells"):
            main(_SPLIT_BENCH + ["--out", str(out)])
        assert not out.exists()
        assert _no_child_left()


class TestCalibrate:
    def test_clean_passes(self, tmp_path, capsys):
        out = tmp_path / "cal"
        code = main(["calibrate", "--rounds", "3000", "--resolution", "8",
                     "--sweeps", "4", "--seed", "55", "--out", str(out)])
        assert code == 0
        blob = json.loads((out / "calibrate.json").read_text())
        assert blob["diverged"] is False
        assert len(blob["z_scores"]) == 6
        assert "CALIBRATION PASS" in capsys.readouterr().out

    def test_mutated_fails(self, capsys, drop_integral):
        code = main(["calibrate", "--rounds", "3000", "--resolution", "8",
                     "--sweeps", "4", "--seed", "55"])
        assert code == 5
        assert "CALIBRATION FAIL" in capsys.readouterr().out

    @pytest.mark.parametrize("dim", [0, -1])
    def test_dim_below_one_is_refused(self, dim, capsys, tmp_path):
        out = tmp_path / "c"
        assert main(["calibrate", "--dim", str(dim), "--rounds", "64", "--out", str(out)]) == 2
        assert "--dim" in capsys.readouterr().err
        assert not out.exists()

    def test_json_names_the_dimension_and_sweeps(self, tmp_path):
        out = tmp_path / "c"
        assert main(["calibrate", "--dim", "2", "--sweeps", "2", "--rounds", "64",
                     "--resolution", "4", "--out", str(out)]) in (0, 5)
        blob = json.loads((out / "calibrate.json").read_text())
        assert (blob["dim"], blob["sweeps_per_round"]) == (2, 2)

    def test_statistic_without_spread_is_unmeasured(self, tmp_path, capsys):
        # at ell_shape 1e300 neither side's ell draws vary: ell is reported as
        # unmeasured, not as a perfect z of 0
        cfg = tmp_path / "h.ini"
        cfg.write_text("[prior]\nell_shape = 1e300\n")
        out = tmp_path / "c"
        code = main(["calibrate", "--config", str(cfg), "--rounds", "64", "--resolution", "8",
                     "--sweeps", "1", "--out", str(out)])
        lines = capsys.readouterr().out.splitlines()
        assert "z[ell] = unmeasured" in lines
        assert lines[-1].endswith("; unmeasured: ell)")
        assert code == (0 if lines[-1].startswith("CALIBRATION PASS") else 5)
        assert json.loads((out / "calibrate.json").read_text())["z_scores"]["ell"] is None

    def test_grid_flag_stays_out_of_the_fingerprint(self, tmp_path):
        # calibrate's --resolution sizes its own grid, not experiment.resolution
        cfg = tmp_path / "h.ini"
        cfg.write_text("[experiment]\nresolution = 32\n")
        assert main(["calibrate", "--config", str(cfg), "--rounds", "64", "--resolution", "8",
                     "--sweeps", "1", "--out", str(tmp_path / "c")]) in (0, 5)
        assert main(["verify-priors", "--config", str(cfg), "--out", str(tmp_path / "v")]) == 0
        calibrated = json.loads((tmp_path / "c" / "calibrate.json").read_text())
        verified = json.loads((tmp_path / "v" / "verify.json").read_text())
        assert calibrated["resolution"] == 8
        assert calibrated["config_fingerprint"] == verified["config_fingerprint"]


class TestCalibrateSegmentSplit:
    """The chained segments run on the usable CPUs; results do not depend on how many."""

    def test_outputs_independent_of_cpu_count(self, monkeypatch, capsys, tmp_path):
        runs = []
        for cpus in (1, 2, 3):
            _cpus(monkeypatch, cpus)
            forks = _count_forks(monkeypatch)
            result = geweke_joint_test(SgcpPrior(dim=1), Grid(1, 8), rng_for(17, 7),
                                       n_rounds=256, sweeps_per_round=2)
            out = tmp_path / f"cpus{cpus}"
            code = main(["calibrate", "--rounds", "256", "--resolution", "8", "--sweeps", "2",
                         "--seed", "17", "--out", str(out)])
            runs.append((result, code, (out / "calibrate.json").read_bytes(),
                         capsys.readouterr().out))
            assert len(forks) == 2 * (min(2, cpus) - 1)  # one per call at W >= 2
        assert runs[0][0].n_rounds == 256 and not runs[0][0].diverged
        assert runs[0][1] in (0, 5)  # 256 rounds are too few for a reliable verdict
        assert runs[1] == runs[0] and runs[2] == runs[0]
        assert _no_child_left()

    def test_diverged_rounds_independent_of_cpu_count(self, monkeypatch, capsys, tmp_path,
                                                      drop_integral):
        # at ceiling rate 0.8 the mutated chain diverges within 128 rounds: at
        # seed 3 in the first segment, at seed 4 in the second
        cfg = tmp_path / "rate.ini"
        cfg.write_text("[prior]\nlam_rate = 0.8\n")
        completed = []
        for seed in ("3", "4"):
            argv = ["calibrate", "--rounds", "128", "--resolution", "8", "--sweeps", "2",
                    "--seed", seed, "--config", str(cfg)]
            outputs = []
            for cpus in (1, 2):
                _cpus(monkeypatch, cpus)
                assert main(argv) == 5
                outputs.append(capsys.readouterr().out)
            assert outputs[1] == outputs[0]
            line = next(ln for ln in outputs[0].splitlines() if ln.startswith("rounds"))
            assert line.endswith("diverged: True")
            completed.append(int(line.split(":")[1].split(";")[0]))
        assert completed[0] < 64 < completed[1] < 128
        assert _no_child_left()

    def test_child_failure_is_reraised(self, monkeypatch):
        parent, real_simulate = os.getpid(), inference.simulate_thinning
        calls = []

        def simulate_thinning(*args, **kwargs):
            if os.getpid() != parent:
                raise NumericalError("broken in a child")
            if not calls:
                time.sleep(1.0)  # the child takes the other segment meanwhile
            calls.append(1)
            return real_simulate(*args, **kwargs)

        monkeypatch.setattr(inference, "simulate_thinning", simulate_thinning)
        _cpus(monkeypatch, 2)
        with pytest.raises(NumericalError, match="broken in a child"):
            geweke_joint_test(SgcpPrior(dim=1), Grid(1, 8), rng_for(17, 7), n_rounds=64,
                              sweeps_per_round=5)
        assert _no_child_left()

    def test_oversized_grid_refused_before_any_draw_or_fork(self, monkeypatch, capsys):
        _cpus(monkeypatch, 2)
        forks = _count_forks(monkeypatch)
        drawn = []
        monkeypatch.setattr(inference, "_forward_stats", lambda *a: drawn.append(a))
        assert main(["calibrate", "--dim", "4", "--resolution", "16", "--rounds", "64"]) == 2
        assert "guarded at 4096" in capsys.readouterr().err
        assert not forks and not drawn

    def test_bench_oversized_grid_refused_before_any_pattern_or_fork(self, monkeypatch, capsys,
                                                                     tmp_path):
        _cpus(monkeypatch, 2)
        forks = _count_forks(monkeypatch)
        drawn = []
        monkeypatch.setattr(experiment, "simulate_thinning", lambda *a: drawn.append(a))
        out = tmp_path / "b"
        assert main(["bench", "--truth", "sin2d", "--resolution", "70", "--ns", "2,3",
                     "--replicates", "1", "--n-iter", "2", "--n-burn", "1",
                     "--out", str(out)]) == 2
        assert "grid has 4900 nodes" in capsys.readouterr().err
        assert not forks and not drawn and not out.exists()


    @pytest.mark.parametrize("ini, message", [
        ("lam_shape = 1e30\nlam_rate = 1e-30", "above LAMBDA_CAP = 100000"),
        ("lam_shape = 1e8\nlam_rate = 1e-8", "above LAMBDA_CAP = 100000"),
        ("lam_shape = 2\nlam_rate = 1e-4", "above LAMBDA_CAP = 100000"),
        ("ell_shape = 0.002", "the length-scale prior on ell^d Gamma(shape 0.002, rate 1.0) "
                              "puts mass 0.226 below the smallest positive float"),
        ("lam_shape = 1e-8", "the ceiling prior Gamma(shape 1e-08, rate 1.0) "
                             "puts mass 1 below the smallest positive float"),
    ], ids=["ceiling-1e30", "ceiling-1e8", "ceiling-mean-2e4", "ell-shape-0.002",
            "lam-shape-1e-8"])
    def test_ceiling_prior_above_the_cap_refused_before_any_draw_or_fork(
            self, monkeypatch, capsys, tmp_path, ini, message):
        # the loader accepts these priors, but the first three put more than
        # 1e-6 of their mass where the joint test reports divergence (at the
        # 1e8 prior the forward side would thin about 1e8 candidates per
        # round), and the last two a draw of ell^d or lam* on 0 in about a
        # quarter or in all of the rounds: ell then has no log (at seeds 4 and
        # 6 the chained side's first draw of ell^d is 0), and the thinning
        # refuses a ceiling of 0
        _cpus(monkeypatch, 2)
        forks = _count_forks(monkeypatch)
        drawn = []
        monkeypatch.setattr(inference, "_forward_stats", lambda *a: drawn.append(a))
        cfg = tmp_path / "c.ini"
        cfg.write_text(f"[prior]\n{ini}\n")
        assert main(["calibrate", "--config", str(cfg), "--rounds", "64", "--resolution", "8",
                     "--sweeps", "1", "--seed", "4"]) == 2
        assert message in capsys.readouterr().err
        assert not forks and not drawn


class TestVerifyPriors:
    def test_passes_with_defaults(self, tmp_path, capsys):
        out = tmp_path / "v"
        code = main(["verify-priors", "--out", str(out)])
        assert code == 0
        text = capsys.readouterr().out
        assert text.count("PASS") == 4
        blob = json.loads((out / "verify.json").read_text())
        assert all(c["passed"] for c in blob["checks"])

    @pytest.mark.parametrize("shape", ["1e8", "1e300"])
    def test_huge_length_scale_shape_passes(self, tmp_path, capsys, shape):
        # the envelope's leading constant d b^a / Gamma(a) overflows a float
        cfg = tmp_path / "h.ini"
        cfg.write_text(f"[prior]\nell_shape = {shape}\n")
        assert main(["verify-priors", "--config", str(cfg)]) == 0
        assert capsys.readouterr().out.count("PASS") == 4

    @pytest.mark.parametrize("dim, code", [(154, 0), (155, 2), (10**6, 2), (0, 2), (-1, 2)])
    def test_dim_past_the_probe_window_is_refused(self, dim, code, capsys):
        # the length-scale envelope is probed up to x = 100, and 100**155 is no float
        assert main(["verify-priors", "--dim", str(dim)]) == code
        assert ("--dim" in capsys.readouterr().err) == (code == 2)

    @pytest.mark.parametrize("dim", [1, 2])
    def test_moment_check_passes_at_large_tilt(self, dim, capsys):
        # the Gaussian spectral measure has every exponential moment
        assert main(["verify-priors", "--delta", "2", "--dim", str(dim)]) == 0
        assert "FAIL" not in capsys.readouterr().out


def _src_env():
    # pytest's `pythonpath` setting reaches only its own sys.path, not a child's
    return {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, (str(SRC), os.environ.get("PYTHONPATH"))))}


def _assert_help(cmd, env=None):
    r = subprocess.run(cmd, capture_output=True, text=True, env=env)
    assert r.returncode == 0, f"{cmd}: {r.stderr}"
    assert "simulate" in r.stdout and "bench" in r.stdout


def test_console_script_help():
    installed = shutil.which("sgcp")
    if installed:
        _assert_help([installed, "--help"])
    # the entry point [project.scripts] declares, started as pip's wrapper starts
    # it, so a checkout without an install checks it too
    tomllib = pytest.importorskip("tomllib")
    with open(SRC.parent / "pyproject.toml", "rb") as f:
        module, _, attr = tomllib.load(f)["project"]["scripts"]["sgcp"].partition(":")
    wrapper = (f"import sys\nfrom {module} import {attr}\n"
               f"sys.argv[0] = 'sgcp'\nsys.exit({attr}())")
    _assert_help([sys.executable, "-c", wrapper, "--help"], _src_env())


def _modules_loaded_by(statement, modules):
    # a fresh interpreter: pytest has already imported scipy.stats in this one
    probe = (f"import sys, sgcp, sgcp.cli; {statement}; "
             f"print(sorted(m for m in {modules!r} if m in sys.modules))")
    r = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                       env=_src_env())
    assert r.returncode == 0, r.stderr
    return r.stdout.strip().splitlines()[-1]


def test_import_skips_scipy_stats_and_integrate():
    assert _modules_loaded_by(
        "pass", ("scipy.stats", "scipy.integrate", "multiprocessing")) == "[]"


def test_verify_priors_skips_scipy_integrate():
    assert _modules_loaded_by("sgcp.cli.main(['verify-priors'])", ("scipy.integrate",)) == "[]"


_CHILD_ADDRESS_SPACE = 1 << 30  # bytes: room for numpy and scipy, none for a runaway array


def _run_limited(argv):
    """``sgcp argv`` in a child with its own address-space limit and one BLAS
    thread, so an allocation too large fails there whatever the host's
    overcommit policy."""
    def limit():
        resource.setrlimit(resource.RLIMIT_AS, (_CHILD_ADDRESS_SPACE, _CHILD_ADDRESS_SPACE))

    threads = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
    return subprocess.run([sys.executable, "-m", "sgcp.cli", *argv], capture_output=True,
                          text=True, env={**_src_env(), **dict.fromkeys(threads, "1")},
                          preexec_fn=limit, timeout=120)


@pytest.mark.parametrize("argv", [
    ["fit", "--n-iter", "1000000000000"],
    ["simulate", "--truth", "sin2d", "--resolution", "3000000", "--n", "1"],
    # each cell fails, in the calling process and in a forked worker alike
    ["bench", "--ns", "2,3", "--replicates", "2", "--resolution", "8",
     "--n-iter", "1000000000000", "--n-burn", "1"],
], ids=["fit", "simulate", "bench"])
def test_run_that_cannot_be_allocated_is_config_error(sim_dir, tmp_path, argv):
    out = tmp_path / "x"
    if argv[0] == "fit":
        argv = argv + ["--data", str(sim_dir)]
    r = _run_limited(argv + ["--out", str(out)])
    assert r.returncode == 2
    assert r.stderr.startswith("configuration error: Unable to allocate")
    assert r.stderr.count("\n") == 1
    assert not out.exists()


def test_memory_error_without_a_message_is_named(monkeypatch, capsys, tmp_path):
    # Python's own MemoryError, unlike numpy's, says nothing
    def simulate_thinning(*args):
        raise MemoryError()

    monkeypatch.setattr("sgcp.cli.simulate_thinning", simulate_thinning)
    assert main(["simulate", "--n", "1", "--out", str(tmp_path / "x")]) == 2
    assert capsys.readouterr().err == "configuration error: MemoryError\n"


@pytest.fixture(scope="module")
def six_patterns(tmp_path_factory):
    out = tmp_path_factory.mktemp("six")
    assert main(["simulate", "--out", str(out), "--n", "6", "--seed", "3",
                 "--resolution", "8"]) == 0
    return out


_HUGE_INT = str(10 ** 18)  # as n_iter, fit's draw matrix would take exabytes

# (section, key, huge value, tiny value) for every numeric INI key
_EXTREMES = [
    ("experiment", "ns", f"1, {_HUGE_INT}", "1, 2"),
    ("experiment", "replicates", _HUGE_INT, "1"),
    ("experiment", "resolution", _HUGE_INT, "1"),
    ("experiment", "seed", _HUGE_INT, "1"),
    ("experiment", "radius_constant", "1e300", "1e-300"),
    ("chain", "n_iter", _HUGE_INT, "1"),
    ("chain", "n_burn", _HUGE_INT, "1"),
    ("chain", "thin", _HUGE_INT, "1"),
    ("prior", "ell_shape", "1e300", "1e-300"),
    ("prior", "ell_rate", "1e300", "1e-300"),
    ("prior", "lam_shape", "1e300", "1e-300"),
    ("prior", "lam_rate", "1e300", "1e-300"),
]

_GATE_COMMANDS = {
    "simulate": ["simulate", "--n", "6"],
    "verify-priors": ["verify-priors"],
    "fit": ["fit"],
    "calibrate": ["calibrate", "--rounds", "64", "--resolution", "8", "--sweeps", "1"],
    "bench": ["bench"],
}


@pytest.mark.parametrize("command", list(_GATE_COMMANDS))
@pytest.mark.parametrize("section, key, value", [
    (section, key, value) for section, key, *values in _EXTREMES for value in values
], ids=[f"{key}-{size}" for _, key, *_ in _EXTREMES for size in ("huge", "tiny")])
def test_extreme_value_runs_or_is_refused(six_patterns, tmp_path, capsys, command, section,
                                          key, value):
    # a tiny design, 200 sweeps from the first, with one key at an extreme
    ini = {"experiment": {"ns": "2, 3", "replicates": "1", "resolution": "8"},
           "chain": {"n_iter": "200", "n_burn": "0"}, "prior": {}}
    ini[section][key] = value
    cfg = tmp_path / "h.ini"
    cfg.write_text("".join(f"[{sec}]\n" + "".join(f"{k} = {v}\n" for k, v in keys.items())
                           for sec, keys in ini.items()))
    argv = _GATE_COMMANDS[command] + ["--config", str(cfg), "--out", str(tmp_path / "x")]
    if command == "fit":
        argv += ["--data", str(six_patterns)]
    huge_size = (key, value) == ("n_iter", _HUGE_INT) or (
        (command, key, value) == ("bench", "ns", f"1, {_HUGE_INT}"))
    if huge_size:  # sizes an allocation
        r = _run_limited(argv)
        code, err = r.returncode, r.stderr
    else:
        code, err = main(argv), capsys.readouterr().err
    assert code in (0, 2, 5)
    assert "Traceback" not in err
    if huge_size and command in ("fit", "bench"):
        assert code == 2
    if code == 2:  # every refusal names the key it was given
        assert f"[{section}] {key}" in err


@pytest.mark.parametrize("argv", [
    *([*command, "--config", "truth.ini"] for command in _GATE_COMMANDS.values()),
    ["simulate", "--n", "6", "--truth", "nope"],
    ["bench", "--truth", "nope"],
], ids=[*(f"{name}-ini" for name in _GATE_COMMANDS), "simulate-flag", "bench-flag"])
def test_unknown_truth_is_refused_by_its_key(tmp_path, capsys, argv):
    (tmp_path / "truth.ini").write_text("[experiment]\ntruth = nope\n")
    argv = [str(tmp_path / arg) if arg == "truth.ini" else arg for arg in argv]
    if argv[0] == "fit":
        argv += ["--data", str(tmp_path)]
    out = tmp_path / "x"
    assert main(argv + ["--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "[experiment] truth" in err and "sin1d" in err and "Traceback" not in err
    assert not out.exists()
