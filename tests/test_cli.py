"""Command-line interface: subcommands, exit codes, file outputs."""

import json
import math
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

from sgcp import (DataError, experiment, get_truth, read_field_csv, read_pattern_csv,
                  write_field_csv)
from sgcp.cli import main
from sgcp.inference import NumericalError

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
        assert "distance_mean_to_truth" in summary  # truth.csv was present
        for name in ["fit.json", "posterior_mean.csv", "chain.jsonl",
                     "intensity_draws.csv"]:
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes()
        field = read_field_csv(out1 / "posterior_mean.csv")
        assert field.grid.resolution == 16

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
        for name in ["fit.json", "posterior_mean.csv", "chain.jsonl",
                     "intensity_draws.csv"]:
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes()

    def test_chain_files_content(self, sim_dir, tmp_path):
        out = tmp_path / "f"
        assert main(["fit", "--data", str(sim_dir), "--out", str(out),
                     "--seed", "11", "--n-iter", "1500", "--n-burn", "500",
                     "--resolution", "16"]) == 0
        lines = (out / "chain.jsonl").read_text().splitlines()
        meta = json.loads(lines[0])
        assert meta["kind"] == "sgcp-chain"
        assert meta["seed"] == 11
        assert meta["n_kept"] == len(lines) - 1 == 200  # (1500-500)/5
        draw = json.loads(lines[1])
        assert set(draw) == {"ell", "iteration", "lambda_star", "log_post"}
        assert draw["iteration"] == 500
        # draws matrix: comment meta, a dim,resolution header, one row per draw
        rows = [ln for ln in (out / "intensity_draws.csv").read_text().splitlines()
                if not ln.startswith("#")]
        assert rows[0] == "1,16"
        assert len(rows) - 1 == meta["n_kept"]
        assert all(len(r.split(",")) == 16 for r in rows[1:])

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
        write_field_csv(get_truth("sin2d").field(8), data / "truth.csv")
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
    ], ids=["radius-constant", "design-size", "seed"])
    def test_out_of_range_value_rejected_by_every_command(self, tmp_path, command, ini, flags):
        cfg = tmp_path / "h.ini"
        cfg.write_text(ini)
        out = tmp_path / "x"
        assert main(command + flags + ["--config", str(cfg), "--out", str(out)]) == 2
        assert not out.exists()


# --baseline files that bench must refuse before it runs, by name under tmp_path
BAD_BASELINES = {
    "bad.json": b'{"slope": ',
    "latin.json": b'{"slope": -0.5, "truth": "\xff"}',
    "noslope.json": b'{"ns": [25, 50]}',
    "null.json": b'{"slope": null}',
    "text.json": b'{"slope": "steep"}',
}


@pytest.mark.parametrize("argv", [
    ["simulate", "--n", "-5"],
    ["calibrate", "--rounds", "0"],
    ["calibrate", "--sweeps", "0"],
    ["bench", "--synthetic", "--band", "-1"],
    ["calibrate", "--rounds", "10"],
    ["calibrate", "--z-threshold", "-1"],
    ["verify-priors", "--delta", "-1"],
    ["bench", "--synthetic", "--baseline", "absent.json"],
    ["bench", "--synthetic", "--baseline", "."],
    *(["bench", "--synthetic", "--baseline", name] for name in BAD_BASELINES),
], ids=["simulate-n", "calibrate-rounds", "calibrate-sweeps", "bench-band",
        "calibrate-few-rounds", "calibrate-z-threshold", "verify-priors-delta",
        "bench-baseline-missing", "bench-baseline-directory", "bench-baseline-bad-json",
        "bench-baseline-not-utf8", "bench-baseline-no-slope", "bench-baseline-null-slope",
        "bench-baseline-text-slope"])
def test_bad_subcommand_argument_is_config_error(tmp_path, argv):
    for name, content in BAD_BASELINES.items():
        (tmp_path / name).write_bytes(content)
    if "--baseline" in argv:
        argv = argv[:-1] + [str(tmp_path / argv[-1])]
    out = tmp_path / "x"
    assert main(argv + ["--out", str(out)]) == 2
    assert not out.exists()


class TestBench:
    def test_synthetic_run_and_baseline_pass(self, tmp_path):
        out = tmp_path / "b1"
        assert main(["bench", "--out", str(out), "--synthetic",
                     "--ns", "25,50,100", "--replicates", "2"]) == 0
        report = json.loads((out / "report.json").read_text())
        assert report["slope"] == pytest.approx(-0.5, abs=1e-12)
        assert (out / "cells.csv").exists() and (out / "medians.csv").exists()
        # self-comparison must pass the band check
        code = main(["bench", "--out", str(tmp_path / "b2"), "--synthetic",
                     "--ns", "25,50,100", "--replicates", "2",
                     "--baseline", str(out / "report.json")])
        assert code == 0

    def test_baseline_mismatch_fails(self, tmp_path):
        base = tmp_path / "base.json"
        base.write_text(json.dumps({"slope": -0.9}))
        code = main(["bench", "--out", str(tmp_path / "b"), "--synthetic",
                     "--ns", "25,50,100", "--replicates", "2",
                     "--baseline", str(base)])
        assert code == 5

    def test_shallow_baseline_fails(self, tmp_path):
        base = tmp_path / "base.json"
        base.write_text(json.dumps({"slope": -0.2}))
        out = tmp_path / "b"
        code = main(["bench", "--out", str(out), "--synthetic",
                     "--ns", "25,50,100", "--replicates", "2",
                     "--baseline", str(base)])
        assert code == 5
        assert not out.exists()  # refused before the design runs

    def test_synthetic_bitwise_repeatable(self, tmp_path):
        a, b = tmp_path / "ra", tmp_path / "rb"
        args = ["bench", "--synthetic", "--ns", "25,50", "--replicates", "2"]
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

    def test_synthetic_forks_nothing(self, monkeypatch, capsys, tmp_path):
        code, files, _, forks = self._run(monkeypatch, capsys, tmp_path, 2,
                                          ["bench", "--synthetic", "--seed", "17"])
        assert code == 0 and "report.json" in files
        assert forks == 0

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

    def test_mutated_fails(self, capsys):
        code = main(["calibrate", "--rounds", "3000", "--resolution", "8",
                     "--sweeps", "4", "--seed", "55", "--mutate"])
        assert code == 5
        assert "CALIBRATION FAIL" in capsys.readouterr().out


class TestVerifyPriors:
    def test_passes_with_defaults(self, tmp_path, capsys):
        out = tmp_path / "v"
        code = main(["verify-priors", "--out", str(out)])
        assert code == 0
        text = capsys.readouterr().out
        assert text.count("PASS") == 5
        blob = json.loads((out / "verify.json").read_text())
        assert all(c["passed"] for c in blob["checks"])


def test_console_script_help():
    r = subprocess.run(["sgcp", "--help"], capture_output=True, text=True)
    assert r.returncode == 0
    assert "simulate" in r.stdout and "bench" in r.stdout


def test_import_skips_scipy_stats_and_integrate():
    # a fresh interpreter: pytest has already imported scipy.stats in this one
    probe = ("import sys, sgcp, sgcp.cli; "
             "print(sorted(m for m in ('scipy.stats', 'scipy.integrate', 'multiprocessing') "
             "if m in sys.modules))")
    r = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                       env={**os.environ, "PYTHONPATH": os.pathsep.join(
                           filter(None, (str(SRC), os.environ.get("PYTHONPATH"))))})
    assert r.returncode == 0, r.stderr
    assert r.stdout.strip() == "[]"
