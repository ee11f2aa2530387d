"""Smoke self-test of the benchmark.

Usage, from the root of a checkout::

    python3 perfbench/selftest.py

Runs every workload at a tiny size, untraced and traced, and checks that the
result line has the agreed keys, that every metric in ``BENCHMARK.json``
appears with its unit, and that every correctness check ran. At tiny size
the statistical checks (the pooled slope and the pooled calibration z) are
unreliable and may fail, so the test does not ask them to pass; it plants
errors in real outputs instead and asks each check to catch them. Exits 1
on any failure.
"""

from __future__ import annotations

import json
import math
import os
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import run  # noqa: E402

PROBLEMS: list[str] = []


def expect(ok: bool, what: str) -> None:
    print(("ok   " if ok else "FAIL ") + what)
    if not ok:
        PROBLEMS.append(what)


def smoke(defs: dict, workload: str, trace: int) -> None:
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload, "--seed", "3",
           "--seconds", "2", "--trace", str(trace), "--tiny"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=170)
    tag = f"{workload} trace {trace}"
    expect(proc.returncode == 0, f"{tag}: exit code 0 (got {proc.returncode})")
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        expect(False, f"{tag}: last line is JSON")
        return
    expect(set(result) == {"correct", "attempted", "failed", "metrics"}, f"{tag}: result keys")
    expect(isinstance(result["attempted"], int) and result["attempted"] >= 1,
           f"{tag}: attempted is a whole number >= 1")
    expect(isinstance(result["failed"], int), f"{tag}: failed is a whole number")
    wanted = defs["per_layer" if trace else "end_to_end"]
    expect(set(result["metrics"]) == {m["name"] for m in wanted},
           f"{tag}: exactly the {'per_layer' if trace else 'end_to_end'} metrics")
    for m in wanted:
        got = result["metrics"].get(m["name"], {})
        value = got.get("value")
        expect(got.get("unit") == m["unit"] and isinstance(value, (int, float))
               and math.isfinite(value), f"{tag}: {m['name']} is a number in {m['unit']}")
    printed = {line.split()[1] for line in lines if line.startswith("metric ")}
    for name in ("failed_frac", "ess_per_s_ell", "ess_per_s_lambda_star",
                 "ess_per_s_intensity_min"):
        expect(name in printed, f"{tag}: prints {name}")
    checks = list(run.CHECKS[workload])
    if workload in run.RUN_CHECKS:
        checks.append(run.RUN_CHECKS[workload])
    for name in checks:
        expect(any(line.startswith(f"check {name}: ") for line in lines),
               f"{tag}: check {name} ran")
    expect(any(line.startswith("env {") for line in lines), f"{tag}: prints the environment")


def planted_errors() -> None:
    import sgcp
    import workloads

    ops = [{"index": 0, "seed": 0, "digest": "a", "failures": []},
           {"index": 0, "seed": 0, "digest": "b", "failures": []}]
    run.check_reruns(ops)
    expect(bool(ops[1]["failures"]), "rerun_digest catches a rerun with other bytes")
    power = [{str(n): [2.0 * n ** -0.5] for n in (25, 100, 400)}]
    expect(abs(run.pooled_slope(power) + 0.5) < 1e-12, "pooled slope recovers -1/2 exactly")
    flat = [{"index": 0, "failures": [], "distances": {"25": [0.1], "400": [0.1]}}]
    expect(not run.run_check("bench-1d", flat)[0],
           "pooled_slope_below_guard rejects a flat design")

    os.makedirs(run.WORK, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=run.WORK) as work:
        bench = workloads.Bench1D(workloads.SIZES["bench-1d"]["tiny"], work, 1)
        out = os.path.join(work, "bench")
        result = bench.call(1, out)
        expect(not bench.inspect(result, out)["failures"], "bench-1d tiny output passes")
        path = os.path.join(out, "cells.csv")
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
        header, row, *rest = [x for x in text.splitlines() if not x.startswith("#")]
        cols = row.split(",")
        cols[header.split(",").index("distance_mean")] = "nan"
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("\n".join([header, ",".join(cols), *rest]) + "\n")
        failures = bench.inspect(result, out)["failures"]
        expect(any(f.startswith("distances_finite_positive") for f in failures),
               "distances_finite_positive catches a NaN distance")
        expect(bench.inspect((3, "data error"), out)["failures"][0].startswith("exit_code"),
               "exit_code catches a non-zero exit")

        fit = workloads.Fit2D(workloads.SIZES["fit-2d"]["tiny"], work, 1)
        out = os.path.join(work, "fit")
        result = fit.call(1, out)
        expect(not fit.inspect(result, out)["failures"], "fit-2d tiny output passes")
        path = os.path.join(out, "fit.json")
        with open(path, encoding="utf-8") as fh:
            summary = json.load(fh)
        summary["distance_mean_to_truth"] = float("inf")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(summary, fh)
        expect(any(f.startswith("distance_finite") for f in fit.inspect(result, out)["failures"]),
               "distance_finite catches an infinite distance")

        calib = workloads.Calibrate1D(workloads.SIZES["calibrate-1d"]["tiny"], work, 1)
        z = {"ell": 0.5, "count": 2.5}
        failures = calib.inspect(sgcp.GewekeResult(z, True, 10), "")["failures"]
        expect(any(f.startswith("not_diverged") for f in failures),
               "not_diverged catches a diverged run")
        ops = [dict(calib.inspect(sgcp.GewekeResult(z, False, 100), ""), index=i)
               for i in range(3)]
        expect(not run.run_check("calibrate-1d", ops)[0],
               "pooled_z_below_threshold catches |z| = 2.5 repeated over 3 runs")
        ops[1]["z"] = {"ell": -0.5, "count": -2.5}
        expect(run.run_check("calibrate-1d", ops)[0],
               "pooled_z_below_threshold passes z-scores that cancel")


def main() -> int:
    defs = run.load_definitions()
    for w in defs["workloads"]:
        for trace in (0, 1):
            smoke(defs, w["name"], trace)
    planted_errors()
    print(f"{len(PROBLEMS)} problem(s)")
    return 1 if PROBLEMS else 0


if __name__ == "__main__":
    sys.exit(main())
