"""Benchmark of the sgcp sampler: one workload per call, end to end or traced.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload bench-1d --seed 1 --seconds 30 --trace 0

Each workload runs in fresh child processes, one after another, as a closed
loop with one client: an operation starts when the previous one has ended.
With ``--trace 0`` three processes share the measuring window and two more
only set up, so set-up is measured five times; the metrics are the
``end_to_end`` names in ``BENCHMARK.json``. With ``--trace 1`` an untraced process and a traced one
share the window; the metrics are the ``per_layer`` names, including the
tracing overhead (traced minus untraced operation time). In both modes the
first operation of one process repeats the seed of another's, and the two
must write identical bytes.

Human-readable lines come first; the last line of standard output is one
JSON object with keys ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORK = os.path.join(ROOT, ".perfbench_work")
BLAS_THREADS = 1
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
            "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
CHILD_GRACE_S = 100  # beyond its window, before a child is stopped
ESS_KINDS = ("ell", "lambda_star", "intensity_min")
SLOPE_GUARD = -0.25  # the guard `sgcp bench --baseline` applies to a slope
Z_THRESHOLD = 4.0  # the default of `sgcp calibrate --z-threshold`

# checks each operation runs, as named in failure messages
CHECKS = {
    "bench-1d": ("exit_code", "distances_finite_positive", "rerun_digest"),
    "fit-2d": ("exit_code", "distance_finite", "rerun_digest"),
    "calibrate-1d": ("not_diverged", "rerun_digest"),
}
# checks of the pooled outputs of a run's distinct seeds
RUN_CHECKS = {"bench-1d": "pooled_slope_below_guard", "calibrate-1d": "pooled_z_below_threshold"}


def load_definitions() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def machine() -> dict:
    model = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {"machine": platform.machine(), "cpu": model, "nproc": os.cpu_count(),
            "cpus_usable": len(os.sched_getaffinity(0)), "blas_threads_cap": BLAS_THREADS}


def child_spec(args, run_dir: str, j: int, window: float, trace: bool, first_index: int,
               replay: bool) -> dict:
    return {
        "root": ROOT, "workload": args.workload, "seed": args.seed,
        "size": "tiny" if args.tiny else "full", "trace": trace, "replay": replay,
        "first_index": first_index, "window_s": window,
        "work": os.path.join(run_dir, f"child-{j}"),
        "out": os.path.join(run_dir, f"child-{j}.json"),
        "spans": os.path.join(WORK, f"{args.workload}.spans.csv"),
    }


def run_child(spec: dict) -> dict | None:
    env = dict(os.environ)
    env.update({k: str(BLAS_THREADS) for k in BLAS_ENV})
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    proc = subprocess.Popen([sys.executable, os.path.join(HERE, "child.py"), json.dumps(spec)],
                            stdout=subprocess.DEVNULL, env=env, cwd=ROOT)
    try:
        rc = proc.wait(timeout=spec["window_s"] + CHILD_GRACE_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        print(f"child {spec['out']} stopped after its time limit", file=sys.stderr)
        return None
    if rc != 0:
        print(f"child {spec['out']} exited {rc}", file=sys.stderr)
        return None
    with open(spec["out"], encoding="utf-8") as fh:
        return json.load(fh)


def check_reruns(ops: list[dict]) -> None:
    """Operations that repeat a seed must have written identical bytes."""
    first = {}
    for op in ops:
        if "digest" not in op:
            continue
        ref = first.setdefault(op["index"], op["digest"])
        if op["digest"] != ref:
            op["failures"].append(f"rerun_digest: seed {op['seed']} gave different outputs")


def pooled_slope(designs: list[dict]) -> float:
    """OLS slope of log median distance on log n, pooled over bench runs."""
    ns = sorted({n for d in designs for n in d}, key=int)
    x = [math.log(int(n)) for n in ns]
    y = [math.log(statistics.median(v for d in designs for v in d.get(n, []))) for n in ns]
    xm = statistics.fmean(x)
    return (sum((a - xm) * b for a, b in zip(x, y))
            / sum((a - xm) ** 2 for a in x))


def pooled_z(runs: list[dict]) -> dict:
    """Stouffer z per statistic: the sum of the runs' z-scores over sqrt(runs).

    One calibration run's z uses 32 batch means, so under a correct sampler
    it is roughly t-distributed with 31 degrees of freedom and passes 4 on
    about one run in a thousand. Pooled over a run's seeds the same
    threshold keeps near the normal tail, and a real bias, which pushes
    every run the same way, grows with the square root of the runs.
    """
    names = sorted({k for z in runs for k in z})
    return {k: sum(z[k] for z in runs) / math.sqrt(len(runs)) for k in names}


def run_check(workload: str, ops: list[dict]) -> tuple[bool, str]:
    """The workload's check of its pooled outputs: (passed, description)."""
    distinct = {op["index"]: op for op in ops if not op["failures"]}
    if workload == "bench-1d":
        designs = [op["distances"] for op in distinct.values()]
        slope = pooled_slope(designs) if designs else math.nan
        return slope < SLOPE_GUARD, (f"slope {slope:.4f} over {len(designs)} designs, "
                                     f"guard {SLOPE_GUARD}")
    z = pooled_z([op["z"] for op in distinct.values()])
    worst = max((abs(v) for v in z.values()), default=math.inf)
    per_run = sum(1 for op in distinct.values() if max(map(abs, op["z"].values())) >= Z_THRESHOLD)
    return worst < Z_THRESHOLD, (f"max |z| {worst:.3f} pooled over {len(distinct)} runs "
                                 f"({per_run} single runs at or above), threshold {Z_THRESHOLD}")


def ess_per_s(ops: list[dict]) -> dict:
    wall = sum(op["wall_s"] for op in ops)
    out = {}
    for kind in ESS_KINDS:
        values = [op.get("ess", {}).get(kind) for op in ops]
        ok = wall > 0 and values and all(v is not None for v in values)
        out[f"ess_per_s_{kind}"] = sum(values) / wall if ok else None
    return out


def profile_lines(workload: str, layers: dict) -> list[str]:
    """The traced self-time shares, largest first, and the profile claim."""
    shares = {k.rsplit(".", 1)[0]: v for k, v in layers.items()
              if k.endswith(".share") and v is not None}
    shares["inference.geweke_joint_test"] = layers.get("inference.geweke_joint_test.self_share")
    lines = ["share " + ", ".join(f"{k} {v:.3f}" for k, v in
                                  sorted(shares.items(), key=lambda kv: -(kv[1] or 0.0))
                                  if v)]
    claim = {
        "bench-1d": ("inference.update_latent", "accel.sgcp_suffstats"),
        "fit-2d": ("kernels.cov_matrix", "kernels.chol_with_jitter"),
    }.get(workload)
    if claim and all(shares.get(k) is not None for k in claim):
        pair = sum(shares[k] for k in claim)
        rest = max((v or 0.0) for k, v in shares.items() if k not in claim)
        verdict = "confirmed" if pair > rest else "NOT confirmed"
        lines.append(f"profile {' + '.join(claim)} = {pair:.3f} against the largest "
                     f"other layer {rest:.3f}: {verdict}")
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="tiny operations, for the self-test of the benchmark")
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "sgcp", "__init__.py")):
        print(f"no sgcp sources under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2
    defs = load_definitions()
    names = [w["name"] for w in defs["workloads"]]
    if args.workload not in names:
        print(f"unknown workload {args.workload!r}; choose from {names}", file=sys.stderr)
        return 2
    if args.seed < 0 or args.seconds <= 0:
        print("--seed must be >= 0 and --seconds > 0", file=sys.stderr)
        return 2

    run_dir = os.path.join(WORK, f"run-{os.getpid()}")
    os.makedirs(run_dir, exist_ok=True)
    try:
        # (window, traced, first operation index, replays operation 0 first)
        if args.trace:
            plan = [(args.seconds / 2, False, 0, False), (args.seconds / 2, True, 0, False)]
        else:
            # three processes measure; all five, two with an empty window, set up
            w = args.seconds / 3
            plan = [(0, False, 0, False), (w, False, 0, False), (w, False, 100, True),
                    (w, False, 200, False), (0, False, 0, False)]
        children = [run_child(child_spec(args, run_dir, j, *step))
                    for j, step in enumerate(plan)]
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    return report(args, defs, plan, children)


def report(args, defs: dict, plan: list, children: list) -> int:
    done = [(step, c) for step, c in zip(plan, children) if c is not None]
    ops = [op for _, c in done for op in c["ops"]]
    check_reruns(ops)
    for op in ops:
        for failure in op["failures"]:
            print(f"op {op['index']} (seed {op['seed']}) FAILED {failure}", file=sys.stderr)
    attempted = len(ops)
    failed = sum(1 for op in ops if op["failures"])
    reruns = sum(1 for op in ops if op["index"] == 0 and "digest" in op)
    correct = len(done) == len(plan) and attempted > 0 and failed == 0 and reruns >= 2

    untraced = [op for step, c in done if not step[1] for op in c["ops"]]
    traced = [op for step, c in done if step[1] for op in c["ops"]]
    env = dict(machine(), **(done[0][1]["env"] if done else {}))
    print("env " + json.dumps(env, sort_keys=True))
    print(f"workload {args.workload}: seed {args.seed}, {attempted} operations "
          f"({len({op['index'] for op in ops})} distinct seeds) in {len(done)} of "
          f"{len(plan)} processes, {failed} failed")
    for name in CHECKS[args.workload]:
        n_fail = sum(1 for op in ops if any(f.startswith(name) for f in op["failures"]))
        print(f"check {name}: ran on {attempted} operations, {n_fail} failed")
    if args.workload in RUN_CHECKS:
        ok, detail = run_check(args.workload, ops)
        correct = correct and ok
        print(f"check {RUN_CHECKS[args.workload]}: {detail}: {'pass' if ok else 'FAIL'}")

    values = {"failed_frac": failed / attempted if attempted else 1.0}
    values.update(ess_per_s(untraced))
    if args.trace:
        layers = next((c for step, c in done if step[1]), {}).get("layers", {})
        values.update(layers)
        # the traced process repeats the untraced one's seeds: compare in pairs
        base = {op["index"]: op["wall_s"] for op in untraced}
        pairs = [(op["wall_s"], base[op["index"]]) for op in traced if op["index"] in base]
        if pairs:
            values["trace.overhead_s"] = statistics.median(t - u for t, u in pairs)
            values["trace.overhead_frac"] = (sum(t for t, _ in pairs)
                                             / sum(u for _, u in pairs) - 1.0)
        for line in profile_lines(args.workload, layers):
            print(line)
        for step, c in done:
            for name in c.get("missing_layers", []):
                print(f"layer {name}: MISSING, its name no longer exists")
        metric_defs = defs["per_layer"]
    else:
        if untraced:
            values["wall_s"] = statistics.median(op["wall_s"] for op in untraced)
        if done:
            values["setup_s"] = statistics.median(c["setup_s"] for _, c in done)
        measured = [c for step, c in done if step[0] > 0]
        if measured:
            values["peak_rss_mb"] = statistics.median(c["peak_rss_mb"] for c in measured)
        metric_defs = defs["end_to_end"]

    units = {m["name"]: m["unit"] for m in defs["end_to_end"] + defs["per_layer"]}
    units["failed_frac"] = "fraction"
    for name, value in values.items():
        shown = "missing" if value is None else repr(value)
        print(f"metric {name} {shown} {units.get(name, '')}".rstrip())

    metrics = {}
    for m in metric_defs:
        value = values.get(m["name"])
        # a layer can go missing; an end-to-end figure cannot
        correct = correct and (value is not None or bool(args.trace))
        metrics[m["name"]] = {"value": value, "unit": m["unit"]}
    print(json.dumps({"correct": bool(correct), "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
