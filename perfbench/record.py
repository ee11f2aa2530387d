"""Run the benchmark over several seeds and record the results in one file.

Usage, from the root of a checkout::

    python3 perfbench/record.py --label seed-baseline --seeds 1-10 --trace-seeds 1-2

For every workload in ``BENCHMARK.json`` this runs ``run.py`` once per seed
untraced and once per trace seed traced, one run after another, and writes
``perfbench/results/BENCH_<label>.json``: every run's result, and for each
metric its median, quartiles (``statistics.quantiles(n=4)``) and the
quartile spread as a share of the median, next to the bound the metric has.
Compare two commits by recording both on one machine.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def seed_list(text: str) -> list[int]:
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def one_run(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    t0 = time.perf_counter()
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines and lines[-1].startswith("{") else None
    human = {}
    for line in lines:
        if line.startswith("metric "):
            _, name, value, *_ = line.split()
            human[name] = None if value == "missing" else float(value)
    env = next((json.loads(x[4:]) for x in lines if x.startswith("env ")), None)
    return {"workload": workload, "seed": seed, "trace": trace, "exit_code": proc.returncode,
            "elapsed_s": time.perf_counter() - t0, "result": result, "printed": human,
            "checks": [x for x in lines if x.startswith(("check ", "profile ", "share "))],
            "env": env, "stderr_tail": proc.stderr[-2000:]}


def summarize(runs: list[dict], bounds: dict) -> dict:
    values = {}
    for run in runs:
        for name, value in run["printed"].items():
            if value is not None:
                values.setdefault(name, []).append(value)
    out = {}
    for name, vs in sorted(values.items()):
        med = statistics.median(vs)
        row = {"n": len(vs), "median": med, "min": min(vs), "max": max(vs)}
        if len(vs) >= 2:
            q1, _, q3 = statistics.quantiles(vs, n=4)
            row.update(q1=q1, q3=q3, spread=(q3 - q1) / med if med else None)
        if name in bounds:
            row["bound"] = bounds[name]
        out[name] = row
    return out


def main(argv=None) -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        defs = json.load(fh)
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--label", required=True)
    parser.add_argument("--seeds", default="1-10", help="untraced seeds, e.g. 1-10 or 3,5")
    parser.add_argument("--trace-seeds", default="1", help="traced seeds; empty for none")
    parser.add_argument("--workloads", default=",".join(w["name"] for w in defs["workloads"]))
    parser.add_argument("--seconds", type=int, default=defs["run_seconds"])
    args = parser.parse_args(argv)

    bounds = {m["name"]: m["bound"] for m in defs["end_to_end"]}
    record = {"label": args.label, "command": defs["command"], "run_seconds": args.seconds,
              "workloads": {}}
    for workload in args.workloads.split(","):
        runs = {"untraced": [], "traced": []}
        for trace, key, seeds in ((0, "untraced", args.seeds), (1, "traced", args.trace_seeds)):
            for seed in seed_list(seeds) if seeds else []:
                run = one_run(workload, seed, args.seconds, trace)
                runs[key].append(run)
                record.setdefault("env", run["env"])
                ok = run["result"] is not None and run["result"]["correct"]
                print(f"{workload} seed {seed} trace {trace}: "
                      f"{'ok' if ok else 'NOT CORRECT'} in {run['elapsed_s']:.1f} s", flush=True)
        record["workloads"][workload] = {
            "untraced": summarize(runs["untraced"], bounds),
            "traced": summarize(runs["traced"], {}),
            "runs": runs["untraced"] + runs["traced"],
        }
        for name, row in record["workloads"][workload]["untraced"].items():
            if row.get("spread") is not None:
                print(f"  {name}: median {row['median']:.6g}, spread {row['spread']:.3f}"
                      + (f" (bound {row['bound']})" if "bound" in row else ""))
    os.makedirs(os.path.join(HERE, "results"), exist_ok=True)
    path = os.path.join(HERE, "results", f"BENCH_{args.label}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
