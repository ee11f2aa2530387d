"""One benchmark process: set a workload up, then run operations in a window.

Started by ``run.py`` with one JSON argument (see ``run.child_spec``). Writes
its result as JSON to the path the spec names. The clock starts before
``sgcp`` is imported, so set-up time covers the import and the inputs.
"""

import time

T_START = time.perf_counter()

import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402

MAX_OPS = 99  # operation indices of one process stay below the next one's


def environment() -> dict:
    import numpy as np
    import scipy
    import sgcp

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    return {"python": platform.python_version(), "numpy": np.__version__,
            "scipy": scipy.__version__, "blas": blas, "sgcp_backend": sgcp.BACKEND}


def main(spec: dict) -> dict:
    from tracer import Tracer
    import workloads

    import sgcp

    src = os.path.realpath(os.path.join(spec["root"], "src"))
    if not os.path.realpath(sgcp.__file__).startswith(src + os.sep):
        raise RuntimeError(f"imported sgcp from {sgcp.__file__}, not from {src}")

    tracer = Tracer()
    if spec["trace"]:
        tracer.install()
    work = spec["work"]
    os.makedirs(work, exist_ok=True)
    size = workloads.SIZES[spec["workload"]][spec["size"]]
    workload = workloads.WORKLOADS[spec["workload"]](size, work, spec["seed"])
    setup_s = time.perf_counter() - T_START

    ops = []
    indices = ([0] if spec["replay"] else []) + list(
        range(spec["first_index"], spec["first_index"] + MAX_OPS))
    window_start = time.perf_counter()
    # a process with an empty window only measures set-up
    for k, index in enumerate(indices[:MAX_OPS] if spec["window_s"] > 0 else []):
        seed = workloads.op_seed(spec["seed"], index)
        out = os.path.join(work, f"op-{index}")
        record = {"index": index, "seed": seed}
        t0 = time.perf_counter()
        try:
            if spec["trace"]:
                result = tracer.run_op(k, workload.call, seed, out)
            else:
                result = workload.call(seed, out)
            record["wall_s"] = time.perf_counter() - t0
            record.update(workload.inspect(result, out))
        except Exception as exc:  # an operation that raises is a failed operation
            record.setdefault("wall_s", time.perf_counter() - t0)
            record["failures"] = [f"raised: {exc!r}"]
            traceback.print_exc()
        shutil.rmtree(out, ignore_errors=True)
        ops.append(record)
        if time.perf_counter() - window_start + 0.5 * record["wall_s"] >= spec["window_s"]:
            break

    result = {
        "setup_s": setup_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "ops": ops,
        "env": environment(),
    }
    if spec["trace"]:
        result["layers"] = tracer.layer_metrics()
        result["missing_layers"] = sorted(tracer.missing)
        tracer.write(spec["spans"])
    return result


if __name__ == "__main__":
    child_spec = json.loads(sys.argv[1])
    sys.path.insert(0, os.path.join(child_spec["root"], "src"))
    child_result = main(child_spec)
    with open(child_spec["out"], "w", encoding="utf-8") as fh:
        json.dump(child_result, fh)
