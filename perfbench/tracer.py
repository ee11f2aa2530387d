"""Layer spans for the traced benchmark run, recorded from outside ``sgcp``.

Each wrapper is installed at the name its callers look up (``sgcp.inference``
imports ``cov_matrix`` into its own namespace, so that is where the wrapper
goes) and records one span per call: name, start, end, enclosing span and the
benchmark operation it belongs to. Spans stay in memory until the run ends.
Nothing in the package is edited. A name that no longer exists is reported as
missing (None), never measured as zero.
"""

from __future__ import annotations

import importlib
import time

import numpy as np

OP_SPAN = "benchmark.op"

# chol_with_jitter calls that needed more than its starting jitter
JITTER_FLOOR = 1e-10

# (span name, module whose attribute the callers look up, attribute).
# Dotted attributes are methods, patched on their class.
TARGETS = (
    ("accel.sgcp_suffstats", "sgcp.inference", "sgcp_suffstats"),
    ("kernels.cov_matrix", "sgcp.inference", "cov_matrix"),
    ("kernels.chol_with_jitter", "sgcp.inference", "chol_with_jitter"),
    ("inference.update_latent", "sgcp.inference", "_Sampler.update_latent"),
    ("inference.update_length_scale", "sgcp.inference", "_Sampler.update_length_scale"),
    ("inference.update_ceiling", "sgcp.inference", "_Sampler.update_ceiling"),
    ("inference.set_data", "sgcp.inference", "_Sampler.set_data"),
    ("inference.scratch_check", "sgcp.inference", "_Sampler.scratch_check"),
    ("inference.run_chain", "sgcp.experiment", "run_chain"),
    ("inference.run_chain", "sgcp.cli", "run_chain"),
    ("point_process.simulate_thinning", "sgcp.inference", "simulate_thinning"),
    ("point_process.simulate_thinning", "sgcp.experiment", "simulate_thinning"),
    ("point_process.simulate_thinning", "sgcp.cli", "simulate_thinning"),
    ("point_process.read_pattern_csv", "sgcp.cli", "read_pattern_csv"),
    ("experiment.run_contraction_experiment", "sgcp.cli", "run_contraction_experiment"),
    # entry points the benchmark itself calls, looked up at call time
    ("cli.main", "sgcp.cli", "main"),
    ("inference.geweke_joint_test", "sgcp.inference", "geweke_joint_test"),
)

# moves whose acceptance is read from _Sampler.accepts[key] around each call
_ACCEPT_KEYS = {"inference.update_length_scale": "ell", "inference.update_ceiling": "lambda"}


def resolve(module: str, attr: str):
    """Return ``(owner, name, value)`` for a dotted attribute, or None if gone."""
    try:
        owner = importlib.import_module(module)
    except ImportError:
        return None
    *path, name = attr.split(".")
    for part in path:
        owner = getattr(owner, part, None)
        if owner is None:
            return None
    value = getattr(owner, name, None)
    return None if value is None else (owner, name, value)


def _accepted(sampler, key):
    accepts = getattr(sampler, "accepts", None)
    return accepts.get(key) if isinstance(accepts, dict) else None


class Tracer:
    """In-memory span log plus the counters a span cannot carry."""

    def __init__(self):
        self.names: list[str] = []
        self.start: list[float] = []
        self.end: list[float] = []
        self.parent: list[int] = []
        self.op: list[int] = []
        self.accepts: dict[str, int] = {}
        self.escalations = 0
        self.missing: set[str] = set()
        self._stack: list[int] = []
        self._op = -1

    def _open(self, name: str) -> int:
        i = len(self.names)
        self.names.append(name)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.op.append(self._op)
        self.end.append(0.0)
        self._stack.append(i)
        self.start.append(time.perf_counter())
        return i

    def _close(self, i: int) -> None:
        self.end[i] = time.perf_counter()
        self._stack.pop()

    def run_op(self, op: int, fn, *args):
        """Call ``fn`` as the root span of benchmark operation ``op``."""
        self._op = op
        i = self._open(OP_SPAN)
        try:
            return fn(*args)
        finally:
            self._close(i)
            self._op = -1

    def wrap(self, name: str, fn):
        """``fn`` with a span recorded around each call."""
        accept_key = _ACCEPT_KEYS.get(name)
        is_chol = name == "kernels.chol_with_jitter"

        def traced(*args, **kwargs):
            before = _accepted(args[0], accept_key) if accept_key else None
            i = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(i)
            if before is not None and _accepted(args[0], accept_key) != before:
                self.accepts[name] = self.accepts.get(name, 0) + 1
            if is_chol and result[1] > JITTER_FLOOR:
                self.escalations += 1
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        """Wrap every target that still exists; remember those that do not."""
        installed = set()
        for name, module, attr in TARGETS:
            found = resolve(module, attr)
            if found is None:
                self.missing.add(name)
                continue
            owner, attr_name, value = found
            setattr(owner, attr_name, self.wrap(name, value))
            installed.add(name)
        self.missing -= installed

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("name,start_s,end_s,parent,op\n")
            for row in zip(self.names, self.start, self.end, self.parent, self.op):
                fh.write("%s,%.9f,%.9f,%d,%d\n" % row)

    def layer_metrics(self) -> dict:
        """Per-layer figures over the traced operations.

        ``share`` is self time (a span minus the spans directly inside it)
        over the summed time of the operations, so shares of different layers
        add up. ``us_per_call`` is the whole span, as its caller sees it.
        ``calls`` and ``self_s`` are per operation. A figure whose layer
        could not be wrapped is None; one the workload never calls reads 0.
        """
        name = np.asarray(self.names, dtype=object)
        dur = np.asarray(self.end) - np.asarray(self.start)
        parent = np.asarray(self.parent, dtype=np.int64)
        in_op = np.asarray(self.op, dtype=np.int64) >= 0
        nested = parent >= 0
        covered = np.zeros_like(dur)
        np.add.at(covered, parent[nested], dur[nested])
        self_time = dur - covered

        spans = {n: name == n for n in set(self.names)}
        none = np.zeros(name.shape[0], dtype=bool)

        def sel(span):
            return spans.get(span, none)

        n_ops = max(int(np.sum(sel(OP_SPAN))), 1)
        op_time = float(np.sum(dur[sel(OP_SPAN)]))
        latent = sel("inference.update_latent")
        sweeps = int(np.sum(latent))
        chain = sel("inference.run_chain")
        chain_sweeps = int(np.sum(latent & _inside(parent, chain)))
        suff_in_latent = sel("accel.sgcp_suffstats").copy()
        suff_in_latent[nested] &= latent[parent[nested]]
        suff_in_latent[~nested] = False

        def per(a, b):
            return a / b if b else 0.0

        def calls(span):
            return int(np.sum(sel(span) & in_op)) / n_ops

        def us_per_call(span):
            return per(float(np.sum(dur[sel(span)])) * 1e6, int(np.sum(sel(span))))

        def share(span):
            return per(float(np.sum(self_time[sel(span) & in_op])), op_time)

        def self_s(span):
            return float(np.sum(self_time[sel(span) & in_op])) / n_ops

        def accept_rate(span):
            return per(self.accepts.get(span, 0), int(np.sum(sel(span))))

        suff, cov, chol = "accel.sgcp_suffstats", "kernels.cov_matrix", "kernels.chol_with_jitter"
        lat, ell, lam = ("inference.update_latent", "inference.update_length_scale",
                         "inference.update_ceiling")
        sd, sc, rc = "inference.set_data", "inference.scratch_check", "inference.run_chain"
        sim, rd = "point_process.simulate_thinning", "point_process.read_pattern_csv"
        table = (
            # (metric, layers it needs, value)
            (f"{suff}.calls_per_sweep", (suff, lat),
             lambda: per(int(np.sum(sel(suff))), sweeps)),
            (f"{suff}.us_per_call", (suff,), lambda: us_per_call(suff)),
            (f"{suff}.share", (suff,), lambda: share(suff)),
            (f"{cov}.calls", (cov,), lambda: calls(cov)),
            (f"{cov}.us_per_call", (cov,), lambda: us_per_call(cov)),
            (f"{cov}.share", (cov,), lambda: share(cov)),
            (f"{chol}.calls", (chol,), lambda: calls(chol)),
            (f"{chol}.us_per_call", (chol,), lambda: us_per_call(chol)),
            (f"{chol}.share", (chol,), lambda: share(chol)),
            (f"{chol}.escalations", (chol,), lambda: self.escalations),
            (f"{lat}.us_per_call", (lat,), lambda: us_per_call(lat)),
            (f"{lat}.share", (lat,), lambda: share(lat)),
            (f"{lat}.shrinks_per_call", (suff, lat),
             lambda: per(int(np.sum(suff_in_latent)), sweeps) - 1.0 if sweeps else 0.0),
            (f"{ell}.us_per_call", (ell,), lambda: us_per_call(ell)),
            (f"{ell}.share", (ell,), lambda: share(ell)),
            (f"{ell}.accept_rate", (ell,), lambda: accept_rate(ell)),
            (f"{lam}.us_per_call", (lam,), lambda: us_per_call(lam)),
            (f"{lam}.share", (lam,), lambda: share(lam)),
            (f"{lam}.accept_rate", (lam,), lambda: accept_rate(lam)),
            (f"{sd}.calls", (sd,), lambda: calls(sd)),
            (f"{sd}.us_per_call", (sd,), lambda: us_per_call(sd)),
            (f"{sd}.share", (sd,), lambda: share(sd)),
            (f"{sc}.calls", (sc,), lambda: calls(sc)),
            (f"{sc}.us_per_call", (sc,), lambda: us_per_call(sc)),
            (f"{rc}.calls", (rc,), lambda: calls(rc)),
            (f"{rc}.us_per_sweep", (rc, lat),
             lambda: per(float(np.sum(dur[chain])) * 1e6, chain_sweeps)),
            (f"{rc}.self_us_per_sweep", (rc, lat),
             lambda: per(float(np.sum(self_time[chain])) * 1e6, chain_sweeps)),
            ("inference.geweke_joint_test.self_share", ("inference.geweke_joint_test",),
             lambda: share("inference.geweke_joint_test")),
            (f"{sim}.calls", (sim,), lambda: calls(sim)),
            (f"{sim}.setup_calls", (sim,), lambda: int(np.sum(sel(sim) & ~in_op))),
            (f"{sim}.us_per_call", (sim,), lambda: us_per_call(sim)),
            (f"{sim}.share", (sim,), lambda: share(sim)),
            (f"{rd}.ms_total", (rd,),
             lambda: float(np.sum(dur[sel(rd) & in_op])) * 1e3 / n_ops),
            ("cli.main.self_s", ("cli.main",), lambda: self_s("cli.main")),
            ("experiment.run_contraction_experiment.self_s",
             ("experiment.run_contraction_experiment",),
             lambda: self_s("experiment.run_contraction_experiment")),
        )
        return {metric: (None if self.missing.intersection(needs) else value())
                for metric, needs, value in table}


def _inside(parent: np.ndarray, ancestor: np.ndarray) -> np.ndarray:
    """Spans that have an ancestor selected by the boolean mask ``ancestor``."""
    flags = ancestor.tolist()
    out = [False] * len(flags)
    # a parent is opened before its children, so one forward pass suffices
    for i, p in enumerate(parent.tolist()):
        out[i] = p >= 0 and (flags[p] or out[p])
    return np.asarray(out, dtype=bool)
