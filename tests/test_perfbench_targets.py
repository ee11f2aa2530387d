"""Every name the traced benchmark wraps still exists where its callers look it up.

A traced run reports a moved name only as a missing layer, and untraced runs
never look, so a rename would go unnoticed. The tracer module is executed from
its source text, leaving the benchmark directory untouched.
"""

import inspect
import math
import pathlib
import types

import pytest

from sgcp import Grid, SgcpPrior, initial_state
from sgcp.inference import _Sampler

TRACER = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _load_tracer():
    module = types.ModuleType("perfbench_tracer")
    module.__file__ = str(TRACER)
    exec(compile(TRACER.read_text(encoding="utf-8"), str(TRACER), "exec"), module.__dict__)
    return module


tracer = _load_tracer()


@pytest.mark.parametrize("span, module, attr", tracer.TARGETS,
                         ids=[f"{m}:{a}" for _, m, a in tracer.TARGETS])
def test_traced_name_resolves(span, module, attr):
    assert tracer.resolve(module, attr) is not None, f"{span}: {module}.{attr} is gone"


# perfbench's calibrate-1d hook wraps _Sampler.set_data and, before each
# data refresh, reads the chained state; if either breaks, every calibrate-1d
# operation fails


def test_set_data_takes_exactly_the_sampler_and_its_patterns():
    params = inspect.signature(_Sampler.set_data).parameters
    assert list(params) == ["self", "patterns"]


def test_sampler_state_exposes_what_the_calibrate_hook_reads():
    prior, grid = SgcpPrior(dim=1), Grid(1, 8)
    sampler = _Sampler(prior, grid)
    sampler.set_state(initial_state(prior, grid, []))
    assert math.isfinite(sampler.state.log_ell)
    assert math.isfinite(sampler.state.log_lambda_star)
    assert sampler.latent.shape == (grid.n_nodes,)
    _Sampler.set_data(sampler, [])  # as the hook forwards it
