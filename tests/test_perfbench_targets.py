"""Every name the traced benchmark wraps still exists where its callers look it up.

A traced run reports a moved name only as a missing layer, and untraced runs
never look, so a rename would go unnoticed. The tracer module is executed from
its source text, leaving the benchmark directory untouched.
"""

import pathlib
import types

import pytest

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
