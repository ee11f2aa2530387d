"""Fixtures that replace one piece of the program: a corrupted model that the
checks must catch, and bench cells with a known answer.

Each patches a module attribute, and a forked worker starts from a copy of
the patched module, so the patch reaches the cells and chained segments that
``_pool`` runs in child processes too. A test that needs the program as it
is first and patched afterwards asks for the fixture by name mid-test:
``request.getfixturevalue("drop_integral")``.
"""

import pytest

from sgcp import experiment, inference
from sgcp.config import seed_fingerprint
from sgcp.experiment import CellResult


@pytest.fixture
def drop_integral(monkeypatch):
    """A corrupted model for power checks: the sampler's ceiling rate loses
    ``n int s``, so the collapsed target and the lam* draw both forget the
    integral of the intensity. The joint test and acceptance 3's oracle must
    catch it."""
    monkeypatch.setattr(inference._Sampler, "_ceiling_rate",
                        lambda self, int_s: self.prior.lam_prior.rate)


@pytest.fixture
def power_law_cells(monkeypatch):
    """Cells with no sampler behind them: each one's distance and radius lie
    exactly on ``constant * n**-exponent``, so the aggregation, the slope fit
    and the writers have a known answer. The fixture's value is the law, a
    dict a test may change before the design runs."""
    law = {"constant": 1.0, "exponent": 0.5}

    def run_cell(config, prior, truth, ceiling, i_n, rep):
        n = config.ns[i_n]
        d = law["constant"] * float(n) ** (-law["exponent"])
        return CellResult(n, rep, 0, d, d, 0.0, 0.0, 0.0,
                          seed_fingerprint(config.seed, i_n, rep, 0),
                          seed_fingerprint(config.seed, i_n, rep, 1))

    monkeypatch.setattr(experiment, "_run_cell", run_cell)
    return law
