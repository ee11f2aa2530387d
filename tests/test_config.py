"""INI configuration: defaults, typed parsing, and the config fingerprint."""

import re
from dataclasses import fields
from pathlib import Path

import pytest

from sgcp import ChainConfig, ConfigError, ExperimentConfig, SgcpPrior, load_config
from sgcp.config import _KEYS


def test_ini_defaults_match_dataclass_defaults():
    # acceptance 5 runs ExperimentConfig(); its frozen baseline came from the CLI defaults
    cfg = load_config()
    assert cfg.experiment == ExperimentConfig()
    assert cfg.prior(1) == SgcpPrior(dim=1)


def test_every_config_field_is_an_ini_key():
    # a field no INI key sets would be a knob only code can turn
    assert tuple(f.name for f in fields(ChainConfig)) == _KEYS["chain"]
    assert tuple(f.name for f in fields(ExperimentConfig)
                 if f.name not in ("chain",)) == _KEYS["experiment"]


def test_readme_configuration_block_loads_to_the_defaults(tmp_path):
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    (block,) = re.findall(r"```ini\n(.*?)```", readme, flags=re.S)
    assert "  # " in block  # the block carries inline comments
    path = tmp_path / "readme.ini"
    path.write_text(block, encoding="utf-8")
    cfg = load_config(str(path))
    assert cfg.experiment == ExperimentConfig()
    assert cfg.experiment.chain == ChainConfig()
    for dim in (1, 2):
        assert cfg.prior(dim) == SgcpPrior(dim=dim)


def test_default_fingerprint_is_stable():
    assert load_config().fingerprint() == "3e7ef608dfcb"


def test_fingerprint_hashes_parsed_values(tmp_path):
    # README's block spells ns without spaces; 2 and 2.0 are the same shape
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    (block,) = re.findall(r"```ini\n(.*?)```", readme, flags=re.S)
    path = tmp_path / "readme.ini"
    path.write_text(block, encoding="utf-8")
    default = load_config().fingerprint()
    assert load_config(str(path)).fingerprint() == default
    for shape in ("2", "2.0", " 2.00"):
        assert load_config(overrides={"prior.lam_shape": shape}).fingerprint() == default
    assert load_config(overrides={"prior.lam_shape": "3"}).fingerprint() != default


def test_values_parsed_as_field_types():
    cfg = load_config(overrides={"experiment.ns": " 3, 7 ,11 ", "experiment.resolution": "16",
                                 "chain.thin": "7", "prior.ell_shape": "3"})
    assert cfg.experiment.ns == (3, 7, 11)
    assert cfg.experiment.resolution == 16
    assert cfg.experiment.chain == ChainConfig(thin=7)
    assert cfg.ell_shape == 3.0 and isinstance(cfg.ell_shape, float)


@pytest.mark.parametrize("key, value, message", [
    ("experiment.replicates", "two", "experiment.replicates: expected an integer"),
    ("experiment.ns", "25; 50", "experiment.ns: expected comma-separated integers"),
    ("experiment.ns", "25,,50", "experiment.ns: expected comma-separated integers"),
    ("experiment.ns", "25, 50,", "experiment.ns: expected comma-separated integers"),
    ("prior.lam_rate", "fast", "prior.lam_rate: expected a number"),
    ("experiment.ns", "50, 25", "strictly increasing"),
    ("experiment.resolution", "1", "resolution must be >= 2"),
    ("chain.n_burn", "20000", "n_burn < n_iter"),
    ("prior.ell_rate", "0", "gamma parameters must be positive"),
    ("chain.step_log_ell", "0.3", "unknown config key"),
])
def test_bad_values_raise_config_error(key, value, message):
    with pytest.raises(ConfigError, match=message):
        load_config(overrides={key: value})


def test_design_beyond_the_pool_is_refused_at_load():
    # the pool hands out 2**32 positions at most; no cell list is built to find that out
    load_config(overrides={"experiment.replicates": str(2**31), "experiment.ns": "2,3"})
    with pytest.raises(ConfigError, match="the design has 2000000000000 cells"):
        load_config(overrides={"experiment.replicates": "1000000000000",
                               "experiment.ns": "2,3"})
