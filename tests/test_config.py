"""INI configuration: defaults, typed parsing, and the config fingerprint."""

import pytest

from sgcp import ChainConfig, ConfigError, ExperimentConfig, SgcpPrior, load_config


def test_ini_defaults_match_dataclass_defaults():
    # acceptance 5 runs ExperimentConfig(); its frozen baseline came from the CLI defaults
    cfg = load_config()
    assert cfg.experiment == ExperimentConfig()
    assert cfg.prior(1) == SgcpPrior(dim=1)


def test_default_fingerprint_is_stable():
    assert load_config().fingerprint() == "6ba2386130b8"


def test_values_parsed_as_field_types():
    cfg = load_config(overrides={"experiment.ns": " 3, 7 ,11 ", "experiment.resolution": "16",
                                 "chain.adapt": "No", "chain.step_log_ell": "0.5",
                                 "prior.ell_shape": "3"})
    assert cfg.experiment.ns == (3, 7, 11)
    assert cfg.experiment.chain == ChainConfig(resolution=16, adapt=False, step_log_ell=0.5)
    assert cfg.ell_shape == 3.0 and isinstance(cfg.ell_shape, float)


@pytest.mark.parametrize("key, value, message", [
    ("experiment.replicates", "two", "experiment.replicates: expected an integer"),
    ("experiment.ns", "25; 50", "experiment.ns: expected comma-separated integers"),
    ("chain.adapt", "maybe", "chain.adapt: expected a boolean"),
    ("prior.lam_rate", "fast", "prior.lam_rate: expected a number"),
    ("experiment.ns", "50, 25", "strictly increasing"),
    ("experiment.resolution", "1", "resolution must be >= 2"),
    ("chain.n_burn", "20000", "n_burn < n_iter"),
    ("prior.ell_rate", "0", "gamma parameters must be positive"),
])
def test_bad_values_raise_config_error(key, value, message):
    with pytest.raises(ConfigError, match=message):
        load_config(overrides={key: value})
