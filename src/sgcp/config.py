"""Harness configuration: the config types, INI files, flag overrides, and seeds.

Configuration lives in an INI file with three sections (``experiment``,
``chain``, ``prior``); every key has a default, so an empty or absent file is
valid. Command-line flags are merged as ``section.key`` overrides before
parsing, keeping one validation path. ``load_config`` parses each value as the
type of the field it fills: ``[chain]`` becomes a ``ChainConfig``,
``[experiment]`` the ``ExperimentConfig`` that holds it, and ``[prior]`` the
hyperparameters of ``HarnessConfig``. The dataclasses check their own values,
so an out-of-range setting is refused at load time by every command. The
default master seed is a fixed constant — never the clock — so every run is
reproducible unless the caller asks otherwise.

Independent random streams are derived from the master seed through a spawn
tree, and each stream's first 64-bit word is recorded in outputs as its
fingerprint.
"""

from __future__ import annotations

import configparser
import hashlib
import math
from dataclasses import dataclass, field, fields, replace

import numpy as np

from .inference import ChainConfig
from .priors import LengthScalePriorSpec, MaxIntensityPriorSpec, SgcpPrior


class ConfigError(ValueError):
    """Bad configuration file, key, or value."""


_DEFAULTS = {
    "experiment": {
        "truth": "sin1d",
        "ns": "25, 50, 100, 200, 400",
        "replicates": "8",
        "resolution": "64",
        "seed": "20240601",
        "radius_constant": "2.0",
    },
    "chain": {
        "n_iter": "20000",
        "n_burn": "5000",
        "thin": "5",
    },
    "prior": {
        "ell_shape": "1.0",
        "ell_rate": "1.0",
        "lam_shape": "2.0",
        "lam_rate": "1.0",
    },
}


def rng_for(master_seed: int, *path: int) -> np.random.Generator:
    """Independent generator for one node of the seed tree."""
    return np.random.default_rng(np.random.SeedSequence(master_seed, spawn_key=tuple(path)))


def seed_fingerprint(master_seed: int, *path: int) -> int:
    """First 64-bit word of the stream at this tree node, for reproducibility logs."""
    ss = np.random.SeedSequence(master_seed, spawn_key=tuple(path))
    return int(ss.generate_state(1, np.uint64)[0])


def _parse_ns(text: str) -> tuple:
    return tuple(int(part) for part in text.split(","))


def _canonical(value) -> str:
    """One spelling per parsed value: ``repr`` for floats, ``", "`` between
    tuple items, ``str`` otherwise."""
    if isinstance(value, float):
        return repr(value)
    if isinstance(value, tuple):
        return ", ".join(map(str, value))
    return str(value)


# annotated field type -> (parser, what the error message says was expected)
_PARSERS = {
    "int": (int, "an integer"),
    "float": (float, "a number"),
    "str": (str, "a string"),
    "tuple": (_parse_ns, "comma-separated integers"),
}


def _from_section(cls, section: str, values: dict, **given):
    """Build ``cls`` from one INI section, parsing each value as the type of its field."""
    types = {f.name: f.type for f in fields(cls)}
    for key, text in values.items():
        parse, expected = _PARSERS[types[key]]
        try:
            given[key] = parse(text.strip())
        except ValueError:
            raise ConfigError(f"{section}.{key}: expected {expected}, got {text!r}") from None
    return cls(**given)


@dataclass(frozen=True)
class ExperimentConfig:
    """Design of one contraction run; ``chain`` runs at the design's resolution."""

    truth: str = "sin1d"
    ns: tuple = (25, 50, 100, 200, 400)
    replicates: int = 8
    resolution: int = 64
    seed: int = 20240601
    radius_constant: float = 2.0
    chain: ChainConfig = field(default_factory=ChainConfig)
    synthetic: bool = False

    def __post_init__(self):
        if len(self.ns) < 2 or any(n < 1 for n in self.ns):
            raise ValueError("need at least two positive design sizes")
        if list(self.ns) != sorted(set(self.ns)):
            raise ValueError("design sizes must be strictly increasing")
        if self.replicates < 1:
            raise ValueError("replicates must be positive")
        if self.seed < 0:
            raise ValueError("seed must be non-negative")
        if not 0.0 < self.radius_constant < math.inf:
            raise ValueError("radius constant must be a positive finite number")
        if self.chain.resolution != self.resolution:
            object.__setattr__(self, "chain", replace(self.chain, resolution=self.resolution))


@dataclass(frozen=True)
class HarnessConfig:
    """Parsed configuration: the experiment design plus the prior hyperparameters.

    The prior is kept as raw hyperparameters because its dimension comes from
    the data or the command, not from the file.
    """

    experiment: ExperimentConfig
    ell_shape: float
    ell_rate: float
    lam_shape: float
    lam_rate: float

    def prior(self, dim: int) -> SgcpPrior:
        try:
            return SgcpPrior(
                dim=dim,
                ell_prior=LengthScalePriorSpec(dim=dim, shape=self.ell_shape, rate=self.ell_rate),
                lam_prior=MaxIntensityPriorSpec(shape=self.lam_shape, rate=self.lam_rate),
            )
        except ValueError as e:
            raise ConfigError(str(e)) from None

    def fingerprint(self) -> str:
        """Stable 12-hex digest of the parsed values of every INI key.

        Each value is written in one canonical form, so spellings that parse
        to the same configuration (``2`` and ``2.0``, ``25,50`` and ``25, 50``)
        share a fingerprint.
        """
        owners = {"experiment": self.experiment, "chain": self.experiment.chain, "prior": self}
        pairs = sorted((f"{sec}.{key}", _canonical(getattr(owners[sec], key)))
                       for sec, keys in _DEFAULTS.items() for key in keys)
        text = "\n".join(f"{k}={v}" for k, v in pairs)
        return hashlib.sha256(text.encode("utf-8")).hexdigest()[:12]


def load_config(path: str | None = None, overrides: dict | None = None) -> HarnessConfig:
    """Merge defaults, an optional INI file, and ``section.key`` overrides."""
    merged = {sec: dict(vals) for sec, vals in _DEFAULTS.items()}

    if path is not None:
        # '#' after whitespace starts a comment, as in the README's example file
        parser = configparser.ConfigParser(inline_comment_prefixes=("#",))
        try:
            read = parser.read(path)
        except configparser.Error as e:
            raise ConfigError(f"cannot parse {path}: {e}") from None
        if not read:
            raise ConfigError(f"cannot read config file {path}")
        for section in parser.sections():
            if section not in merged:
                raise ConfigError(f"unknown config section [{section}]")
            for key, value in parser.items(section):
                if key not in merged[section]:
                    raise ConfigError(f"unknown config key {section}.{key}")
                merged[section][key] = value

    for dotted, value in (overrides or {}).items():
        section, _, key = dotted.partition(".")
        if section not in merged or key not in merged[section]:
            raise ConfigError(f"unknown config key {dotted}")
        merged[section][key] = str(value)

    try:
        chain = _from_section(ChainConfig, "chain", merged["chain"])
        experiment = _from_section(ExperimentConfig, "experiment", merged["experiment"],
                                   chain=chain)
    except ValueError as e:  # the dataclasses' own checks
        raise ConfigError(str(e)) from None
    cfg = _from_section(HarnessConfig, "prior", merged["prior"], experiment=experiment)
    cfg.prior(1)  # fail fast on hyperparameters the prior would reject
    return cfg
