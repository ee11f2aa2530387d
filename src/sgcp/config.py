"""Harness configuration: the config types, INI files, flag overrides, and seeds.

Configuration lives in an INI file with three sections (``experiment``,
``chain``, ``prior``); a key the file leaves out takes the default of the
dataclass field it fills, so an empty or absent file is valid. Command-line
flags are merged as ``section.key`` overrides before parsing, keeping one
validation path. ``load_config`` parses each value as the type of the field it
fills: ``[chain]`` becomes a ``ChainConfig``, ``[experiment]`` the
``ExperimentConfig`` that holds it, and ``[prior]`` the hyperparameters of
``HarnessConfig``, whose defaults are those of ``LengthScalePriorSpec`` and
``MaxIntensityPriorSpec``. The dataclasses check their own values, so an
out-of-range setting is refused at load time by every command. The default
master seed is a fixed constant — never the clock — so every run is
reproducible unless the caller asks otherwise.

Independent random streams are derived from the master seed through a spawn
tree, and each stream's first 64-bit word is recorded in outputs as its
fingerprint.
"""

from __future__ import annotations

import configparser
import hashlib
import math
from contextlib import contextmanager
from dataclasses import dataclass, field, fields

import numpy as np

from ._pool import MAX_CELLS
from .inference import ChainConfig
from .priors import LengthScalePriorSpec, MaxIntensityPriorSpec, SgcpPrior
from .truths import TRUTHS


class ConfigError(ValueError):
    """Bad configuration file, key, or value."""


# [prior] key -> the prior spec field whose default it takes
_PRIOR_FIELDS = {
    "ell_shape": (LengthScalePriorSpec, "shape"),
    "ell_rate": (LengthScalePriorSpec, "rate"),
    "lam_shape": (MaxIntensityPriorSpec, "shape"),
    "lam_rate": (MaxIntensityPriorSpec, "rate"),
}

# the keys of each INI section
_KEYS = {
    "experiment": ("truth", "ns", "replicates", "resolution", "seed", "radius_constant"),
    "chain": ("n_iter", "n_burn", "thin"),
    "prior": tuple(_PRIOR_FIELDS),
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


@contextmanager
def naming(section: str, **values):
    """Re-raise a ``ValueError`` or ``MemoryError`` of the block as a
    ``ConfigError`` that ends by naming the INI keys set to ``values``."""
    try:
        yield
    except (ValueError, MemoryError) as e:
        keys = ", ".join(f"[{section}] {key} = {_canonical(v)}" for key, v in values.items())
        raise ConfigError(f"{str(e) or type(e).__name__} (set by {keys})") from None


@dataclass(frozen=True)
class ExperimentConfig:
    """Design of one contraction run. Each cell's ``chain`` runs on the
    truth's grid, ``resolution`` nodes per axis."""

    truth: str = "sin1d"
    ns: tuple = (25, 50, 100, 200, 400)
    replicates: int = 8
    resolution: int = 64
    seed: int = 20240601
    radius_constant: float = 2.0
    chain: ChainConfig = field(default_factory=ChainConfig)

    def __post_init__(self):
        if self.truth not in TRUTHS:
            raise ValueError(f"[experiment] truth must be one of {', '.join(sorted(TRUTHS))}, "
                             f"got {self.truth!r}")
        if len(self.ns) < 2 or any(n < 1 for n in self.ns):
            raise ValueError("[experiment] ns needs at least two positive design sizes")
        if list(self.ns) != sorted(set(self.ns)):
            raise ValueError("[experiment] ns: design sizes must be strictly increasing")
        if self.replicates < 1:
            raise ValueError("[experiment] replicates must be positive")
        if len(self.ns) * self.replicates > MAX_CELLS:
            raise ValueError(f"the design has {len(self.ns) * self.replicates} cells ([experiment] "
                             f"ns x [experiment] replicates); at most {MAX_CELLS} can run")
        if self.seed < 0:
            raise ValueError("[experiment] seed must be non-negative")
        if not 0.0 < self.radius_constant < math.inf:
            raise ValueError("[experiment] radius_constant must be a positive finite number")
        if self.resolution < 2:
            raise ValueError("[experiment] resolution must be >= 2")


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

    def prior(self, dim: int, *checks) -> SgcpPrior:
        """The prior on ``dim`` axes. A refusal of a spec, by the spec or by one
        of ``checks`` (each called on both), names the spec's ``[prior]`` keys."""
        if dim < 1:
            raise ConfigError("dim must be positive")
        with naming("prior", ell_shape=self.ell_shape, ell_rate=self.ell_rate):
            ell = LengthScalePriorSpec(dim=dim, shape=self.ell_shape, rate=self.ell_rate)
            for check in checks:
                check(ell)
        with naming("prior", lam_shape=self.lam_shape, lam_rate=self.lam_rate):
            lam = MaxIntensityPriorSpec(shape=self.lam_shape, rate=self.lam_rate)
            for check in checks:
                check(lam)
        return SgcpPrior(dim=dim, ell_prior=ell, lam_prior=lam)

    def fingerprint(self) -> str:
        """Stable 12-hex digest of the parsed values of every INI key.

        Each value is written in one canonical form, so spellings that parse
        to the same configuration (``2`` and ``2.0``, ``25,50`` and ``25, 50``)
        share a fingerprint.
        """
        owners = {"experiment": self.experiment, "chain": self.experiment.chain, "prior": self}
        pairs = sorted((f"{sec}.{key}", _canonical(getattr(owners[sec], key)))
                       for sec, keys in _KEYS.items() for key in keys)
        text = "\n".join(f"{k}={v}" for k, v in pairs)
        return hashlib.sha256(text.encode("utf-8")).hexdigest()[:12]


def load_config(path: str | None = None, overrides: dict | None = None) -> HarnessConfig:
    """Merge an optional INI file and ``section.key`` overrides over the
    dataclass defaults."""
    merged = {sec: {} for sec in _KEYS}

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
                if key not in _KEYS[section]:
                    raise ConfigError(f"unknown config key {section}.{key}")
                merged[section][key] = value

    for dotted, value in (overrides or {}).items():
        section, _, key = dotted.partition(".")
        if key not in _KEYS.get(section, ()):
            raise ConfigError(f"unknown config key {dotted}")
        merged[section][key] = str(value)

    try:
        chain = _from_section(ChainConfig, "chain", merged["chain"])
        experiment = _from_section(ExperimentConfig, "experiment", merged["experiment"],
                                   chain=chain)
    except ValueError as e:  # the dataclasses' own checks
        raise ConfigError(str(e)) from None
    prior_defaults = {key: getattr(cls, name) for key, (cls, name) in _PRIOR_FIELDS.items()}
    cfg = _from_section(HarnessConfig, "prior", merged["prior"], experiment=experiment,
                        **prior_defaults)
    cfg.prior(1)  # fail fast on hyperparameters the prior would reject
    return cfg
