"""Nonparametric Bayesian intensity learning for Poisson point processes.

The model is the sigmoidal-Gaussian Cox process on the unit cube: a latent
stationary Gaussian field, squashed through the logistic sigmoid and scaled by
a random ceiling, drives an inhomogeneous Poisson process. The package bundles
the generative pieces (grids, fields, thinning simulation), the hierarchical
prior with its analytic tail checks, a whitened MCMC sampler, intensity
distances, and an experiment harness that measures how fast the posterior
concentrates around a known truth as replicated patterns accumulate.
"""

from .config import (ConfigError, ExperimentConfig, HarnessConfig, load_config, rng_for,
                     seed_fingerprint)
from .experiment import (CellResult, ContractionReport, count_inversions, fit_rate_slope,
                         run_contraction_experiment, write_cells_csv, write_medians_csv)
from .inference import (ChainConfig, GewekeResult, ModelState, NumericalError,
                        PosteriorChain, effective_sample_size, geweke_joint_test,
                        initial_state, run_chain)
from .kernels import (FactorizationError, chol_with_jitter, cov_matrix,
                      exponential_moment_log_bound)
from .metrics import contraction, distances_to_truth
from .point_process import (BACKEND, DataError, Grid, IntensityField, PointPattern,
                            integrate_field, read_field_csv, read_pattern_csv,
                            simulate_thinning, simulate_thinning_batch, write_field_csv,
                            write_pattern_csv)
from .priors import (LOGISTIC_SQRT_LIPSCHITZ, LengthScalePriorSpec, LengthScaleTailBounds,
                     MaxIntensityPriorSpec, SgcpPrior, ValidationResult,
                     default_length_scale_bounds, estimate_sqrt_link_lipschitz,
                     sample_prior_batch, validate_length_scale_tail,
                     validate_max_intensity_tail)
from .truths import TRUTHS, TruthSpec, get_truth

__version__ = "0.1.0"
