"""Nonparametric Bayesian intensity learning for Poisson point processes.

The model is the sigmoidal-Gaussian Cox process on the unit cube: a latent
stationary Gaussian field, squashed through a sigmoidal link and scaled by a
random ceiling, drives an inhomogeneous Poisson process. The package bundles
the generative pieces (grids, fields, thinning simulation), the hierarchical
prior with its analytic tail checks, a whitened MCMC sampler, intensity
distances, and an experiment harness that measures how fast the posterior
concentrates around a known truth as replicated patterns accumulate.
"""

from ._accel import BACKEND
from .config import (ConfigError, ExperimentConfig, HarnessConfig, load_config, rng_for,
                     seed_fingerprint)
from .experiment import (CellResult, ContractionReport, count_inversions, fit_rate_slope,
                         report_to_dict, run_contraction_experiment, write_cells_csv,
                         write_medians_csv, write_report_json)
from .inference import (ChainConfig, GewekeResult, ModelState, NumericalError,
                        PosteriorChain, effective_sample_size, geweke_joint_test,
                        initial_state, run_chain)
from .kernels import (FactorizationError, GPSample, KernelSpec, MomentCheck,
                      QuadratureError, SPECTRAL, SQUARED_EXPONENTIAL, SpectralDensity,
                      check_exponential_moment, chol_with_jitter, cov_matrix,
                      kernel_eval, sample_gp, spectral_characteristic,
                      spectral_covariance_quadrature)
from .metrics import credible_radius, distances_to_truth, hellinger_surrogate, sqrt_l2_distance
from .point_process import (DataError, Grid, IntensityField, PointPattern,
                            integrate_field, log_likelihood, read_field_csv,
                            read_pattern_csv, simulate_thinning, write_field_csv,
                            write_pattern_csv)
from .priors import (LOGISTIC, PROBIT, LengthScalePriorSpec, LengthScaleTailBounds,
                     LinkFunction, MaxIntensityPriorSpec, SgcpPrior, SmallBallEstimate,
                     ValidationResult, default_length_scale_bounds,
                     estimate_sqrt_link_lipschitz, get_link,
                     prior_small_ball_probability, sample_prior_intensity,
                     validate_length_scale_tail, validate_max_intensity_tail,
                     w0_from_truth)
from .truths import TRUTHS, TruthSpec, get_truth

__version__ = "0.1.0"
