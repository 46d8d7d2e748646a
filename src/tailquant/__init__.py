"""Non-parametric tail quantile estimation with conjugate normal priors.

The package estimates extreme (low-p) quantiles from order statistics,
quantifies the estimate's variance in closed form via an analytic bootstrap,
and fuses the estimate with a normal prior belief through conjugate
normal-normal updating.  A seeded Monte Carlo harness compares the sample
and Bayesian estimators over a configurable grid and emits RMSE tables.

Only the names the README documents are re-exported here; the rest stay
importable from their submodules.
"""

from .bayes import PosteriorBelief, PriorBelief, posterior
from .bootstrap import BootstrapWeights, bootstrap_variance, bootstrap_weights
from .distributions import LogExponential, RngStream, rate_for_quantile
from .errors import (
    ConfigError,
    DomainError,
    EmptyInput,
    InsufficientSamples,
    TailquantError,
)
from .estimators import quantile_rank, sample_quantile
from .experiment import ExperimentConfig, Method, RmseTable, run_experiment

__version__ = "0.1.0"

__all__ = [
    "BootstrapWeights",
    "ConfigError",
    "DomainError",
    "EmptyInput",
    "ExperimentConfig",
    "InsufficientSamples",
    "LogExponential",
    "Method",
    "PosteriorBelief",
    "PriorBelief",
    "RmseTable",
    "RngStream",
    "TailquantError",
    "bootstrap_variance",
    "bootstrap_weights",
    "posterior",
    "quantile_rank",
    "rate_for_quantile",
    "run_experiment",
    "sample_quantile",
    "__version__",
]
