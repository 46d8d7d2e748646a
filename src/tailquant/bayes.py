"""Conjugate normal-normal fusion of a prior quantile belief with a sample quantile.

The prior on the true quantile is N(mu, sigma^2); the sample quantile is
treated as a draw from N(true quantile, sigma_n^2) with the sample variance
plugged in as a known constant.  Normal prior and normal likelihood give a
normal posterior in closed form:

    mean     = (sigma_n^2 * mu + sigma^2 * xhat) / (sigma^2 + sigma_n^2)
    variance = sigma^2 * sigma_n^2 / (sigma^2 + sigma_n^2)

The mean is kept in this weighted-sum form so that the convex-combination
property is directly visible: the prior weight sigma_n^2/(sigma^2+sigma_n^2)
moves toward 1 when the data are noisy and toward 0 when they are precise.
A sample variance of exactly 0 (every observation the bootstrap weighs is
tied) is the sigma_n^2 -> 0 limit: prior weight 0, posterior mean equal to
the sample quantile, posterior variance 0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import NamedTuple

from .errors import DomainError
from .estimators import QuantileEstimate

__all__ = [
    "PriorBelief",
    "VarianceSource",
    "LikelihoodSpec",
    "PosteriorBelief",
    "MarginalMoments",
    "marginal_moments",
    "posterior",
    "fuse",
]


def _check_variance(name: str, value: float, *, allow_zero: bool = False) -> None:
    if not (
        isinstance(value, (int, float))
        and math.isfinite(value)
        and (value > 0.0 or (allow_zero and value == 0.0))
    ):
        bound = ">= 0" if allow_zero else "> 0"
        raise DomainError(f"{name} must be finite and {bound}, got {value!r}")


@dataclass(frozen=True)
class PriorBelief:
    """Normal prior N(mean, variance) on the true quantile."""

    mean: float
    variance: float

    def __post_init__(self):
        if not (isinstance(self.mean, (int, float)) and math.isfinite(self.mean)):
            raise DomainError(f"prior mean must be finite, got {self.mean!r}")
        _check_variance("prior variance", self.variance)


class VarianceSource(Enum):
    """Where the likelihood's sample-quantile variance came from."""

    KNOWN = "known"
    BOOTSTRAPPED = "bootstrapped"


@dataclass(frozen=True)
class LikelihoodSpec:
    """Normal likelihood for the sample quantile with plug-in variance.

    A variance of 0 is accepted: it is what the analytic bootstrap returns
    when every observation it weighs equals the sample quantile.
    """

    sample_variance: float
    source: VarianceSource

    def __post_init__(self):
        _check_variance("sample variance", self.sample_variance, allow_zero=True)


@dataclass(frozen=True)
class PosteriorBelief:
    """Normal posterior on the true quantile after fusing one sample quantile.

    ``prior_only`` marks the degenerate fallback where no sample quantile was
    available and the prior was passed through unchanged (the infinite
    sample-variance limit); all other invariants assume it is False.
    """

    mean: float
    variance: float
    prior_weight: float
    prior_only: bool = False

    def __post_init__(self):
        _check_variance("posterior variance", self.variance, allow_zero=True)
        if self.prior_only:
            if self.prior_weight != 1.0:
                raise DomainError("prior-only posterior must carry prior_weight = 1")
        elif not 0.0 <= self.prior_weight <= 1.0:
            # strictly inside (0, 1) in exact arithmetic; the endpoints are
            # reachable only by saturation when the two variances differ by
            # more than one part in 2^52
            raise DomainError(
                f"prior weight must lie in [0, 1], got {self.prior_weight!r}"
            )


class MarginalMoments(NamedTuple):
    mean: float
    variance: float
    covariance: float


def marginal_moments(prior: PriorBelief, likelihood: LikelihoodSpec) -> MarginalMoments:
    """Marginal moments of the sample quantile before observing it.

    By total expectation the marginal mean is the prior mean; by total
    variance the marginal variance is the sum of prior and sample variances;
    and the covariance between sample quantile and true quantile collapses to
    the prior variance regardless of the sample variance.
    """
    return MarginalMoments(
        mean=prior.mean,
        variance=prior.variance + likelihood.sample_variance,
        covariance=prior.variance,
    )


def posterior(
    prior: PriorBelief,
    estimate: QuantileEstimate | float,
    likelihood: LikelihoodSpec,
) -> PosteriorBelief:
    """Closed-form normal posterior given the observed sample quantile."""
    xhat = estimate.value if isinstance(estimate, QuantileEstimate) else float(estimate)
    if not math.isfinite(xhat):
        raise DomainError(f"sample quantile must be finite, got {xhat!r}")
    s2 = prior.variance
    sn2 = likelihood.sample_variance
    w = sn2 / (s2 + sn2)
    return PosteriorBelief(
        mean=w * prior.mean + (1.0 - w) * xhat,
        # s2 * sn2 / (s2 + sn2), grouped so that the product cannot overflow;
        # unlike 1/(1/s2 + 1/sn2) it is defined at sn2 = 0
        variance=s2 * w,
        prior_weight=w,
    )


def fuse(
    prior: PriorBelief,
    estimate: QuantileEstimate | float | None = None,
    likelihood: LikelihoodSpec | None = None,
) -> PosteriorBelief:
    """Posterior when a sample quantile is available, otherwise the prior.

    The fallback returns the prior unchanged, flagged ``prior_only`` — the
    sample-variance-to-infinity limit of the update.  It exists as a safety
    net for pipelines whose sample could not resolve the requested level.
    """
    if estimate is None or likelihood is None:
        return PosteriorBelief(
            mean=prior.mean, variance=prior.variance, prior_weight=1.0, prior_only=True
        )
    return posterior(prior, estimate, likelihood)
