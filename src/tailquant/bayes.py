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

from .errors import DomainError, real

__all__ = ["PriorBelief", "PosteriorBelief", "posterior"]


def _check_variance(name: str, value: float, *, allow_zero: bool = False) -> float:
    variance = real(value)
    if not (math.isfinite(variance) and (variance > 0.0 or (allow_zero and variance == 0.0))):
        bound = ">= 0" if allow_zero else "> 0"
        raise DomainError(f"{name} must be finite and {bound}, got {value!r}")
    return variance


@dataclass(frozen=True)
class PriorBelief:
    """Normal prior N(mean, variance) on the true quantile."""

    mean: float
    variance: float

    def __post_init__(self):
        mean = real(self.mean)
        if not math.isfinite(mean):
            raise DomainError(f"prior mean must be finite, got {self.mean!r}")
        object.__setattr__(self, "mean", mean)
        object.__setattr__(self, "variance", _check_variance("prior variance", self.variance))


@dataclass(frozen=True)
class PosteriorBelief:
    """Normal posterior on the true quantile after fusing one sample quantile."""

    mean: float
    variance: float
    prior_weight: float

    def __post_init__(self):
        _check_variance("posterior variance", self.variance, allow_zero=True)
        if not 0.0 <= self.prior_weight <= 1.0:
            # strictly inside (0, 1) in exact arithmetic; the endpoints are
            # reachable only by saturation when the two variances differ by
            # more than one part in 2^52
            raise DomainError(
                f"prior weight must lie in [0, 1], got {self.prior_weight!r}"
            )


def posterior(prior: PriorBelief, xhat: float, sample_variance: float) -> PosteriorBelief:
    """Closed-form normal posterior given the sample quantile and its variance.

    ``sample_variance`` is sigma_n^2, finite and >= 0: the true-density
    variance or the analytic bootstrap estimate.
    """
    xhat = float(xhat)
    if not math.isfinite(xhat):
        raise DomainError(f"sample quantile must be finite, got {xhat!r}")
    sample_variance = _check_variance("sample variance", sample_variance, allow_zero=True)
    s2 = prior.variance
    w = sample_variance / (s2 + sample_variance)
    return PosteriorBelief(
        mean=w * prior.mean + (1.0 - w) * xhat,
        # s2 * sn2 / (s2 + sn2), grouped so that the product cannot overflow;
        # unlike 1/(1/s2 + 1/sn2) it is defined at sn2 = 0
        variance=s2 * w,
        prior_weight=w,
    )
