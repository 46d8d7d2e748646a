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
import sys
from dataclasses import dataclass

from .errors import DomainError, checked, real

__all__ = ["PriorBelief", "PosteriorBelief", "posterior", "conjugate_update"]


def _check_variance(name: str, value: float, *, allow_zero: bool = False) -> float:
    if allow_zero:
        return checked(name, value, real, lambda v: 0.0 <= v < math.inf, "be finite and >= 0")
    return checked(name, value, real, lambda v: 0.0 < v < math.inf, "be finite and > 0")


@dataclass(frozen=True)
class PriorBelief:
    """Normal prior N(mean, variance) on the true quantile."""

    mean: float
    variance: float

    def __post_init__(self):
        mean = checked("prior mean", self.mean, real, math.isfinite, "be finite")
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
    estimate = checked("sample quantile", xhat, real, math.isfinite, "be finite")
    sample_variance = _check_variance("sample variance", sample_variance, allow_zero=True)
    mean, variance, weight = conjugate_update(prior.mean, prior.variance, estimate, sample_variance)
    return PosteriorBelief(mean=mean, variance=variance, prior_weight=weight)


def conjugate_update(mu, s2, xhat, sn2):
    """(posterior mean, variance, prior weight) of trusted floats or float64 arrays, elementwise.

    IEEE basic operations only, so an array element has the bits of the call on floats.
    """
    # both halved where s2 + sn2 overflows, which is where the exact halves
    # sum past half the float maximum; a finite sum keeps its bits (scale 1)
    scale = 1.0 - 0.5 * (0.5 * s2 + 0.5 * sn2 > 0.5 * sys.float_info.max)
    w = (scale * sn2) / (scale * s2 + scale * sn2)
    # s2 * sn2 / (s2 + sn2) as s2 * w, so that the product cannot overflow;
    # unlike 1/(1/s2 + 1/sn2) it is defined at sn2 = 0.  Where w underflows
    # below the normal range it is taken as sn2 * (1 - w), the same quantity;
    # both products are finite, so the 0/1 factors select either exactly
    tiny = w < sys.float_info.min
    return w * mu + (1.0 - w) * xhat, (1.0 - tiny) * (s2 * w) + tiny * (sn2 * (1.0 - w)), w
